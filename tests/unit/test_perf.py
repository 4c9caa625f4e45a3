"""The bench report's measurement layer (``repro.perf``) at toy scale.

``benchmarks/bench_report.py`` drives these functions; the checks here keep
the in-process runs, the subprocess tree measurement behind ``--against``
and the skipped-kernel record working without running the real bench.
"""

from pathlib import Path

import repro
from repro.perf.report import measure_tree, run_macro, run_scaling
from repro.perf.workloads import KERNEL_WORKLOADS

SRC = Path(repro.__file__).resolve().parents[1]


def test_macro_and_scaling_complete():
    macro = run_macro(num_nodes=20, seeds=(0,))
    assert macro["total_wakeups"][0] > 0
    scaling = run_scaling(node_counts=(40,), max_time_s=300.0)
    assert [(p["protocol"], p["num_nodes"]) for p in scaling["points"]] == [
        ("peas", 40),
        ("duty_cycle", 40),
    ]


def test_measured_tree_matches_in_process_macro():
    measured = measure_tree(SRC, rounds=1, macro_num_nodes=20)
    assert measured["skipped"] == {}
    assert set(measured["micro"]) == set(KERNEL_WORKLOADS)
    in_process = run_macro(num_nodes=20, seeds=(0,))
    assert measured["macro"]["total_wakeups"] == in_process["total_wakeups"]


def test_kernels_failing_on_measured_tree_are_reported(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "__init__.py").write_text("")
    measured = measure_tree(tmp_path, rounds=1, skip_macro=True)
    assert measured["micro"] == {}
    assert set(measured["skipped"]) == set(KERNEL_WORKLOADS)
    assert all("repro." in reason for reason in measured["skipped"].values())
