"""Self-test of the benchmark's layer wrappers, on tiny scenarios.

Run from the repository root: ``python3 -m pytest perfbench/test_spans.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run as bench_cli  # noqa: E402  (perfbench/run.py)
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import Scenario, WarmStart, run_sweep  # noqa: E402
from repro.harness import RunOptions, run  # noqa: E402

TINY = Scenario(num_nodes=60, seed=3, max_time_s=1500.0)


def _traced(fn):
    rec = spans.SpanRecorder()
    with spans.install(rec) as patches:
        saved = list(patches.saved)
        for owner, name, original in saved:
            assert vars(owner).get(name) is not original, f"{owner}.{name} not wrapped"
        with rec.span(spans.ROOT):
            value = fn()
    return rec, saved, value


def test_wrappers_keep_the_digest_and_are_removed():
    plain = workloads.digest(run(TINY))
    rec, saved, result = _traced(lambda: run(TINY))
    assert workloads.digest(result) == plain
    assert saved
    for owner, name, original in saved:
        assert vars(owner).get(name, spans._MISSING) is original, f"{owner}.{name}"


def test_layer_self_times_add_up_to_the_traced_wall():
    rec, _, result = _traced(lambda: run(TINY))
    selfs = spans.layer_self_times(rec.table())
    assert sum(selfs.values()) == pytest.approx(rec.duration(spans.ROOT), rel=1e-9)
    for layer in ("sim", "net", "core", "energy", "coverage", "routing", "harness"):
        assert selfs[layer] > 0.0, layer
    table = rec.table()
    assert table["net.transmit"][0] == result.channel_counters["frames_sent"]
    events = sum(row[0] for name, row in table.items() if ".event." in name)
    assert events == result.manifest["events_executed"]


def test_forked_workers_write_their_spans(tmp_path):
    scenarios = [TINY.with_(failure_per_5000s=rate) for rate in (5.33, 48.0)]

    def sweep(store):
        return run_sweep(
            scenarios,
            processes=2,
            options=RunOptions(store_dir=str(tmp_path / store)),
            warm_start=WarmStart(burn_in_s=300.0),
        )

    plain = [workloads.digest(r) for r in sweep("plain")]
    rec = spans.SpanRecorder(tmp_path / "spans")
    with spans.install(rec), rec.span(spans.ROOT):
        results = sweep("traced")
    assert [workloads.digest(r) for r in results] == plain
    worker_files = sorted((tmp_path / "spans").glob("spans-*.npz"))
    assert worker_files
    table = spans.merge([spans.load_spans(path)[0] for path in worker_files])
    assert table["harness.resume"][0] == len(scenarios)
    assert table["store.put"][0] == len(scenarios)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_cli.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_cli.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
