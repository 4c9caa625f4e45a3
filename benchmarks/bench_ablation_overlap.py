"""§4 overlap-resolution ablation.

Paper: "To further correct such errors once they happen, we can make
unnecessary working nodes go back to sleep ... we favor the one that has
been working for a longer time to stabilize the topology."

With the correction off, redundant workers accumulated through REPLY losses
keep draining energy; with it on, they are pruned.  The bench compares the
time-averaged working-set size and the resulting coverage lifetime.
"""

from repro.core import PEASConfig
from repro.experiments import Scenario, format_table
from repro.harness import run

BASE = Scenario(
    num_nodes=220,
    field_size=(30.0, 30.0),
    seed=41,
    with_traffic=False,
    failure_per_5000s=5.0,
    loss_rate=0.05,  # some loss so redundant workers actually appear
    max_time_s=20000.0,
    keep_series=True,
)


def _mean_working(result):
    samples = result.series.get("working_count", [])
    values = [v for _, v in samples if v > 0]
    return sum(values) / len(values) if values else 0.0


def test_overlap_resolution_ablation(benchmark):
    def simulate():
        on = run(BASE.with_(config=PEASConfig(overlap_resolution=True)))
        off = run(BASE.with_(config=PEASConfig(overlap_resolution=False)))
        return on, off

    on, off = benchmark.pedantic(simulate, rounds=1, iterations=1)
    print()
    print(format_table(
        ["overlap resolution", "mean working nodes", "turnoffs",
         "3-cov lifetime (s)"],
        [
            ["on", f"{_mean_working(on):.1f}",
             on.counters.get("overlap_turnoffs", 0), on.coverage_lifetimes.get(3)],
            ["off", f"{_mean_working(off):.1f}",
             off.counters.get("overlap_turnoffs", 0), off.coverage_lifetimes.get(3)],
        ],
        title="§4 ablation: working-overlap resolution "
              "(pruning redundant workers preserves energy)",
    ))

    assert on.counters.get("overlap_turnoffs", 0) > 0
    assert off.counters.get("overlap_turnoffs", 0) == 0
    # Pruning keeps the working set no larger than the unpruned one.
    assert _mean_working(on) <= _mean_working(off) * 1.05
