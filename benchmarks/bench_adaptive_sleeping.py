"""Adaptive Sleeping benches: §2.2.1 estimator accuracy and feedback-mode
ablation.

The estimator table quantifies §2.2.1's accuracy claim ("k >= 16 gives 1%
error with 99% confidence" — off by orders of magnitude; see EXPERIMENTS.md)
and the merged-Poisson property (eq. 3).  The mode ablation shows why our
default stabilizes the paper's literal feedback rule: the windowed/uncapped
variant collapses the probing-rate population and replacement dies.
"""

import random

from repro.analysis import (
    k_for_error,
    merged_interval_samples,
    relative_error_quantile,
    simulate_estimator_errors,
)
from repro.core import PEASConfig
from repro.experiments import Scenario, format_table
from repro.harness import run

ABLATION_SCENARIO = Scenario(
    num_nodes=200,
    field_size=(30.0, 30.0),
    seed=21,
    with_traffic=False,
    failure_per_5000s=5.0,
    max_time_s=15000.0,
)


def test_estimator_accuracy_table(benchmark):
    def simulate():
        rng = random.Random(0)
        rows = []
        for k in (4, 8, 16, 32, 64, 128):
            errors = simulate_estimator_errors(k, rate=0.02, trials=3000, rng=rng)
            rms = (sum(e * e for e in errors) / len(errors)) ** 0.5
            within = sum(1 for e in errors if abs(e) <= 0.01) / len(errors)
            rows.append([k, rms * 100, within * 100,
                         relative_error_quantile(k, 0.99) * 100])
        return rows

    rows = benchmark.pedantic(simulate, rounds=1, iterations=1)
    print()
    print(format_table(
        ["k", "RMS err (%)", "P(|err|<=1%) (%)", "CLT 99% bound (%)"],
        [[k, f"{rms:.1f}", f"{within:.1f}", f"{clt:.1f}"]
         for k, rms, within, clt in rows],
        title="§2.2.1 k-interval estimator accuracy "
              "(paper claims 1% @ 99% conf for k>=16; CLT needs k ~ "
              f"{k_for_error(0.01, 0.99)})",
    ))
    # Error shrinks as 1/sqrt(k)...
    rms_values = [rms for _, rms, _, _ in rows]
    assert all(b < a for a, b in zip(rms_values, rms_values[1:]))
    # ...but at k = 16 it is ~25%, nowhere near 1%.
    by_k = {k: rms for k, rms, _, _ in rows}
    assert 15.0 < by_k[16] < 40.0


def test_merged_poisson_property(benchmark):
    def simulate():
        rng = random.Random(1)
        return merged_interval_samples(
            [0.004] * 5, samples=20000, rng=rng
        )

    total, intervals = benchmark.pedantic(simulate, rounds=1, iterations=1)
    mean = sum(intervals) / len(intervals)
    print(f"\nEq. 3 check: 5 sleepers at 0.004/s merge to {total:.3f}/s; "
          f"measured mean interval {mean:.1f}s (expected {1/total:.1f}s)")
    assert abs(mean - 1 / total) / (1 / total) < 0.05


def test_feedback_mode_ablation(benchmark):
    """Running (default) vs the paper's literal windowed/uncapped feedback."""

    def simulate():
        results = {}
        results["running+cap"] = run(ABLATION_SCENARIO)
        results["windowed+uncapped"] = run(
            ABLATION_SCENARIO.with_(
                config=PEASConfig(
                    measurement_mode="windowed", max_adjust_factor=None
                )
            )
        )
        results["running+uncapped"] = run(
            ABLATION_SCENARIO.with_(config=PEASConfig(max_adjust_factor=None))
        )
        return results

    results = benchmark.pedantic(simulate, rounds=1, iterations=1)
    print()
    print(format_table(
        ["feedback mode", "total wakeups", "3-cov lifetime (s)", "end (s)"],
        [[name, r.total_wakeups, r.coverage_lifetimes.get(3), r.end_time]
         for name, r in results.items()],
        title="Adaptive Sleeping feedback ablation "
              "(literal §2.2 windowed feedback collapses the rate population)",
    ))
    # The stabilized default sustains far more probing than the literal rule.
    assert (
        results["running+cap"].total_wakeups
        > 2 * results["windowed+uncapped"].total_wakeups
    )
