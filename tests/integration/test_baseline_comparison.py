"""Integration comparisons: PEAS vs the baseline protocols.

These encode the qualitative claims the paper's motivation rests on:
lifetime extension over AlwaysOn, and shorter failure gaps than predicted-
lifetime schemes (Figures 4/5).
"""

import pytest

from repro.experiments import Scenario
from repro.harness import run

SCENARIO = Scenario(
    num_nodes=150,
    field_size=(25.0, 25.0),
    seed=9,
    with_traffic=False,
    failure_per_5000s=5.0,
    measure_gaps=True,
)


@pytest.fixture(scope="module")
def peas_result():
    return run(SCENARIO)


@pytest.fixture(scope="module")
def always_on_result():
    return run(SCENARIO.with_(protocol="always_on"))


@pytest.fixture(scope="module")
def gaf_result():
    return run(SCENARIO.with_(protocol="gaf"))


class TestLifetimeExtension:
    def test_peas_outlives_always_on(self, peas_result, always_on_result):
        """The headline claim: lifetime grows with deployment redundancy
        instead of being pinned to one battery."""
        assert (
            peas_result.coverage_lifetimes[3]
            > 1.5 * always_on_result.coverage_lifetimes[3]
        )

    def test_always_on_pinned_to_battery_life(self, always_on_result):
        assert always_on_result.coverage_lifetimes[3] < 5200.0

    def test_peas_total_energy_not_higher(self, peas_result, always_on_result):
        """PEAS spends the same deployed energy or less, spread over more
        time (sleepers idle at 0.03 mW)."""
        assert peas_result.energy_total_j <= always_on_result.energy_total_j * 1.05


class TestFailureGaps:
    def test_peas_gaps_shorter_than_gaf(self, peas_result, gaf_result):
        """Figure 4: predicted-lifetime wakeups leave huge dark intervals
        after unexpected failures; PEAS's randomized probing refills holes
        at rate ~lambda_d."""
        if gaf_result.extras["gap_count"] == 0:
            pytest.skip("no closed GAF gaps in this seed")
        assert (
            peas_result.extras["gap_p95_s"] < gaf_result.extras["gap_p95_s"]
        )


class TestFailureRobustness:
    def test_lifetime_degrades_gracefully_with_failures(self):
        """§5.3: even heavy failure injection costs only a modest share of
        the lifetime (paper: 12-20% at 38% failed nodes)."""
        calm = run(SCENARIO.with_(failure_per_5000s=0.0, measure_gaps=False))
        harsh = run(
            SCENARIO.with_(failure_per_5000s=30.0, measure_gaps=False)
        )
        assert harsh.coverage_lifetimes[3] is not None
        ratio = harsh.coverage_lifetimes[3] / calm.coverage_lifetimes[3]
        assert ratio > 0.5

    def test_failure_fraction_scales_with_rate(self):
        low = run(SCENARIO.with_(failure_per_5000s=5.0, measure_gaps=False))
        high = run(SCENARIO.with_(failure_per_5000s=25.0, measure_gaps=False))
        assert high.failures_injected > low.failures_injected
