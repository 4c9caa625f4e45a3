"""Integration tests for the §4 practical extensions under realistic runs."""

import pytest

from repro.core import PEASConfig
from repro.experiments import Scenario
from repro.harness import run

BASE = Scenario(
    num_nodes=120,
    field_size=(25.0, 25.0),
    seed=13,
    with_traffic=False,
    failure_per_5000s=0.0,
    max_time_s=4000.0,
)


class TestLossCompensation:
    """§4: three PROBEs work well against loss rates of up to 10%."""

    def test_multi_probe_limits_redundant_workers_under_loss(self):
        single = run(
            BASE.with_(loss_rate=0.10, config=PEASConfig(num_probes=1))
        )
        triple = run(
            BASE.with_(loss_rate=0.10, config=PEASConfig(num_probes=3))
        )
        # Redundant workers show up as extra work starts + overlap turnoffs.
        assert (
            triple.counters.get("overlap_turnoffs", 0)
            <= single.counters.get("overlap_turnoffs", 0)
        )

    def test_overhead_still_small_with_loss(self):
        result = run(BASE.with_(loss_rate=0.10))
        assert result.energy_overhead_ratio < 0.01  # §4: "still smaller than 1%"


class TestFixedPower:
    """§4: fixed transmission power + signal-strength threshold filtering."""

    def test_fixed_power_network_functions(self):
        result = run(BASE.with_(config=PEASConfig(fixed_power=True)))
        assert result.counters.get("work_starts", 0) > 0
        assert result.counters.get("sleeps_after_reply", 0) > 0

    def test_fixed_power_equivalent_probing_activity(self):
        """Threshold filtering at S_th(R_p) should sustain a comparable
        control plane.  Fixed power tends to *reduce* redundant work starts
        (carrier sense covers the full R_t, suppressing hidden-terminal
        REPLY collisions), so the bound is one-sided on churn and two-sided
        on wakeups."""
        variable = run(BASE)
        fixed = run(BASE.with_(config=PEASConfig(fixed_power=True)))
        assert fixed.counters.get("work_starts") <= 1.5 * variable.counters.get(
            "work_starts"
        )
        assert (
            0.5 * variable.total_wakeups
            < fixed.total_wakeups
            < 2.0 * variable.total_wakeups
        )

    def test_irregular_attenuation_tolerated(self):
        """§4: signal irregularities may densify some areas but the network
        keeps functioning."""
        result = run(
            BASE.with_(
                config=PEASConfig(fixed_power=True), rssi_irregularity=0.2
            )
        )
        assert result.counters.get("work_starts", 0) > 0


class TestAdaptiveSleepingModes:
    def test_windowed_mode_underperforms_running(self):
        """The paper's literal windowed feedback starves/overshoots (see
        RateEstimator docstring); the running mode sustains far more
        probing activity over the same horizon."""
        long_base = BASE.with_(max_time_s=12000.0, num_nodes=160)
        running = run(
            long_base.with_(config=PEASConfig(measurement_mode="running"))
        )
        windowed = run(
            long_base.with_(
                config=PEASConfig(
                    measurement_mode="windowed", max_adjust_factor=None
                )
            )
        )
        assert running.total_wakeups > windowed.total_wakeups

    def test_uncapped_updates_crush_rates(self):
        """Without the step cap, boot-storm feedback drives rates to the
        floor (the instability our DESIGN.md documents)."""
        capped = run(BASE)
        uncapped = run(
            BASE.with_(config=PEASConfig(max_adjust_factor=None))
        )
        assert uncapped.total_wakeups <= capped.total_wakeups


class TestDeploymentDistributions:
    """§4 'Distribution of deployed nodes': uneven deployments die sooner."""

    def test_clustered_deployment_shorter_coverage_life(self):
        even = run(
            BASE.with_(num_nodes=200, max_time_s=30000.0, deployment="uniform")
        )
        uneven = run(
            BASE.with_(num_nodes=200, max_time_s=30000.0, deployment="clustered")
        )
        even_life = even.coverage_lifetimes[3]
        uneven_life = uneven.coverage_lifetimes[3]
        if uneven_life is None:
            return  # clustered deployment never reached 90%: consistent
        assert uneven_life <= even_life
