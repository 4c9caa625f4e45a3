"""Integration tests: full scenarios exercising every subsystem together.

These use reduced populations/fields so the whole file stays fast, but each
run goes through deployment, the packet-level control plane, adaptive
sleeping, energy depletion, failure injection, coverage tracking and GRAB
delivery end to end.
"""

import pytest

from repro.core import NodeMode
from repro.experiments import Scenario
from repro.harness import run

# A small but complete scenario: 25x25 m field, everything enabled.
SMALL = Scenario(
    num_nodes=80,
    field_size=(25.0, 25.0),
    seed=11,
    failure_per_5000s=5.0,
    measure_gaps=True,
    keep_series=True,
)


@pytest.fixture(scope="module")
def small_result():
    return run(SMALL)


class TestEndToEnd:
    def test_network_lives_beyond_one_battery(self, small_result):
        """The core claim: turning off redundant nodes extends lifetime
        beyond the ~5000 s a single battery allows."""
        assert small_result.coverage_lifetimes[3] > 5200.0

    def test_lifetime_ordering_by_k(self, small_result):
        """K-coverage lifetimes must be nonincreasing in K (§5.2)."""
        lifetimes = small_result.coverage_lifetimes
        assert lifetimes[3] >= lifetimes[4] >= lifetimes[5]

    def test_delivery_lifetime_reported(self, small_result):
        assert small_result.delivery_lifetime is not None
        assert small_result.delivery_lifetime > 5000.0

    def test_energy_conservation(self, small_result):
        """Consumed energy never exceeds deployed energy (80 x 60 J max)."""
        assert small_result.energy_total_j <= 80 * 60.0

    def test_energy_overhead_under_one_percent(self, small_result):
        """§1 headline: PEAS overhead < 1% of total consumption."""
        assert small_result.energy_overhead_ratio < 0.01

    def test_failures_were_injected(self, small_result):
        assert small_result.failures_injected > 0

    def test_wakeups_recorded(self, small_result):
        assert small_result.total_wakeups > 0

    def test_series_kept(self, small_result):
        assert "coverage_3" in small_result.series
        assert "success_ratio" in small_result.series

    def test_gap_stats_present(self, small_result):
        assert small_result.extras["gap_count"] >= 0

    def test_coverage_reaches_threshold_during_boot(self, small_result):
        """Boot-up (§2.1) must reach full coverage within a few mean sleeps."""
        samples = small_result.series["coverage_3"]
        achieved = [t for t, v in samples if v >= 0.9]
        assert achieved and achieved[0] < 300.0


class TestDeterminism:
    def test_same_seed_same_result(self):
        scenario = Scenario(num_nodes=40, field_size=(20.0, 20.0), seed=5,
                            max_time_s=3000.0)
        first = run(scenario)
        second = run(scenario)
        assert first.coverage_lifetimes == second.coverage_lifetimes
        assert first.total_wakeups == second.total_wakeups
        assert first.energy_total_j == pytest.approx(second.energy_total_j)
        assert first.failures_injected == second.failures_injected

    def test_different_seeds_differ(self):
        base = Scenario(num_nodes=40, field_size=(20.0, 20.0), max_time_s=3000.0)
        first = run(base.with_(seed=1))
        second = run(base.with_(seed=2))
        assert first.total_wakeups != second.total_wakeups


class TestWorkingSetInvariants:
    def test_working_separation_mostly_respected(self):
        """Concurrent working nodes should mostly be >= R_p apart; brief
        violations can exist between a redundant start and its §4 overlap
        turnoff, but the steady state keeps them rare."""
        from repro.protocols import build_network
        from repro.net import distance
        from repro.sim import RngRegistry, Simulator

        scenario = Scenario(num_nodes=120, field_size=(30.0, 30.0), seed=2,
                            with_traffic=False)
        sim = Simulator()
        network = build_network(scenario, sim, RngRegistry(seed=2))
        network.start()
        violations = 0
        checks = 0
        for t in range(500, 4001, 500):
            sim.run(until=float(t))
            working = [network.node(i).position for i in network.working_ids()]
            for i in range(len(working)):
                for j in range(i + 1, len(working)):
                    checks += 1
                    if distance(working[i], working[j]) < 3.0:
                        violations += 1
        assert checks > 0
        assert violations / checks < 0.02

    def test_sleepers_exist_in_dense_network(self):
        """PEAS's whole point: dense deployments leave most nodes asleep."""
        from repro.protocols import build_network
        from repro.sim import RngRegistry, Simulator

        scenario = Scenario(num_nodes=300, field_size=(25.0, 25.0), seed=4,
                            with_traffic=False)
        sim = Simulator()
        network = build_network(scenario, sim, RngRegistry(seed=4))
        network.start()
        sim.run(until=1000.0)
        sleeping = [
            n for n in network.sensor_nodes() if n.mode is NodeMode.SLEEPING
        ]
        assert len(sleeping) > 150  # the majority sleeps

    def test_failure_robustness_replacement(self):
        """Killing a large batch of workers must not permanently destroy
        coverage: sleepers wake and take over (§5.3)."""
        from repro.coverage import CoverageGrid, CoverageTracker
        from repro.protocols import build_network
        from repro.net import Field
        from repro.sim import RngRegistry, Simulator

        scenario = Scenario(num_nodes=300, field_size=(25.0, 25.0), seed=6,
                            with_traffic=False)
        sim = Simulator()
        network = build_network(scenario, sim, RngRegistry(seed=6))
        grid = CoverageGrid(Field(25.0, 25.0), sensing_range=10.0)
        tracker = CoverageTracker(sim, grid, ks=(1,))
        network.working_observers.append(tracker.on_working_change)
        network.start()
        tracker.start()
        sim.run(until=1000.0)
        # Kill one third of the current workers at once.
        workers = list(network.working_ids())
        for node_id in workers[: len(workers) // 3]:
            network.kill(node_id)
        sim.run(until=3000.0)
        assert grid.fraction(1) > 0.95
