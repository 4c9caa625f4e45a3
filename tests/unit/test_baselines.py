"""Unit tests for the baseline protocols and gap monitor."""

import random

import pytest

from repro.baselines import (
    AlwaysOnProtocol,
    BaselineNetwork,
    CellGapMonitor,
    DutyCycleProtocol,
    GafLikeProtocol,
    SynchronizedSleepProtocol,
)
from repro.experiments import Scenario
from repro.harness import run
from repro.net import Field, uniform_deployment
from repro.protocols import get_protocol, protocol_names
from repro.sim import RngRegistry, Simulator


def make_baseline_network(num_nodes=20, seed=3, side=20.0):
    sim = Simulator()
    rngs = RngRegistry(seed=seed)
    field = Field(side, side)
    positions = uniform_deployment(field, num_nodes, rngs.stream("deployment"))
    network = BaselineNetwork(
        sim, field, positions, battery_rng=rngs.stream("battery")
    )
    return sim, network, rngs


class TestBaselineNetwork:
    def test_all_start_sleeping(self):
        sim, network, _ = make_baseline_network()
        network.start()
        assert network.working_ids() == frozenset()
        assert len(network.alive_ids()) == 20

    def test_kill(self):
        sim, network, _ = make_baseline_network()
        network.start()
        network.kill(0)
        assert 0 not in network.alive_ids()

    def test_observer_stream(self):
        sim, network, _ = make_baseline_network()
        events = []
        network.working_observers.append(
            lambda t, node, started: events.append((node.node_id, started))
        )
        network.start()
        node = network.nodes[0]
        node.set_working(True)
        node.set_working(False)
        assert events == [(0, True), (0, False)]

    def test_set_working_idempotent(self):
        sim, network, _ = make_baseline_network()
        events = []
        network.working_observers.append(
            lambda t, node, started: events.append(started)
        )
        network.start()
        node = network.nodes[0]
        node.set_working(True)
        node.set_working(True)
        assert events == [True]

    def test_death_during_work_emits_stop(self):
        sim, network, _ = make_baseline_network()
        events = []
        network.working_observers.append(
            lambda t, node, started: events.append(started)
        )
        network.start()
        network.nodes[0].set_working(True)
        network.nodes[0].die()
        assert events == [True, False]


class TestAlwaysOn:
    def test_everyone_works_then_dies_in_one_battery(self):
        sim, network, _ = make_baseline_network()
        AlwaysOnProtocol(network).start()
        assert len(network.working_ids()) == 20
        sim.run(until=5200.0)
        assert network.all_dead
        # §5.1 idle lifetime bounds: no node dies before 4500 s.
        assert sim.now >= 4500.0


class TestDutyCycle:
    def test_duty_fraction_of_population_awake(self):
        sim, network, rngs = make_baseline_network(num_nodes=200)
        DutyCycleProtocol(network, duty=0.5, period_s=100.0,
                          rng=rngs.stream("duty")).start()
        sim.run(until=500.0)
        awake = len(network.working_ids())
        assert 60 < awake < 140  # ~100 expected

    def test_full_duty_never_sleeps(self):
        sim, network, rngs = make_baseline_network()
        DutyCycleProtocol(network, duty=1.0, rng=rngs.stream("duty")).start()
        sim.run(until=300.0)
        assert len(network.working_ids()) == 20

    def test_extends_lifetime_vs_always_on(self):
        sim, network, rngs = make_baseline_network()
        DutyCycleProtocol(network, duty=0.5, rng=rngs.stream("duty")).start()
        sim.run(until=8000.0)
        assert not network.all_dead  # half duty ~ doubles lifetime

    def test_validation(self):
        _, network, _ = make_baseline_network()
        with pytest.raises(ValueError):
            DutyCycleProtocol(network, duty=0.0)
        with pytest.raises(ValueError):
            DutyCycleProtocol(network, period_s=0.0)


class TestGafLike:
    def test_one_leader_per_occupied_cell(self):
        sim, network, _ = make_baseline_network(num_nodes=60)
        protocol = GafLikeProtocol(network)
        protocol.start()
        cells_with_nodes = {
            protocol._cell_of(n) for n in network.nodes.values() if n.alive
        }
        assert len(network.working_ids()) == len(cells_with_nodes)

    def test_leader_replaced_after_depletion(self):
        sim, network, _ = make_baseline_network(num_nodes=60)
        protocol = GafLikeProtocol(network)
        protocol.start()
        first_elections = protocol.elections
        sim.run(until=12000.0)
        assert protocol.elections > first_elections

    def test_outlives_always_on(self):
        sim, network, _ = make_baseline_network(num_nodes=60)
        GafLikeProtocol(network).start()
        sim.run(until=6000.0)
        assert not network.all_dead


class TestSynchronized:
    def test_round_based_rotation(self):
        sim, network, _ = make_baseline_network(num_nodes=60)
        protocol = SynchronizedSleepProtocol(network, round_period_s=500.0)
        protocol.start()
        sim.run(until=2100.0)
        assert protocol.rounds == 5  # t=0 plus four boundaries

    def test_failure_gap_lasts_until_round_boundary(self):
        """The Figure 4 failure mode: a dead worker's cell stays dark until
        the next synchronized wakeup."""
        sim, network, _ = make_baseline_network(num_nodes=60)
        protocol = SynchronizedSleepProtocol(network, round_period_s=500.0)
        monitor = CellGapMonitor(sim, network.field, cell_size_m=3.0)
        network.working_observers.append(monitor.on_working_change)
        protocol.start()
        sim.run(until=100.0)
        victim = next(iter(network.working_ids()))
        network.kill(victim)
        sim.run(until=1000.0)
        if monitor.gaps:  # the cell had another member to take over
            assert max(monitor.gaps) <= 500.0 + 1.0
            assert min(monitor.gaps) > 0.0


class TestCellGapMonitor:
    class FakeNode:
        def __init__(self, position):
            self.position = position

    def test_gap_recorded_between_serve_periods(self):
        sim = Simulator()
        monitor = CellGapMonitor(sim, Field(10.0, 10.0), cell_size_m=3.0)
        node = self.FakeNode((5.0, 5.0))
        monitor.on_working_change(0.0, node, True)
        monitor.on_working_change(10.0, node, False)
        monitor.on_working_change(25.0, node, True)
        assert monitor.gap_count() >= 1
        assert monitor.mean_gap() == pytest.approx(15.0)

    def test_unserved_points_do_not_count(self):
        sim = Simulator()
        monitor = CellGapMonitor(sim, Field(10.0, 10.0), cell_size_m=3.0)
        node = self.FakeNode((5.0, 5.0))
        monitor.on_working_change(100.0, node, True)  # first service, no gap
        assert monitor.gap_count() == 0

    def test_terminal_outage_not_counted(self):
        sim = Simulator()
        monitor = CellGapMonitor(sim, Field(10.0, 10.0), cell_size_m=3.0)
        node = self.FakeNode((5.0, 5.0))
        monitor.on_working_change(0.0, node, True)
        monitor.on_working_change(10.0, node, False)
        assert monitor.gap_count() == 0  # never closed

    def test_overlapping_workers_no_gap(self):
        sim = Simulator()
        monitor = CellGapMonitor(sim, Field(10.0, 10.0), cell_size_m=3.0)
        a, b = self.FakeNode((5.0, 5.0)), self.FakeNode((5.05, 5.0))
        monitor.on_working_change(0.0, a, True)
        monitor.on_working_change(0.0, b, True)
        monitor.on_working_change(10.0, a, False)
        monitor.on_working_change(20.0, a, True)
        assert monitor.gap_count() == 0  # b covered throughout

    def test_percentile(self):
        sim = Simulator()
        monitor = CellGapMonitor(sim, Field(10.0, 10.0))
        monitor.gaps.extend([1.0, 2.0, 3.0, 4.0, 100.0])
        assert monitor.percentile_gap(0.5) == 3.0
        assert monitor.percentile_gap(1.0) == 100.0
        with pytest.raises(ValueError):
            monitor.percentile_gap(1.5)

    def test_underflow_detected(self):
        sim = Simulator()
        monitor = CellGapMonitor(sim, Field(10.0, 10.0))
        with pytest.raises(ValueError):
            monitor.on_working_change(0.0, self.FakeNode((5.0, 5.0)), False)


class TestRunBaseline:
    def test_always_on_run_result(self):
        scenario = Scenario(num_nodes=30, field_size=(20.0, 20.0),
                            with_traffic=False, failure_per_5000s=0.0)
        result = run(scenario.with_(protocol="always_on"))
        assert result.coverage_lifetimes[3] is not None
        assert result.end_time <= 5100.0

    def test_gap_extras_present_when_requested(self):
        scenario = Scenario(num_nodes=30, field_size=(20.0, 20.0),
                            with_traffic=False, failure_per_5000s=0.0)
        result = run(scenario.with_(protocol="synchronized", measure_gaps=True))
        assert "gap_mean_s" in result.extras


class TestSpanLike:
    def test_coordinators_elected(self):
        from repro.baselines import SpanLikeProtocol

        sim, network, rngs = make_baseline_network(num_nodes=80, side=30.0)
        protocol = SpanLikeProtocol(network, rng=rngs.stream("span"))
        protocol.start()
        working = len(network.working_ids())
        assert 0 < working < 80  # some sleep, some coordinate

    def test_coordinators_bridge_neighbors(self):
        """After an election, any two radio neighbors of a sleeping node are
        connected directly or through coordinators (the SPAN guarantee,
        up to the 2-coordinator approximation)."""
        from repro.baselines import SpanLikeProtocol

        sim, network, rngs = make_baseline_network(num_nodes=60, side=25.0)
        protocol = SpanLikeProtocol(network, rng=rngs.stream("span"))
        protocol.start()
        coordinators = set(network.working_ids())
        for node in network.nodes.values():
            if node.node_id in coordinators or not node.alive:
                continue
            assert not protocol._eligible(node, coordinators), (
                f"sleeping node {node.node_id} is still eligible"
            )

    def test_re_election_after_deaths(self):
        from repro.baselines import SpanLikeProtocol

        sim, network, rngs = make_baseline_network(num_nodes=60, side=25.0)
        protocol = SpanLikeProtocol(network, round_period_s=100.0,
                                    rng=rngs.stream("span"))
        protocol.start()
        for victim in list(network.working_ids())[:5]:
            network.kill(victim)
        sim.run(until=150.0)  # next round re-elects
        assert protocol.rounds >= 2
        assert len(network.working_ids()) > 0

    def test_validation(self):
        from repro.baselines import SpanLikeProtocol

        _, network, _ = make_baseline_network()
        with pytest.raises(ValueError):
            SpanLikeProtocol(network, radio_range_m=0.0)


class TestAfecaLike:
    def test_alternates_and_scales_sleep_with_density(self):
        from repro.baselines import AfecaLikeProtocol

        sim, network, rngs = make_baseline_network(num_nodes=100, side=25.0)
        protocol = AfecaLikeProtocol(network, rng=rngs.stream("afeca"))
        protocol.start()
        sim.run(until=500.0)
        # Statistical sleeping: a fraction of the population is awake.
        awake = len(network.working_ids())
        assert 0 < awake < 100

    def test_neighbor_count_drops_with_deaths(self):
        from repro.baselines import AfecaLikeProtocol

        sim, network, rngs = make_baseline_network(num_nodes=30, side=15.0)
        protocol = AfecaLikeProtocol(network, rng=rngs.stream("afeca"))
        node = network.nodes[0]
        before = protocol.alive_neighbor_count(node)
        for other in protocol._neighbors[0][:3]:
            network.kill(other)
        assert protocol.alive_neighbor_count(node) == before - min(3, before)

    def test_outlives_always_on(self):
        from repro.baselines import AfecaLikeProtocol

        sim, network, rngs = make_baseline_network(num_nodes=100, side=20.0)
        AfecaLikeProtocol(network, rng=rngs.stream("afeca")).start()
        sim.run(until=6000.0)
        assert not network.all_dead

    def test_validation(self):
        from repro.baselines import AfecaLikeProtocol

        _, network, _ = make_baseline_network()
        with pytest.raises(ValueError):
            AfecaLikeProtocol(network, awake_s=0.0)


class TestAllFactoriesRun:
    @pytest.mark.parametrize("name", [
        name for name in protocol_names()
        if get_protocol(name).kind == "baseline"
    ])
    def test_factory_runs_small_scenario(self, name):
        scenario = Scenario(num_nodes=25, field_size=(15.0, 15.0),
                            with_traffic=False, failure_per_5000s=0.0,
                            max_time_s=2000.0)
        result = run(scenario.with_(protocol=name))
        assert result.end_time > 0
