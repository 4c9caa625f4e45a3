"""The single composition layer every protocol runs under.

:func:`run` assembles the full §5 substrate — deployment, coverage tracker,
replacement-gap monitor, GRAB traffic, failure injector — and the complete
capability stack (tracer, profiler, sanitizer, manifest) exactly once,
around whichever protocol ``scenario.protocol`` names in the registry
(:mod:`repro.protocols`).  It is the one way to run a scenario — PEAS,
baselines, sweeps and the CLI all call it — so PEAS-vs-baseline
comparisons are controlled by construction: divergent harnesses, not
divergent protocols, are how power-aware protocol comparisons usually die.

The composition lives in :class:`LiveRun`, whose lifecycle is split so
snapshot/restore (``peas-snapshot/1``, :mod:`repro.harness.snapshot`) can
reuse it: construction wires every subsystem, ``start()`` boots a fresh
run, ``load_snapshot()`` instead rehydrates a checkpointed one, and
``run_loop()``/``collect()`` are shared by both paths.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..baselines.gaps import CellGapMonitor
from ..coverage import CoverageGrid, CoverageTracker
from ..experiments.metrics import (
    RunResult,
    recovery_after_faults,
    recovery_extras,
)
from ..experiments.scenario import Scenario
from ..faults import FaultEngine
from ..obs import build_manifest
from ..obs.manifest import peak_rss_mb, wall_clock_s
from ..obs.metrics import RunMetrics
from ..obs.tracer import Tracer
from ..protocols import get_protocol
from ..routing import GrabRouter, ReportTraffic
from ..sim import (
    EngineProfiler,
    RestoreContext,
    RngRegistry,
    SimSanitizer,
    Simulator,
    SnapshotError,
)
from .options import RunOptions

__all__ = ["LiveRun", "run"]


def run(
    scenario: Scenario,
    options: Optional[RunOptions] = None,
    *,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """Run one scenario under its protocol to completion; collect §5 metrics.

    Parameters
    ----------
    scenario:
        What to simulate, including which registered protocol runs it
        (``scenario.protocol``, default ``"peas"``).
    options:
        The capability stack (profile / sanitize / trace-to-path /
        checkpointing); see :class:`~repro.harness.options.RunOptions`.
    tracer:
        Optional live :class:`repro.obs.Tracer`; when given (and not
        null-sink backed) every subsystem emits structured trace events
        through it.  The caller owns the sink.  Mutually exclusive with
        ``options.trace_path``, which makes the harness own a file sink.

    A custom-parameterized protocol runs by registering it first
    (:func:`repro.protocols.register_protocol`) and naming it in
    ``scenario.protocol``.
    """
    def boot(live: "LiveRun") -> None:
        live.start()

    if options is not None and options.store_dir is not None and tracer is None:
        # Import stays local: the store serializes results through
        # ``repro.experiments``, which itself imports this harness.
        from ..store import ResultStore, store_eligible

        if store_eligible(options):
            store = ResultStore(options.store_dir)
            key = store.key_for(scenario, options)
            cached = store.get(key)
            if cached is not None:
                return cached
            # This process is about to pay for the simulation: journal the
            # miss here (not in ``get``) so read-only probes stay silent.
            store.note_miss(key)
            result = _execute(scenario, options, tracer, boot)
            store.put(key, result, scenario, options)
            return result

    return _execute(scenario, options, tracer, boot)


def _execute(
    scenario: Scenario,
    options: Optional[RunOptions],
    tracer: Optional[Tracer],
    boot: Callable[["LiveRun"], None],
) -> RunResult:
    """Shared driver for fresh (:func:`run`) and restored
    (:func:`repro.harness.snapshot.resume`) runs: tracer-sink ownership,
    the LiveRun lifecycle, and the manifest/profile sidecars."""
    options = options if options is not None else RunOptions()
    owned_tracer: Optional[Tracer] = None
    trace_file = None
    if tracer is None:
        trace_target = options.resolved_trace_path(scenario)
        if trace_target is not None:
            from ..obs import NdjsonSink

            trace_file = trace_target
            owned_tracer = Tracer(NdjsonSink(trace_target))
            tracer = owned_tracer
    try:
        live = LiveRun(scenario, options, tracer=tracer)
        boot(live)
        live.run_loop()
        result = live.collect()
    finally:
        if owned_tracer is not None:
            owned_tracer.close()
    if trace_file is not None:
        from pathlib import Path

        from ..obs import save_manifest

        path = Path(trace_file)
        save_manifest(result.manifest, path.parent / (path.stem + ".manifest.json"))
        if result.profile is not None:
            # Profile sidecar next to the trace, so ``peas-repro inspect
            # --profile`` can surface the engine breakdown and gauge series
            # long after the run.
            import json

            (path.parent / (path.stem + ".profile.json")).write_text(
                json.dumps(result.profile, indent=2) + "\n", encoding="utf-8"
            )
    return result


class LiveRun:
    """One fully composed run of a scenario, phase by phase.

    Construction wires the complete substrate (engine, RNG registry,
    protocol network, coverage tracker, gap monitor, GRAB traffic, fault
    engine — ``faults.prepare()`` included) but schedules **nothing**: the
    event queue is empty afterwards, which is exactly the precondition
    both boot paths need.

    * Fresh run: ``start()`` → ``run_loop()`` → ``collect()``.
    * Restored run: ``load_snapshot(...)`` → ``run_loop()`` →
      ``collect()`` — the pending events come back through the engine
      queue, so none of the subsystem ``start()`` methods run.

    ``snapshot_state()`` may be called whenever the engine is paused
    between events; ``run_loop()`` calls it at chunk boundaries when the
    options ask for checkpoints.
    """

    def __init__(
        self,
        scenario: Scenario,
        options: Optional[RunOptions] = None,
        *,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.scenario = scenario
        self.options = options if options is not None else RunOptions()
        self.tracer = tracer
        self.wall_start = wall_clock_s()
        options = self.options

        self.sim = Simulator()
        self.rngs = RngRegistry(seed=scenario.seed)
        self.sanitizer: Optional[SimSanitizer] = None
        if options.sanitize:
            self.sanitizer = SimSanitizer()
            self.sanitizer.install(self.sim)
        self.protocol = get_protocol(scenario.protocol).build(
            scenario, self.sim, self.rngs, tracer
        )
        self.network = self.protocol.network
        if self.sanitizer is not None:
            self.sanitizer.attach_network(self.network)
        field = self.network.field
        self.profiler: Optional[EngineProfiler] = None
        if options.profile:
            self.profiler = EngineProfiler()
            self.sim.profiler = self.profiler
        self.run_metrics: Optional[RunMetrics] = None
        if options.metrics:
            self.run_metrics = RunMetrics(
                protocol=scenario.protocol,
                # One spatial index remains; the label stays so
                # peas-metrics/1 exports and ``inspect --diff`` still match
                # files written when the backend was selectable.
                backend="columnar",
            )

        # --- coverage metric ---------------------------------------------
        grid = CoverageGrid(
            field,
            sensing_range=scenario.sensing_range_m,
            resolution=scenario.coverage_resolution_m,
            max_k=max(scenario.coverage_ks) + 1,
        )
        self.tracker = CoverageTracker(
            self.sim,
            grid,
            ks=scenario.coverage_ks,
            sample_interval_s=scenario.sample_interval_s,
            threshold=scenario.lifetime_threshold,
        )
        self.network.working_observers.append(self.tracker.on_working_change)

        # --- replacement gaps (Fig 4/5 metric) ----------------------------
        self.gap_monitor: Optional[CellGapMonitor] = None
        if scenario.measure_gaps:
            self.gap_monitor = CellGapMonitor(
                self.sim, field, cell_size_m=scenario.config.probe_range_m
            )
            self.network.working_observers.append(self.gap_monitor.on_working_change)

        # --- data delivery metric ----------------------------------------
        self.traffic: Optional[ReportTraffic] = None
        self.topology = None
        if scenario.with_traffic:
            topology = self.protocol.topology(scenario)
            self.topology = topology

            def topology_observer(time, node, started, _topology=topology):
                if started:
                    _topology.add_working(node.node_id, node.position)
                else:
                    _topology.remove_working(node.node_id)

            self.network.working_observers.append(topology_observer)
            router = GrabRouter(
                topology,
                source=scenario.source,
                sink=scenario.sink,
                attach_radius=scenario.comm_range_m,
                link_loss=scenario.grab_link_loss,
                mesh_width=scenario.grab_mesh_width,
                rng=self.rngs.stream("grab"),
            )
            self.traffic = ReportTraffic(
                self.sim,
                router,
                interval_s=scenario.report_interval_s,
                threshold=scenario.lifetime_threshold,
                path_hook=self.protocol.report_path_hook(scenario),
            )

        # --- fault injection ---------------------------------------------
        # The §5.3 crash process plus the scenario's declarative fault plan
        # (region kills, outages, bursty loss, clock drift), all on named
        # RNG streams.  ``prepare`` must precede ``protocol.start()``:
        # clock skews have to be in place before nodes draw their first
        # sleep intervals.
        self.faults = FaultEngine(
            self.sim,
            self.network,
            scenario.fault_plan,
            self.rngs,
            ambient_crash_per_5000s=scenario.failure_per_5000s,
            field_size=scenario.field_size,
            capabilities=self.protocol.fault_capabilities(),
            tracer=tracer,
        )
        self.faults.prepare()
        self._started = False
        self._restored = False

    # --------------------------------------------------------------- boot
    def start(self) -> None:
        """Boot a fresh run: initial node sleeps, periodic samplers, faults."""
        if self._started or self._restored:
            raise RuntimeError("run already started or restored")
        self._started = True
        self.protocol.start()
        self.tracker.start()
        if self.traffic is not None:
            self.traffic.start()
        self.faults.start()

    # ----------------------------------------------------------- snapshot
    def snapshot_state(self) -> Dict[str, Any]:
        """The complete ``peas-snapshot/1`` document for this instant.

        Callable whenever the engine is paused between events.  The engine
        section is captured last: its serializer raises
        :class:`~repro.sim.SnapshotError` on descriptor-less pending
        events, so an unserializable run fails before anything partial is
        produced.
        """
        from ..experiments.serialize import scenario_to_dict
        from .snapshot import SNAPSHOT_SCHEMA, snapshot_provenance

        components: Dict[str, Any] = {
            "rng": self.rngs.state_dict(),
            "protocol": self.protocol.state_dict(),
            "coverage": self.tracker.state_dict(),
            "faults": self.faults.state_dict(),
        }
        if self.traffic is not None:
            components["traffic"] = self.traffic.state_dict()
            components["topology"] = self.topology.state_dict()
        if self.gap_monitor is not None:
            components["gaps"] = self.gap_monitor.state_dict()
        components["engine"] = self.sim.state_dict()
        return {
            "format": SNAPSHOT_SCHEMA,
            "provenance": snapshot_provenance(self.scenario, self.sim),
            "scenario": scenario_to_dict(self.scenario),
            "components": components,
        }

    def load_snapshot(self, snapshot: Dict[str, Any], *, mode: str = "resume") -> None:
        """Rehydrate a freshly constructed run from a snapshot document.

        ``mode="resume"`` continues the captured run exactly (fault state
        included); ``mode="fork"`` warm-starts a *variant* scenario from a
        fault-quiescent burn-in — the variant's fault engine starts fresh
        at the restored clock instead of loading burn-in state.  Mode
        validation (provenance, allowlist) lives in
        :mod:`repro.harness.snapshot`; this method only applies state.
        """
        if mode not in ("resume", "fork"):
            raise ValueError(f"unknown restore mode {mode!r}")
        if self._started or self._restored:
            raise SnapshotError(
                "snapshots restore into a freshly constructed run; this one "
                "has already started"
            )
        self._restored = True
        components = snapshot["components"]
        self.rngs.load_state(components["rng"])
        self.protocol.load_state(components["protocol"])
        working_positions = [
            self.network.nodes[node_id].position
            for node_id in self.network.working_ids()
        ]
        self.tracker.load_state(components["coverage"], working_positions)
        if self.traffic is not None:
            if "topology" not in components:
                raise SnapshotError(
                    "scenario runs traffic but the snapshot has no "
                    "topology/traffic state; it was captured without traffic"
                )
            topology_state = components["topology"]
            positions = {
                node_id: self.network.nodes[node_id].position
                for node_id in topology_state["order"]
            }
            self.topology.load_state(topology_state, positions)
            self.traffic.load_state(components["traffic"])
        if self.gap_monitor is not None and "gaps" in components:
            self.gap_monitor.load_state(components["gaps"])
        if mode == "resume":
            self.faults.load_state(components["faults"])
        self.sim.load_state(components["engine"], self._restore_context())
        if mode == "fork":
            # The variant's fault processes arm *now*, at the restored
            # clock — the burn-in was fault-quiescent, so no fault events
            # came back through the queue.
            self.faults.start()

    def _restore_context(self) -> RestoreContext:
        """Component bindings the handler resolvers look up by name."""
        ctx = RestoreContext(self.sim)
        ctx.provide("protocol", self.protocol)
        ctx.provide("network", self.network)
        channel = getattr(self.network, "channel", None)
        if channel is not None:
            ctx.provide("channel", channel)
        ctx.provide("coverage", self.tracker)
        if self.traffic is not None:
            ctx.provide("traffic", self.traffic)
        ctx.provide("faults", self.faults)
        return ctx

    # ------------------------------------------------------------ the loop
    def run_loop(self) -> None:
        """Drive the chunked event loop to its stop condition.

        Replays the exact ``until`` sequence of an uninterrupted run (an
        accumulated float sum from zero — **not** multiples of the chunk,
        which differ once the sum stops being exactly representable), so a
        restored run's clock advances through the identical boundaries and
        end-of-run state is byte-identical.  Handles checkpoint writes and
        the ``stop_after_s`` early exit from the options.
        """
        scenario, options, sim = self.scenario, self.options, self.sim
        network = self.network
        chunk = scenario.run_chunk_s
        snapshot_target = options.resolved_snapshot_path(scenario)
        checkpoint_every = options.checkpoint_every_s
        next_checkpoint: Optional[float] = None
        if checkpoint_every is not None and snapshot_target is not None:
            next_checkpoint = checkpoint_every
        if sim.now > 0.0:
            # Mid-chunk restore: finish the interrupted chunk first, up to
            # the boundary the uninterrupted run would have used.
            boundary = 0.0
            while boundary < sim.now:
                boundary += chunk
            if boundary > sim.now and not network.all_dead:
                sim.run(until=boundary)
                if self.run_metrics is not None:
                    self.run_metrics.sample_engine(sim)
            if next_checkpoint is not None:
                while next_checkpoint <= sim.now:
                    next_checkpoint += checkpoint_every
        stop_after = options.stop_after_s
        while not network.all_dead and sim.now < scenario.max_time_s:
            if stop_after is not None and sim.now >= stop_after:
                break
            sim.run(until=sim.now + chunk)
            # Metrics gauges are sampled *between* chunks: zero code runs
            # inside the event loop, so the RNG draw sequence is untouched.
            if self.run_metrics is not None:
                self.run_metrics.sample_engine(sim)
            if next_checkpoint is not None and sim.now >= next_checkpoint:
                self._write_snapshot(snapshot_target)
                while next_checkpoint <= sim.now:
                    next_checkpoint += checkpoint_every
        if snapshot_target is not None and next_checkpoint is None:
            # One-shot snapshot at loop exit (natural end or stop_after_s).
            self._write_snapshot(snapshot_target)

    def _write_snapshot(self, target: str) -> None:
        from .snapshot import save_snapshot

        save_snapshot(self.snapshot_state(), target)

    # ------------------------------------------------------------- collect
    def collect(self) -> RunResult:
        """Stop the samplers and assemble the §5 metrics + provenance."""
        scenario, sim = self.scenario, self.sim
        network, tracker, traffic = self.network, self.tracker, self.traffic
        faults = self.faults
        tracker.stop()
        if traffic is not None:
            traffic.stop()

        energy = network.energy_report()
        result = RunResult(
            num_nodes=scenario.num_nodes,
            seed=scenario.seed,
            failure_rate_per_5000s=scenario.failure_per_5000s,
            end_time=sim.now,
            coverage_lifetimes=tracker.lifetimes(),
            delivery_lifetime=traffic.delivery_lifetime() if traffic else None,
            total_wakeups=self.protocol.total_wakeups(),
            energy_total_j=energy.total_consumed_j,
            energy_overhead_j=self.protocol.energy_overhead_j(energy),
            energy_by_category=dict(energy.by_category),
            failures_injected=faults.failures_injected,
            counters=network.counters.as_dict(),
            channel_counters=self.protocol.channel_counters(),
        )
        if scenario.keep_series:
            for name in tracker.series.names():
                result.series[name] = tracker.series.samples(name)
            if traffic is not None:
                for name in traffic.series.names():
                    result.series[name] = traffic.series.samples(name)
        fire_times = faults.fire_times
        if fire_times:
            # Resilience metrics (extras stay empty for the empty plan,
            # keeping no-fault runs byte-identical): how the lowest-K
            # coverage fraction weathered each plan-fault strike.
            k = min(scenario.coverage_ks)
            recoveries = recovery_after_faults(
                tracker.series.samples(f"coverage_{k}"),
                fire_times,
                scenario.lifetime_threshold,
            )
            result.extras["faults_fired"] = float(len(fire_times))
            result.extras.update(recovery_extras(recoveries))
        if self.gap_monitor is not None:
            gap_monitor = self.gap_monitor
            result.extras["gap_count"] = float(gap_monitor.gap_count())
            result.extras["gap_mean_s"] = gap_monitor.mean_gap()
            result.extras["gap_max_s"] = gap_monitor.max_gap()
            result.extras["gap_p95_s"] = gap_monitor.percentile_gap(0.95)
        if self.sanitizer is not None:
            # Final sweep so end-of-run state is checked even when the last
            # sweep period did not elapse, then report what ran.
            self.sanitizer.sweep(sim.now)
            result.extras["sanitizer_checks"] = float(self.sanitizer.total_checks)
        if self.profiler is not None:
            sim.profiler = None
            result.profile = self.profiler.as_dict()
        if self.run_metrics is not None:
            run_metrics = self.run_metrics
            channel = getattr(network, "channel", None)
            if channel is not None:
                channel.publish_metrics(run_metrics)
            else:
                # Baselines without a radio channel still report
                # per-protocol counter dicts through the adapter.
                run_metrics.record_channel(result.channel_counters)
            faults.publish_metrics(run_metrics)
            run_metrics.finish(
                sim,
                result,
                wall_s=wall_clock_s() - self.wall_start,
                rss_mb=peak_rss_mb(),
            )
            result.metrics = run_metrics.registry.snapshot()

        # --- provenance ---------------------------------------------------
        trace_info = None
        if self.tracer is not None:
            trace_info = self.tracer.stats()
            path = getattr(self.tracer.sink, "path", None)
            if path is not None:
                trace_info["path"] = str(path)
        result.manifest = build_manifest(
            seed=scenario.seed,
            config=scenario,
            protocol=scenario.protocol,
            rng_streams=tuple(self.rngs.names()),
            wall_time_s=wall_clock_s() - self.wall_start,
            events_executed=sim.events_executed,
            sim_end_time_s=sim.now,
            trace=trace_info,
            mac=self.protocol.mac_layout(scenario),
        )
        return result
