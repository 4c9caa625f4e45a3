"""One benchmark repetition, run in a fresh process.

``python3 perfbench/rep.py '<json spec>'`` runs one repetition and prints
its measurements as one JSON line.  A fresh process per repetition keeps
one repetition's peak memory from carrying into the next.

Spec keys: ``workload``, ``seed``, ``mode`` and, per mode:

* ``plain``: ``setups`` (set-ups timed; the last one runs) — host timings,
  digests and peak RSS with tracing off;
* ``traced``: ``out_dir`` — the same run with every layer wrapper
  installed; returns per-layer metrics and the digests;
* ``obs``: ``budget_s`` — short runs with each observability capability
  switched on, alternated with plain runs, for the cost ratios.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
#: Observability-cost rounds always run, whatever the time budget.
OBS_MIN_ROUNDS = 3


def _peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _timed_setups(scenario: Any, count: int) -> List[float]:
    """Time ``count`` throwaway set-ups (LiveRun construction + start)."""
    from repro.harness import LiveRun

    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        live = LiveRun(scenario)
        live.start()
        samples.append(time.perf_counter() - t0)
        del live
        gc.collect()
    return samples


def _single(workload: str, scenario: Any) -> Dict[str, Any]:
    """Set up, run and collect one scenario; the wall covers all three."""
    import workloads
    from repro.harness import LiveRun

    t0 = time.perf_counter()
    live = LiveRun(scenario)
    live.start()
    t1 = time.perf_counter()
    live.run_loop()
    result = live.collect()
    t2 = time.perf_counter()
    return {
        "wall_s": t2 - t0,
        "setup_s": [t1 - t0],
        "digests": [workloads.digest(result)],
        "problems": workloads.check_run(workload, scenario, result),
        "runs": 1,
        "results": [result],
    }


def _sweep(seed: int, store_dir: Path) -> Dict[str, Any]:
    """One whole sweep into a fresh store; the wall is its makespan."""
    import repro.experiments as experiments
    import workloads
    from repro.experiments import RunError, WarmStart
    from repro.harness import RunOptions

    scenarios = workloads.sweep(seed)
    shutil.rmtree(store_dir, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        results = experiments.run_sweep(
            scenarios,
            processes=workloads.SWEEP_WORKERS,
            options=RunOptions(store_dir=str(store_dir)),
            errors="collect",
            warm_start=WarmStart(burn_in_s=workloads.SWEEP_BURN_IN_S),
        )
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    ok = [r for r in results if not isinstance(r, RunError)]
    busy = sum(r.manifest["timing"]["wall_time_s"] for r in ok)
    return {
        "wall_s": wall,
        "setup_s": [],
        "digests": [
            "error" if isinstance(r, RunError) else workloads.digest(r)
            for r in results
        ],
        "problems": workloads.check_sweep(scenarios, results),
        "runs": len(results),
        "runs_per_min": 60.0 * len(ok) / wall,
        "worker_busy_ratio": busy / (workloads.SWEEP_WORKERS * wall),
        "results": ok,
    }


def _execute(workload: str, seed: int) -> Dict[str, Any]:
    import workloads

    if workload == "sweep":
        return _sweep(seed, OUT_DIR / "tmp" / f"store-{os.getpid()}")
    return _single(workload, workloads.unit_scenario(workload, seed))


def plain(spec: Dict[str, Any]) -> Dict[str, Any]:
    import workloads

    workload, seed = spec["workload"], spec["seed"]
    scenario = workloads.unit_scenario(workload, seed)
    extra = spec["setups"] - (0 if workload == "sweep" else 1)
    setups = _timed_setups(scenario, extra)
    out = _execute(workload, seed)
    out["setup_s"] = setups + out["setup_s"]
    out["peak_rss_mb"] = _peak_rss_mb(include_children=workload == "sweep")
    del out["results"]
    return out


def traced(spec: Dict[str, Any]) -> Dict[str, Any]:
    import spans

    workload, seed = spec["workload"], spec["seed"]
    out_dir = Path(spec["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    rec = spans.SpanRecorder(out_dir)
    with spans.install(rec):
        with rec.span(spans.ROOT):
            out = _execute(workload, seed)
    wall = rec.duration(spans.ROOT)
    tables = [rec.table()]
    counts = [dict(rec.counts)]
    for path in sorted(out_dir.glob("spans-*.npz")):
        table, worker_counts = spans.load_spans(path)
        tables.append(table)
        counts.append(worker_counts)
    rec.flush()
    table = spans.merge(tables)
    out["layers"] = layer_metrics(table, spans.merge_counts(counts), out)
    out["traced_wall_s"] = wall
    out["parent_span_s"] = sum(spans.layer_self_times(tables[0]).values())
    del out["results"]
    return out


def layer_metrics(
    table: Dict[str, Any], counts: Dict[str, int], out: Dict[str, Any]
) -> Dict[str, float]:
    """Per-layer work counts and self times of one traced repetition."""
    import spans

    def calls(*names: str) -> int:
        return sum(table[n][0] for n in names if n in table)

    def incl(*names: str) -> float:
        return sum(table[n][1] for n in names if n in table)

    def own(*names: str) -> float:
        return sum(table[n][2] for n in names if n in table)

    def matching(fragment: str) -> List[str]:
        return [name for name in table if fragment in name]

    results = out["results"]

    def total(field: str, key: str = "") -> int:
        if key:
            return sum(getattr(r, field).get(key, 0) for r in results)
        return sum(getattr(r, field) for r in results)

    selfs = spans.layer_self_times(table)
    events = calls(*matching(".event."))
    frames = calls("net.transmit")
    candidates = counts.get("net.candidates", 0)
    receivers = counts.get("net.receivers", 0)
    transmit_self = own("net.transmit")
    completion_self = own(*matching("net.event."))
    deliveries = calls("routing.deliver")
    sweep = out.get("worker_busy_ratio") is not None
    return {
        "sim.events": events,
        "sim.scheduled": calls("sim.schedule"),
        "sim.peak_pending": counts.get("sim.peak_pending", 0),
        "sim.self_s": selfs["sim"],
        "sim.us_per_event": 1e6 * selfs["sim"] / events if events else 0.0,
        "net.frames": frames,
        "net.candidates": candidates,
        "net.receivers": receivers,
        "net.receivers_per_candidate": receivers / candidates if candidates else 0.0,
        "net.lost_frames": sum(
            total("channel_counters", key)
            for key in ("collisions", "half_duplex_losses", "aborted_receptions")
        ),
        "net.transmit_self_s": transmit_self,
        "net.completion_self_s": completion_self,
        "net.us_per_frame": (
            1e6 * (transmit_self + completion_self) / frames if frames else 0.0
        ),
        "net.self_s": selfs["net"],
        "core.wakeups": total("counters", "wakeups"),
        "core.probes": total("counters", "probes_sent"),
        "core.replies": total("counters", "replies_sent"),
        "core.work_starts": total("counters", "work_starts"),
        "core.handler_self_s": selfs["core"],
        "energy.charges": calls(
            "energy.charge_frame", "energy.charge", "energy.set_mode"
        ),
        "energy.self_s": selfs["energy"],
        "coverage.applies": calls("coverage.add_node", "coverage.remove_node"),
        "coverage.samples": calls(*matching("coverage.event.")),
        "coverage.self_s": selfs["coverage"],
        "routing.deliveries": deliveries,
        "routing.delivered_ratio": (
            counts.get("routing.delivered", 0) / deliveries if deliveries else 0.0
        ),
        "routing.self_s": selfs["routing"],
        "faults.failures_injected": total("failures_injected"),
        "faults.self_s": selfs["faults"],
        "harness.compose_s": incl("harness.compose"),
        "harness.start_s": incl("harness.start"),
        "harness.collect_s": incl("harness.collect"),
        "harness.self_s": selfs["harness"],
        "experiments.runs": len(results) if sweep else 0,
        "experiments.retries": counts.get("experiments.retries", 0),
        "experiments.worker_busy_ratio": out["worker_busy_ratio"] if sweep else 0.0,
        "experiments.burn_in_s": incl("harness.run"),
        "experiments.fork_restore_s": own("harness.resume")
        + incl("harness.load_snapshot"),
        "experiments.self_s": selfs["experiments"],
        "store.puts": calls("store.put"),
        "store.put_s": incl("store.put"),
        "store.bytes_written": counts.get("store.bytes_written", 0),
        "store.self_s": selfs["store"],
        "other.self_s": selfs["other"],
    }


def obs(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Time short runs with each observability capability on, against plain
    runs of the same scenario, in rounds until ``budget_s`` is spent."""
    import workloads
    from repro.harness import RunOptions, run
    from repro.obs import NdjsonSink, NullSink, Tracer

    workload, seed = spec["workload"], spec["seed"]
    horizon = workloads.OBS_HORIZON_S[workload]
    # The run loop advances in whole chunks, so the chunk shrinks too.
    scenario = workloads.unit_scenario(workload, seed).with_(
        max_time_s=horizon, run_chunk_s=horizon
    )
    trace_path = OUT_DIR / "tmp" / f"obs-{os.getpid()}.ndjson"
    trace_path.parent.mkdir(parents=True, exist_ok=True)

    def null_tracer():
        return run(scenario, tracer=Tracer(NullSink()))

    def ndjson_tracer():
        tracer = Tracer(NdjsonSink(trace_path))
        try:
            return run(scenario, tracer=tracer)
        finally:
            tracer.close()
            trace_path.unlink()

    variants = {
        "plain": lambda: run(scenario),
        "null_tracer": null_tracer,
        "ndjson_tracer": ndjson_tracer,
        "metrics": lambda: run(scenario, RunOptions(metrics=True)),
        "sanitizer": lambda: run(scenario, RunOptions(sanitize=True)),
    }
    reference = workloads.digest(run(scenario))  # also warms lazy imports
    walls: Dict[str, List[float]] = {name: [] for name in variants}
    failed = runs = 0
    start = time.perf_counter()
    order = list(variants)
    while True:
        round_start = time.perf_counter()
        for name in order:
            t0 = time.perf_counter()
            result = variants[name]()
            walls[name].append(time.perf_counter() - t0)
            runs += 1
            failed += workloads.digest(result) != reference
        order.reverse()
        now = time.perf_counter()
        next_round_ends = now - start + (now - round_start)
        if len(walls["plain"]) >= OBS_MIN_ROUNDS and next_round_ends > spec["budget_s"]:
            break
    plain_wall = statistics.median(walls["plain"])
    return {
        "ratios": {
            name: statistics.median(samples) / plain_wall
            for name, samples in walls.items()
            if name != "plain"
        },
        "rounds": len(walls["plain"]),
        "runs": runs,
        "failed": failed,
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(sys.argv[1])
    out = {"plain": plain, "traced": traced, "obs": obs}[spec["mode"]](spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
