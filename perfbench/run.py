"""The repository benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the repository root.

With ``--trace 0`` it repeats the workload, one fresh process per
repetition (``rep.py``), until ``--seconds`` are spent (at least
``MIN_REPS`` repetitions) and reports the end-to-end metrics as medians.
With ``--trace 1`` it runs one plain and one traced repetition plus the
observability-cost rows and reports the per-layer metrics.  Every
repetition hashes its simulated statistics into a digest; a repetition
that crashes, returns a failed run, or disagrees with the other
repetitions' digest counts as failed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_REPS = 3
SETUPS_PER_REP = 5
#: Wall-clock limit for one invocation, below the 180 s a run may take.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "runs_per_min": "1/min",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.scheduled": "count",
    "sim.peak_pending": "count",
    "sim.self_s": "s",
    "sim.us_per_event": "us",
    "net.frames": "count",
    "net.candidates": "count",
    "net.receivers": "count",
    "net.receivers_per_candidate": "ratio",
    "net.lost_frames": "count",
    "net.transmit_self_s": "s",
    "net.completion_self_s": "s",
    "net.us_per_frame": "us",
    "net.self_s": "s",
    "core.wakeups": "count",
    "core.probes": "count",
    "core.replies": "count",
    "core.work_starts": "count",
    "core.handler_self_s": "s",
    "energy.charges": "count",
    "energy.self_s": "s",
    "coverage.applies": "count",
    "coverage.samples": "count",
    "coverage.self_s": "s",
    "routing.deliveries": "count",
    "routing.delivered_ratio": "ratio",
    "routing.self_s": "s",
    "faults.failures_injected": "count",
    "faults.self_s": "s",
    "harness.compose_s": "s",
    "harness.start_s": "s",
    "harness.collect_s": "s",
    "harness.self_s": "s",
    "experiments.runs": "count",
    "experiments.retries": "count",
    "experiments.worker_busy_ratio": "ratio",
    "experiments.burn_in_s": "s",
    "experiments.fork_restore_s": "s",
    "experiments.self_s": "s",
    "store.puts": "count",
    "store.put_s": "s",
    "store.bytes_written": "B",
    "store.self_s": "s",
    "other.self_s": "s",
    "obs.null_tracer_ratio": "ratio",
    "obs.ndjson_tracer_ratio": "ratio",
    "obs.metrics_ratio": "ratio",
    "obs.sanitizer_ratio": "ratio",
    "obs.bench_trace_ratio": "ratio",
}

#: Host-independent counts the traced run prints as its work-count block.
WORK_COUNTS = (
    "sim.events",
    "sim.scheduled",
    "net.frames",
    "net.candidates",
    "net.receivers",
    "energy.charges",
    "coverage.applies",
    "routing.deliveries",
    "sim.peak_pending",
)


class RepetitionError(RuntimeError):
    """A repetition process crashed or ran out of time."""


def run_child(spec: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run one repetition in a fresh process; its last stdout line is JSON."""
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=dict(os.environ, TMPDIR=str(tmp)),
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # Time-out or termination: stop the repetition and its pool workers.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RepetitionError(f"{spec['mode']} repetition ran out of time")
        raise
    if proc.returncode != 0:
        raise RepetitionError(
            f"{spec['mode']} repetition exited with code {proc.returncode}"
        )
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


def digest_failures(digest_lists: List[List[str]]) -> int:
    """Runs whose digest is an error or differs from the most common digest
    of the same run across repetitions."""
    failed = 0
    for column in zip(*digest_lists):
        common = Counter(column).most_common(1)[0][0]
        failed += sum(d != common or d == "error" for d in column)
    return failed


def consensus(digest_lists: List[List[str]]) -> str:
    """The most common digest of each run, combined over a sweep's runs."""
    import workloads

    column_digests = [Counter(c).most_common(1)[0][0] for c in zip(*digest_lists)]
    if len(column_digests) == 1:
        return column_digests[0]
    return workloads.combined_digest(column_digests)


def timed(args: argparse.Namespace, deadline: float) -> Dict[str, Any]:
    """Repeat the workload with tracing off; end-to-end medians."""
    import workloads

    runs_per_rep = len(workloads.sweep(args.seed)) if args.workload == "sweep" else 1
    reps: List[Dict[str, Any]] = []
    durations: List[float] = []
    attempted = failed = 0
    problems: List[str] = []
    start = time.monotonic()
    while True:
        # Start another repetition unless it would end more than half a
        # repetition past the budget, so runs average ``--seconds``.
        elapsed = time.monotonic() - start
        if len(durations) >= MIN_REPS and (
            elapsed + statistics.median(durations) / 2 > args.seconds
        ):
            break
        if durations and time.monotonic() + max(durations) > deadline:
            break
        t0 = time.monotonic()
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "mode": "plain",
            "setups": SETUPS_PER_REP,
        }
        attempted += runs_per_rep
        try:
            reps.append(run_child(spec, deadline))
        except RepetitionError as exc:
            failed += runs_per_rep
            problems.append(str(exc))
        durations.append(time.monotonic() - t0)
    if not reps:
        raise RepetitionError("no repetition completed: " + "; ".join(problems))
    digests = [rep["digests"] for rep in reps]
    failed += digest_failures(digests)
    for rep in reps:
        problems += rep["problems"]
    walls = [rep["wall_s"] for rep in reps]
    if args.workload == "sweep":
        throughput = [rep["runs_per_min"] for rep in reps]
    else:
        throughput = [60.0 / wall for wall in walls]
    samples = {
        "wall_s": walls,
        "setup_s": [s for rep in reps for s in rep["setup_s"]],
        "runs_per_min": throughput,
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
    }
    print(
        f"workload {args.workload}  seed {args.seed}  tracing off  "
        f"{len(reps)} repetitions in {time.monotonic() - start:.1f} s"
    )
    metrics = {}
    for name, values in samples.items():
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": END_TO_END[name]}
        print(
            f"  {name:<13} {value:>12.6g} {END_TO_END[name]:<6} median of "
            f"{len(values):>2}  [min {min(values):.6g}, max {max(values):.6g}]"
        )
    if args.workload == "sweep":
        busy = statistics.median(rep["worker_busy_ratio"] for rep in reps)
        print(f"  worker busy ratio {busy:.3f} (median)")
    print(
        f"  failed_ratio  {failed / attempted:>12.6g}        "
        f"{failed} of {attempted} runs"
    )
    print(f"  digest        {consensus(digests)}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }


def traced(args: argparse.Namespace, deadline: float) -> Dict[str, Any]:
    """One plain and one traced repetition plus the observability-cost
    rows; per-layer metrics."""
    start = time.monotonic()
    base = {"workload": args.workload, "seed": args.seed}
    plain = run_child(dict(base, mode="plain", setups=1), deadline)
    out_dir = OUT_DIR / "trace" / args.workload
    trace = run_child(dict(base, mode="traced", out_dir=str(out_dir)), deadline)
    budget = max(0.0, args.seconds - (time.monotonic() - start))
    obs = run_child(dict(base, mode="obs", budget_s=budget), deadline)
    digests = [plain["digests"], trace["digests"]]
    failed = digest_failures(digests) + obs["failed"]
    attempted = plain["runs"] + trace["runs"] + obs["runs"]
    problems = plain["problems"] + trace["problems"]
    layers = dict(trace["layers"])
    for name, ratio in obs["ratios"].items():
        layers[f"obs.{name}_ratio"] = ratio
    layers["obs.bench_trace_ratio"] = trace["wall_s"] / plain["wall_s"]
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        problems.append(f"per-layer metrics missing: {missing}")

    print(f"workload {args.workload}  seed {args.seed}  traced run")
    print(
        f"  digest {consensus(digests)}  (plain {consensus(digests[:1])}, "
        f"traced {consensus(digests[1:])})"
    )
    print("  work counts (exact, host-independent):")
    for name in WORK_COUNTS:
        print(f"    {name:<20} {layers[name]:>12d}")
    print(
        f"  layer self times: {trace['parent_span_s']:.4f} s of spans in the "
        f"benchmark process against {trace['traced_wall_s']:.4f} s traced wall"
    )
    for name, unit in PER_LAYER.items():
        if name in layers and name not in WORK_COUNTS:
            print(f"    {name:<30} {layers[name]:>14.6g} {unit}")
    print(
        f"  observability cost over {obs['rounds']} rounds of "
        f"{obs['runs'] // max(1, obs['rounds'])} short runs"
    )
    print(f"  failed_ratio {failed / attempted:.6g}  ({failed} of {attempted} runs)")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER.items()
            if name in layers
        },
        "problems": problems,
    }


def main(argv: List[str] | None = None) -> int:
    deadline = time.monotonic() + HARD_LIMIT_S
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    summary = (traced if args.trace else timed)(args, deadline)
    for problem in summary.pop("problems"):
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
