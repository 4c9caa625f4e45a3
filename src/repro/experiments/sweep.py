"""Parameter sweeps over scenarios with repeated seeds.

The paper averages every data point over 5 simulation runs (§5.2).  A sweep
here is a list of scenarios (typically one base scenario crossed with a
parameter list, a protocol list and a seed range); results can be computed
serially or on a process pool (each run is independent and seeded
deterministically).  Because a :class:`~repro.experiments.scenario.Scenario`
names its protocol and a :class:`~repro.harness.RunOptions` is picklable,
pooled runs execute the identical harness code path as serial ones —
capabilities included.

Execution is delegated to :mod:`repro.experiments.executor`, which makes
the sweep crash-safe end to end: failures are retried under a declarative
:class:`RetryPolicy` (exponential backoff, deterministic jitter, optional
per-run timeout), a run that exhausts its budget completes the sweep as a
quarantined :class:`RunError` instead of aborting it, worker death
re-spawns the pool and keeps draining, and — with ``options.store_dir``
set — every completed run is durable in a :class:`repro.store.ResultStore`
the moment it finishes, so an interrupted sweep re-run against the same
store resumes with zero recomputation (``docs/STORE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..harness.options import RunOptions
from .executor import (
    RetryPolicy,
    RunError,
    SweepError,
    _guarded_run,
    _Outcome,
    execute,
)
from .metrics import RunResult
from .scenario import Scenario

__all__ = [
    "RetryPolicy",
    "RunError",
    "SweepError",
    "WarmStart",
    "expand_seeds",
    "expand_protocols",
    "run_sweep",
    "group_by",
]

# Re-exported for callers and tests that reach for the internals here
# (the executor module is their home since the resumable-executor split).
_ = (_guarded_run, _Outcome)


@dataclass(frozen=True)
class WarmStart:
    """Shared burn-in for fault-surface sweeps (fig 12–14 style).

    A failure-rate sweep varies only the fault surface across variants, so
    every variant's first ``burn_in_s`` simulated seconds are identical —
    fault-free — work.  ``run_sweep(warm_start=...)`` simulates each
    distinct fault-quiescent base exactly once to ``burn_in_s``, writes a
    ``peas-snapshot/1`` checkpoint, and warm-start **forks** every variant
    from it (fresh fault RNG streams arm at the restored clock; see
    :mod:`repro.harness.snapshot`).

    Parameters
    ----------
    burn_in_s:
        Simulated seconds of shared prefix; must be below every
        scenario's ``max_time_s``.
    snapshot_dir:
        Where burn-in snapshots are written (created if missing).
        ``None`` uses the sweep's result store when one is attached
        (``options.store_dir``) — burn-ins are then cached across sweeps
        under the current code fingerprint — and otherwise a temporary
        directory deleted with the process.
    """

    burn_in_s: float
    snapshot_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.burn_in_s <= 0:
            raise ValueError("burn_in_s must be positive")


def expand_seeds(scenarios: Iterable[Scenario], seeds: Sequence[int]) -> List[Scenario]:
    """Cross a scenario list with a seed list."""
    return [scenario.with_(seed=seed) for scenario in scenarios for seed in seeds]


def expand_protocols(
    scenarios: Iterable[Scenario], protocols: Sequence[str]
) -> List[Scenario]:
    """Cross a scenario list with a protocol list (registry names)."""
    return [
        scenario.with_(protocol=protocol)
        for scenario in scenarios
        for protocol in protocols
    ]


def _prepare_warm_starts(
    scenarios: Sequence[Scenario],
    warm_start: WarmStart,
    options: Optional[RunOptions],
    telemetry,
    store=None,
) -> List[str]:
    """Simulate each distinct fault-quiescent base once; map every scenario
    to its burn-in snapshot path.  Runs serially in the parent (there are
    few distinct bases — fig 12 has one per seed).  With a result store
    attached (and no explicit ``snapshot_dir``), burn-ins live in the
    store's ``snapshots/`` area keyed by config digest + code fingerprint,
    so a later sweep re-forks from them without re-simulating."""
    import tempfile
    from pathlib import Path

    from ..faults.plan import FaultPlan
    from ..harness.runner import run
    from ..obs.manifest import config_hash
    from .serialize import scenario_to_dict

    for scenario in scenarios:
        if warm_start.burn_in_s >= scenario.max_time_s:
            raise ValueError(
                f"warm-start burn_in_s={warm_start.burn_in_s} must be below "
                f"every scenario's max_time_s; "
                f"{scenario.protocol}/n={scenario.num_nodes}/"
                f"seed={scenario.seed} has max_time_s={scenario.max_time_s}"
            )
        drift = [e for e in scenario.fault_plan.entries if e.kind == "clock_drift"]
        if drift:
            raise ValueError(
                "clock_drift fault plans cannot be warm-started (skews "
                "apply before the burn-in); run these scenarios without "
                "warm_start"
            )
    snapshot_store = None
    if warm_start.snapshot_dir is not None:
        out_dir = Path(warm_start.snapshot_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    elif store is not None:
        snapshot_store = store
        out_dir = store.snapshots_dir
    else:
        out_dir = Path(tempfile.mkdtemp(prefix="peas-warm-start-"))
    # Burn-ins run bare: the caller's capability stack (tracing, metrics)
    # describes the variant runs, not the shared prefix.  ``store_dir`` is
    # stripped too — the snapshot file itself is the cached artifact.
    sanitize = options.sanitize if options is not None else False
    paths: List[str] = []
    built: Dict[str, str] = {}
    for scenario in scenarios:
        base = scenario.with_(
            failure_per_5000s=0.0,
            fault_plan=FaultPlan(),
            max_time_s=warm_start.burn_in_s,
        )
        digest = config_hash(scenario_to_dict(base))
        if digest not in built:
            if snapshot_store is not None:
                target = snapshot_store.snapshot_target(digest)
                if snapshot_store.snapshot_valid(target):
                    snapshot_store.note_snapshot("hit", target.name)
                else:
                    snapshot_store.note_snapshot("miss", target.name)
                    run(
                        base,
                        RunOptions(snapshot_path=str(target), sanitize=sanitize),
                    )
                    snapshot_store.note_snapshot("put", target.name)
            else:
                target = out_dir / f"burn-in-{digest}.json"
                run(
                    base, RunOptions(snapshot_path=str(target), sanitize=sanitize)
                )
            built[digest] = str(target)
        paths.append(built[digest])
    if telemetry is not None:
        telemetry.note_warm_start(burn_ins=len(built), forks=len(paths))
    return paths


def run_sweep(
    scenarios: Sequence[Scenario],
    processes: Optional[int] = None,
    options: Optional[RunOptions] = None,
    errors: str = "raise",
    telemetry=None,
    warm_start: Optional[WarmStart] = None,
    retry: Optional[RetryPolicy] = None,
    _run_fn=None,
) -> List[Union[RunResult, RunError]]:
    """Run every scenario; ``processes`` > 1 uses a process pool.

    Results are returned in the order of the input scenarios either way, so
    downstream grouping is deterministic.  ``options`` applies the same
    capability stack (profile / sanitize / trace-to-path / metrics /
    result store) to every run, pooled or serial.  The executor dispatches
    runs individually so it can time them out and survive worker death.

    ``options.store_dir`` attaches a :class:`repro.store.ResultStore`:
    runs already recorded there (same scenario, seed, code fingerprint,
    options) replay instantly in the parent, every newly computed run is
    persisted the moment its worker finishes, and re-running an
    interrupted sweep against the same store resumes with zero
    recomputation of completed ``(scenario, seed)`` pairs.

    ``warm_start`` (a :class:`WarmStart`) simulates each distinct
    fault-quiescent base scenario once to ``burn_in_s``, snapshots it
    (``peas-snapshot/1``), and warm-start forks every variant run from the
    shared burn-in instead of simulating it from zero — the fig 12–14
    recipe, where variants differ only in failure rate.  With a store
    attached, burn-in snapshots are cached in it across sweeps.

    ``telemetry`` (a :class:`~repro.experiments.telemetry.SweepTelemetry`)
    attaches the sweep telemetry bus: pooled workers ship heartbeats to a
    live progress line, and once the sweep finishes — including the
    ``errors="raise"`` path, so a partly-failed sweep still leaves its
    exports behind — the merged ``peas-metrics/1`` / Prometheus / manifest
    files are written to the telemetry's output directory.

    ``retry`` (a :class:`RetryPolicy`, default two attempts with a short
    exponential backoff) governs failures: each failing run is retried
    with the identical scenario (runs are seed-deterministic, so a logic
    bug fails every attempt while a transient worker problem recovers),
    and a run that exhausts its attempts is quarantined as a structured
    :class:`RunError` carrying the attempt trail.  ``errors`` picks what
    happens to quarantined runs: ``"raise"`` (default) raises a
    :class:`SweepError` summarizing every failure once the sweep finishes,
    ``"collect"`` returns :class:`RunError` records in the failed runs'
    positions (callers filter with ``isinstance``).
    """
    if errors not in ("raise", "collect"):
        raise ValueError(f"errors must be 'raise' or 'collect', got {errors!r}")
    options = options if options is not None else RunOptions()
    policy = retry if retry is not None else RetryPolicy()
    store = None
    if options.store_dir is not None:
        from ..store import ResultStore, store_eligible

        if store_eligible(options):
            store = ResultStore(options.store_dir)
    pooled = processes is not None and processes > 1
    if telemetry is not None:
        telemetry.start(len(scenarios), processes=processes if pooled else 1)
    warm_paths: Optional[List[str]] = None
    if warm_start is not None:
        warm_paths = _prepare_warm_starts(
            scenarios, warm_start, options, telemetry, store=store
        )
    results = execute(
        scenarios,
        processes=processes if pooled else None,
        options=options,
        policy=policy,
        telemetry=telemetry,
        warm_paths=warm_paths,
        warm_burn_in_s=warm_start.burn_in_s if warm_start is not None else None,
        store=store,
        run_fn=_run_fn if _run_fn is not None else _guarded_run,
    )
    if store is not None and telemetry is not None:
        hits = store.session["hits"]
        telemetry.note_store(
            hits=hits,
            misses=len(scenarios) - hits,
            evictions=store.session["evictions"] + store.session["quarantined"],
        )
    failures = [r for r in results if isinstance(r, RunError)]
    if telemetry is not None:
        telemetry.finish(scenarios, results)
    if failures and errors == "raise":
        raise SweepError(failures)
    return results


def group_by(
    results: Iterable[RunResult], key: Callable[[RunResult], object]
) -> Dict[object, List[RunResult]]:
    """Group run results (e.g. by population or failure rate) preserving
    first-seen key order."""
    groups: Dict[object, List[RunResult]] = {}
    for result in results:
        groups.setdefault(key(result), []).append(result)
    return groups
