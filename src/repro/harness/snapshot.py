"""``peas-snapshot/1``: serialized simulation state and the restore paths.

A snapshot is one JSON document capturing everything mutable about a paused
run — engine clock and queue (as handler descriptors), every RNG stream,
protocol/node/channel state, coverage and traffic series, fault histories —
plus the scenario that produced it and provenance (git SHA, config digest)
so a restore can refuse state it cannot faithfully continue.

Two restore modes share one mechanism:

* **resume** — same scenario: continue the captured run exactly.  A
  checkpointed-then-resumed run produces the byte-identical
  ``peas-trace/1`` suffix and identical metrics to the uninterrupted run.
* **fork** (warm start) — the requested scenario differs from the
  snapshot's only in the fault surface (``failure_per_5000s``,
  ``fault_plan``) and/or ``max_time_s``.  The burn-in must have been
  fault-quiescent; the variant's fault processes arm at the restored
  clock on fresh RNG streams.  ``run_sweep(warm_start=...)`` uses this to
  simulate shared burn-in once per fig-12-style sweep.

See ``docs/SNAPSHOTS.md`` for the format specification and contract.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..experiments.metrics import RunResult
from ..experiments.scenario import Scenario
from ..experiments.serialize import scenario_from_dict, scenario_to_dict
from ..obs.manifest import config_hash, git_sha
from ..obs.tracer import Tracer
from ..sim import Simulator, SnapshotError
from .options import RunOptions

__all__ = [
    "SNAPSHOT_SCHEMA",
    "FORK_ALLOWED_FIELDS",
    "snapshot_provenance",
    "save_snapshot",
    "load_snapshot",
    "classify_restore",
    "resume",
]

SNAPSHOT_SCHEMA = "peas-snapshot/1"

#: Scenario fields a warm-start fork may change; anything else must match
#: the burn-in exactly (a different deployment, protocol or timing config
#: would make the restored state meaningless).
FORK_ALLOWED_FIELDS = frozenset({"failure_per_5000s", "fault_plan", "max_time_s"})


def snapshot_provenance(scenario: Scenario, sim: Simulator) -> Dict[str, Any]:
    """The provenance block stamped into every snapshot."""
    return {
        "git_sha": git_sha(),
        "config_digest": config_hash(scenario_to_dict(scenario)),
        "created_at_sim_s": sim.now,
        "created_events_executed": sim.events_executed,
    }


def save_snapshot(snapshot: Dict[str, Any], path: Union[str, Path]) -> None:
    """Write a snapshot document atomically (write-then-rename via the
    shared :func:`repro.obs.atomic.atomic_write_text` helper, so a crash
    mid-checkpoint never leaves a truncated file at the target path)."""
    from ..obs.atomic import atomic_write_text

    atomic_write_text(path, json.dumps(snapshot) + "\n")


def load_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and format-check a snapshot document."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    fmt = document.get("format") if isinstance(document, dict) else None
    if fmt != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"{path}: not a {SNAPSHOT_SCHEMA} document (format={fmt!r})"
        )
    return document


def classify_restore(
    snapshot_scenario: Dict[str, Any], scenario: Dict[str, Any]
) -> str:
    """``"resume"`` when the scenario dicts match, ``"fork"`` when they
    differ only in :data:`FORK_ALLOWED_FIELDS`; anything else raises."""
    keys = set(snapshot_scenario) | set(scenario)
    changed = sorted(
        key
        for key in keys
        if snapshot_scenario.get(key) != scenario.get(key)
    )
    if not changed:
        return "resume"
    blocked = [key for key in changed if key not in FORK_ALLOWED_FIELDS]
    if blocked:
        raise SnapshotError(
            "scenario is incompatible with the snapshot: fields "
            f"{blocked} differ; a warm-start fork may only change "
            f"{sorted(FORK_ALLOWED_FIELDS)}"
        )
    return "fork"


def _validate_fork(
    snapshot_scenario: Dict[str, Any], scenario: Scenario
) -> None:
    """Fork preconditions: quiescent burn-in, no drift in the variant."""
    burn_in_plan = snapshot_scenario.get("fault_plan") or {}
    if snapshot_scenario.get("failure_per_5000s", 0) != 0 or burn_in_plan.get(
        "entries"
    ):
        raise SnapshotError(
            "warm-start forks require a fault-quiescent burn-in "
            "(failure_per_5000s=0 and an empty fault plan); this snapshot's "
            "burn-in injected faults, so variant runs would not share it"
        )
    drift = [e.kind for e in scenario.fault_plan.entries if e.kind == "clock_drift"]
    if drift:
        raise SnapshotError(
            "clock_drift faults cannot be introduced by a warm-start fork: "
            "skews apply at prepare() time and the restored node states "
            "would overwrite them; put drift in the burn-in scenario instead"
        )


def _check_provenance(
    snapshot: Dict[str, Any], *, force: bool = False
) -> None:
    """Refuse snapshots whose provenance does not match this tree.

    The config digest is recomputed from the embedded scenario (corruption
    check, never skippable).  The git SHA must match the current checkout;
    ``None`` on either side is a wildcard, and ``force=True`` downgrades a
    mismatch to acceptance (the restored run may then diverge from the
    snapshotting code's behavior — on your head be it).
    """
    provenance = snapshot.get("provenance", {})
    digest = config_hash(snapshot["scenario"])
    stored = provenance.get("config_digest")
    if stored is not None and stored != digest:
        raise SnapshotError(
            f"snapshot config digest {stored} does not match its embedded "
            f"scenario ({digest}); the file is corrupt or was edited"
        )
    snap_sha = provenance.get("git_sha")
    here_sha = git_sha()
    if snap_sha is not None and here_sha is not None and snap_sha != here_sha:
        if not force:
            raise SnapshotError(
                f"snapshot was written at git {snap_sha} but this tree is at "
                f"{here_sha}; behavior may have changed between commits — "
                "pass force=True (or --force) to restore anyway"
            )


def resume(
    snapshot: Union[str, Path, Dict[str, Any]],
    options: Optional[RunOptions] = None,
    *,
    scenario: Optional[Scenario] = None,
    tracer: Optional[Tracer] = None,
    force: bool = False,
) -> RunResult:
    """Restore a snapshot and run it to completion.

    Parameters
    ----------
    snapshot:
        A path to a ``peas-snapshot/1`` file, or an already-loaded
        document.
    options:
        Capability stack for the restored run.  Note a restored run's
        trace contains only events *from the restore point on* — prepend
        the checkpointing run's trace for the full history.
    scenario:
        ``None`` resumes the snapshot's own scenario.  A different
        scenario requests a warm-start **fork** and must differ only in
        :data:`FORK_ALLOWED_FIELDS` (the snapshot's burn-in must have
        been fault-quiescent).
    tracer:
        Optional live tracer, as in :func:`repro.harness.run`.
    force:
        Accept a git-SHA provenance mismatch.
    """
    from .runner import _execute

    if not isinstance(snapshot, dict):
        snapshot = load_snapshot(snapshot)
    elif snapshot.get("format") != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"not a {SNAPSHOT_SCHEMA} document "
            f"(format={snapshot.get('format')!r})"
        )
    _check_provenance(snapshot, force=force)
    snapshot_scenario = snapshot["scenario"]
    if scenario is None:
        scenario = scenario_from_dict(snapshot_scenario)
        mode = "resume"
    else:
        mode = classify_restore(snapshot_scenario, scenario_to_dict(scenario))
        if mode == "fork":
            _validate_fork(snapshot_scenario, scenario)

    def boot(live) -> None:
        live.load_snapshot(snapshot, mode=mode)

    return _execute(scenario, options, tracer, boot)
