"""The sweep executor: retries, timeouts, pool resurrection, store replay.

``run_sweep`` used to be a ``pool.map`` call with one hardcoded same-seed
retry bolted on the side.  This module replaces that with an explicit
executor whose failure semantics are declarative and whose unit of
dispatch is one run, which is what makes the rest possible:

* a :class:`RetryPolicy` decides how many attempts a run gets, how long to
  back off between them (exponential, with deterministic jitter drawn from
  the ``"sweep.retry"`` RNG stream — never from global ``random``), and an
  optional per-run wall-clock timeout enforced by the pool;
* a run that exhausts its attempts is **quarantined**: it completes the
  sweep as a structured :class:`RunError` carrying the full attempt trail,
  total retry wall-clock, and a ``quarantined`` flag that telemetry counts
  (``peas_sweep_quarantined_total``) — one poison seed never aborts the
  battery;
* worker death (``BrokenProcessPool`` after a SIGKILL or OOM) degrades
  gracefully: the executor re-spawns the pool, charges an attempt to the
  runs it *observed running* (their work died with the worker), re-queues
  runs that were merely waiting at no cost, and keeps draining.  The
  in-flight ``(scenario, seed)`` coordinates land in the ``RunError``
  messages, so ``errors="collect"`` semantics hold instead of surfacing an
  opaque pool crash;
* when a :class:`repro.store.ResultStore` is attached, every run already
  in the store replays instantly in the parent before anything is
  dispatched — an interrupted sweep re-run against the same store resumes
  with zero recomputation of completed pairs.

The executor runs in the *parent* process; wall-clock reads here are
legitimate (``repro.experiments`` is outside the lint's sim scope) and
never touch simulation state.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..harness.options import RunOptions
from ..sim import RngRegistry
from .metrics import RunResult
from .scenario import Scenario

__all__ = ["RetryPolicy", "RunError", "SweepError"]

#: Seconds between poll iterations of the pooled drain loop.
_POLL_S = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats a failing run.

    Parameters
    ----------
    max_attempts:
        Total attempts per run (1 = no retries).  The default of 2
        preserves the historical one-same-seed-retry behavior: runs are
        seed-deterministic, so a logic bug fails twice while a transient
        worker problem recovers.
    backoff_base_s / backoff_factor / backoff_max_s:
        Exponential backoff between attempts: after the ``k``-th failure
        the executor waits ``min(base * factor**(k-1), max)`` seconds,
        scaled by jitter.
    jitter:
        Fractional jitter on top of the backoff, drawn from the
        ``"sweep.retry"`` RNG stream (deterministic per sweep seed): the
        actual delay is ``backoff * (1 + jitter * u)`` with ``u ~ U[0,1)``.
    run_timeout_s:
        Per-run wall-clock budget, enforced by the **pool** (the parent
        kills and re-spawns worker processes; a serial sweep cannot
        preempt itself, so the timeout only applies when ``processes >
        1``).  A timed-out attempt counts against ``max_attempts``.
    """

    max_attempts: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    jitter: float = 0.5
    run_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1")
        if self.backoff_max_s < 0:
            raise ValueError("backoff_max_s must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise ValueError("run_timeout_s must be positive")

    def backoff_s(self, failed_attempts: int, rng: Any) -> float:
        """Delay before the next attempt, after ``failed_attempts`` failures."""
        base = min(
            self.backoff_base_s * self.backoff_factor ** max(0, failed_attempts - 1),
            self.backoff_max_s,
        )
        return base * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class RunError:
    """A structured record of one failed run (picklable, JSON-friendly).

    Captures what the parent process needs to triage a worker crash
    without the original exception object: the scenario's identifying
    coordinates, the exception type/message, the formatted traceback, and
    the retry history the executor accumulated.
    """

    scenario: Scenario
    error_type: str
    error_message: str
    traceback_text: str
    #: how many attempts were made (1 = failed without a retry)
    attempts: int = 1
    #: wall-clock seconds spent between the first failure and giving up
    #: (backoff waits and re-runs included)
    retry_wall_s: float = 0.0
    #: one ``"TypeName: message"`` line per failed attempt, oldest first
    trail: Tuple[str, ...] = ()
    #: True when the run exhausted its full retry budget (a poison seed),
    #: False for runs the executor gave up on for external reasons (e.g.
    #: the pool kept dying while they were queued)
    quarantined: bool = False

    def summary(self, traceback_lines: int = 3) -> str:
        """One actionable block per failure: the failing run's coordinates
        (protocol / population / seed — enough to re-run it solo), the
        exception, the retry history, and the tail of the worker traceback
        (the frames nearest the raise; the head is usually pool
        plumbing)."""
        head = (
            f"{self.scenario.protocol}/n={self.scenario.num_nodes}/"
            f"seed={self.scenario.seed}: {self.error_type}: "
            f"{self.error_message}"
        )
        lines = [head]
        if self.attempts > 1:
            wall = f" over {self.retry_wall_s:.1f}s of retries" if (
                self.retry_wall_s > 0
            ) else ""
            lines.append(f"    [{self.attempts} attempts{wall}]")
        tail = [
            line
            for line in self.traceback_text.rstrip().splitlines()
            if line.strip()
        ][-traceback_lines:]
        lines.extend(f"    {line.rstrip()}" for line in tail)
        return "\n".join(lines)


class SweepError(RuntimeError):
    """Raised by ``run_sweep(errors="raise")`` after the sweep completes;
    carries every :class:`RunError` for triage."""

    def __init__(self, failures: List[RunError]) -> None:
        lines = "\n".join(f"  - {f.summary()}" for f in failures)
        super().__init__(
            f"{len(failures)} of the sweep's runs failed after exhausting "
            f"their retry budget:\n{lines}"
        )
        self.failures = failures


@dataclass
class _Outcome:
    """Picklable envelope a guarded worker sends back: result or error."""

    result: Optional[RunResult] = None
    error: Optional[RunError] = None
    retried: bool = field(default=False, compare=False)


def _warm_run(
    scenario: Scenario,
    warm_snapshot: str,
    options: RunOptions,
    warm_burn_in_s: Optional[float],
) -> RunResult:
    """A warm-start fork, store-aware: the harness-level store passthrough
    only covers cold runs, so the fork path keys its own records — with
    the burn-in marker, because a warm-started result (faults arm at the
    restored clock) is *not* interchangeable with a cold one."""
    from ..harness.snapshot import resume as _resume_snapshot

    store = None
    key = None
    if options.store_dir is not None:
        from ..store import ResultStore, store_eligible

        if store_eligible(options):
            store = ResultStore(options.store_dir)
            key = store.key_for(scenario, options, warm_burn_in_s=warm_burn_in_s)
            cached = store.get(key)
            if cached is not None:
                return cached
            store.note_miss(key)
    result = _resume_snapshot(warm_snapshot, options, scenario=scenario)
    if store is not None and key is not None:
        store.put(key, result, scenario, options, warm_burn_in_s=warm_burn_in_s)
    return result


def _guarded_run(
    scenario: Scenario,
    warm_snapshot: Optional[str] = None,
    *,
    options: RunOptions,
    warm_burn_in_s: Optional[float] = None,
) -> _Outcome:
    # The telemetry hooks are process-global no-ops unless this worker was
    # initialized by a SweepTelemetry bus (see experiments.telemetry).
    # Harness imports stay inside the function: experiments <-> harness is
    # otherwise a package-level import cycle.
    from ..harness.runner import run
    from .telemetry import worker_run_finished, worker_run_started

    worker_run_started(scenario)
    try:
        if warm_snapshot is not None:
            result = _warm_run(scenario, warm_snapshot, options, warm_burn_in_s)
        else:
            result = run(scenario, options)
        outcome = _Outcome(result=result)
    except Exception as exc:  # noqa: BLE001 - captured, surfaced by policy
        outcome = _Outcome(
            error=RunError(
                scenario=scenario,
                error_type=type(exc).__name__,
                error_message=str(exc),
                traceback_text=traceback.format_exc(),
            )
        )
    worker_run_finished(ok=outcome.error is None)
    return outcome


@dataclass
class _Item:
    """One run's progress through the executor."""

    index: int
    scenario: Scenario
    warm_snapshot: Optional[str] = None
    attempts: int = 0
    #: free re-queues after pool deaths that did not involve this run
    free_requeues: int = 0
    trail: List[str] = field(default_factory=list)
    last_error: Optional[RunError] = None
    eligible_at: float = 0.0
    first_failure_at: Optional[float] = None
    observed_running: bool = False
    running_since: Optional[float] = None
    outcome: Optional[Union[RunResult, RunError]] = None


class _Executor:
    """Drains a list of items through retries, timeouts, and pool deaths."""

    def __init__(
        self,
        items: List[_Item],
        *,
        options: RunOptions,
        policy: RetryPolicy,
        telemetry: Any,
        warm_burn_in_s: Optional[float],
        run_fn: Callable[..., _Outcome],
    ) -> None:
        self.items = items
        self.options = options
        self.policy = policy
        self.telemetry = telemetry
        self.warm_burn_in_s = warm_burn_in_s
        self.run_fn = run_fn
        # Deterministic jitter: one named stream per sweep, seeded from the
        # first scenario (the stream lives in the parent and never
        # interacts with any simulation RNG).
        master = items[0].scenario.seed if items else 0
        self.jitter_rng = RngRegistry(seed=master).stream("sweep.retry")
        #: pool deaths tolerated per queued-but-not-running item before the
        #: executor stops re-queueing it for free
        self.max_free_requeues = max(3, policy.max_attempts + 1)

    # ----------------------------------------------------------- serial
    def run_serial(self) -> None:
        for item in self.items:
            if item.outcome is not None:
                continue
            while item.outcome is None:
                item.attempts += 1
                outcome = self.run_fn(
                    item.scenario,
                    item.warm_snapshot,
                    options=self.options,
                    warm_burn_in_s=self.warm_burn_in_s,
                )
                if self.telemetry is not None:
                    self.telemetry.note_outcome(
                        ok=outcome.error is None,
                        scenario=item.scenario,
                        retry=item.attempts > 1,
                    )
                if outcome.error is None:
                    item.outcome = outcome.result
                    break
                self._record_failure(item, outcome.error)
                if item.attempts >= self.policy.max_attempts:
                    self._finalize_failure(item, quarantined=True)
                else:
                    time.sleep(self.policy.backoff_s(item.attempts, self.jitter_rng))

    # ----------------------------------------------------------- pooled
    def run_pooled(self, processes: int) -> None:
        self._pool_size = processes
        pool = self._make_pool()
        pending: List[_Item] = [i for i in self.items if i.outcome is None]
        in_flight: Dict[Any, _Item] = {}
        try:
            while pending or in_flight:
                now = time.monotonic()
                broken = False
                for item in [i for i in pending if i.eligible_at <= now]:
                    try:
                        future = pool.submit(
                            self.run_fn,
                            item.scenario,
                            item.warm_snapshot,
                            options=self.options,
                            warm_burn_in_s=self.warm_burn_in_s,
                        )
                    except (BrokenProcessPool, RuntimeError):
                        broken = True
                        break
                    pending.remove(item)
                    item.observed_running = False
                    item.running_since = None
                    in_flight[future] = item
                if broken:
                    pool = self._restart_pool(pool, in_flight, pending, culprit=None)
                    continue
                if not in_flight:
                    next_at = min(i.eligible_at for i in pending)
                    time.sleep(max(0.0, min(next_at - time.monotonic(), 0.25)))
                    continue

                done, _ = wait(
                    list(in_flight), timeout=_POLL_S, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                timed_out: Optional[_Item] = None
                for future, item in in_flight.items():
                    if future in done:
                        continue
                    if future.running():
                        item.observed_running = True
                        if item.running_since is None:
                            item.running_since = now
                        elif (
                            self.policy.run_timeout_s is not None
                            and now - item.running_since >= self.policy.run_timeout_s
                        ):
                            timed_out = item
                            break
                if timed_out is not None:
                    # The only way to stop a hung worker mid-run is to kill
                    # the pool; everyone else in flight is innocent and
                    # re-queues for free.
                    self._charge_parent_failure(
                        timed_out,
                        error_type="TimeoutError",
                        message=(
                            f"run exceeded the {self.policy.run_timeout_s}s "
                            "wall-clock budget; worker killed"
                        ),
                    )
                    pool = self._restart_pool(
                        pool, in_flight, pending, culprit=timed_out
                    )
                    continue

                pool_died = False
                for future in done:
                    item = in_flight.get(future)
                    if item is None:
                        continue
                    try:
                        outcome = future.result()
                    except CancelledError:
                        in_flight.pop(future)
                        self._requeue_free(item, pending)
                        continue
                    except BrokenProcessPool:
                        # A worker was SIGKILLed / OOMed.  Leave the item
                        # in flight: once every *successful* future in
                        # this batch is harvested, ``_restart_pool``
                        # triages the casualties (observed-running runs
                        # consume an attempt, queued ones re-run free).
                        pool_died = True
                        continue
                    except Exception as exc:  # noqa: BLE001 - dispatch plumbing
                        in_flight.pop(future)
                        item.attempts += 1
                        self._record_failure(
                            item,
                            RunError(
                                scenario=item.scenario,
                                error_type=type(exc).__name__,
                                error_message=str(exc),
                                traceback_text=traceback.format_exc(),
                            ),
                        )
                        self._schedule_or_finalize(item, pending)
                        continue
                    in_flight.pop(future)
                    item.attempts += 1
                    if outcome.error is None:
                        item.outcome = outcome.result
                    else:
                        self._record_failure(item, outcome.error)
                        self._schedule_or_finalize(item, pending)
                if pool_died:
                    pool = self._restart_pool(pool, in_flight, pending, culprit=None)
                    continue
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    # -------------------------------------------------- failure plumbing
    def _record_failure(self, item: _Item, error: RunError) -> None:
        item.last_error = error
        item.trail.append(f"{error.error_type}: {error.error_message}")
        if item.first_failure_at is None:
            item.first_failure_at = time.monotonic()

    def _charge_parent_failure(
        self, item: _Item, *, error_type: str, message: str
    ) -> None:
        """A failure detected in the parent (no worker traceback exists):
        consume an attempt and record a structured error naming the run."""
        item.attempts += 1
        self._record_failure(
            item,
            RunError(
                scenario=item.scenario,
                error_type=error_type,
                error_message=message,
                traceback_text="",
            ),
        )
        if self.telemetry is not None:
            self.telemetry.note_outcome(
                ok=False, scenario=item.scenario, retry=item.attempts > 1
            )

    def _schedule_or_finalize(self, item: _Item, pending: List[_Item]) -> None:
        if item.attempts >= self.policy.max_attempts:
            self._finalize_failure(item, quarantined=True)
            return
        delay = self.policy.backoff_s(item.attempts, self.jitter_rng)
        item.eligible_at = time.monotonic() + delay
        pending.append(item)
        if self.telemetry is not None:
            self.telemetry.note_retry(scenario=item.scenario)

    def _finalize_failure(self, item: _Item, *, quarantined: bool) -> None:
        last = item.last_error
        assert last is not None
        retry_wall = 0.0
        if item.first_failure_at is not None and item.attempts > 1:
            retry_wall = time.monotonic() - item.first_failure_at
        item.outcome = RunError(
            scenario=item.scenario,
            error_type=last.error_type,
            error_message=last.error_message,
            traceback_text=last.traceback_text,
            attempts=item.attempts,
            retry_wall_s=round(retry_wall, 3),
            trail=tuple(item.trail),
            quarantined=quarantined,
        )
        if quarantined and self.telemetry is not None:
            self.telemetry.note_quarantined(scenario=item.scenario)

    def _requeue_free(self, item: _Item, pending: List[_Item]) -> None:
        """Re-queue a run that lost its slot through no fault of its own
        (the pool died while it was waiting).  Bounded: a pool that dies
        faster than it can start work must not spin forever."""
        item.free_requeues += 1
        if item.free_requeues > self.max_free_requeues:
            item.attempts = max(item.attempts, 1)
            self._record_failure(
                item,
                RunError(
                    scenario=item.scenario,
                    error_type="BrokenProcessPool",
                    error_message=(
                        f"pool died {item.free_requeues} times while "
                        f"{self._coords(item)} was queued; giving up"
                    ),
                    traceback_text="",
                ),
            )
            self._finalize_failure(item, quarantined=False)
            return
        item.eligible_at = time.monotonic()
        pending.append(item)

    def _restart_pool(
        self,
        pool: ProcessPoolExecutor,
        in_flight: Dict[Any, _Item],
        pending: List[_Item],
        *,
        culprit: Optional[_Item],
    ) -> ProcessPoolExecutor:
        """Tear the pool down hard, triage every in-flight run, re-spawn."""
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already dead
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - a broken pool may refuse politely
            pass
        for future, item in list(in_flight.items()):
            if item is culprit:
                # Already charged by the caller.
                self._schedule_or_finalize(item, pending)
            elif culprit is None and item.observed_running:
                # Spontaneous worker death: work observed executing died
                # with the worker and consumes an attempt.
                self._charge_parent_failure(
                    item,
                    error_type="BrokenProcessPool",
                    message=self._death_message(item),
                )
                self._schedule_or_finalize(item, pending)
            else:
                self._requeue_free(item, pending)
        in_flight.clear()
        if self.telemetry is not None:
            self.telemetry.note_pool_restart()
        return self._make_pool()

    def _make_pool(self) -> ProcessPoolExecutor:
        pool_kwargs: Dict[str, Any] = (
            self.telemetry.pool_kwargs() if self.telemetry is not None else {}
        )
        return ProcessPoolExecutor(max_workers=self._pool_size, **pool_kwargs)

    def _coords(self, item: _Item) -> str:
        scenario = item.scenario
        return (
            f"{scenario.protocol}/n={scenario.num_nodes}/seed={scenario.seed}"
        )

    def _death_message(self, item: _Item) -> str:
        return (
            f"worker process died (SIGKILL/OOM) while running "
            f"{self._coords(item)}; pool restarted"
        )


def execute(
    scenarios: Sequence[Scenario],
    *,
    processes: Optional[int],
    options: RunOptions,
    policy: RetryPolicy,
    telemetry: Any = None,
    warm_paths: Optional[Sequence[str]] = None,
    warm_burn_in_s: Optional[float] = None,
    store: Any = None,
    run_fn: Callable[..., _Outcome] = _guarded_run,
) -> List[Union[RunResult, RunError]]:
    """Drain ``scenarios`` through the retry/timeout/store machinery.

    Returns results in input order.  ``store`` (a
    :class:`repro.store.ResultStore`) enables the instant-replay pass:
    runs whose records verify are never dispatched.  ``run_fn`` is a test
    seam — it must be a module-level picklable callable with
    :func:`_guarded_run`'s signature.
    """
    items = [
        _Item(
            index=index,
            scenario=scenario,
            warm_snapshot=warm_paths[index] if warm_paths is not None else None,
        )
        for index, scenario in enumerate(scenarios)
    ]
    if store is not None:
        for item in items:
            key = store.key_for(
                item.scenario, options, warm_burn_in_s=warm_burn_in_s
            )
            cached = store.get(key)
            if cached is not None:
                item.outcome = cached
                if telemetry is not None:
                    telemetry.note_store_hit(scenario=item.scenario)
    executor = _Executor(
        items,
        options=options,
        policy=policy,
        telemetry=telemetry,
        warm_burn_in_s=warm_burn_in_s,
        run_fn=run_fn,
    )
    if processes is not None and processes > 1:
        executor.run_pooled(processes)
    else:
        executor.run_serial()
    results: List[Union[RunResult, RunError]] = []
    for item in items:
        assert item.outcome is not None
        results.append(item.outcome)
    return results
