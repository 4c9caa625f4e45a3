"""Span recording and per-layer attribution for the traced benchmark run.

The benchmark measures the simulator from outside the program.
:func:`install` wraps public entry points of each ``repro`` package (class
attributes and module functions) and adds an engine ``pre_event_hook`` that
attributes every fired event to the package of the callable it runs.  Each
wrapped call and each event becomes a span with a name, a start, an end and
a parent, kept in flat in-memory arrays and written out once at the end.

A span's self time is its duration minus the time its child spans cover,
so the self times of all spans under a root add up to the root's duration.
A span's layer is the first component of its name; time of the root span
itself, and of any span outside :data:`LAYERS`, is reported as ``other``.

Forked worker processes (the sweep's process pool) inherit the wrappers and
start from an empty recorder; each time a worker's outermost span closes,
the worker writes its spans to ``out_dir`` for the parent to merge.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: The ``repro`` packages the benchmark attributes time to, in report order.
LAYERS = (
    "sim",
    "net",
    "core",
    "energy",
    "coverage",
    "routing",
    "faults",
    "harness",
    "experiments",
    "store",
)

#: Package names whose events belong to a differently named layer.
_PACKAGE_LAYER = {"failures": "faults"}

#: Span name of the benchmark's own root span (its self time is ``other``).
ROOT = "bench.run"

#: Counts that record a sampled peak rather than a number of operations.
PEAK_COUNTS = ("sim.peak_pending",)

#: Per span name: (calls, inclusive seconds, self seconds).
SpanTable = Dict[str, Tuple[int, float, float]]


class SpanRecorder:
    """Flat in-memory span store plus exact work counters."""

    def __init__(self, out_dir: Optional[Path] = None) -> None:
        self.clock = time.perf_counter
        self.out_dir = out_dir
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        #: indices of the spans open right now, innermost last
        self.stack: List[int] = []
        #: exact, host-independent work counts (and sampled peaks)
        self.counts: Dict[str, int] = {}
        self.forked = False
        self._flushes = 0
        ref = weakref.ref(self)

        def after_fork() -> None:
            recorder = ref()
            if recorder is not None:
                recorder._reset(forked=True)

        os.register_at_fork(after_in_child=after_fork)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def open(self, nid: int) -> int:
        idx = len(self.starts)
        stack = self.stack
        self.parents.append(stack[-1] if stack else -1)
        self.name_ids.append(nid)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stack.pop()
        if not self.stack and self.forked:
            self.flush()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def innermost(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.names[self.name_ids[self.stack[-1]]] if self.stack else None

    def duration(self, name: str) -> float:
        """Total inclusive seconds of every closed span called ``name``."""
        return self.table().get(name, (0, 0.0, 0.0))[1]

    def table(self) -> SpanTable:
        return span_table(self._arrays())

    def flush(self) -> Path:
        """Write every recorded span and count to ``out_dir``, then forget
        them (a forked worker flushes after each outermost span)."""
        if self.out_dir is None:
            raise RuntimeError("recorder has no out_dir to write spans to")
        if self.stack:
            raise RuntimeError("cannot write spans while spans are open")
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}-{self._flushes}.npz"
        self._flushes += 1
        names, starts, ends, name_ids, parents = self._arrays()
        np.savez(
            path,
            names=np.array(names, dtype=str),
            starts=starts,
            ends=ends,
            name_ids=name_ids,
            parents=parents,
            counts=np.array(json.dumps(self.counts)),
        )
        self._reset(forked=self.forked)
        return path

    def _arrays(self):
        return (
            list(self.names),
            np.frombuffer(self.starts, dtype=np.float64).copy(),
            np.frombuffer(self.ends, dtype=np.float64).copy(),
            np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            np.frombuffer(self.parents, dtype=np.int32).copy(),
        )

    def _reset(self, *, forked: bool) -> None:
        # In place: the wrappers hold references to these containers.
        del self.starts[:]
        del self.ends[:]
        del self.name_ids[:]
        del self.parents[:]
        self.stack.clear()
        self.counts.clear()
        self.forked = forked


def span_table(arrays) -> SpanTable:
    """Calls, inclusive and self seconds per span name."""
    names, starts, ends, name_ids, parents = arrays
    if len(starts) == 0:
        return {}
    dur = ends - starts
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    self_s = dur - covered
    width = len(names)
    calls = np.bincount(name_ids, minlength=width)
    incl = np.bincount(name_ids, weights=dur, minlength=width)
    own = np.bincount(name_ids, weights=self_s, minlength=width)
    return {
        name: (int(calls[i]), float(incl[i]), float(own[i]))
        for i, name in enumerate(names)
        if calls[i]
    }


def load_spans(path: Path) -> Tuple[SpanTable, Dict[str, int]]:
    """The span table and counts of one file written by :meth:`flush`."""
    with np.load(path) as data:
        arrays = (
            [str(name) for name in data["names"]],
            data["starts"],
            data["ends"],
            data["name_ids"],
            data["parents"],
        )
        counts = json.loads(str(data["counts"]))
    return span_table(arrays), counts


def merge(tables: List[SpanTable]) -> SpanTable:
    merged: Dict[str, List[float]] = {}
    for table in tables:
        for name, row in table.items():
            acc = merged.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
    return {name: (int(c), i, s) for name, (c, i, s) in merged.items()}


def merge_counts(counts: List[Dict[str, int]]) -> Dict[str, int]:
    """Sum work counts across processes; peaks merge by maximum."""
    merged: Dict[str, int] = {}
    for part in counts:
        for key, value in part.items():
            if key in PEAK_COUNTS:
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def layer_of(span_name: str) -> str:
    layer = span_name.split(".", 1)[0]
    return layer if layer in LAYERS else "other"


def layer_self_times(table: SpanTable) -> Dict[str, float]:
    """Self seconds per layer plus ``other``; they sum to the roots' time."""
    totals = {layer: 0.0 for layer in LAYERS + ("other",)}
    for name, (_calls, _incl, own) in table.items():
        totals[layer_of(name)] += own
    return totals


# --------------------------------------------------------------------------
# Wrappers
# --------------------------------------------------------------------------
class Patches:
    """The attributes :func:`install` replaced; :meth:`restore` puts the
    originals back (also as a context manager)."""

    def __init__(self) -> None:
        #: (owner, attribute, original value or _MISSING)
        self.saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self.saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self.saved):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self.saved.clear()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


_MISSING = object()


def _timed(rec: SpanRecorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    nid = rec.name_id(name)
    open_span, close_span = rec.open, rec.close

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx = open_span(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(idx)

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _event_layer(func: Any) -> str:
    module = getattr(func, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    return _PACKAGE_LAYER.get(parts[1], parts[1])


def _event_hook(rec: SpanRecorder, complete: Any) -> Callable[[Any], None]:
    """The ``pre_event_hook`` that turns each fired event into a span named
    ``<layer>.event.<callback>``, the layer being the package of the model
    callback (seen through the engine's Timer/PeriodicProcess helpers)."""
    ids: Dict[Any, int] = {}
    open_span, close_span = rec.open, rec.close

    def hook(event: Any) -> None:
        fn = event.fn
        func = getattr(fn, "__func__", fn)
        owner = getattr(fn, "__self__", None)
        if owner is not None:
            inner = getattr(owner, "_fn", None)
            if inner is not None:
                func = getattr(inner, "__func__", inner)
        nid = ids.get(func)
        if nid is None:
            callback = getattr(func, "__name__", type(func).__name__).lstrip("_")
            nid = ids[func] = rec.name_id(f"{_event_layer(func)}.event.{callback}")
        if func is complete:
            rec.count("net.receivers", len(event.args[2]))

        def timed(*args: Any) -> None:
            event.fn = fn
            idx = open_span(nid)
            try:
                fn(*args)
            finally:
                close_span(idx)

        event.fn = timed

    return hook


def install(rec: SpanRecorder) -> Patches:
    """Wrap the public entry points of every layer; returns the patch set
    whose :meth:`Patches.restore` undoes all of it."""
    import repro.experiments as experiments
    import repro.experiments.sweep as sweep
    import repro.harness as harness
    import repro.harness.runner as runner
    import repro.harness.snapshot as snapshot
    from repro.coverage.grid import CoverageGrid
    from repro.energy.battery import NodeBattery
    from repro.experiments.executor import RetryPolicy
    from repro.harness.runner import LiveRun
    from repro.net.channel import BroadcastChannel
    from repro.net.neighbors import NeighborCache
    from repro.routing.grab import GrabRouter
    from repro.sim.engine import Simulator
    from repro.store import ResultStore

    patches = Patches()
    hook = _event_hook(rec, BroadcastChannel._complete)

    def timed_method(cls: type, attr: str, name: str) -> None:
        patches.set(cls, attr, _timed(rec, name, getattr(cls, attr)))

    sim_init = Simulator.__init__

    def init_with_hook(self: Any, *args: Any, **kwargs: Any) -> None:
        sim_init(self, *args, **kwargs)
        self.pre_event_hooks.append(hook)

    patches.set(Simulator, "__init__", init_with_hook)

    sim_run = _timed(rec, "sim.run", Simulator.run)

    def run_sampling_pending(self: Any, *args: Any, **kwargs: Any) -> None:
        rec.peak("sim.peak_pending", self.pending_events)
        sim_run(self, *args, **kwargs)
        rec.peak("sim.peak_pending", self.pending_events)

    patches.set(Simulator, "run", run_sampling_pending)
    timed_method(Simulator, "schedule", "sim.schedule")
    timed_method(Simulator, "schedule_at", "sim.schedule")

    timed_method(BroadcastChannel, "transmit", "net.transmit")
    columnar_entry = NeighborCache.columnar_entry

    def counted_entry(self: Any, item: Any, radius: float) -> list:
        entry = columnar_entry(self, item, radius)
        if rec.innermost() == "net.transmit":
            rec.count("net.candidates", len(entry[0]))
        return entry

    patches.set(NeighborCache, "columnar_entry", counted_entry)

    for attr in ("charge_frame", "charge", "set_mode"):
        timed_method(NodeBattery, attr, f"energy.{attr}")
    for attr in ("add_node", "remove_node"):
        timed_method(CoverageGrid, attr, f"coverage.{attr}")

    deliver = _timed(rec, "routing.deliver", GrabRouter.deliver)

    def counted_deliver(self: Any) -> Any:
        outcome = deliver(self)
        if outcome:
            rec.count("routing.delivered")
        return outcome

    patches.set(GrabRouter, "deliver", counted_deliver)

    timed_method(LiveRun, "__init__", "harness.compose")
    timed_method(LiveRun, "start", "harness.start")
    timed_method(LiveRun, "run_loop", "harness.run_loop")
    timed_method(LiveRun, "collect", "harness.collect")
    timed_method(LiveRun, "load_snapshot", "harness.load_snapshot")
    for modules, attr, name in (
        ((runner, harness), "run", "harness.run"),
        ((snapshot, harness), "resume", "harness.resume"),
        ((sweep, experiments), "run_sweep", "experiments.run_sweep"),
    ):
        wrapped = _timed(rec, name, getattr(modules[0], attr))
        for module in modules:
            patches.set(module, attr, wrapped)

    put = _timed(rec, "store.put", ResultStore.put)

    def measured_put(self: Any, *args: Any, **kwargs: Any) -> Path:
        path = put(self, *args, **kwargs)
        rec.count("store.bytes_written", os.path.getsize(path))
        return path

    patches.set(ResultStore, "put", measured_put)
    timed_method(ResultStore, "get", "store.get")

    backoff_s = RetryPolicy.backoff_s

    def counted_backoff(self: Any, *args: Any, **kwargs: Any) -> float:
        rec.count("experiments.retries")
        return backoff_s(self, *args, **kwargs)

    patches.set(RetryPolicy, "backoff_s", counted_backoff)
    return patches
