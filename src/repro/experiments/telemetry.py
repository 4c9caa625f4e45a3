"""Sweep-scale telemetry: live progress and exports.

``run_sweep`` executes a seed battery in silence by default.  A
:class:`SweepTelemetry` attached to it adds two things, none of which
touches simulation state:

1. **Live progress.**  The executor runs in the parent process and
   receives every run's outcome there, serial and pooled alike, so it
   counts each fact exactly once where it happens: one
   :meth:`~SweepTelemetry.note_outcome` when a run's final outcome is
   settled, one :meth:`~SweepTelemetry.note_retry` per scheduled retry,
   one :meth:`~SweepTelemetry.note_store_hit` per replayed record.  The
   counts fold into a single status line (done/total, percentage, ETA
   from the observed run rate, pool size, errors, the most recent run's
   coordinates), rewritten in place at a throttled cadence.  Workers
   report nothing: there is no message bus and no extra process.

2. **Canonical exports.**  :meth:`SweepTelemetry.finish` merges every
   per-run ``result.metrics`` snapshot into one sweep-level
   :class:`~repro.obs.metrics.MetricsRegistry`, adds the sweep's own
   instruments (``peas_sweep_*``) from the live counts, and writes
   ``metrics.ndjson`` (``peas-metrics/1``), ``metrics.prom`` (Prometheus
   text exposition) and ``manifest.json`` (``peas-sweep-manifest/1``
   provenance) into the output directory — the inputs
   ``peas-repro inspect --diff`` compares.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, TextIO, Union

from ..obs.atomic import atomic_write_text
from ..obs.manifest import config_hash, git_sha, peak_rss_mb
from ..obs.metrics import MetricsRegistry, save_metrics, save_prometheus

__all__ = ["SWEEP_MANIFEST_SCHEMA", "SweepTelemetry"]

SWEEP_MANIFEST_SCHEMA = "peas-sweep-manifest/1"

#: minimum seconds between progress-line rewrites
_RENDER_PERIOD_S = 0.25


class SweepTelemetry:
    """One sweep's telemetry session: progress display + export writer.

    Parameters
    ----------
    out_dir:
        Directory receiving ``metrics.ndjson`` / ``metrics.prom`` /
        ``manifest.json`` (created on :meth:`finish`).
    label:
        Human-readable sweep name shown on the progress line and recorded
        in the export headers (e.g. ``"fig9"``).
    stream:
        Where the progress line goes; defaults to ``sys.stderr``.  Pass
        any text stream (tests use ``io.StringIO``).
    live:
        Force the in-place ``\\r`` line on or off; default auto-detects
        ``stream.isatty()`` (non-TTYs get sparse plain lines instead).
    """

    def __init__(
        self,
        out_dir: Union[str, Path],
        label: str = "sweep",
        stream: Optional[TextIO] = None,
        live: Optional[bool] = None,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        if live is None:
            isatty = getattr(self.stream, "isatty", None)
            live = bool(isatty()) if callable(isatty) else False
        self.live = live
        self.registry = MetricsRegistry()

        self.total = 0
        self.done = 0
        self.errors = 0
        #: pool size the executor runs with (1 for a serial sweep)
        self.workers = 1
        self.retries = 0
        #: runs that exhausted their retry budget (poison seeds)
        self.quarantined = 0
        #: process-pool respawns after worker death or run timeout
        self.pool_restarts = 0
        #: result-store replays served by the parent before dispatch
        self.store_hits = 0
        #: result-store accounting for the export counters (see note_store)
        self.store: Optional[Dict[str, int]] = None
        #: warm-start reuse: (burn-ins simulated, variant runs forked)
        self.warm_start: Optional[Dict[str, int]] = None
        self.current: Optional[Dict[str, Any]] = None
        self._started_at: Optional[float] = None
        self._last_render = 0.0
        self._wrote_line = False

    # ------------------------------------------------------------ lifecycle
    def start(self, total: int, processes: int = 1) -> None:
        """Begin the session: ``total`` runs on a pool of ``processes``."""
        self.total = total
        self.workers = processes
        self._started_at = time.time()
        self._render(force=True)

    def note_warm_start(self, burn_ins: int, forks: int) -> None:
        """Record warm-start reuse: ``burn_ins`` shared prefixes were
        simulated once and ``forks`` variant runs forked from them (the
        sweep skipped ``forks - burn_ins`` burn-in simulations)."""
        self.warm_start = {"burn_ins": int(burn_ins), "forks": int(forks)}
        self._render(force=True)

    def note_outcome(self, ok: bool, scenario: Any = None) -> None:
        """A run's final outcome was settled (once per run)."""
        self.done += 1
        if not ok:
            self.errors += 1
        self._note_current(scenario)
        self._render()

    def note_retry(self, scenario: Any = None) -> None:
        """The executor scheduled another attempt for a failed run."""
        self.retries += 1
        self._note_current(scenario)
        self._render()

    def _note_current(self, scenario: Any) -> None:
        if scenario is not None:
            self.current = {
                "protocol": scenario.protocol,
                "nodes": scenario.num_nodes,
                "seed": scenario.seed,
            }

    def note_store_hit(self, scenario: Any = None) -> None:
        """A run replayed from the result store instead of simulating."""
        self.done += 1
        self.store_hits += 1
        self._render()

    def note_quarantined(self, scenario: Any = None) -> None:
        """A run exhausted its retry budget and completed as a RunError."""
        self.quarantined += 1
        self._render(force=True)

    def note_pool_restart(self) -> None:
        """The executor killed and re-spawned the worker pool."""
        self.pool_restarts += 1
        self._render(force=True)

    def note_store(self, hits: int, misses: int, evictions: int) -> None:
        """Final result-store accounting, exported as ``peas_store_*``."""
        self.store = {
            "hits": int(hits),
            "misses": int(misses),
            "evictions": int(evictions),
        }

    # -------------------------------------------------------------- display
    def _progress_line(self) -> str:
        elapsed = time.time() - (self._started_at or time.time())
        parts = [f"[{self.label}] {self.done}/{self.total} runs"]
        if self.total:
            parts[-1] += f" ({self.done * 100 // self.total}%)"
        if self.workers > 1:
            parts.append(f"{self.workers} workers")
        if self.errors:
            parts.append(f"{self.errors} errors")
        if self.store_hits:
            parts.append(f"{self.store_hits} cached")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.pool_restarts:
            parts.append(f"{self.pool_restarts} pool restarts")
        parts.append(f"elapsed {elapsed:.0f}s")
        if 0 < self.done < self.total:
            eta = elapsed / self.done * (self.total - self.done)
            parts.append(f"eta {eta:.0f}s")
        if self.warm_start:
            parts.append(
                f"warm-start {self.warm_start['burn_ins']} burn-ins"
                f" -> {self.warm_start['forks']} forks"
            )
        if self.current:
            parts.append(
                f"{self.current.get('protocol')}/n={self.current.get('nodes')}"
                f"/seed={self.current.get('seed')}"
            )
        return " · ".join(parts)

    def _render(self, force: bool = False) -> None:
        now = time.time()
        if not force and now - self._last_render < _RENDER_PERIOD_S:
            return
        self._last_render = now
        line = self._progress_line()
        try:
            if self.live:
                self.stream.write("\r\x1b[2K" + line)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
            self._wrote_line = True
        except Exception:  # noqa: BLE001 - a dead stream must not kill runs
            pass

    def _close_line(self) -> None:
        if self.live and self._wrote_line:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except Exception:  # noqa: BLE001
                pass

    # --------------------------------------------------------------- finish
    def finish(
        self,
        scenarios: Sequence[Any],
        results: Sequence[Any],
    ) -> Dict[str, Path]:
        """Close the progress line and write the exports.

        The run counts come from the live counters, which the executor
        ticks exactly once per settled run; ``results`` supplies the
        per-run metrics snapshots.  Returns the written paths
        (``metrics`` / ``prometheus`` / ``manifest``).
        """
        wall_s = time.time() - (self._started_at or time.time())
        self._render(force=True)
        self._close_line()

        registry = self.registry
        for result in results:
            snapshot = getattr(result, "metrics", None)
            if snapshot:
                registry.merge(snapshot)
        ok = self.done - self.errors
        if ok:
            registry.counter("peas_sweep_runs_total", status="ok").inc(ok)
        if self.errors:
            registry.counter(
                "peas_sweep_runs_total", status="error"
            ).inc(self.errors)
        if self.retries:
            registry.counter("peas_sweep_retries_total").inc(self.retries)
        if self.quarantined:
            registry.counter("peas_sweep_quarantined_total").inc(self.quarantined)
        if self.pool_restarts:
            registry.counter("peas_sweep_pool_restarts_total").inc(
                self.pool_restarts
            )
        if self.store is not None:
            if self.store["hits"]:
                registry.counter("peas_store_hits_total").inc(self.store["hits"])
            if self.store["misses"]:
                registry.counter("peas_store_misses_total").inc(
                    self.store["misses"]
                )
            if self.store["evictions"]:
                registry.counter("peas_store_evictions_total").inc(
                    self.store["evictions"]
                )
        if self.warm_start:
            registry.counter("peas_sweep_warm_start_burn_ins_total").inc(
                self.warm_start["burn_ins"]
            )
            registry.counter("peas_sweep_warm_start_forks_total").inc(
                self.warm_start["forks"]
            )
        registry.gauge("peas_sweep_workers").set_max(self.workers)
        registry.gauge("peas_sweep_wall_seconds").set_max(wall_s)

        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = self._build_manifest(scenarios, wall_s)
        meta = {
            "label": self.label,
            "runs": self.done,
            "ok": ok,
            "errors": self.errors,
            "git_sha": manifest["git_sha"],
            "config_digest": manifest["config_digest"],
        }
        paths = {
            "metrics": self.out_dir / "metrics.ndjson",
            "prometheus": self.out_dir / "metrics.prom",
            "manifest": self.out_dir / "manifest.json",
        }
        save_metrics(registry, paths["metrics"], meta=meta)
        save_prometheus(registry, paths["prometheus"])
        # Through the shared write-then-rename helper (like the metrics
        # exports above): a crash mid-finish must never leave a truncated
        # manifest where a resumed sweep would read it.
        atomic_write_text(
            paths["manifest"],
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
        return paths

    def _build_manifest(
        self,
        scenarios: Sequence[Any],
        wall_s: float,
    ) -> Dict[str, Any]:
        """Sweep-level provenance: what ``inspect --diff`` checks for drift."""
        hashes = sorted({config_hash(s) for s in scenarios})
        protocols = sorted({getattr(s, "protocol", "?") for s in scenarios})
        seeds = sorted({getattr(s, "seed", 0) for s in scenarios})
        return {
            "schema": SWEEP_MANIFEST_SCHEMA,
            "label": self.label,
            "runs": len(scenarios),
            "ok": self.done - self.errors,
            "errors": self.errors,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "pool_restarts": self.pool_restarts,
            "store": self.store,
            "warm_start": self.warm_start,
            "workers": self.workers,
            "wall_s": round(wall_s, 3),
            "git_sha": git_sha(),
            "protocols": protocols,
            "seed_range": [seeds[0], seeds[-1]] if seeds else [],
            #: one hash per distinct scenario config, plus a digest of the
            #: sorted set — the single value to compare across runs
            "config_hashes": hashes,
            "config_digest": config_hash(hashes),
            "peak_rss_mb": peak_rss_mb(),
            "argv": list(sys.argv),
        }
