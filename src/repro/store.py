"""``repro.store``: a content-addressed, crash-safe run-result store.

Sweeps are the expensive artifact of this reproduction: a fig-12-style
battery is hundreds of multi-minute simulations, and losing them to a
killed pool or a poison seed is exactly the fragility the PEAS paper's
*protocol* is designed to avoid.  The store makes completed runs durable
and addressable the moment they finish:

* **Key** — each record is keyed by a digest over ``(scenario
  config_hash, seed, code fingerprint, payload-affecting options,
  warm-start marker)``.  The config hash is the figure-row identity the
  manifests already carry; the code fingerprint (see
  :func:`repro.obs.manifest.code_fingerprint`) hashes the actual source
  bytes so editing *any* simulation code invalidates the cache even in a
  dirty working tree where a git SHA would lie.
* **Durability** — records are single JSON documents written via the
  shared :func:`repro.obs.atomic.atomic_write_text` write-then-rename
  helper: a record either exists completely or not at all, and pooled
  workers may publish concurrently without locks.
* **Honesty** — every record embeds a SHA-256 digest of its canonical
  result payload.  :meth:`ResultStore.get` recomputes the digest on every
  read; a mismatch (bit rot, torn copy, hand editing) quarantines the
  file and reports a miss — a corrupt record is *recomputed, never
  trusted*.
* **Audit** — every hit / miss / put / evict / quarantine appends one
  NDJSON line to ``journal.ndjson``, so ``peas-repro store stats`` can
  answer "how much did the cache actually save" after the fact and CI can
  assert a second sweep pass was 100% hits.

Layout under the store root::

    store.json            peas-store/1 marker + creating fingerprint
    journal.ndjson        append-only operation audit trail
    results/<key>.json    peas-result/1 records (atomic, content-keyed)
    snapshots/*.json      warm-start burn-in snapshots (peas-snapshot/1)
    quarantine/           corrupt files moved aside, never deleted

The full contract (key derivation, journal format, GC, retry policy of
the executor that sits on top) is specified in ``docs/STORE.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from .obs.atomic import atomic_write_text
from .obs.manifest import code_fingerprint, config_hash

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from .experiments.metrics import RunResult
    from .experiments.scenario import Scenario
    from .harness.options import RunOptions

__all__ = [
    "RESULT_SCHEMA",
    "STORE_SCHEMA",
    "StoreError",
    "ResultStore",
    "store_eligible",
    "options_signature",
]

STORE_SCHEMA = "peas-store/1"

#: Schema marker of one stored run record (the document wrapping the
#: serialized :class:`~repro.experiments.metrics.RunResult` payload).
RESULT_SCHEMA = "peas-result/1"

#: Journal operations the store will ever append (anything else in a
#: journal line means a foreign writer; ``stats`` reports it as unknown).
JOURNAL_OPS = ("hit", "miss", "put", "evict", "quarantine")


class StoreError(RuntimeError):
    """Raised on store misuse: missing root on attach, foreign layout."""


def store_eligible(options: Optional["RunOptions"]) -> bool:
    """Whether a run under ``options`` may be served from / saved to the store.

    Only side-effect-free runs are cacheable: a run asked to emit a trace
    file or snapshot produces artifacts a cache replay would silently
    skip, and ``stop_after_s`` prefix runs exist to *be* interrupted.
    ``None`` options (the harness default) are eligible.
    """
    if options is None:
        return True
    return (
        options.trace_path is None
        and options.snapshot_path is None
        and options.checkpoint_every_s is None
        and options.stop_after_s is None
    )


def options_signature(options: Optional["RunOptions"]) -> Dict[str, bool]:
    """The payload-affecting subset of :class:`RunOptions`, for the cache key.

    ``profile`` and ``metrics`` change the result object (extra blocks on
    it); ``sanitize`` is documented bit-identical but is included anyway —
    a sanitized run vouches for more than an unsanitized one, and the
    cache must never launder that distinction.
    """
    if options is None:
        return {"profile": False, "sanitize": False, "metrics": False}
    return {
        "profile": bool(options.profile),
        "sanitize": bool(options.sanitize),
        "metrics": bool(options.metrics),
    }


def _canonical_json(payload: Any) -> str:
    """The canonical encoding digests are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_digest(result_payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical encoding of a serialized result."""
    return hashlib.sha256(_canonical_json(result_payload).encode("utf-8")).hexdigest()


class ResultStore:
    """A directory-backed store of ``peas-result/1`` records.

    Parameters
    ----------
    root:
        Store directory.  Created (with the ``peas-store/1`` marker) when
        ``create=True``; with ``create=False`` the directory must already
        be a store — that is what ``--resume`` uses to refuse typos.
    """

    def __init__(self, root: Union[str, Path], *, create: bool = True) -> None:
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.snapshots_dir = self.root / "snapshots"
        self.quarantine_dir = self.root / "quarantine"
        self.journal_path = self.root / "journal.ndjson"
        self.marker_path = self.root / "store.json"
        self.code_fingerprint = code_fingerprint()
        #: Per-process counters for telemetry; the journal is the durable
        #: cross-process record, these feed ``peas_store_*`` gauges for
        #: *this* sweep only.
        self.session: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "evictions": 0,
            "quarantined": 0,
        }
        if self.marker_path.exists():
            marker = json.loads(self.marker_path.read_text(encoding="utf-8"))
            if marker.get("schema") != STORE_SCHEMA:
                raise StoreError(
                    f"{self.root}: not a {STORE_SCHEMA} store "
                    f"(schema={marker.get('schema')!r})"
                )
        elif create:
            for directory in (
                self.root,
                self.results_dir,
                self.snapshots_dir,
                self.quarantine_dir,
            ):
                directory.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                self.marker_path,
                json.dumps(
                    {
                        "schema": STORE_SCHEMA,
                        "created_by_fingerprint": self.code_fingerprint,
                    },
                    sort_keys=True,
                )
                + "\n",
            )
        else:
            raise StoreError(f"{self.root}: no {STORE_SCHEMA} store here")
        # An attached pre-existing store may predate a subdirectory.
        for directory in (self.results_dir, self.snapshots_dir, self.quarantine_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------
    def key_for(
        self,
        scenario: "Scenario",
        options: Optional["RunOptions"] = None,
        *,
        warm_burn_in_s: Optional[float] = None,
    ) -> str:
        """The content-address of one ``(scenario, seed)`` run.

        The digest covers the scenario's full ``config_hash`` (seed
        included), the source-tree fingerprint, the payload-affecting
        options signature, and the warm-start burn-in marker — a
        warm-started run's result is *not* interchangeable with a cold
        one (the fault surface arms mid-run), so the two must never share
        a cache slot.
        """
        from .experiments.serialize import scenario_to_dict

        payload = {
            "config_hash": config_hash(scenario_to_dict(scenario)),
            "seed": int(scenario.seed),
            "code_fingerprint": self.code_fingerprint,
            "options": options_signature(options),
            "warm_burn_in_s": warm_burn_in_s,
        }
        return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()[:32]

    def record_path(self, key: str) -> Path:
        """Where the record for ``key`` lives (whether or not it exists)."""
        return self.results_dir / f"{key}.json"

    def snapshot_target(self, digest: str) -> Path:
        """Where a warm-start burn-in snapshot for config ``digest`` lives.

        The current code fingerprint is part of the file name: a snapshot
        taken by different source code is simply never *found*, so stale
        burn-ins age out to the GC instead of poisoning forked variants.
        """
        return (
            self.snapshots_dir
            / f"burn-in-{digest}-{self.code_fingerprint[:12]}.json"
        )

    # ------------------------------------------------------------------
    # record operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional["RunResult"]:
        """The stored result for ``key``, or ``None``.

        Verifies the embedded payload digest on every read.  Undecodable
        documents, schema/key mismatches, digest mismatches, and payloads
        that fail deserialization are all quarantined (moved aside and
        journaled) and reported as a miss — never trusted, never deleted.
        A verified hit is journaled here; callers journal misses via
        :meth:`note_miss` only when they go on to recompute, so a probe
        that merely checks for work does not inflate the miss count.
        """
        result = self._read_verified(key)
        if result is not None:
            self.session["hits"] += 1
            self._journal("hit", key=key)
        return result

    def _read_verified(self, key: str) -> Optional["RunResult"]:
        """The read-side checks shared by :meth:`get` and :meth:`verify`:
        the decoded result, or ``None`` (absent, or quarantined here)."""
        from .experiments.serialize import result_from_dict

        path = self.record_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return None
        try:
            record = json.loads(text)
        except ValueError:
            self._quarantine(path, reason="undecodable")
            return None
        if (
            not isinstance(record, dict)
            or record.get("schema") != RESULT_SCHEMA
            or record.get("key") != key
        ):
            self._quarantine(path, reason="schema-mismatch")
            return None
        result_payload = record.get("result")
        if (
            not isinstance(result_payload, dict)
            or _payload_digest(result_payload) != record.get("digest")
        ):
            self._quarantine(path, reason="digest-mismatch")
            return None
        try:
            return result_from_dict(result_payload)
        except (KeyError, TypeError, ValueError):
            self._quarantine(path, reason="payload-invalid")
            return None

    def put(
        self,
        key: str,
        result: "RunResult",
        scenario: "Scenario",
        options: Optional["RunOptions"] = None,
        *,
        warm_burn_in_s: Optional[float] = None,
    ) -> Path:
        """Persist ``result`` under ``key`` (atomic; safe from pool workers).

        Concurrent writers of the same key both hold a valid record for
        the same deterministic run, so last-rename-wins is correct.
        """
        from .experiments.serialize import result_to_dict, scenario_to_dict

        result_payload = result_to_dict(result)
        record = {
            "schema": RESULT_SCHEMA,
            "key": key,
            "config_hash": config_hash(scenario_to_dict(scenario)),
            "seed": int(scenario.seed),
            "protocol": scenario.protocol,
            "code_fingerprint": self.code_fingerprint,
            "options": options_signature(options),
            "warm_burn_in_s": warm_burn_in_s,
            "digest": _payload_digest(result_payload),
            "result": result_payload,
        }
        path = atomic_write_text(
            self.record_path(key), json.dumps(record, sort_keys=True) + "\n"
        )
        self.session["puts"] += 1
        self._journal("put", key=key)
        return path

    def note_miss(self, key: str) -> None:
        """Journal that ``key`` was absent and is being recomputed."""
        self.session["misses"] += 1
        self._journal("miss", key=key)

    def note_snapshot(self, op: str, name: str) -> None:
        """Journal a warm-start snapshot operation (``hit``/``miss``/``put``)."""
        if op not in ("hit", "miss", "put"):
            raise StoreError(f"invalid snapshot journal op {op!r}")
        self._journal(op, name=name, what="snapshot")

    def snapshot_valid(self, path: Path) -> bool:
        """Whether ``path`` holds a structurally sound burn-in snapshot.

        A file that exists but does not parse as a ``peas-snapshot/1``
        document is quarantined (same corrupt-record contract as results)
        so the caller re-runs the burn-in instead of crashing on restore.
        """
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return False
        try:
            document = json.loads(text)
        except ValueError:
            document = None
        if not isinstance(document, dict) or document.get("format") != "peas-snapshot/1":
            self._quarantine(path, reason="snapshot-invalid")
            return False
        return True

    # ------------------------------------------------------------------
    # maintenance: stats / verify / gc
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Occupancy, staleness, and the journal's lifetime tallies."""
        records = sorted(self.results_dir.glob("*.json"))
        snapshots = sorted(self.snapshots_dir.glob("*.json"))
        stale = 0
        for path in records:
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                stale += 1
                continue
            if record.get("code_fingerprint") != self.code_fingerprint:
                stale += 1
        return {
            "schema": "peas-store-stats/1",
            "root": str(self.root),
            "code_fingerprint": self.code_fingerprint,
            "records": len(records),
            "record_bytes": sum(p.stat().st_size for p in records),
            "stale_records": stale,
            "snapshots": len(snapshots),
            "snapshot_bytes": sum(p.stat().st_size for p in snapshots),
            "quarantined_files": sum(
                1 for p in self.quarantine_dir.iterdir() if p.is_file()
            ),
            "journal": self._journal_tallies(),
            "session": dict(self.session),
        }

    def verify(self) -> Dict[str, Any]:
        """Re-verify every record and snapshot; quarantine what fails.

        Runs the exact read-side checks of :meth:`get` over the whole
        store, but is an audit, not a lookup: it journals no ``hit``.
        Returns counts plus the quarantined file names; a nonzero
        ``quarantined`` count is the CLI's exit-1 signal.
        """
        quarantined: List[str] = []
        checked = 0
        for path in sorted(self.results_dir.glob("*.json")):
            checked += 1
            before = self.session["quarantined"]
            if (
                self._read_verified(path.stem) is None
                and self.session["quarantined"] > before
            ):
                quarantined.append(path.name)
        for path in sorted(self.snapshots_dir.glob("*.json")):
            checked += 1
            before = self.session["quarantined"]
            if not self.snapshot_valid(path) and self.session["quarantined"] > before:
                quarantined.append(path.name)
        return {
            "schema": "peas-store-verify/1",
            "checked": checked,
            "ok": checked - len(quarantined),
            "quarantined": quarantined,
        }

    def gc(
        self,
        *,
        stale: bool = True,
        max_age_days: Optional[float] = None,
        drop_all: bool = False,
    ) -> Dict[str, Any]:
        """Evict records and snapshots that can no longer serve a hit.

        The default policy evicts records whose ``code_fingerprint`` does
        not match the current source tree (they are unreachable — no key
        computed today can find them) and snapshots whose file name
        carries a foreign fingerprint.  ``max_age_days`` additionally
        evicts by file age; ``drop_all`` clears the store.  Quarantined
        files are never touched: they are the corruption evidence.
        """
        evicted: List[str] = []
        now = time.time()
        for path in sorted(self.results_dir.glob("*.json")):
            evict = drop_all
            if not evict and stale:
                try:
                    record = json.loads(path.read_text(encoding="utf-8"))
                    fingerprint = record.get("code_fingerprint")
                except (OSError, ValueError):
                    fingerprint = None
                evict = fingerprint != self.code_fingerprint
            if not evict and max_age_days is not None:
                evict = (now - path.stat().st_mtime) > max_age_days * 86400.0
            if evict:
                path.unlink()
                evicted.append(path.name)
                self.session["evictions"] += 1
                self._journal("evict", key=path.stem)
        marker = f"-{self.code_fingerprint[:12]}.json"
        for path in sorted(self.snapshots_dir.glob("*.json")):
            evict = drop_all
            if not evict and stale:
                evict = not path.name.endswith(marker)
            if not evict and max_age_days is not None:
                evict = (now - path.stat().st_mtime) > max_age_days * 86400.0
            if evict:
                path.unlink()
                evicted.append(path.name)
                self.session["evictions"] += 1
                self._journal("evict", name=path.name, what="snapshot")
        return {
            "schema": "peas-store-gc/1",
            "evicted": len(evicted),
            "files": evicted,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, *, reason: str) -> None:
        """Move a corrupt file aside (never delete it) and journal why."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        destination = self.quarantine_dir / path.name
        suffix = 0
        while destination.exists():
            suffix += 1
            destination = self.quarantine_dir / f"{path.name}.{suffix}"
        try:
            os.replace(path, destination)
        except OSError:
            return  # a concurrent reader already moved it
        self.session["quarantined"] += 1
        self._journal("quarantine", name=path.name, reason=reason)

    def _journal(self, op: str, **fields: Optional[str]) -> None:
        """Append one audit line; fsynced so a crash cannot lose the tail.

        A torn final line (crash mid-append) is tolerated by the reader:
        :meth:`_journal_tallies` counts it as ``torn`` and moves on.
        """
        entry: Dict[str, Any] = {"op": op}
        entry.update({k: v for k, v in fields.items() if v is not None})
        line = json.dumps(entry, sort_keys=True) + "\n"
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def _journal_tallies(self) -> Dict[str, int]:
        """Lifetime operation counts parsed back out of the journal."""
        tallies: Dict[str, int] = {op: 0 for op in JOURNAL_OPS}
        tallies["torn"] = 0
        for op in JOURNAL_OPS:
            tallies[f"snapshot_{op}"] = 0
        try:
            text = self.journal_path.read_text(encoding="utf-8")
        except OSError:
            return tallies
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                tallies["torn"] += 1
                continue
            op = entry.get("op") if isinstance(entry, dict) else None
            if isinstance(entry, dict) and entry.get("what") == "snapshot":
                name = f"snapshot_{op}"
                if name in tallies:
                    tallies[name] += 1
                else:
                    tallies["torn"] += 1
            elif op in tallies:
                tallies[op] += 1
            else:
                tallies["torn"] += 1
        return tallies
