"""Memoized neighborhoods over a stationary-topology spatial index.

PEAS nodes never move once deployed (§5.2), so re-running a range query
for every PROBE/REPLY broadcast and every routing update would be wasted
work.  :class:`NeighborCache` exploits immobility: the answer to "who is
within radius r of node x" can only change when a node *leaves* the index
(death) or a new one is attached, so it is safe to memoize per
``(node_id, radius)`` with explicit invalidation hooked into
:meth:`repro.net.spatial.SpatialGrid` mutations.

Cached lists are **sorted by distance** (ties broken by grid insertion
order, which is deterministic), carry the precomputed Euclidean distance,
and exclude the center node itself.  Every consumer — the broadcast
channel, the working-topology/cost-field routing layer, and the
GAF/Span/AFECA baselines — reads the same canonical ordering, which is what
makes runs bit-identical whether the cache is enabled or bypassed: the
brute-force path runs the exact same computation, just without memoizing.

The cache can be disabled (for golden-seed determinism tests and A/B
benchmarking) via ``enabled=False`` or the ``REPRO_NEIGHBOR_CACHE=0``
environment variable.
"""

from __future__ import annotations

import os
from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from .field import Point
from .spatial import SpatialGrid

__all__ = ["NeighborCache", "build_neighbor_lists"]

#: a neighbor entry: (node_id, euclidean distance from the center node)
Neighbor = Tuple[Hashable, float]

_ENV_FLAG = "REPRO_NEIGHBOR_CACHE"

#: Neighborhoods at or below this size also memoize the materialized
#: ``(id, dist)`` list (per-frame scalar iteration beats numpy there);
#: larger neighborhoods memoize only the compact row array and consumers
#: batch against the columnar store.
_LIST_CACHE_MAX = 32

#: Neighborhoods at or below this size additionally memoize plain python
#: lists of their store rows and distances.  The broadcast channel then
#: walks the audience with a python loop over the store's list mirrors —
#: below a few hundred candidates that beats a vectorized mask, whose fixed
#: per-call numpy overhead (fancy gathers plus boolean combines) dominates
#: small and mid-size audiences.  Above this size the channel first shrinks
#: the audience with one listening mask, and the extra memory of boxed
#: lists (which at 50 k nodes x ~500-row neighborhoods would run to
#: hundreds of MB) is not paid.
_SCALAR_AUDIENCE_MAX = 256

#: Populations at or below this size use exact eager invalidation (a
#: row -> cache-keys reverse index), making a cache hit one dict lookup
#: with no numpy at all.  Above it the reverse index would cost
#: O(nodes x neighborhood) memory — tens of millions of set entries at
#: 50k nodes — so entries carry the store's death epoch instead and
#: revalidate lazily against the alive mask when a death has occurred.
_EXACT_INVALIDATION_MAX = 4096


def cache_enabled_default() -> bool:
    """Default enablement: on unless ``REPRO_NEIGHBOR_CACHE=0``."""
    return os.environ.get(_ENV_FLAG, "1").lower() not in ("0", "false", "off")


class NeighborCache:
    """Per-``(node_id, radius)`` memo of sorted-by-distance neighbor lists.

    Parameters
    ----------
    grid:
        The spatial index to memoize over.  The cache registers itself as a
        mutation listener: an ``insert`` flushes everything (new nodes only
        appear during setup), a ``remove`` drops exactly the entries whose
        neighborhoods contained — or were centered on — the removed node.
    enabled:
        ``False`` turns the memo off; queries then recompute from the grid
        every time through the *same* code path (identical results, used to
        prove determinism).  ``None`` reads ``REPRO_NEIGHBOR_CACHE``.
    """

    def __init__(self, grid: SpatialGrid, enabled: Optional[bool] = None) -> None:
        self.grid = grid
        self.enabled = cache_enabled_default() if enabled is None else bool(enabled)
        #: (id, radius) -> mutable entry ``[rows, epoch, memoized (id,
        #: dist) list or None, row list or None, distance list or None]``
        #: where ``epoch`` is ``None`` for exactly-invalidated entries
        #: (small populations) or the store's death epoch at
        #: (re)validation time
        self._rows: Dict[Tuple[Hashable, float], list] = {}
        #: exact mode: store row -> keys of entries containing it
        self._row_keys: Dict[int, Set[Tuple[Hashable, float]]] = {}
        self._store = grid.store
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        grid.add_listener(self._on_grid_change)

    # -------------------------------------------------------------- queries
    def neighbors(self, item: Hashable, radius: float) -> List[Hashable]:
        """Neighbor ids of ``item`` within ``radius``, nearest first."""
        return [node_id for node_id, _ in self.neighbors_with_distance(item, radius)]

    def neighbors_with_distance(self, item: Hashable, radius: float) -> List[Neighbor]:
        """``(neighbor_id, distance)`` pairs, sorted by distance.

        ``item`` itself is excluded.  The returned list is owned by the
        cache — treat it as read-only.
        """
        entry = self.columnar_entry(item, radius)
        result = entry[2]
        if result is None:
            if entry[3] is not None:
                # Mid-size neighborhood: assemble from the cached row and
                # distance lists (same floats as ``_materialize``, which
                # runs the identical subtract/square/sqrt).
                ids = self._store.ids
                result = [
                    (ids[row], dist)
                    for row, dist in zip(entry[3], entry[4])
                ]
            else:
                result = self._materialize(item, entry[0])
        return result

    def columnar_entry(self, item: Hashable, radius: float) -> list:
        """The cache entry for ``item``.

        Returns the mutable 5-slot entry ``[rows, epoch, memo, row_list,
        dists_list]``: ``rows`` is the canonical ``(dist, insertion
        index)``-sorted store row array; ``memo`` the materialized
        ``(id, dist)`` list for neighborhoods of at most
        ``_LIST_CACHE_MAX`` nodes; ``row_list`` / ``dists_list`` plain
        python lists of the rows and their distances for neighborhoods of
        at most ``_SCALAR_AUDIENCE_MAX`` nodes (the broadcast channel
        walks those audiences by list index with no numpy at all);
        slots are ``None`` beyond their size tier and consumers batch
        against the store instead.  An entry is recomputed exactly when a
        member died: small populations evict eagerly through a row
        reverse index (a hit is then one dict lookup, no numpy), large
        ones tag entries with the store's death epoch and revalidate
        against the alive mask only when a death has happened since.
        """
        key = (item, radius)
        store = self._store
        if self.enabled:
            entry = self._rows.get(key)
            if entry is not None:
                epoch = entry[1]
                if epoch is None or epoch == store.death_epoch:
                    self.hits += 1
                    return entry
                if np.all(store.alive[entry[0]]):
                    entry[1] = store.death_epoch
                    self.hits += 1
                    return entry
                self.invalidations += 1
                del self._rows[key]
        self.misses += 1
        grid = self.grid
        center_row = grid.row_index(item)
        rows_full, d_sq = grid.query_rows(
            grid.position(item), radius, exclude_row=center_row
        )
        rows = rows_full.astype(np.int32)
        result: Optional[List[Neighbor]] = None
        row_list: Optional[List[int]] = None
        dists_list: Optional[List[float]] = None
        if rows.shape[0] <= _SCALAR_AUDIENCE_MAX:
            row_list = rows_full.tolist()
            dists_list = np.sqrt(d_sq).tolist()
            if rows.shape[0] <= _LIST_CACHE_MAX:
                ids = store.ids
                result = [
                    (ids[row], dist)
                    for row, dist in zip(row_list, dists_list)
                ]
        entry = [rows, store.death_epoch, result, row_list, dists_list]
        if self.enabled:
            if store.size <= _EXACT_INVALIDATION_MAX:
                entry[1] = None
                self._rows[key] = entry
                row_keys = self._row_keys
                # The entry dies with any of its members and with its center.
                for row in rows.tolist() + [center_row]:
                    members = row_keys.get(row)
                    if members is None:
                        row_keys[row] = {key}
                    else:
                        members.add(key)
            else:
                self._rows[key] = entry
        return entry

    def _materialize(self, item: Hashable, rows: np.ndarray) -> List[Neighbor]:
        """Build the ``(id, dist)`` list for a large row array.

        Recomputes distances from the store's position columns — the same
        subtraction/square/sqrt sequence as :meth:`SpatialGrid.query_rows`,
        so the floats are bit-identical to a memoized entry's.
        """
        store = self._store
        cx, cy = self.grid.position(item)
        dx = store.xs[rows] - cx
        dy = store.ys[rows] - cy
        dists = np.sqrt(dx * dx + dy * dy)
        ids = store.ids
        return [
            (ids[row], dist)
            for row, dist in zip(rows.tolist(), dists.tolist())
        ]

    def neighbors_at(
        self, position: Point, radius: float, exclude: Optional[Hashable] = None
    ) -> List[Neighbor]:
        """Uncached ``(id, distance)`` pairs around an arbitrary position.

        Cold path for queries not centered on a live grid member.
        Ordering matches :meth:`neighbors_with_distance` exactly.
        """
        rows, d_sq = self.grid.query_rows(position, radius)
        ids = self._store.ids
        return [
            (ids[row], dist)
            for row, dist in zip(rows.tolist(), np.sqrt(d_sq).tolist())
            if ids[row] != exclude
        ]

    def __len__(self) -> int:
        return len(self._rows)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self),
        }

    # ------------------------------------------------------------ internals
    def _on_grid_change(self, kind: str, item: Hashable, position: Point) -> None:
        if kind == "insert":
            # Inserts only happen during deployment setup; a blanket flush is
            # both correct and cheap there.
            if self._rows:
                self.invalidations += len(self._rows)
                self._rows.clear()
                self._row_keys.clear()
            return
        # Removal (node death), exact mode: evict every entry whose rows
        # contain the removed node.  Lazily-validated (epoch-tagged)
        # entries are not reverse-indexed; their stale rows are caught by
        # the epoch check on their next lookup.
        keys = self._row_keys.pop(self._store.row_of[item], None)
        if keys:
            rows_cache = self._rows
            for key in keys:
                if rows_cache.pop(key, None) is not None:
                    self.invalidations += 1


def build_neighbor_lists(
    positions: Dict[Hashable, Point], radius: float
) -> Dict[Hashable, List[Hashable]]:
    """One-shot sorted-by-distance neighbor lists for a static population.

    Convenience for the coordination-level baselines (GAF/Span/AFECA) that
    need the full ``id -> [neighbor ids]`` map once at construction: builds
    a throwaway grid + cache and returns plain lists (nearest first).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    grid = SpatialGrid()
    for node_id, position in positions.items():
        grid.insert(node_id, position)
    cache = NeighborCache(grid, enabled=True)
    return {node_id: cache.neighbors(node_id, radius) for node_id in positions}
