"""The spatial index and neighbour cache against a brute-force oracle.

For any insert/remove history and any query, :class:`SpatialGrid` (and a
:class:`NeighborCache` over it, memo on or off) must return what an O(n)
walk over every point returns (:mod:`tests.spatial_oracle`): the same ids,
in the same canonical order, with bit-equal distances.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import SpatialGrid
from repro.net.neighbors import NeighborCache

from tests.spatial_oracle import BruteForceIndex

coords = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
points = st.tuples(coords, coords)
radii = st.floats(
    min_value=0.0, max_value=25.0, allow_nan=False, allow_infinity=False
)

#: an op is ("remove", index-into-live) | ("query", center, radius)
#: | ("neighbors", index-into-live, radius)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=59)),
        st.tuples(st.just("query"), points, radii),
        st.tuples(
            st.just("neighbors"),
            st.integers(min_value=0, max_value=59),
            radii,
        ),
    ),
    max_size=40,
)


class TestGridEquivalence:
    @given(positions=st.lists(points, min_size=1, max_size=40), ops=operations)
    @settings(max_examples=80, deadline=None)
    # Pathologically close points: the squared distance underflows to 0.0,
    # so only the closed x-window keeps (5e-324, 0) out of a radius-0 query
    # around the origin, and the origin out of the other point's.
    @example(
        positions=[(0.0, 0.0), (5e-324, 0.0)],
        ops=[
            ("query", (0.0, 0.0), 0.0),
            ("neighbors", 0, 0.0),
            ("neighbors", 1, 0.0),
        ],
    )
    def test_queries_agree_across_mutation_histories(self, positions, ops):
        grid = SpatialGrid()
        oracle = BruteForceIndex()
        for node_id, position in enumerate(positions):
            grid.insert(node_id, position)
            oracle.insert(node_id, position)
        caches = [NeighborCache(grid, enabled=True), NeighborCache(grid, enabled=False)]
        live = list(range(len(positions)))

        for op in ops:
            if op[0] == "remove":
                if not live:
                    continue
                item = live.pop(op[1] % len(live))
                grid.remove(item)
                oracle.remove(item)
            elif op[0] == "query":
                _, center, radius = op
                assert grid.within(center, radius) == oracle.within(center, radius)
                rows, d_sq = grid.query_rows(center, radius)
                want = oracle.scan(center, radius)
                # Row index == insertion index (rows are append-only).
                assert rows.tolist() == [order for _, order, _ in want]
                assert d_sq.tolist() == [dist_sq for dist_sq, _, _ in want]
            else:
                if not live:
                    continue
                _, index, radius = op
                item = live[index % len(live)]
                want = oracle.neighbors_with_distance(item, radius)
                for cache in caches:
                    # Exact equality: same ids, same (distance, insertion)
                    # order and bit-equal floats.
                    assert cache.neighbors_with_distance(item, radius) == want

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        removed=st.sets(st.integers(min_value=0, max_value=299), max_size=20),
        center=st.integers(min_value=0, max_value=299),
    )
    @settings(max_examples=10, deadline=None)
    def test_large_neighborhoods_agree(self, seed, removed, center):
        # 300 points on a 6 x 6 m patch: every neighbourhood is above the
        # cache's 256-row list tier, where distances are recomputed from the
        # store's columns rather than memoized; they must still match.
        layout = random.Random(seed)
        grid = SpatialGrid()
        oracle = BruteForceIndex()
        for node_id in range(300):
            position = (layout.uniform(0.0, 6.0), layout.uniform(0.0, 6.0))
            grid.insert(node_id, position)
            oracle.insert(node_id, position)
        caches = [NeighborCache(grid, enabled=True), NeighborCache(grid, enabled=False)]
        for cache in caches:
            cache.neighbors_with_distance(center, 9.0)
        for item in sorted(removed - {center}):
            grid.remove(item)
            oracle.remove(item)
        want = oracle.neighbors_with_distance(center, 9.0)
        for cache in caches:
            assert cache.neighbors_with_distance(center, 9.0) == want
