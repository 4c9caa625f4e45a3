"""Property-based tests: spatial index and coverage grid vs brute force."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage import CoverageGrid
from repro.net import Field, SpatialGrid, distance_sq

coords = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
points = st.tuples(coords, coords)


class TestSpatialGridProperties:
    @given(
        st.lists(points, min_size=1, max_size=50, unique=True),
        points,
        st.floats(min_value=0.1, max_value=40.0),
    )
    def test_within_matches_brute_force(self, positions, center, radius):
        grid = SpatialGrid()
        for index, position in enumerate(positions):
            grid.insert(index, position)
        # The documented membership predicate is d_sq <= radius**2; a
        # sqrt-based oracle disagrees by one ulp on points
        # sitting exactly on the boundary circle.
        expected = {
            i
            for i, p in enumerate(positions)
            if distance_sq(p, center) <= radius * radius
        }
        assert set(grid.within(center, radius)) == expected

    @given(st.lists(points, min_size=2, max_size=40, unique=True), st.data())
    def test_remove_then_query_consistent(self, positions, data):
        grid = SpatialGrid()
        for index, position in enumerate(positions):
            grid.insert(index, position)
        removed = data.draw(
            st.sets(st.integers(0, len(positions) - 1), max_size=len(positions) - 1)
        )
        for index in removed:
            grid.remove(index)
        survivors = set(grid.within((15.0, 15.0), 50.0))
        assert survivors == set(range(len(positions))) - removed


class TestCoverageGridProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(points, min_size=0, max_size=20),
        st.data(),
    )
    def test_counts_match_recount_after_random_ops(self, nodes, data):
        """After any interleaving of adds and removes, every maintained
        K-fraction equals a from-scratch recount."""
        grid = CoverageGrid(Field(30.0, 30.0), sensing_range=6.0, resolution=2.0)
        active = []
        operations = data.draw(
            st.lists(st.booleans(), min_size=0, max_size=len(nodes) * 2)
        )
        pending = list(nodes)
        for is_add in operations:
            if is_add and pending:
                node = pending.pop()
                grid.add_node(node)
                active.append(node)
            elif not is_add and active:
                node = active.pop()
                grid.remove_node(node)
        # Brute-force recount on the same lattice.
        xs = [i * 2.0 for i in range(16)]
        for k in (1, 2, 3):
            covered = sum(
                1
                for x in xs
                for y in xs
                if sum(1 for n in active
                       if distance_sq(n, (x, y)) <= 36.0) >= k
            )
            assert grid.fraction(k) * grid.num_points == covered

    @settings(max_examples=25, deadline=None)
    @given(st.lists(points, min_size=1, max_size=15))
    def test_add_remove_all_restores_empty(self, nodes):
        grid = CoverageGrid(Field(30.0, 30.0), sensing_range=6.0, resolution=2.0)
        for node in nodes:
            grid.add_node(node)
        for node in nodes:
            grid.remove_node(node)
        assert grid.fraction(1) == 0.0
        assert grid._counts.sum() == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(points, min_size=0, max_size=15))
    def test_monotone_in_k(self, nodes):
        grid = CoverageGrid(Field(30.0, 30.0), sensing_range=6.0, resolution=2.0)
        for node in nodes:
            grid.add_node(node)
        fractions = [grid.fraction(k) for k in range(1, 6)]
        assert fractions == sorted(fractions, reverse=True)
