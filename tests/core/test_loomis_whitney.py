"""Tests (incl. property-based) for the Loomis-Whitney machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    brick,
    loomis_whitney_bound,
    matmul_projections,
    projection_sizes,
    projections,
    satisfies_loomis_whitney,
)

points = st.tuples(
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)
)
point_sets = st.sets(points, min_size=0, max_size=80)


class TestProjections:
    def test_single_point(self):
        proj = projections([(1, 2, 3)])
        assert proj["A"] == frozenset({(1, 2)})
        assert proj["B"] == frozenset({(2, 3)})
        assert proj["C"] == frozenset({(1, 3)})

    def test_brick_faces(self):
        V = brick((0, 3), (0, 4), (0, 5))
        assert projection_sizes(V) == (12, 20, 15)

    def test_duplicates_ignored(self):
        assert projection_sizes([(0, 0, 0), (0, 0, 0)]) == (1, 1, 1)

    def test_matmul_projection_names(self):
        V = brick((0, 2), (0, 3), (0, 4))
        assert matmul_projections(V) == {"A": 6, "B": 12, "C": 8}


class TestInequality:
    def test_brick_is_tight(self):
        V = brick((1, 4), (2, 6), (0, 5))
        assert len(V) ** 2 == loomis_whitney_bound(V)

    def test_diagonal_is_loose(self):
        V = [(i, i, i) for i in range(5)]
        assert loomis_whitney_bound(V) == 125
        assert len(V) ** 2 == 25 < 125
        assert satisfies_loomis_whitney(V)

    def test_empty_set(self):
        assert satisfies_loomis_whitney([])
        assert loomis_whitney_bound([]) == 0

    @settings(max_examples=200, deadline=None)
    @given(V=point_sets)
    def test_holds_for_random_sets(self, V):
        """Lemma 1 as a property test: |V|^2 <= |phi_A||phi_B||phi_C|."""
        assert satisfies_loomis_whitney(V)

    @settings(max_examples=100, deadline=None)
    @given(V=point_sets)
    def test_equality_iff_brick_closure(self, V):
        """|V| equals the bound iff V is the full 'combinatorial box' of its
        projections — bricks in particular."""
        if not V:
            return
        proj = projections(V)
        closure = {
            (i, j, k)
            for (i, j) in proj["A"]
            for (j2, k) in proj["B"]
            if j2 == j and (i, k) in proj["C"]
        }
        assert V <= closure
        if len(V) ** 2 == loomis_whitney_bound(V):
            # Tightness forces the closure to coincide (box structure):
            # |closure| <= bound always; V == closure when V attains it.
            assert len(closure) == len(V)


class TestBrick:
    def test_volume(self):
        assert len(brick((0, 2), (0, 3), (0, 4))) == 24

    def test_offset_brick(self):
        V = brick((5, 7), (1, 2), (0, 1))
        assert (5, 1, 0) in V and (6, 1, 0) in V and len(V) == 2

    def test_degenerate_ok(self):
        assert len(brick((0, 0), (0, 3), (0, 4))) == 0

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            brick((3, 1), (0, 2), (0, 2))
