"""End-to-end reproduction of the paper's headline results.

These tests execute the full pipeline — distribute, collectives, local
GEMM, reassembly — on the simulated machine and assert the paper's claims
*to the word*:

* Figure 2's grids are selected automatically and attain Theorem 3 exactly
  in all three regimes (tightness, Section 5);
* Table 1's constants order correctly and the measured bottom row is
  1 / 2 / 3;
* Figure 1's data-ownership and fiber structure on the 3x3x3 grid;
* Corollary 4 for square problems.
"""

import numpy as np
import pytest

from repro.algorithms import ProcessorGrid, run_alg1, select_grid
from repro.analysis import measure_constant
from repro.core import (
    ProblemShape,
    Regime,
    classify,
    communication_lower_bound,
    evaluate_bound,
    square_lower_bound,
)
from repro.workloads import (
    FIGURE2_EXPECTED_GRIDS,
    FIGURE2_PROCESSOR_COUNTS,
    FIGURE2_SCALED,
    FIGURE2_SHAPE,
    random_pair,
)


class TestFigure2:
    @pytest.mark.parametrize("P", FIGURE2_PROCESSOR_COUNTS)
    def test_grid_selection_matches_figure(self, P):
        assert select_grid(FIGURE2_SHAPE, P).grid.dims == FIGURE2_EXPECTED_GRIDS[P]

    @pytest.mark.parametrize("P", FIGURE2_PROCESSOR_COUNTS)
    def test_scaled_run_attains_bound_exactly(self, P):
        """Execute the scaled Figure 2 problem; measured == Theorem 3."""
        A, B = random_pair(FIGURE2_SCALED, seed=P)
        choice = select_grid(FIGURE2_SCALED, P)
        res = run_alg1(A, B, choice.grid)
        assert np.allclose(res.C, A @ B)
        bound = communication_lower_bound(FIGURE2_SCALED, P)
        assert res.cost.words == pytest.approx(bound, abs=1e-9)

    def test_case_regimes(self):
        assert classify(FIGURE2_SHAPE, 3) is Regime.ONE_D
        assert classify(FIGURE2_SHAPE, 36) is Regime.TWO_D
        assert classify(FIGURE2_SHAPE, 512) is Regime.THREE_D

    def test_1d_case_only_b_moves(self):
        """Figure 2(a): with grid 3x1x1 only entries of B are communicated."""
        A, B = random_pair(FIGURE2_SCALED, seed=0)
        res = run_alg1(A, B, ProcessorGrid(3, 1, 1))
        assert res.phase_words["allgather_a"] == 0.0
        assert res.phase_words["reduce_scatter_c"] == 0.0
        assert res.phase_words["allgather_b"] > 0

    def test_2d_case_b_and_c_move(self):
        """Figure 2(b): with grid 12x3x1, B and C move but A does not."""
        A, B = random_pair(FIGURE2_SCALED, seed=0)
        res = run_alg1(A, B, ProcessorGrid(12, 3, 1))
        assert res.phase_words["allgather_a"] == 0.0
        assert res.phase_words["allgather_b"] > 0
        assert res.phase_words["reduce_scatter_c"] > 0

    def test_3d_case_everything_moves(self):
        """Figure 2(c): with grid 32x8x2 all three matrices move."""
        A, B = random_pair(FIGURE2_SCALED, seed=0)
        res = run_alg1(A, B, ProcessorGrid(32, 8, 2))
        assert all(w > 0 for w in res.phase_words.values())

    def test_local_volume_shapes(self):
        """1D: non-cubical; 2D: m/p == n/q only; 3D: perfect cube."""
        s = FIGURE2_SHAPE
        g1 = ProcessorGrid(*FIGURE2_EXPECTED_GRIDS[3])
        g2 = ProcessorGrid(*FIGURE2_EXPECTED_GRIDS[36])
        g3 = ProcessorGrid(*FIGURE2_EXPECTED_GRIDS[512])
        l1 = (s.n1 // g1.p1, s.n2 // g1.p2, s.n3 // g1.p3)
        l2 = (s.n1 // g2.p1, s.n2 // g2.p2, s.n3 // g2.p3)
        l3 = (s.n1 // g3.p1, s.n2 // g3.p2, s.n3 // g3.p3)
        assert len(set(l1)) > 1                      # not a cube
        assert l2[0] == l2[1] != l2[2]               # 800, 800, 600
        assert l3[0] == l3[1] == l3[2] == 300        # perfect cube


class TestTable1:
    @pytest.mark.parametrize("P,regime", [(2, Regime.ONE_D), (36, Regime.TWO_D), (512, Regime.THREE_D)])
    def test_ours_strictly_tightest(self, P, regime):
        ours = evaluate_bound("thiswork", FIGURE2_SHAPE, P)
        for key in ("aggarwal1990", "irony2004", "demmel2013"):
            other = evaluate_bound(key, FIGURE2_SHAPE, P)
            if other is not None:
                assert ours > other

    def test_measured_constants_bottom_row(self):
        for shape, P, c in [
            (ProblemShape(96, 24, 6), 2, 1.0),
            (ProblemShape(96, 24, 6), 16, 2.0),
            (ProblemShape(48, 48, 48), 64, 3.0),
        ]:
            mc = measure_constant(shape, P)
            assert mc.constant == pytest.approx(c, abs=1e-9)


class TestFigure1:
    """The 3x3x3 example: processor (1, 3, 1) — 0-based (0, 2, 0)."""

    def setup_method(self):
        self.grid = ProcessorGrid(3, 3, 3)
        self.shape = ProblemShape(27, 27, 27)
        self.coord = (0, 2, 0)
        self.rank = self.grid.rank(self.coord)

    def test_three_collectives_involve_the_processor(self):
        A, B = random_pair(self.shape, seed=1)
        res = run_alg1(A, B, self.grid)
        events = [e for e in res.machine.spans.events() if e.involves(self.rank)]
        kinds = [e.kind for e in events if e.kind in ("allgather", "reduce-scatter")]
        assert kinds.count("allgather") == 2
        assert kinds.count("reduce-scatter") == 1

    def test_collective_groups_are_the_three_fibers(self):
        A, B = random_pair(self.shape, seed=1)
        res = run_alg1(A, B, self.grid)
        fibers = {
            self.grid.fiber(3, self.coord),
            self.grid.fiber(1, self.coord),
            self.grid.fiber(2, self.coord),
        }
        seen = set()
        for e in res.machine.spans.events():
            for group in e.groups:
                if self.rank in group:
                    seen.add(tuple(group))
        assert fibers <= seen

    def test_ownership_sizes(self):
        """Initially owned data: 1/27th of A, of B; finally 1/27th of C."""
        A, B = random_pair(self.shape, seed=1)
        res = run_alg1(A, B, self.grid)
        store = res.machine.proc(self.rank).store
        assert store["A_shard"].size == 27 * 27 // 27
        assert store["B_shard"].size == 27
        assert store["C_shard"].size == 27

    def test_gathered_data_is_the_light_highlight(self):
        """The processor uses the full blocks A_{1,3} and B_{3,1}: 9x9 each."""
        A, B = random_pair(self.shape, seed=1)
        res = run_alg1(A, B, self.grid, keep_blocks=True)
        store = res.machine.proc(self.rank).store
        assert store["A_block"].shape == (9, 9)
        assert store["B_block"].shape == (9, 9)
        assert np.array_equal(store["A_block"], A[0:9, 18:27])
        assert np.array_equal(store["B_block"], B[18:27, 0:9])


class TestCorollary4:
    @pytest.mark.parametrize("n,P,grid", [(24, 8, (2, 2, 2)), (64, 64, (4, 4, 4))])
    def test_square_run_attains_corollary(self, n, P, grid):
        rng = np.random.default_rng(n)
        A, B = rng.random((n, n)), rng.random((n, n))
        res = run_alg1(A, B, ProcessorGrid(*grid))
        corollary, _ = square_lower_bound(n, P)
        assert res.cost.words == pytest.approx(corollary, abs=1e-9)
