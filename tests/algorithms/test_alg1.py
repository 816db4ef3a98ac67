"""Tests for Algorithm 1 — numerics, exact costs, tightness, memory."""

import numpy as np
import pytest

from repro.algorithms import ProcessorGrid, alg1_cost_terms, run_alg1, select_grid
from repro.core import ProblemShape, communication_lower_bound
from repro.machine import CostModel, Machine
from repro.workloads import integer_pair


GRIDS = [
    ((8, 6, 4), (2, 3, 2)),
    ((8, 6, 4), (1, 1, 1)),
    ((8, 6, 4), (8, 1, 1)),
    ((8, 6, 4), (1, 6, 1)),
    ((8, 6, 4), (1, 1, 4)),
    ((12, 12, 12), (2, 2, 3)),
    ((9, 7, 5), (3, 2, 2)),     # ragged blocks
    ((10, 3, 7), (2, 3, 7)),    # ragged + full splits
]


class TestNumerics:
    @pytest.mark.parametrize("shape,grid", GRIDS)
    def test_matches_numpy(self, rng, shape, grid):
        A, B = rng.random(shape[:2]), rng.random(shape[1:])
        res = run_alg1(A, B, ProcessorGrid(*grid))
        assert np.allclose(res.C, A @ B)

    def test_exact_on_integer_operands(self):
        shape = ProblemShape(8, 6, 4)
        A, B = integer_pair(shape, seed=5)
        res = run_alg1(A, B, ProcessorGrid(2, 3, 2))
        assert np.array_equal(res.C, A @ B)  # bitwise exact

    @pytest.mark.parametrize("alg", ["ring", "auto", "recursive_doubling"])
    def test_collective_choice_does_not_change_result(self, rng, alg):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        res = run_alg1(A, B, ProcessorGrid(2, 2, 2), collective_algorithm=alg)
        assert np.allclose(res.C, A @ B)


class TestExactCosts:
    @pytest.mark.parametrize(
        "dims", [(2, 2, 2), (4, 3, 2), (6, 2, 1), (2, 1, 4), (1, 2, 2), (1, 1, 1)]
    )
    def test_measured_words_equal_expression3(self, rng, dims):
        A, B = rng.random((24, 12)), rng.random((12, 8))
        res = run_alg1(A, B, ProcessorGrid(*dims))
        assert res.cost.words == pytest.approx(res.predicted.total, abs=1e-9)

    def test_phase_breakdown_matches(self, rng):
        A, B = rng.random((24, 12)), rng.random((12, 8))
        res = run_alg1(A, B, ProcessorGrid(4, 3, 2))
        pred = res.predicted
        assert res.phase_words["allgather_a"] == pytest.approx(pred.allgather_a)
        assert res.phase_words["allgather_b"] == pytest.approx(pred.allgather_b)
        assert res.phase_words["reduce_scatter_c"] == pytest.approx(pred.reduce_scatter_c)

    def test_bandwidth_independent_of_collective_algorithm(self, rng):
        A, B = rng.random((16, 16)), rng.random((16, 16))
        res_ring = run_alg1(A, B, ProcessorGrid(2, 2, 2), collective_algorithm="ring")
        res_rd = run_alg1(A, B, ProcessorGrid(2, 2, 2),
                          collective_algorithm="recursive_doubling")
        assert res_ring.cost.words == res_rd.cost.words

    def test_flops_balanced(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        res = run_alg1(A, B, ProcessorGrid(2, 2, 2))
        flops = res.machine.flops.tolist()
        # local gemm flops equal everywhere: 4*4*4 = 64 (+ reduce adds).
        assert min(flops) >= 64.0
        assert max(flops) - min(flops) <= 1e-9

    def test_degenerate_single_processor_free(self, rng):
        A, B = rng.random((4, 4)), rng.random((4, 4))
        res = run_alg1(A, B, ProcessorGrid(1, 1, 1))
        assert res.cost.words == 0.0
        assert res.cost.rounds == 0


class TestFiberLocality:
    """On a ``p1 x p2 x p3`` grid Algorithm 1 talks only within its three
    fibers, so its traffic matrix is sparse and evenly loaded."""

    GRID = ProcessorGrid(2, 3, 2)

    @pytest.fixture
    def machine(self, rng):
        A, B = rng.random((12, 12)), rng.random((12, 12))
        return run_alg1(A, B, self.GRID).machine

    def test_links_join_ranks_one_coordinate_apart(self, machine):
        links = [link for link, words in machine.network.edge_words.items() if words]
        assert links
        for src, dest in links:
            coords = np.array([self.GRID.coord(src), self.GRID.coord(dest)])
            assert np.count_nonzero(coords[0] != coords[1]) == 1

    def test_degree_bounded_by_fiber_sizes(self, machine):
        adjacent = np.zeros((self.GRID.size,) * 2, dtype=bool)
        for (src, dest), words in machine.network.edge_words.items():
            adjacent[src, dest] = adjacent[dest, src] = words > 0
        p1, p2, p3 = self.GRID.dims
        assert adjacent.sum(axis=1).max() <= (p1 - 1) + (p2 - 1) + (p3 - 1)

    def test_sent_words_equal_across_ranks(self, machine):
        sent = machine.network.sent_words
        assert sent.min() > 0 and sent.min() == sent.max()


class TestTightness:
    """Algorithm 1 with the Section 5.2 grid attains Theorem 3 exactly —
    the constants 1, 2 and 3 are tight."""

    @pytest.mark.parametrize(
        "dims,P",
        [
            ((96, 24, 6), 2),    # 1D regime
            ((96, 24, 6), 4),    # boundary
            ((96, 24, 6), 16),   # 2D regime
            ((128, 32, 8), 64),  # boundary, with even shards
            ((48, 48, 48), 8),   # 3D regime, square
            ((48, 48, 48), 64),
        ],
    )
    def test_cost_equals_bound(self, rng, dims, P):
        shape = ProblemShape(*dims)
        choice = select_grid(shape, P, require_divisibility=True)
        A, B = rng.random(dims[:2]), rng.random(dims[1:])
        res = run_alg1(A, B, choice.grid)
        bound = communication_lower_bound(shape, P)
        assert res.cost.words == pytest.approx(bound, abs=1e-9)

    def test_suboptimal_grid_exceeds_bound(self, rng):
        shape = ProblemShape(48, 48, 48)
        A, B = rng.random((48, 48)), rng.random((48, 48))
        res = run_alg1(A, B, ProcessorGrid(8, 1, 1))
        assert res.cost.words > communication_lower_bound(shape, 8)


class TestMemoryFootprint:
    def test_peak_includes_gathered_blocks(self, rng):
        shape = ProblemShape(24, 24, 24)
        A, B = rng.random((24, 24)), rng.random((24, 24))
        res = run_alg1(A, B, ProcessorGrid(2, 2, 2))
        predicted = res.predicted.accessed  # A_block + B_block + D words
        # Peak also counts the initial shards, so it is >= the accessed term.
        assert res.peak_memory >= predicted

    def test_3d_grid_needs_more_than_minimum(self, rng):
        """Section 6.2: on a 3D grid the temporaries dominate (mn+mk+nk)/P."""
        shape = ProblemShape(24, 24, 24)
        A, B = rng.random((24, 24)), rng.random((24, 24))
        res = run_alg1(A, B, ProcessorGrid(2, 2, 2))
        minimum = shape.total_data / 8
        assert res.peak_memory > 2 * minimum

    def test_1d_grid_within_constant_of_minimum(self, rng):
        shape = ProblemShape(24, 6, 6)
        A, B = rng.random((24, 6)), rng.random((6, 6))
        res = run_alg1(A, B, ProcessorGrid(4, 1, 1))
        minimum = shape.total_data / 4
        assert res.peak_memory <= 4 * minimum


class TestMachineReuse:
    def test_supplied_machine_is_reset_and_used(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        m = Machine(8, cost_model=CostModel(alpha=5.0))
        m.proc(0).store["junk"] = np.zeros(10)
        res = run_alg1(A, B, ProcessorGrid(2, 2, 2), machine=m)
        assert res.machine is m
        assert "junk" not in m.proc(0).store
        assert np.allclose(res.C, A @ B)
