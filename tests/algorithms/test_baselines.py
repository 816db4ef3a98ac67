"""Tests for the baseline algorithms: numerics and cost sanity."""

import numpy as np
import pytest

from repro.algorithms import (
    cannon_predicted_words,
    run_25d,
    run_cannon,
    run_carma,
    run_outer_1d,
    run_row_1d,
    run_summa,
)
from repro.core import ProblemShape, communication_lower_bound
from repro.exceptions import GridError


class TestRow1D:
    @pytest.mark.parametrize("P", [1, 2, 3, 5, 8])
    def test_numerics(self, rng, P):
        A, B = rng.random((12, 5)), rng.random((5, 7))
        res = run_row_1d(A, B, P)
        assert np.allclose(res.C, A @ B)

    @pytest.mark.parametrize("P", [2, 4, 5])
    def test_cost_is_replicating_b(self, rng, P):
        # B has 60 words, divisible by every tested P, so shards are even
        # and the measured critical path equals (1 - 1/P) |B| exactly.
        A, B = rng.random((10, 6)), rng.random((6, 10))
        res = run_row_1d(A, B, P)
        assert res.cost.words == pytest.approx(res.predicted_words)
        assert res.predicted_words == pytest.approx((1 - 1 / P) * 60)

    def test_optimal_when_n1_dominates(self, rng):
        """row_1d attains the case-1 bound when n1 is the largest dim."""
        A, B = rng.random((64, 8)), rng.random((8, 4))
        P = 4  # m/n = 8, so case 1
        res = run_row_1d(A, B, P)
        bound = communication_lower_bound(ProblemShape(64, 8, 4), P)
        assert res.cost.words == pytest.approx(bound)


class TestOuter1D:
    @pytest.mark.parametrize("P", [1, 2, 3, 5, 8])
    def test_numerics(self, rng, P):
        A, B = rng.random((6, 15)), rng.random((15, 7))
        res = run_outer_1d(A, B, P)
        assert np.allclose(res.C, A @ B)

    def test_optimal_when_contraction_dominates(self, rng):
        """outer_1d attains the case-1 bound when n2 is the largest dim."""
        A, B = rng.random((8, 64)), rng.random((64, 4))
        P = 4
        res = run_outer_1d(A, B, P)
        bound = communication_lower_bound(ProblemShape(8, 64, 4), P)
        assert res.cost.words == pytest.approx(bound)


class TestCannon:
    @pytest.mark.parametrize("q,dims", [(1, (4, 4, 4)), (2, (6, 8, 4)), (3, (6, 9, 6)), (4, (8, 8, 8))])
    def test_numerics(self, rng, q, dims):
        A, B = rng.random(dims[:2]), rng.random(dims[1:])
        res = run_cannon(A, B, q)
        assert np.allclose(res.C, A @ B)

    def test_ragged_blocks(self, rng):
        A, B = rng.random((7, 8)), rng.random((8, 5))
        res = run_cannon(A, B, 3)
        assert np.allclose(res.C, A @ B)

    def test_cost_matches_prediction_divisible(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        res = run_cannon(A, B, 4)
        assert res.cost.words == pytest.approx(cannon_predicted_words(res.shape, 4))

    def test_respects_lower_bound(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        res = run_cannon(A, B, 2)
        bound = communication_lower_bound(ProblemShape(8, 8, 8), 4)
        assert res.cost.words >= bound

    def test_oversized_grid_rejected(self, rng):
        with pytest.raises(GridError):
            run_cannon(rng.random((2, 8)), rng.random((8, 8)), 3)


class TestSumma:
    @pytest.mark.parametrize(
        "grid,dims",
        [((2, 3), (4, 12, 6)), ((2, 2), (4, 4, 4)), ((1, 2), (3, 4, 4)),
         ((3, 1), (9, 3, 5)), ((2, 4), (8, 8, 8)), ((1, 1), (3, 3, 3))],
    )
    def test_numerics(self, rng, grid, dims):
        A, B = rng.random(dims[:2]), rng.random(dims[1:])
        res = run_summa(A, B, *grid)
        assert np.allclose(res.C, A @ B)

    def test_divisibility_enforced(self, rng):
        with pytest.raises(GridError):
            run_summa(rng.random((5, 4)), rng.random((4, 4)), 2, 2)

    def test_stage_count(self, rng):
        A, B = rng.random((4, 12)), rng.random((12, 6))
        res = run_summa(A, B, 2, 3)
        # panel = gcd(12/2, 12/3) = 2, so 6 stages.
        assert res.stages == 6

    def test_respects_lower_bound(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        res = run_summa(A, B, 2, 2)
        assert res.cost.words >= communication_lower_bound(ProblemShape(8, 8, 8), 4)


class TestC25D:
    @pytest.mark.parametrize(
        "q,c,dims",
        [(2, 1, (4, 4, 4)), (2, 2, (4, 4, 4)), (4, 2, (8, 8, 8)),
         (4, 4, (8, 12, 8)), (3, 3, (9, 6, 6)), (4, 2, (9, 10, 11)), (1, 1, (2, 2, 2))],
    )
    def test_numerics(self, rng, q, c, dims):
        A, B = rng.random(dims[:2]), rng.random(dims[1:])
        res = run_25d(A, B, q, c)
        assert np.allclose(res.C, A @ B)

    def test_c_must_divide_q(self, rng):
        with pytest.raises(GridError):
            run_25d(rng.random((8, 8)), rng.random((8, 8)), q=4, c=3)

    @pytest.mark.parametrize("c, rounds, words", [
        (1, 8, 128.0), (2, 7, 112.0), (4, 8, 128.0),
    ])
    def test_replication_divides_cannon_stages_per_layer(
        self, rng, c, rounds, words
    ):
        """c layers run q/c Cannon stages each, and so 2(q/c - 1) shift
        rounds, but pay c-way replication and reduction rounds for it: at
        16x16 with q=4 the measured total falls at c=2 and is back at
        c=1's count at c=4."""
        A, B = rng.random((16, 16)), rng.random((16, 16))
        res = run_25d(A, B, q=4, c=c)
        stages = [e.name for e in res.machine.spans.events()
                  if e.kind == "compute"]
        assert stages == [f"{4 // c} Cannon stages per layer"]
        assert (res.cost.rounds, res.cost.words) == (rounds, words)
        assert np.allclose(res.C, A @ B)

    def test_c1_matches_cannon_cost(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        res_25d = run_25d(A, B, q=4, c=1)
        res_cannon = run_cannon(A, B, 4)
        assert res_25d.cost.words == pytest.approx(res_cannon.cost.words)

    def test_respects_lower_bound(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        res = run_25d(A, B, q=2, c=2)
        assert res.cost.words >= communication_lower_bound(ProblemShape(8, 8, 8), 8)

    @pytest.mark.parametrize("pre_skewed", [False, True])
    @pytest.mark.parametrize("reduce_algorithm", ["binomial", "reduce_scatter_gather"])
    def test_option_matrix_numerics(self, rng, pre_skewed, reduce_algorithm):
        A, B = rng.random((8, 12)), rng.random((12, 8))
        res = run_25d(A, B, q=4, c=2, pre_skewed=pre_skewed,
                      reduce_algorithm=reduce_algorithm)
        assert np.allclose(res.C, A @ B)

    def test_pre_skewed_saves_two_rounds(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        plain = run_25d(A, B, q=4, c=2)
        skewed = run_25d(A, B, q=4, c=2, pre_skewed=True)
        assert plain.cost.rounds - skewed.cost.rounds == 2
        assert skewed.cost.words < plain.cost.words

    def test_rsg_reduce_saves_bandwidth_for_large_c(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        binom = run_25d(A, B, q=4, c=4, reduce_algorithm="binomial")
        rsg = run_25d(A, B, q=4, c=4, reduce_algorithm="reduce_scatter_gather")
        assert rsg.cost.words < binom.cost.words

    def test_unknown_reduce_algorithm_rejected(self, rng):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        with pytest.raises(GridError, match="reduce_algorithm"):
            run_25d(A, B, q=4, c=2, reduce_algorithm="bogus")


class TestCarma:
    @pytest.mark.parametrize(
        "P,dims",
        [(1, (4, 4, 4)), (2, (8, 4, 4)), (4, (16, 8, 12)), (8, (16, 16, 16)),
         (8, (32, 8, 8)), (16, (64, 16, 16)), (4, (4, 16, 8))],
    )
    def test_numerics(self, rng, P, dims):
        A, B = rng.random(dims[:2]), rng.random(dims[1:])
        res = run_carma(A, B, P)
        assert np.allclose(res.C, A @ B)

    def test_splits_follow_largest_dimension(self, rng):
        A, B = rng.random((32, 8)), rng.random((8, 8))
        res = run_carma(A, B, 4)
        # n1 = 32 dominates: first two splits are n1.
        assert res.splits[0] == "n1"

    def test_contraction_split_produces_combines(self, rng):
        A, B = rng.random((8, 32)), rng.random((32, 8))
        res = run_carma(A, B, 2)
        assert "n2" in res.splits
        assert np.allclose(res.C, A @ B)

    def test_power_of_two_required(self, rng):
        with pytest.raises(GridError, match="power-of-two"):
            run_carma(rng.random((8, 8)), rng.random((8, 8)), 3)

    def test_odd_split_rejected(self, rng):
        with pytest.raises(GridError, match="odd"):
            run_carma(rng.random((7, 7)), rng.random((7, 7)), 2)

    def test_respects_lower_bound(self, rng):
        A, B = rng.random((16, 16)), rng.random((16, 16))
        res = run_carma(A, B, 8)
        assert res.cost.words >= communication_lower_bound(ProblemShape(16, 16, 16), 8)
