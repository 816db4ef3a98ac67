"""Tests for Section 5.2 grid selection."""

import pytest

from repro.algorithms import (
    ProcessorGrid,
    alg1_cost,
    continuous_optimal_grid,
    divisor_grids,
    factor_triples,
    grid_is_exactly_optimal,
    select_grid,
)
from repro.core import ProblemShape, Regime, communication_lower_bound
from repro.exceptions import GridError

PAPER = ProblemShape(9600, 2400, 600)


class TestFactorTriples:
    def test_all_products_correct(self):
        triples = list(factor_triples(36))
        assert all(a * b * c == 36 for a, b, c in triples)

    def test_count_for_prime(self):
        assert sorted(factor_triples(5)) == [
            (1, 1, 5), (1, 5, 1), (5, 1, 1),
        ]

    def test_one(self):
        assert list(factor_triples(1)) == [(1, 1, 1)]

    def test_no_duplicates(self):
        triples = list(factor_triples(64))
        assert len(triples) == len(set(triples))


class TestContinuousOptimum:
    def test_case1_puts_everything_on_largest_dim(self):
        assert continuous_optimal_grid(PAPER, 3) == (3.0, 1.0, 1.0)

    def test_case2_balances_two_largest(self):
        p1, p2, p3 = continuous_optimal_grid(PAPER, 36)
        assert p3 == 1.0
        # m/p = n/q: 9600/p1 == 2400/p2
        assert 9600 / p1 == pytest.approx(2400 / p2)
        assert p1 * p2 == pytest.approx(36)

    def test_case3_cubical(self):
        p1, p2, p3 = continuous_optimal_grid(PAPER, 512)
        assert (p1, p2, p3) == pytest.approx((32.0, 8.0, 2.0))
        assert 9600 / p1 == pytest.approx(2400 / p2) == pytest.approx(600 / p3)

    def test_axis_order_respected(self):
        # Same problem with permuted dimensions: grid permutes along.
        s = ProblemShape(600, 9600, 2400)  # m is n2, n is n3, k is n1
        grid = continuous_optimal_grid(s, 512)
        assert grid == pytest.approx((2.0, 32.0, 8.0))

    def test_invalid_P(self):
        with pytest.raises(GridError):
            continuous_optimal_grid(PAPER, 0)


class TestIntegerSelection:
    @pytest.mark.parametrize("P,dims", [(3, (3, 1, 1)), (36, (12, 3, 1)), (512, (32, 8, 2))])
    def test_figure2_grids(self, P, dims):
        choice = select_grid(PAPER, P)
        assert choice.grid.dims == dims

    @pytest.mark.parametrize("P,regime", [(3, Regime.ONE_D), (36, Regime.TWO_D), (512, Regime.THREE_D)])
    def test_regime_annotated(self, P, regime):
        assert select_grid(PAPER, P).regime is regime

    @pytest.mark.parametrize("P", [3, 36, 512])
    def test_selected_cost_is_global_minimum(self, P):
        best = select_grid(PAPER, P)
        for dims in factor_triples(P):
            assert best.cost <= alg1_cost(PAPER, ProcessorGrid(*dims)) + 1e-9

    @pytest.mark.parametrize("P", [3, 36, 512])
    def test_figure2_grids_attain_bound_exactly(self, P):
        choice = select_grid(PAPER, P)
        assert grid_is_exactly_optimal(PAPER, P, choice.grid)
        assert choice.cost == pytest.approx(communication_lower_bound(PAPER, P))

    def test_divisibility_filter(self):
        # P = 7 divides none of (9600, 2400, 600)'s awkward partner dims? It
        # divides nothing: 9600 % 7 != 0 etc. -> no divisible grid but (1,1,1)x7
        with pytest.raises(GridError):
            select_grid(ProblemShape(10, 10, 10), 7, require_divisibility=True)

    def test_divisibility_satisfiable(self):
        choice = select_grid(PAPER, 36, require_divisibility=True)
        assert choice.divides
        assert choice.grid.dims == (12, 3, 1)

    def test_square_problem_cubical_grid(self):
        s = ProblemShape(64, 64, 64)
        assert select_grid(s, 64).grid.dims == (4, 4, 4)

    def test_suboptimal_grid_not_exactly_optimal(self):
        assert not grid_is_exactly_optimal(PAPER, 512, ProcessorGrid(512, 1, 1))


class TestDivisorGrids:
    def test_sorted_by_cost(self):
        grids = divisor_grids(PAPER, 36)
        costs = [g.cost for g in grids]
        assert costs == sorted(costs)
        assert all(g.divides for g in grids)

    def test_contains_optimum(self):
        grids = divisor_grids(PAPER, 512)
        assert grids[0].grid.dims == (32, 8, 2)


class TestLatencyAwareSelection:
    """select_grid with a latency term (alpha > 0)."""

    def test_alpha_zero_is_expression3(self):
        choice = select_grid(PAPER, 36, alpha=0.0)
        assert choice.grid.dims == (12, 3, 1)

    def test_large_alpha_minimizes_rounds(self):
        from repro.algorithms import alg1_latency_rounds

        choice = select_grid(PAPER, 36, alpha=1e12)
        best_rounds = alg1_latency_rounds(PAPER, choice.grid)
        for dims in factor_triples(36):
            assert best_rounds <= alg1_latency_rounds(PAPER, ProcessorGrid(*dims))

    def test_cost_field_is_always_bandwidth(self):
        latency_pick = select_grid(PAPER, 36, alpha=1e12)
        from repro.algorithms import alg1_cost as _cost

        assert latency_pick.cost == pytest.approx(
            _cost(PAPER, latency_pick.grid)
        )

    def test_rounds_model_matches_measurement(self, ):
        """alg1_latency_rounds equals the simulated run's round count."""
        import numpy as np
        from repro.algorithms import ProcessorGrid as PG, alg1_latency_rounds, run_alg1

        rng = np.random.default_rng(0)
        A, B = rng.random((24, 12)), rng.random((12, 8))
        from repro.core import ProblemShape as PS

        for dims in [(2, 2, 2), (4, 3, 2), (6, 2, 1), (1, 1, 1)]:
            res = run_alg1(A, B, PG(*dims))
            assert res.cost.rounds == alg1_latency_rounds(PS(24, 12, 8), PG(*dims)), dims

    def test_negative_alpha_rejected(self):
        from repro.algorithms import alg1_time
        from repro.exceptions import GridError

        with pytest.raises(GridError):
            alg1_time(PAPER, ProcessorGrid(1, 1, 1), alpha=-1.0)
