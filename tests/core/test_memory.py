"""Tests for memory-dependent bounds and the Section 6.2 crossover."""

import pytest

from repro.core import (
    MEMORY_DEPENDENT_CONSTANTS,
    ProblemShape,
    Regime,
    binding_bound,
    classify,
    compare_bounds,
    leading_term,
    memory_dependent_bound,
    memory_independent_always_dominates,
    memory_threshold_3d,
    min_memory_to_hold_problem,
    strong_scaling_limit,
)
from repro.exceptions import ShapeError

SQ = ProblemShape(512, 512, 512)
PAPER = ProblemShape(9600, 2400, 600)


class TestMemoryDependent:
    def test_historical_constants(self):
        assert MEMORY_DEPENDENT_CONSTANTS["irony2004"] == pytest.approx(0.5**1.5)
        assert MEMORY_DEPENDENT_CONSTANTS["dongarra2008"] == pytest.approx(1.5**1.5)
        assert MEMORY_DEPENDENT_CONSTANTS["smith2019"] == 2.0
        assert MEMORY_DEPENDENT_CONSTANTS["kwasniewski2019"] == 2.0

    def test_bound_formula(self):
        s = ProblemShape(64, 64, 64)
        assert memory_dependent_bound(s, 8, M=1024.0) == pytest.approx(
            2 * 64**3 / (8 * 32)
        )

    def test_bound_decreases_with_memory(self):
        assert memory_dependent_bound(SQ, 64, M=10**4) > memory_dependent_bound(
            SQ, 64, M=10**6
        )

    def test_invalid_inputs(self):
        with pytest.raises(ShapeError):
            memory_dependent_bound(SQ, 8, M=0.0)
        with pytest.raises(ShapeError):
            memory_dependent_bound(SQ, 0, M=10.0)

    def test_min_memory(self):
        assert min_memory_to_hold_problem(SQ, 4) == 3 * 512 * 512 / 4


class TestCrossover:
    def test_threshold_consistency(self):
        """M* and P* describe the same surface: P = (8/27) mnk / M*^{3/2}."""
        P = 4096
        Mstar = memory_threshold_3d(SQ, P)
        assert strong_scaling_limit(SQ, Mstar) == pytest.approx(P)

    def test_binding_switches_at_threshold(self):
        P = 4096
        assert classify(SQ, P) is Regime.THREE_D
        Mstar = memory_threshold_3d(SQ, P)
        below = compare_bounds(SQ, P, Mstar * 0.9)
        above = compare_bounds(SQ, P, Mstar * 1.1)
        assert below.binding == "memory_dependent"
        assert above.binding == "memory_independent"

    def test_bounds_equal_at_threshold(self):
        P = 4096
        Mstar = memory_threshold_3d(SQ, P)
        cmp = compare_bounds(SQ, P, Mstar)
        assert cmp.memory_dependent == pytest.approx(cmp.memory_independent)
        # 2 mnk/(P sqrt(M*)) == 3 (mnk/P)^(2/3) at M* = (4/9)(mnk/P)^(2/3).
        assert cmp.memory_independent == pytest.approx(leading_term(SQ, P))

    def test_cases_1_2_memory_independent_always_binds(self):
        """Section 6.2: for P <= mn/k^2 no feasible M makes the
        memory-dependent bound dominate."""
        for P in [2, 3, 4, 36, 64]:
            assert classify(PAPER, P) is not Regime.THREE_D
            assert memory_independent_always_dominates(PAPER, P)
            # Spot-check at the minimum feasible memory.
            M = min_memory_to_hold_problem(PAPER, P) * 1.000001
            cmp = compare_bounds(PAPER, P, M)
            assert cmp.binding == "memory_independent"

    def test_case3_depends_on_memory(self):
        P = 4096
        assert not memory_independent_always_dominates(SQ, P)

    def test_infeasible_memory_rejected(self):
        with pytest.raises(ShapeError, match="cannot hold"):
            compare_bounds(SQ, 4, M=10.0)

    def test_binding_bound_defaults_to_theorem3(self):
        from repro.core import accessed_data_bound
        assert binding_bound(PAPER, 36) == pytest.approx(accessed_data_bound(PAPER, 36))

    def test_binding_bound_with_memory(self):
        P = 4096
        Mstar = memory_threshold_3d(SQ, P)
        assert binding_bound(SQ, P, Mstar * 0.5) > leading_term(SQ, P)

    def test_memory_threshold_value(self):
        P = 64
        assert memory_threshold_3d(SQ, P) == pytest.approx(
            (4 / 9) * (SQ.volume / P) ** (2 / 3)
        )
