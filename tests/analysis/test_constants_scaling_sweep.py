"""Tests for empirical constants, strong scaling and the sweep driver."""

import pytest

from repro.analysis import (
    communication_efficiency,
    constant_series,
    measure_constant,
    scaling_sweep,
    sweep,
)
from repro.core import ProblemShape, Regime


class TestMeasuredConstants:
    def test_three_regimes_recover_1_2_3(self):
        """The empirical bottom row of Table 1, on a scaled Figure 2 shape."""
        for shape, P, expect_regime, expect_c in [
            (ProblemShape(96, 24, 6), 2, Regime.ONE_D, 1.0),
            (ProblemShape(96, 24, 6), 16, Regime.TWO_D, 2.0),
            (ProblemShape(48, 48, 48), 64, Regime.THREE_D, 3.0),
        ]:
            mc = measure_constant(shape, P)
            assert mc.regime is expect_regime
            # Tight runs (even shards, optimal grid) recover the constants
            # exactly.
            assert mc.constant == pytest.approx(expect_c, abs=1e-9)

    def test_constant_equals_exactly_when_grid_optimal(self):
        """With even shards and the optimal grid, accessed/leading ==
        D/leading exactly."""
        shape = ProblemShape(48, 48, 48)
        mc = measure_constant(shape, 8)
        # D = 3(mnk/P)^(2/3); accessed = measured + owned = D exactly.
        expected = 3 * (shape.volume / 8) ** (2 / 3)
        assert mc.accessed_words == pytest.approx(expected)

    def test_series(self):
        shape = ProblemShape(96, 24, 6)
        series = constant_series(shape, [2, 16, 512])
        assert [mc.P for mc in series] == [2, 16, 512]


class TestScalingSweep:
    def test_points_and_regimes(self):
        shape = ProblemShape(96, 24, 6)
        points = scaling_sweep(shape, [2, 16, 512])
        assert [pt.regime for pt in points] == [Regime.ONE_D, Regime.TWO_D, Regime.THREE_D]
        assert all(pt.alg1_cost >= pt.bound_communicated - 1e-9 for pt in points)

    def test_memory_dependent_column(self):
        shape = ProblemShape(64, 64, 64)
        M = 4096.0
        points = scaling_sweep(shape, [4, 16, 64], M=M)
        assert all(pt.memory_dependent is not None for pt in points)

    def test_memory_too_small_marks_none(self):
        shape = ProblemShape(64, 64, 64)
        points = scaling_sweep(shape, [1], M=10.0)
        assert points[0].memory_dependent is None

    def test_efficiency_decays_in_3d_regime(self):
        shape = ProblemShape(64, 64, 64)
        points = scaling_sweep(shape, [1, 8, 64, 512])
        eff = communication_efficiency(points)
        assert eff[0] == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(eff, eff[1:]))  # decaying

    def test_empty(self):
        assert communication_efficiency([]) == []


class TestSweepDriver:
    def test_records_cover_applicable_algorithms(self):
        records = sweep([ProblemShape(16, 16, 16)], [4], seed=1)
        names = {r.algorithm for r in records}
        assert "alg1" in names and "summa" in names and "cannon" in names
        for r in records:
            assert r.correct
            assert r.gap_ratio >= 1.0 - 1e-9 or r.bound == 0

    def test_algorithm_filter(self):
        records = sweep([ProblemShape(16, 16, 16)], [4], algorithms=["alg1"])
        assert {r.algorithm for r in records} == {"alg1"}

    def test_alg1_always_tightest(self):
        records = sweep([ProblemShape(16, 16, 16)], [4])
        by_alg = {r.algorithm: r.words for r in records}
        assert by_alg["alg1"] == min(by_alg.values())
