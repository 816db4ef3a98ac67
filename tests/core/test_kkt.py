"""Tests for the KKT certificate — an executable version of the Lemma 2 proof."""

import numpy as np
import pytest

from repro.core import (
    check_kkt,
    dual_variables,
    kkt_residuals,
    quasiconvexity_witness,
    solve_lemma2,
)

SWEEP = [
    (9600, 2400, 600, P) for P in [1, 2, 3, 4, 5, 16, 36, 63, 64, 65, 128, 512, 4096]
] + [
    (8, 8, 8, 27),
    (100, 10, 1, 5),
    (100, 10, 1, 50),
    (100, 10, 1, 5000),
    (50, 50, 2, 100),
    (7, 5, 3, 1),
]


class TestPaperDuals:
    @pytest.mark.parametrize("m,n,k,P", SWEEP)
    def test_kkt_conditions_hold(self, m, n, k, P):
        """The paper's (x*, mu*) satisfies all four KKT conditions."""
        check_kkt(m, n, k, P)

    def test_case1_duals_match_paper(self):
        m, n, k, P = 9600, 2400, 600, 3
        mu = dual_variables(m, n, k, P)
        assert mu[0] == pytest.approx(P**2 / (m**2 * n * k))
        assert mu[1] == 0.0
        assert mu[2] == pytest.approx(1 - P * n / m)
        assert mu[3] == pytest.approx(1 - P * k / m)

    def test_case2_duals_match_paper(self):
        m, n, k, P = 9600, 2400, 600, 36
        mu = dual_variables(m, n, k, P)
        assert mu[0] == pytest.approx((P / (m * n * k ** (2 / 3))) ** 1.5)
        assert mu[1] == mu[2] == 0.0
        assert mu[3] == pytest.approx(1 - (P * k * k / (m * n)) ** 0.5)

    def test_case3_duals_match_paper(self):
        m, n, k, P = 9600, 2400, 600, 512
        mu = dual_variables(m, n, k, P)
        assert mu[0] == pytest.approx((P / (m * n * k)) ** (4 / 3))
        assert mu[1:] == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("m,n,k,P", SWEEP)
    def test_duals_nonnegative(self, m, n, k, P):
        assert all(mu >= -1e-12 for mu in dual_variables(m, n, k, P))


class TestResidualDetection:
    def test_wrong_primal_detected(self):
        m, n, k, P = 9600, 2400, 600, 36
        mu = dual_variables(m, n, k, P)
        bad_x = (1.0, 1.0, 1.0)  # violates everything
        res = kkt_residuals(bad_x, mu, m, n, k, P)
        assert res.primal > 0

    def test_wrong_duals_break_stationarity(self):
        m, n, k, P = 9600, 2400, 600, 36
        sol = solve_lemma2(m, n, k, P)
        res = kkt_residuals(sol.x, (0.0, 0.0, 0.0, 0.0), m, n, k, P)
        assert res.stationarity == pytest.approx(1.0)  # grad f alone

    def test_complementarity_violation_detected(self):
        m, n, k, P = 9600, 2400, 600, 512
        sol = solve_lemma2(m, n, k, P)
        mu = (1e-3, 1.0, 0.0, 0.0)  # mu2 > 0 but constraint 2 is slack
        res = kkt_residuals(sol.x, mu, m, n, k, P)
        assert res.complementarity > 0

    def test_check_kkt_raises_on_failure(self, monkeypatch):
        import repro.core.kkt as kkt_mod

        monkeypatch.setattr(kkt_mod, "dual_variables", lambda *a: (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(AssertionError, match="KKT violation"):
            kkt_mod.check_kkt(9600, 2400, 600, 36)


class TestQuasiconvexity:
    def test_lemma5_inequality_on_random_points(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(0.1, 10.0, size=3)
            y = rng.uniform(0.1, 10.0, size=3)
            w = quasiconvexity_witness(x, y)
            if w != float("-inf"):  # premise g0(y) <= g0(x) held
                assert w <= 1e-9

    def test_premise_filter(self):
        # y with a smaller product has g0(y) > g0(x): premise fails.
        assert quasiconvexity_witness((2, 2, 2), (1, 1, 1)) == float("-inf")

    def test_positive_octant_required(self):
        with pytest.raises(ValueError):
            quasiconvexity_witness((1, -1, 1), (1, 1, 1))
