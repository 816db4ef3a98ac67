"""The reconstructed arm: every registry algorithm survives a rank death.

``repro chaos --recover`` extends the fail-stop trichotomy with the
recovery schedules, and ``repro survive`` crosses every algorithm with
every Theorem 3 regime point under a seeded rank failure.  These tests
run both matrices and assert the acceptance contract:

* every cell reconstructs (ABFT checksum healing for the encoded
  variants, checkpoint/restart for everything else);
* reconstructed numerics match the fault-free product;
* the extended conservation invariant is exact —
  ``measured == clean + words_resent + words_recovered``;
* without a :class:`RecoveryConfig`, rank failure stays fail-stop; and
* rows are bit-identical for any ``--workers`` value.
"""

import numpy as np
import pytest

from repro.algorithms.abft import ABFT_ALGORITHMS
from repro.algorithms.registry import REGISTRY, run_algorithm
from repro.analysis.chaos import RECOVERY_SCHEDULES, run_chaos
from repro.analysis.survive import run_survivable, run_survive
from repro.core.cases import Regime
from repro.core.shapes import ProblemShape
from repro.exceptions import RankFailedError
from repro.machine.faults import FaultModel, inject

QUADCHOTOMY = {"recovered", "reconstructed", "clean", "detected", "rank-failed"}

#: A single cheap point where every exercised algorithm applies.
SMALL_POINT = {Regime.THREE_D: (ProblemShape(16, 16, 16), 4)}


class TestSurviveMatrix:
    @pytest.fixture(scope="class")
    def report(self):
        return run_survive()

    def test_every_cell_reconstructs_with_exact_accounting(self, report):
        assert report.ok, "\n" + report.render()

    def test_every_algorithm_and_case_covered(self, report):
        assert {row.algorithm for row in report.rows} == set(REGISTRY)
        assert {row.regime for row in report.rows} == {r.name for r in Regime}

    def test_mechanism_matches_the_algorithm_family(self, report):
        for row in report.rows:
            expected = ("abft" if row.algorithm in ABFT_ALGORITHMS
                        else "checkpoint")
            assert row.mechanism == expected, row
        assert {row.mechanism for row in report.rows} == {"abft", "checkpoint"}

    def test_extended_conservation_is_exact(self, report):
        for row in report.rows:
            expected = row.clean_words + row.words_resent + row.recovery_words
            assert row.total_words == pytest.approx(expected, abs=1e-9), row

    def test_overhead_is_positive_and_stated_against_the_bound(self, report):
        for row in report.rows:
            assert row.bound > 0
            assert row.recovery_words > 0, row  # surviving is never free
            assert row.overhead == pytest.approx(
                row.recovery_words / row.bound
            ), row
            assert row.attainment == pytest.approx(
                row.total_words / row.bound
            ), row

    def test_render_names_the_verdict(self, report):
        text = report.render()
        assert "overhead = recovery words / Theorem 3 bound" in text
        assert "every cell survived a rank death" in text

    def test_json_roundtrip(self, report, tmp_path):
        import json

        path = tmp_path / "survive.json"
        report.write_json(str(path))
        data = json.loads(path.read_text())
        assert data["ok"] is True
        assert len(data["rows"]) == len(report.rows)
        assert data["failure"] == [1, 1]


class TestRecoverMatrix:
    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos(seeds=(0,), recover=True)

    def test_no_violations(self, report):
        assert report.ok, "\n" + report.render()

    def test_every_outcome_on_a_quadchotomy_arm(self, report):
        assert {row.outcome for row in report.rows} <= QUADCHOTOMY

    def test_reconstructed_arm_materializes(self, report):
        assert report.counts().get("reconstructed", 0) > 0

    def test_recovery_schedules_never_fail_stop(self, report):
        for row in report.rows:
            if row.schedule in RECOVERY_SCHEDULES:
                assert row.outcome in ("reconstructed", "clean"), row

    def test_every_algorithm_reconstructs_at_least_once(self, report):
        reconstructed = {row.algorithm for row in report.rows
                         if row.outcome == "reconstructed"}
        assert reconstructed == set(REGISTRY)

    def test_reconstructed_rows_carry_their_mechanism_and_words(self, report):
        for row in report.rows:
            if row.outcome == "reconstructed":
                assert row.mechanism in ("abft", "checkpoint"), row
                assert row.recovery_words > 0, row

    def test_failstop_schedule_still_fails_stop(self, report):
        # --recover adds arms; it must not soften the existing ones.
        for row in report.rows:
            if row.schedule == "rank-failure":
                assert row.outcome == "rank-failed", row


class TestFailStopWithoutRecovery:
    @pytest.mark.parametrize("name", sorted(ABFT_ALGORITHMS))
    def test_abft_without_recovery_config_fails_stop(self, name):
        rng = np.random.default_rng(0)
        A, B = rng.random((16, 16)), rng.random((16, 16))
        with inject(FaultModel(rank_failures=((1, 1),))):
            with pytest.raises(RankFailedError):
                run_algorithm(name, A, B, 4)

    def test_run_survivable_needs_a_recovery_config(self):
        rng = np.random.default_rng(0)
        A, B = rng.random((16, 16)), rng.random((16, 16))
        with pytest.raises(ValueError, match="RecoveryConfig"):
            run_survivable("alg1", A, B, 4)
        with inject(FaultModel(rank_failures=((1, 1),))):
            with pytest.raises(ValueError, match="RecoveryConfig"):
                run_survivable("alg1", A, B, 4)


class TestShrinkStrategy:
    def test_alg1_shrinks_onto_survivors(self):
        report = run_survive(algorithms=["alg1"], strategy="shrink")
        assert report.ok, "\n" + report.render()
        assert all(row.outcome == "reconstructed" for row in report.rows)


class TestWorkersParity:
    """Satellite: rows bit-identical for any worker count."""

    def test_survive_rows_identical_across_worker_counts(self):
        kwargs = dict(
            algorithms=["alg1", "summa", "alg1_abft", "summa_abft"],
            points=SMALL_POINT,
        )
        serial = run_survive(**kwargs)
        pooled = run_survive(workers=2, **kwargs)
        assert len(serial.rows) == len(pooled.rows) > 0
        for a, b in zip(serial.rows, pooled.rows):
            assert repr(a) == repr(b)

    def test_chaos_recover_rows_identical_across_worker_counts(self):
        kwargs = dict(
            algorithms=["alg1", "alg1_abft"],
            seeds=(0, 1),
            schedules=list(RECOVERY_SCHEDULES),
            points=SMALL_POINT,
        )
        serial = run_chaos(**kwargs)
        pooled = run_chaos(workers=2, **kwargs)
        assert len(serial.rows) == len(pooled.rows) > 0
        for a, b in zip(serial.rows, pooled.rows):
            assert repr(a) == repr(b)
