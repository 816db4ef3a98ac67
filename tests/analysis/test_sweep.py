"""Direct unit tests for the sweep driver (repro.analysis.sweep).

Previously only exercised indirectly through the benchmark harnesses;
these tests pin the record fields, the algorithm filtering, the
applicability skipping, and — crucially — that verification failures are
typed exceptions (surviving ``python -O``), not bare asserts.
"""

import importlib

import pytest

# The package re-exports the sweep *function* under the same name, so the
# submodule must be resolved explicitly for monkeypatching.
sweep_module = importlib.import_module("repro.analysis.sweep")

from repro.algorithms.registry import REGISTRY, applicable_algorithms
from repro.analysis.sweep import sweep
from repro.core import ProblemShape, communication_lower_bound
from repro.exceptions import (
    BoundViolationError,
    NumericalMismatchError,
    VerificationError,
)
from repro.obs.ledger import Ledger
from repro.obs.metrics import RankSkew

SHAPE = ProblemShape(64, 16, 4)


class TestRecordFields:
    def test_record_carries_all_measurements(self):
        records = sweep([SHAPE], [2], algorithms=["alg1"], seed=0)
        assert len(records) == 1
        rec = records[0]
        assert rec.algorithm == "alg1"
        assert rec.shape == SHAPE
        assert rec.P == 2
        assert rec.correct is True
        assert rec.bound == communication_lower_bound(SHAPE, 2)
        assert rec.words >= rec.bound
        assert rec.gap_ratio == pytest.approx(rec.words / rec.bound)
        assert rec.rounds > 0
        assert rec.flops > 0
        assert rec.wall_clock > 0

    def test_record_carries_span_derived_skew(self):
        rec = sweep([SHAPE], [2], algorithms=["alg1"], seed=0)[0]
        assert isinstance(rec.skew, RankSkew)
        assert rec.skew.max_value >= rec.skew.mean_value > 0
        assert 0 <= rec.skew.straggler < 2
        assert rec.skew.ratio >= 1.0

    def test_deterministic_model_costs_across_runs(self):
        a = sweep([SHAPE], [2, 16], seed=0)
        b = sweep([SHAPE], [2, 16], seed=0)
        assert [(r.algorithm, r.P, r.words, r.rounds, r.flops) for r in a] == [
            (r.algorithm, r.P, r.words, r.rounds, r.flops) for r in b
        ]


class TestFiltering:
    def test_algorithm_subset_respected(self):
        records = sweep([SHAPE], [16], algorithms=["alg1", "summa"], seed=0)
        assert {r.algorithm for r in records} == {"alg1", "summa"}

    def test_default_runs_every_applicable_algorithm(self):
        records = sweep([SHAPE], [16], seed=0)
        assert {r.algorithm for r in records} == set(
            applicable_algorithms(SHAPE, 16)
        )

    def test_inapplicable_combinations_skipped_not_errored(self):
        # Cannon needs a square P and q <= min(dims): P=2 is not square,
        # so requesting cannon on it must yield no record rather than fail.
        records = sweep([SHAPE], [2], algorithms=["cannon"], seed=0)
        assert records == []
        assert "cannon" not in applicable_algorithms(SHAPE, 2)

    def test_unknown_algorithm_name_is_silently_not_runnable(self):
        # Names outside the registry can never be in the applicable set.
        records = sweep([SHAPE], [2], algorithms=["no_such_algorithm"], seed=0)
        assert records == []


class TestVerificationFailures:
    def _patched_run(self, monkeypatch, words=None, corrupt=False):
        real = sweep_module.run_algorithm

        def fake(name, A, B, P, **kwargs):
            run = real(name, A, B, P, **kwargs)
            if corrupt:
                run.C = run.C + 1.0
            if words is not None:
                run.cost = type(run.cost)(
                    rounds=run.cost.rounds, words=words, flops=run.cost.flops
                )
            return run

        monkeypatch.setattr(sweep_module, "run_algorithm", fake)

    def test_wrong_product_raises_typed_exception(self, monkeypatch):
        self._patched_run(monkeypatch, corrupt=True)
        with pytest.raises(NumericalMismatchError, match="wrong product"):
            sweep([SHAPE], [2], algorithms=["alg1"], seed=0)

    def test_bound_beating_cost_raises_typed_exception(self, monkeypatch):
        self._patched_run(monkeypatch, words=0.0)
        with pytest.raises(BoundViolationError, match="beat the lower bound"):
            sweep([SHAPE], [2], algorithms=["alg1"], seed=0)

    def test_both_are_verification_and_survive_optimize_mode(self, monkeypatch):
        # The whole point of replacing asserts: the checks are ordinary
        # control flow, so they fire regardless of __debug__.
        assert issubclass(NumericalMismatchError, VerificationError)
        assert issubclass(BoundViolationError, VerificationError)
        self._patched_run(monkeypatch, words=0.0)
        monkeypatch.setattr(sweep_module, "__debug__", False, raising=False)
        with pytest.raises(VerificationError):
            sweep([SHAPE], [2], algorithms=["alg1"], seed=0)

    def test_failed_run_appends_nothing_to_ledger(self, monkeypatch, tmp_path):
        self._patched_run(monkeypatch, words=0.0)
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        with pytest.raises(BoundViolationError):
            sweep([SHAPE], [2], algorithms=["alg1"], seed=0, ledger=ledger)
        assert ledger.records() == []


class TestLedgerFeed:
    def test_every_record_lands_in_the_ledger(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        records = sweep([SHAPE], [2, 16], seed=0, ledger=ledger, label="unit")
        persisted = ledger.records()
        assert len(persisted) == len(records)
        for rec, run in zip(records, persisted):
            assert run.algorithm == rec.algorithm
            assert run.words == rec.words
            assert run.attainment == rec.gap_ratio
            assert run.label == "unit"
            assert run.kind == "sweep"
            assert tuple(run.shape) == rec.shape.dims

    def test_registry_unchanged_by_sweep(self):
        before = set(REGISTRY)
        sweep([SHAPE], [2], seed=0)
        assert set(REGISTRY) == before
