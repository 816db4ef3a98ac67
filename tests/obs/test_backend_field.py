"""The ``backend`` provenance field on ledger records."""

from repro.analysis.sweep import sweep
from repro.core.shapes import ProblemShape
from repro.obs.ledger import RunRecord


def _record(**overrides):
    base = dict(
        algorithm="alg1", shape=(4, 4, 4), P=2, words=16.0, rounds=2,
        flops=32.0, bound=16.0, attainment=1.0, wall_clock=0.01,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRunRecordBackend:
    def test_defaults_to_data(self):
        assert _record().backend == "data"

    def test_round_trips_through_dict(self):
        rec = _record(backend="symbolic")
        assert RunRecord.from_dict(rec.to_dict()).backend == "symbolic"

    def test_legacy_dict_without_backend_reads_as_data(self):
        payload = _record().to_dict()
        del payload["backend"]
        assert RunRecord.from_dict(payload).backend == "data"

    def test_from_sweep_carries_the_backend(self):
        record = sweep(
            [ProblemShape(48, 48, 48)], [64], algorithms=["alg1"],
            backend="symbolic",
        )[0]
        assert RunRecord.from_sweep(record).backend == "symbolic"
