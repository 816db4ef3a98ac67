"""The multiprocess engine: worker-count-independent results, real speedup.

``repro.parallel`` promises that every driver threaded through it — the
sweep, the chaos harness, the large-P attainment sweep and the benchmark
suite — produces *bit-identical* results for any ``workers`` value.  The
tests here run each driver serially and with a pool and compare complete
observable state (records, rows, reports, ledger contents).

The speedup acceptance test needs real cores; it skips on single-core
machines rather than asserting wall-clock on hardware that cannot comply.
"""

import os

import pytest

from repro.analysis.chaos import run_chaos
from repro.analysis.large_p import LargePPoint, run_large_p_sweep
from repro.analysis.sweep import sweep
from repro.core.cases import Regime
from repro.core.shapes import ProblemShape
from repro.exceptions import TaskError
from repro.parallel import (
    default_chunksize,
    default_workers,
    parallel_map,
    task_seed,
)


def _double(x):
    return 2 * x


def _fail(x):
    raise RuntimeError("boom")


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


class TestParallelMap:
    def test_preserves_input_order(self):
        items = list(range(20))
        assert parallel_map(_double, items, workers=4) == [2 * x for x in items]

    def test_serial_fallback_identical(self):
        items = list(range(7))
        assert parallel_map(_double, items, workers=1) == parallel_map(
            _double, items, workers=3
        )

    def test_single_item_stays_in_process(self):
        # workers > 1 with one task must not spin up a pool: locally
        # defined (unpicklable) functions still work.
        assert parallel_map(lambda x: x + 1, [41], workers=8) == [42]

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_fail, [1, 2], workers=2)
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_fail, [1, 2], workers=1)

    def test_task_seed_depends_only_on_position(self):
        import numpy as np

        a = np.random.default_rng(task_seed(7, 3)).random(4)
        b = np.random.default_rng(task_seed(7, 3)).random(4)
        c = np.random.default_rng(task_seed(7, 4)).random(4)
        assert (a == b).all()
        assert (a != c).any()

    def test_default_workers_resolution(self):
        assert default_workers(None) == 1
        assert default_workers(0) == 1
        assert default_workers(5) == 5
        assert default_workers(-1) == (os.cpu_count() or 1)

    def test_default_chunksize_four_chunks_per_worker(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(10, 4) == 1
        assert default_chunksize(100, 4) == 7  # ceil(100 / 16)
        assert default_chunksize(100000, 8) == 3125
        # Degenerate pool sizes stay safe.
        assert default_chunksize(100, 0) == 1

    def test_chunked_pool_preserves_order_and_values(self):
        items = list(range(100))
        assert parallel_map(_double, items, workers=4) == [
            2 * x for x in items
        ]
        assert parallel_map(_double, items, workers=4, chunksize=25) == [
            2 * x for x in items
        ]

    def test_pool_failure_names_task_and_item(self):
        with pytest.raises(RuntimeError, match="boom") as excinfo:
            parallel_map(_fail_on_three, [0, 1, 2, 3, 4], workers=2)
        context = excinfo.value.__cause__
        assert isinstance(context, TaskError)
        assert "task 3 of 5" in str(context)
        assert "item 3" in str(context)
        assert "worker traceback" in str(context)
        assert "_fail_on_three" in str(context)  # the worker-side frames

    def test_serial_failure_stays_bare(self):
        # In-process failures keep the original traceback; no TaskError
        # context is attached (there is nothing opaque to explain).
        with pytest.raises(RuntimeError, match="boom") as excinfo:
            parallel_map(_fail_on_three, [0, 1, 2, 3, 4], workers=1)
        assert excinfo.value.__cause__ is None

    def test_telemetry_spans_cross_the_pool_boundary(self):
        from repro.obs.telemetry import Telemetry

        tel = Telemetry("test")
        items = list(range(8))
        result = parallel_map(
            _double, items, workers=2, telemetry=tel, label="double"
        )
        assert result == [2 * x for x in items]
        assert len(tel.tasks) == len(items)
        assert sorted(t.index for t in tel.tasks) == items
        for span in tel.tasks:
            assert span.label == "double"
            assert span.worker_pid > 0
            assert span.ended >= span.started >= 0.0
        # Pool mode used real worker processes, not the parent.
        assert all(t.worker_pid != os.getpid() for t in tel.tasks)

    def test_progress_counts_every_task(self):
        import io

        from repro.obs.telemetry import ProgressReporter

        stream = io.StringIO()
        progress = ProgressReporter(6, interval=0, stream=stream)
        parallel_map(_double, list(range(6)), workers=2, progress=progress)
        assert progress.done == 6
        assert stream.getvalue().splitlines()[-1].startswith("6/6")


def _record_key(record):
    # repr() compares NaN gap_ratios (P=1) as equal text; every other
    # field is exact float/int/str state.
    return repr(record)


class TestSweepBitIdentity:
    def test_records_identical_across_worker_counts(self):
        shapes = [ProblemShape(16, 16, 16), ProblemShape(32, 8, 4)]
        counts = [1, 4]
        serial = sweep(shapes, counts, seed=3)
        pooled = sweep(shapes, counts, seed=3, workers=2)
        assert [_record_key(r) for r in _strip_wall(serial)] == [
            _record_key(r) for r in _strip_wall(pooled)
        ]

    def test_ledger_identical_across_worker_counts(self, tmp_path):
        from repro.obs.ledger import Ledger

        shapes = [ProblemShape(8, 8, 8)]
        paths = []
        for workers in (1, 2):
            path = tmp_path / f"ledger-{workers}.jsonl"
            sweep(
                shapes, [2, 4], seed=0,
                ledger=Ledger(path), label="parity", workers=workers,
            )
            paths.append(path)
        assert _strip_volatile(paths[0]) == _strip_volatile(paths[1])


def _strip_wall(records):
    import dataclasses

    return [dataclasses.replace(r, wall_clock=0.0) for r in records]


def _strip_volatile(path):
    """Ledger lines minus wall-clock and timestamp noise."""
    import json

    lines = []
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        for key in ("wall_clock", "timestamp", "created_at", "time"):
            entry.pop(key, None)
        lines.append(json.dumps(entry, sort_keys=True))
    return lines


class TestChaosBitIdentity:
    def test_rows_identical_across_worker_counts(self):
        point = {Regime.THREE_D: (ProblemShape(8, 8, 8), 4)}
        kwargs = dict(
            algorithms=["alg1", "summa"],
            seeds=(0, 1),
            schedules=["drop-retry", "stall"],
            points=point,
        )
        serial = run_chaos(**kwargs)
        pooled = run_chaos(workers=2, **kwargs)
        assert len(serial.rows) == len(pooled.rows) > 0
        for a, b in zip(serial.rows, pooled.rows):
            assert repr(a) == repr(b)


class TestLargePBitIdentity:
    # A downsized point per case: same code path as the production points,
    # minutes cheaper.
    POINTS = (
        LargePPoint(case=1, shape=ProblemShape(1024, 8, 8), P=64),
        LargePPoint(case=3, shape=ProblemShape(64, 64, 64), P=64),
    )

    def test_results_identical_across_worker_counts(self):
        serial = run_large_p_sweep(points=self.POINTS)
        pooled = run_large_p_sweep(points=self.POINTS, workers=2)
        assert len(serial) == len(pooled) == len(self.POINTS)
        for a, b in zip(serial, pooled):
            assert a.point == b.point
            assert a.record.words == b.record.words
            assert a.record.rounds == b.record.rounds
            assert a.ratio == b.ratio
            assert a.tight and b.tight


def test_case3_sweep_pooled_matches_serial():
    """A >=200-point case-3 sweep gives identical records with 4 workers.

    Only the exact property lives here; the wall-clock speedup of the pool
    depends on the host's cores and belongs to the benchmark.
    """
    shapes = [ProblemShape(12 + 2 * i, 12 + 2 * i, 12 + 2 * i) for i in range(50)]
    counts = [4]  # 50 shapes x 4+ applicable algorithms > 200 records

    serial = sweep(shapes, counts, seed=1)
    pooled = sweep(shapes, counts, seed=1, workers=4)

    assert len(serial) == len(pooled) >= 200
    assert [_record_key(r) for r in _strip_wall(serial)] == [
        _record_key(r) for r in _strip_wall(pooled)
    ]
