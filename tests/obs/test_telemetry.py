"""Driver telemetry: unified timelines, utilization stats, zero-cost off.

Three contracts under test:

1. **Recorder correctness** — stage spans nest with the right
   parent/depth encoding, task spans rebase worker clocks onto the
   recorder epoch, and worker-utilization/straggler statistics derive
   exactly from the recorded spans (zero drift).
2. **Exporters** — the merged Chrome trace carries parent stage spans
   and per-worker task spans with durations equal (``==``, not close) to
   the measured ones; the JSONL stream round-trips through
   :func:`repro.obs.read_jsonl`.
3. **Zero-cost when off / determinism** — telemetry and any ``workers``
   value leave model costs, attainment and ledger bytes bit-identical to
   the uninstrumented serial run; telemetry-off ledger and BENCH output
   contains no telemetry keys at all.
"""

import dataclasses
import io
import json

import pytest

from repro.core.shapes import ProblemShape
from repro.obs.exporters import (
    ChromeTraceExporter,
    export_telemetry_chrome,
    export_telemetry_jsonl,
    read_jsonl,
    telemetry_jsonl_records,
    telemetry_trace_events,
)
from repro.obs.telemetry import (
    ProgressReporter,
    Telemetry,
    maybe_stage,
)
from repro.analysis.sweep import sweep
from repro.parallel import parallel_map


def _busy(x):
    total = 0
    for i in range(2000):
        total += i * x
    return total


SHAPES = [ProblemShape(16, 16, 16), ProblemShape(32, 8, 4),
          ProblemShape(64, 16, 4), ProblemShape(24, 24, 24)]


class TestStageSpans:
    def test_nesting_records_parent_and_depth(self):
        tel = Telemetry("test")
        with tel.stage("outer"):
            with tel.stage("inner"):
                pass
            with tel.stage("sibling"):
                pass
        outer, inner, sibling = tel.stages
        assert outer.parent is None and outer.depth == 0
        assert inner.parent == outer.index and inner.depth == 1
        assert sibling.parent == outer.index and sibling.depth == 1
        assert outer.duration >= inner.duration + 0.0
        assert inner.start >= outer.start
        assert sibling.end <= outer.end

    def test_stage_closes_on_error(self):
        tel = Telemetry("test")
        with pytest.raises(ValueError):
            with tel.stage("doomed"):
                raise ValueError("x")
        assert tel.stages[0].end >= tel.stages[0].start
        assert not tel._stack

    def test_meta_is_recorded(self):
        tel = Telemetry("test")
        with tel.stage("map", tasks=7, workers=2):
            pass
        assert tel.stages[0].meta == {"tasks": 7, "workers": 2}

    def test_maybe_stage_none_is_inert(self):
        with maybe_stage(None, "anything") as span:
            assert span is None

    def test_maybe_stage_with_recorder_opens_span(self):
        tel = Telemetry("test")
        with maybe_stage(tel, "real") as span:
            assert span is tel.stages[0]


class TestTaskSpans:
    def test_record_task_rebases_onto_epoch(self):
        tel = Telemetry("test")
        e = tel.epoch
        span = tel.record_task(0, "t", 123, e + 1.0, e + 1.5, e + 3.5, items=4)
        assert span.submitted == 1.0
        assert span.started == 1.5
        assert span.ended == 3.5
        assert span.queue_wait == 0.5
        assert span.duration == 2.0
        assert span.items_per_sec == 2.0

    def test_set_task_items_by_label(self):
        tel = Telemetry("test")
        e = tel.epoch
        # Two parallel_map calls both number their tasks from zero.
        tel.record_task(0, "first", 1, e, e, e + 1.0)
        tel.record_task(0, "second", 1, e, e, e + 1.0)
        tel.set_task_items(0, 5, label="second")
        assert tel.task_by_index(0, label="first").items == 0
        assert tel.task_by_index(0, label="second").items == 5
        with pytest.raises(KeyError):
            tel.set_task_items(3, 1)

    def test_worker_stats_and_straggler_skew(self):
        tel = Telemetry("test")
        e = tel.epoch
        tel.record_task(0, "t", 10, e, e, e + 3.0, items=3)
        tel.record_task(1, "t", 11, e, e + 1.0, e + 2.0, items=1)
        stats = {w.pid: w for w in tel.worker_stats()}
        assert stats[10].busy == 3.0 and stats[10].tasks == 1
        assert stats[11].busy == 1.0
        # Pool window is [0, 3]; busy fractions derive from it exactly.
        assert stats[10].busy_fraction == 1.0
        assert stats[11].busy_fraction == pytest.approx(1.0 / 3.0)
        skew = tel.straggler_skew()
        assert skew.ratio == pytest.approx(3.0 / 2.0)
        assert tel.stragglers(threshold=1.4)[0].pid == 10
        assert tel.stragglers(threshold=1.6) == []

    def test_summary_is_exact_over_spans(self):
        tel = Telemetry("sweep")
        e = tel.epoch
        with tel.stage("map"):
            tel.record_task(0, "t", 1, e, e, e + 2.0, items=4)
            tel.record_task(1, "t", 2, e, e + 0.5, e + 1.5, items=2)
        s = tel.summary()
        assert s["driver"] == "sweep"
        assert s["tasks"] == 2 and s["workers"] == 2 and s["items"] == 6
        assert s["busy_total"] == 3.0
        assert s["queue_wait_total"] == 0.5
        assert s["pool_window"] == 2.0
        assert s["items_per_sec"] == 3.0
        assert set(s["stages"]) == {"map"}
        json.dumps(s)  # ledger/BENCH embedding requires serializability

    def test_render_mentions_workers_and_stages(self):
        tel = Telemetry("sweep")
        e = tel.epoch
        with tel.stage("map"):
            tel.record_task(0, "t", 42, e, e, e + 1.0)
        text = tel.render()
        assert "driver=sweep" in text
        assert "map" in text
        assert "worker 42" in text
        assert "straggler skew" in text


class TestExporterZeroDrift:
    def _recorder(self):
        tel = Telemetry("sweep")
        e = tel.epoch
        with tel.stage("plan"):
            pass
        with tel.stage("map", tasks=2):
            tel.record_task(0, "shape", 101, e + 0.1, e + 0.2, e + 0.9, items=8)
            tel.record_task(1, "shape", 102, e + 0.1, e + 0.3, e + 1.1, items=8)
        return tel

    def test_chrome_events_preserve_measured_durations(self):
        tel = self._recorder()
        events = telemetry_trace_events(tel)
        scale = ChromeTraceExporter.SCALE
        stage_events = [e for e in events if e.get("cat") == "stage"]
        assert {e["name"] for e in stage_events} == {"plan", "map"}
        for ev, span in zip(stage_events, tel.stages):
            assert ev["ts"] == span.start * scale
            assert ev["dur"] == span.duration * scale
        task_events = [e for e in events if e.get("cat") == "task"]
        assert len(task_events) == 2
        for ev, span in zip(task_events, tel.tasks):
            assert ev["pid"] == span.worker_pid
            assert ev["ts"] == span.started * scale
            assert ev["dur"] == span.duration * scale
        queue_events = [e for e in events if e.get("cat") == "queue"]
        for ev, span in zip(queue_events, tel.tasks):
            # Zero drift: the exported numbers ARE the measured numbers.
            assert ev["ts"] == span.submitted * scale
            assert ev["dur"] == span.queue_wait * scale
            # The wait bar ends where the task bar starts (up to one ulp
            # of float addition — not a drift, just a + b rounding).
            assert ev["ts"] + ev["dur"] == pytest.approx(
                span.started * scale, rel=1e-12
            )

    def test_chrome_export_is_loadable_json(self, tmp_path):
        tel = self._recorder()
        path = tmp_path / "trace.json"
        n = export_telemetry_chrome(tel, str(path))
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == n
        assert payload["otherData"]["format"] == "repro-telemetry-v1"
        assert payload["otherData"]["summary"] == tel.summary()
        # Both worker pids appear as their own Chrome process lanes.
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert {0, 101, 102} <= pids

    def test_jsonl_roundtrip_and_record_order(self, tmp_path):
        tel = self._recorder()
        path = tmp_path / "telemetry.jsonl"
        n = export_telemetry_jsonl(tel, str(path))
        records = read_jsonl(str(path))
        assert len(records) == n
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "summary"
        types = [r["type"] for r in records]
        assert types.count("stage_span") == 2
        assert types.count("task_span") == 2
        assert types.count("worker") == 2
        spans = [r for r in records if r["type"] == "task_span"]
        for rec, span in zip(spans, tel.tasks):
            assert rec["duration"] == span.duration
            assert rec["queue_wait"] == span.queue_wait

    def test_worker_busy_equals_sum_of_task_durations(self):
        # The zero-drift invariant extended to driver spans: per-worker
        # busy in the export is the exact sum of that worker's task
        # durations — the same floats, never re-measured.
        tel = self._recorder()
        records = telemetry_jsonl_records(tel)
        workers = {r["pid"]: r for r in records if r["type"] == "worker"}
        for span in tel.tasks:
            assert workers[span.worker_pid]["busy"] == span.duration


class TestProgressReporter:
    def test_reports_every_update_at_zero_interval(self):
        stream = io.StringIO()
        progress = ProgressReporter(3, label="sweep", interval=0,
                                    stream=stream)
        for _ in range(3):
            progress.update()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("sweep: 1/3")
        assert lines[-1].startswith("sweep: 3/3 (100%)")
        assert "/s" in lines[-1]

    def test_throttles_but_always_reports_completion(self):
        stream = io.StringIO()
        progress = ProgressReporter(50, interval=3600, stream=stream)
        for _ in range(50):
            progress.update()
        lines = stream.getvalue().splitlines()
        # First update reports (nothing reported yet), then silence until
        # the final item forces a completion line.
        assert len(lines) == 2
        assert lines[-1].startswith("50/50")

    def test_rejects_negative_total(self):
        with pytest.raises(ValueError):
            ProgressReporter(-1)

    def test_completion_line_printed_once_then_throttled(self):
        # Reaching total bypasses the throttle exactly once; updates past
        # total throttle normally instead of spamming a line each.
        stream = io.StringIO()
        progress = ProgressReporter(3, interval=3600, stream=stream)
        for _ in range(6):
            progress.update()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[-1].startswith("3/3 (100%)")

    def test_past_total_clamps_percentage_and_eta(self):
        stream = io.StringIO()
        progress = ProgressReporter(2, interval=0, stream=stream)
        for _ in range(4):
            progress.update()
        last = stream.getvalue().splitlines()[-1]
        assert last.startswith("4/2 (100%)")  # clamped, not 200%
        assert "ETA" not in last              # never a negative ETA
        assert "ETA -" not in stream.getvalue()

    def test_finish_forces_final_line_for_unknown_total(self):
        stream = io.StringIO()
        progress = ProgressReporter(0, interval=3600, stream=stream)
        for _ in range(5):
            progress.update()
        progress.finish()
        lines = stream.getvalue().splitlines()
        assert lines[-1] == lines[-1].strip() and "5 done" in lines[-1]

    def test_finish_is_idempotent_and_skipped_after_completion(self):
        stream = io.StringIO()
        progress = ProgressReporter(2, interval=0, stream=stream)
        progress.update()
        progress.update()  # completion line prints here
        before = stream.getvalue()
        progress.finish()
        progress.finish()
        assert stream.getvalue() == before

    def test_intermediate_heartbeat_does_not_satisfy_finish(self):
        # A throttle-window heartbeat mid-run is not the final line: for
        # an unknown total, finish() must still report.
        stream = io.StringIO()
        progress = ProgressReporter(0, interval=0, stream=stream)
        progress.update()
        progress.finish()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2


def _strip(record):
    return dataclasses.replace(record, wall_clock=0.0, task_index=None)


class TestDeterminism:
    """Telemetry/profile on or off, any workers: bit-identical models."""

    def test_model_costs_independent_of_telemetry_and_workers(self):
        from repro.obs.profile import ProfileCollector

        base = sweep(SHAPES, [4], seed=5)
        for workers in (1, 2):
            tel = Telemetry("sweep")
            prof = ProfileCollector()
            instrumented = sweep(
                SHAPES, [4], seed=5, workers=workers,
                telemetry=tel, profile=prof,
            )
            assert [repr(_strip(r)) for r in instrumented] == [
                repr(_strip(r)) for r in base
            ]
            assert len(tel.tasks) == len(SHAPES)
            assert prof.sources >= len(SHAPES)

    def test_task_index_only_under_telemetry(self):
        plain = sweep(SHAPES[:2], [4], seed=0)
        assert all(r.task_index is None for r in plain)
        tel = Telemetry("sweep")
        telemetered = sweep(SHAPES[:2], [4], seed=0, telemetry=tel)
        assert sorted({r.task_index for r in telemetered}) == [0, 1]

    def test_ledger_bytes_identical_when_telemetry_off(self, tmp_path):
        from repro.obs.ledger import Ledger

        paths = []
        for name, kwargs in (
            ("off1", {}),
            ("off2", {"workers": 2}),
        ):
            path = tmp_path / f"{name}.jsonl"
            sweep(SHAPES[:2], [4], seed=0, ledger=Ledger(path),
                  label="parity", **kwargs)
            paths.append(path)
        def normalized(path):
            lines = []
            for line in path.read_text().splitlines():
                entry = json.loads(line)
                assert "task_index" not in entry
                assert "telemetry" not in entry
                for key in ("wall_clock", "timestamp"):
                    entry.pop(key, None)
                lines.append(json.dumps(entry, sort_keys=True))
            return lines
        assert normalized(paths[0]) == normalized(paths[1])

    def test_ledger_telemetry_fields_roundtrip(self, tmp_path):
        from repro.obs.ledger import Ledger

        path = tmp_path / "telemetered.jsonl"
        ledger = Ledger(path)
        tel = Telemetry("sweep")
        sweep(SHAPES[:2], [4], seed=0, ledger=ledger, label="t",
              telemetry=tel, workers=2)
        records = Ledger(path).records()
        assert all(r.task_index is not None for r in records)
        assert all(r.telemetry is not None for r in records)
        sample = records[0].telemetry
        assert set(sample) == {
            "task_index", "worker_pid", "queue_wait", "task_duration",
            "items",
        }
        span = tel.task_by_index(records[0].task_index, label="sweep-shape")
        assert sample["task_duration"] == span.duration
        assert sample["worker_pid"] == span.worker_pid

    def test_parallel_map_uninstrumented_serial_is_bare_loop(self):
        # No sinks: the serial path must not wrap tasks at all, so even
        # unpicklable functions and exceptions behave exactly as before.
        assert parallel_map(lambda x: x * 3, [1, 2, 3]) == [3, 6, 9]


class TestDriverThreading:
    def test_sweep_records_stage_spans(self):
        tel = Telemetry("sweep")
        sweep(SHAPES[:2], [4], telemetry=tel)
        names = [s.name for s in tel.stages]
        assert names == ["plan", "map", "merge", "ledger-append"]
        map_stage = tel.stages[names.index("map")]
        assert map_stage.meta["tasks"] == 2
        # Worker-side stage seconds fold into the metrics registry.
        collected = {
            (m["name"], m["labels"].get("stage")): m
            for m in tel.metrics.collect()
            if m["name"] == "worker_stage_seconds_total"
        }
        assert ("worker_stage_seconds_total", "evaluate") in collected

    def test_sweep_task_items_count_records(self):
        tel = Telemetry("sweep")
        records = sweep(SHAPES[:2], [4], telemetry=tel)
        by_index = {}
        for r in records:
            by_index[r.task_index] = by_index.get(r.task_index, 0) + 1
        for index, count in by_index.items():
            assert tel.task_by_index(index, label="sweep-shape").items == count

    def test_chaos_outcomes_independent_of_telemetry(self):
        from repro.analysis.chaos import run_chaos
        from repro.core.cases import Regime

        kwargs = dict(
            algorithms=["alg1"], seeds=(0,), schedules=["duplicate"],
            points={Regime.THREE_D: (ProblemShape(8, 8, 8), 4)},
        )
        plain = run_chaos(**kwargs)
        tel = Telemetry("chaos")
        telemetered = run_chaos(workers=2, telemetry=tel, **kwargs)
        assert [repr(r) for r in plain.rows] == [
            repr(r) for r in telemetered.rows
        ]
        assert [s.name for s in tel.stages] == [
            "plan", "map", "merge", "ledger-append"
        ]
        assert len(tel.tasks) == 1

    def test_large_p_results_independent_of_telemetry(self):
        from repro.analysis.large_p import LargePPoint, run_large_p_sweep

        points = (LargePPoint(case=3, shape=ProblemShape(64, 64, 64), P=64),)
        plain = run_large_p_sweep(points=points)
        tel = Telemetry("large-p")
        telemetered = run_large_p_sweep(points=points, telemetry=tel)
        assert plain[0].record.words == telemetered[0].record.words
        assert plain[0].ratio == telemetered[0].ratio
        assert len(tel.tasks) == 1
        assert tel.task_by_index(0, label="large-p-point").items == 1
