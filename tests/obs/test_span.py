"""Tests for span tracing (repro.obs.span) and the machine's span recorder."""

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.cost import Cost
from repro.machine.message import Message
from repro.obs.span import SpanRecorder


def one_round(machine, words=4):
    """One network round: rank 0 sends `words` words to rank 1."""
    machine.exchange([Message(0, 1, np.zeros(words))])


class TestNesting:
    def test_spans_nest_and_record_depth(self):
        rec = SpanRecorder()
        with rec.span("outer") as outer:
            assert rec.depth == 1
            assert rec.current is outer
            with rec.span("inner") as inner:
                assert rec.depth == 2
                assert inner.parent is outer
                assert inner.depth == 1
        assert rec.depth == 0
        assert rec.current is None
        assert rec.roots == [outer]
        assert outer.children == [inner]

    def test_walk_is_preorder_creation_order(self):
        rec = SpanRecorder()
        with rec.span("a"):
            with rec.span("b"):
                pass
            with rec.span("c"):
                pass
        with rec.span("d"):
            pass
        names = [s.name for s in rec.iter_spans()]
        assert names == ["a", "b", "c", "d"]
        assert [s.index for s in rec.iter_spans()] == [0, 1, 2, 3]
        assert len(rec) == 4

    def test_clear_refuses_while_open(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError, match="still open"):
            with rec.span("open"):
                rec.clear()
        rec.clear()
        assert len(rec) == 0

    def test_involves(self):
        rec = SpanRecorder()
        with rec.span("x", groups=((0, 1), (4, 5))) as span:
            pass
        assert span.involves(0) and span.involves(5)
        assert not span.involves(2)


class TestMeasurement:
    def test_span_measures_cost_and_per_rank_deltas(self):
        machine = Machine(3)
        with machine.span("phase") as span:
            one_round(machine, words=4)
        assert span.cost.rounds == 1
        assert span.cost.words == 4
        assert span.sent_words.tolist() == [4, 0, 0]
        assert span.recv_words.tolist() == [0, 4, 0]
        assert span.sent_messages.tolist() == [1, 0, 0]
        assert span.recv_messages.tolist() == [0, 1, 0]

    def test_span_measures_flops(self):
        machine = Machine(2)
        with machine.span("compute") as span:
            machine.compute(1, 7.0)
        assert span.flops.tolist() == [0, 7.0]
        assert span.cost.flops == 7.0

    def test_structural_span_cost_is_inclusive(self):
        machine = Machine(2)
        with machine.span("outer") as outer:
            with machine.spans.measure("leaf", "allgather") as leaf:
                one_round(machine)
        assert leaf.event and not outer.event
        assert outer.cost.words == leaf.cost.words == 4

    def test_span_timestamps_use_modelled_time(self):
        machine = Machine(2)
        one_round(machine)
        t0 = machine.time
        with machine.span("phase") as span:
            one_round(machine)
        assert span.start_time == t0
        assert span.end_time == machine.time
        assert span.duration > 0


class TestRecordEvent:
    def test_explicit_cost_is_stored(self):
        rec = SpanRecorder()
        span = rec.record_event("compute", "gemm", cost=Cost(words=9))
        assert span.event
        assert span.cost.words == 9
        assert rec.events() == [span]

    def test_timeline_back_dated_by_cost(self):
        machine = Machine(2)
        one_round(machine, words=8)
        cost = Cost(rounds=1, words=8)
        span = machine.spans.record_event("x", "y", cost=cost)
        assert span.end_time == machine.time
        assert span.start_time == pytest.approx(
            machine.time - machine.cost_model.time(cost)
        )


class TestEventView:
    def test_events_only_in_flat_view(self):
        machine = Machine(2)
        with machine.span("structural"):
            machine.spans.record_event("compute", "gemm", cost=Cost(flops=5))
        # The event list sees the event, not the structural span.
        [ev] = machine.spans.events()
        assert (ev.kind, ev.name) == ("compute", "gemm")
        assert ev.cost.flops == 5
        # The span tree sees both.
        assert len(machine.spans) == 2

    def test_filter_by_kind_and_rank(self):
        machine = Machine(4)
        machine.spans.record_event("allgather", "A", groups=((0, 1),))
        machine.spans.record_event("reduce-scatter", "C", groups=((2, 3),))
        events = machine.spans.events()
        assert [e.name for e in events if e.kind == "allgather"] == ["A"]
        assert [e.name for e in events if e.involves(3)] == ["C"]

    def test_collectives_record_event_spans(self):
        machine = Machine(4)
        comm = machine.comm_world()
        chunks = {r: np.arange(2.0) + r for r in range(4)}
        comm.allgather(chunks)
        events = machine.spans.events()
        assert len(events) == 1
        assert events[0].kind == "allgather"
        assert events[0].groups == ((0, 1, 2, 3),)
        # Per-rank attribution sums to the machine's counters.
        assert sum(events[0].sent_words) == sum(machine.network.sent_words)

    def test_metrics_fed_on_event_close(self):
        machine = Machine(2)
        with machine.spans.measure("leaf", "allgather"):
            one_round(machine)
        assert "events_total" in machine.metrics
        assert machine.metrics.counter("events_total", kind="allgather").value == 1
        assert machine.metrics.counter("words_total", kind="allgather").value == 4
