"""Edge semantics of the schedule driver.

Details the rest of the suite relies on implicitly: empty yields, empty
rounds, result routing with interleaved completion, and cost neutrality of
no-op schedules.
"""

import numpy as np

from repro.collectives import run_schedule, run_schedules
from repro.collectives.schedules import merge_schedules
from repro.machine import Machine, Message


def noop_schedule(result):
    """A schedule that finishes without communicating."""
    return result
    yield  # pragma: no cover


def empty_round_schedule(result):
    """Yields an empty message list (a legal no-op round) then returns."""
    deliveries = yield []
    assert deliveries == {}
    return result


def one_message_schedule(src, dest, words, repeat=1):
    total = 0.0
    for _ in range(repeat):
        deliveries = yield [Message(src=src, dest=dest, payload=np.zeros(words))]
        total += float(np.asarray(deliveries[dest]).size)
    return total


class TestDriverEdges:
    def test_noop_schedule_costs_nothing(self):
        m = Machine(2)
        assert run_schedule(m, noop_schedule("done")) == "done"
        assert m.cost.is_zero()

    def test_empty_round_costs_nothing(self):
        m = Machine(2)
        assert run_schedule(m, empty_round_schedule(7)) == 7
        assert m.cost.rounds == 0

    def test_mixed_lengths_route_results_correctly(self):
        m = Machine(6)
        results = run_schedules(m, [
            one_message_schedule(0, 1, 3, repeat=3),
            noop_schedule("n"),
            one_message_schedule(2, 3, 5, repeat=1),
            one_message_schedule(4, 5, 2, repeat=2),
        ])
        assert results == [9.0, "n", 5.0, 4.0]
        # 3 merged rounds: the longest schedule dictates.
        assert m.cost.rounds == 3
        # Critical path: max message per round = 5, 3, 3.
        assert m.cost.words == 5.0 + 3.0 + 3.0

    def test_merge_of_noops(self):
        m = Machine(2)
        merged = merge_schedules([noop_schedule(1), noop_schedule(2)])
        assert run_schedule(m, merged) == [1, 2]
        assert m.cost.is_zero()

    def test_nested_merge_with_mixed_lengths(self):
        m = Machine(6)
        inner = merge_schedules([
            one_message_schedule(0, 1, 2, repeat=2),
            noop_schedule(None),
        ])
        outer = merge_schedules([inner, one_message_schedule(2, 3, 4, repeat=1)])
        results = run_schedule(m, outer)
        assert results[0] == [4.0, None]
        assert results[1] == 4.0
        assert m.cost.rounds == 2
