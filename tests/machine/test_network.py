"""Tests for repro.machine.network — the model's round semantics."""

import numpy as np
import pytest

from repro.exceptions import InvalidMessageError, NetworkContentionError, ReproError
from repro.machine.faults import FaultInjector, FaultModel
from repro.machine.message import Message
from repro.machine.network import FullyConnectedNetwork


def msg(src, dest, words, tag=""):
    return Message(src=src, dest=dest, payload=np.zeros(words), tag=tag)


class TestRoundExecution:
    def test_empty_round_is_free(self):
        net = FullyConnectedNetwork(4)
        assert net.execute_round([]) == {}
        assert net.rounds == 0
        assert net.critical_words == 0.0

    def test_single_message(self):
        net = FullyConnectedNetwork(2)
        deliveries = net.execute_round([msg(0, 1, 5)])
        assert set(deliveries) == {1}
        assert net.rounds == 1
        assert net.critical_words == 5.0
        assert net.total_words == 5.0

    def test_critical_path_charges_max(self):
        net = FullyConnectedNetwork(4)
        net.execute_round([msg(0, 1, 3), msg(2, 3, 10)])
        assert net.critical_words == 10.0
        assert net.total_words == 13.0

    def test_send_and_receive_simultaneously_allowed(self):
        # Bidirectional links: an exchange pair is one round.
        net = FullyConnectedNetwork(2)
        deliveries = net.execute_round([msg(0, 1, 4), msg(1, 0, 4)])
        assert set(deliveries) == {0, 1}
        assert net.rounds == 1

    def test_two_sends_from_one_processor_rejected(self):
        net = FullyConnectedNetwork(3)
        with pytest.raises(NetworkContentionError, match="two sends"):
            net.execute_round([msg(0, 1, 1), msg(0, 2, 1)])

    def test_two_receives_at_one_processor_rejected(self):
        net = FullyConnectedNetwork(3)
        with pytest.raises(NetworkContentionError, match="two receives"):
            net.execute_round([msg(0, 2, 1), msg(1, 2, 1)])

    def test_out_of_range_rank_rejected(self):
        net = FullyConnectedNetwork(2)
        with pytest.raises(NetworkContentionError, match="outside"):
            net.execute_round([msg(0, 5, 1)])

    def test_failed_round_charges_nothing(self):
        net = FullyConnectedNetwork(3)
        with pytest.raises(NetworkContentionError):
            net.execute_round([msg(0, 1, 1), msg(0, 2, 1)])
        assert net.rounds == 0
        assert net.critical_words == 0.0


class TestCounters:
    def test_per_processor_volumes(self):
        net = FullyConnectedNetwork(3)
        net.execute_round([msg(0, 1, 5), msg(1, 2, 2)])
        assert net.sent_words.tolist() == [5.0, 2.0, 0.0]
        assert net.recv_words.tolist() == [0.0, 5.0, 2.0]
        assert net.sent_messages.tolist() == [1, 1, 0]
        assert net.recv_messages.tolist() == [0, 1, 1]
        assert net.per_processor_words(1) == 7.0

    def test_cost_property(self):
        net = FullyConnectedNetwork(2)
        net.execute_round([msg(0, 1, 5)])
        net.execute_round([msg(1, 0, 3)])
        assert net.cost.rounds == 2
        assert net.cost.words == 8.0

    def test_reset(self):
        net = FullyConnectedNetwork(2)
        net.execute_round([msg(0, 1, 5)])
        net.reset()
        assert net.rounds == 0
        assert net.sent_words.tolist() == [0.0, 0.0]
        assert net.round_log == []

    def test_round_log(self):
        net = FullyConnectedNetwork(4)
        net.execute_round([msg(0, 1, 3, tag="x"), msg(2, 3, 7, tag="y")])
        (summary,) = net.round_log
        assert summary.n_messages == 2
        assert summary.max_words == 7
        assert summary.total_words == 10
        assert summary.tags == ("x", "y")

    def test_delivery_payload_is_receiver_owned(self):
        net = FullyConnectedNetwork(2)
        src_arr = np.ones(3)
        deliveries = net.execute_round([Message(src=0, dest=1, payload=src_arr)])
        src_arr[:] = 7.0
        assert np.all(deliveries[1] == 1.0)


def array_round(*triples):
    """``(src, dest, words)`` int arrays of the messages ``triples``."""
    src, dest, words = zip(*triples) if triples else ((), (), ())
    return tuple(np.array(a, dtype=np.int64) for a in (src, dest, words))


class TestArrayRounds:
    """``execute_array_rounds`` keeps ``execute_round``'s rules and charges."""

    def test_two_sends_rejected_like_execute_round(self):
        with pytest.raises(NetworkContentionError, match="two sends"):
            FullyConnectedNetwork(3).execute_round([msg(0, 1, 1), msg(0, 2, 1)])
        with pytest.raises(NetworkContentionError, match="two sends"):
            FullyConnectedNetwork(3).execute_array_rounds([array_round((0, 1, 1), (0, 2, 1))])

    def test_two_receives_rejected_like_execute_round(self):
        with pytest.raises(NetworkContentionError, match="two receives"):
            FullyConnectedNetwork(3).execute_round([msg(0, 2, 1), msg(1, 2, 1)])
        with pytest.raises(NetworkContentionError, match="two receives"):
            FullyConnectedNetwork(3).execute_array_rounds([array_round((0, 2, 1), (1, 2, 1))])

    def test_out_of_range_rank_rejected_like_execute_round(self):
        with pytest.raises(NetworkContentionError, match="outside"):
            FullyConnectedNetwork(2).execute_round([msg(0, 5, 1)])
        with pytest.raises(NetworkContentionError, match="outside"):
            FullyConnectedNetwork(2).execute_array_rounds([array_round((0, 5, 1))])

    def test_self_send_rejected_like_a_message(self):
        with pytest.raises(InvalidMessageError, match="itself"):
            FullyConnectedNetwork(2).execute_round([msg(1, 1, 1)])
        with pytest.raises(InvalidMessageError, match="itself"):
            FullyConnectedNetwork(2).execute_array_rounds([array_round((1, 1, 1))])

    def test_negative_rank_rejected_like_a_message(self):
        with pytest.raises(InvalidMessageError, match="non-negative"):
            FullyConnectedNetwork(2).execute_array_rounds([array_round((-1, 1, 1))])

    def test_empty_round_is_free(self):
        net = FullyConnectedNetwork(4)
        net.execute_array_rounds([array_round(), array_round()])
        assert net.rounds == 0
        assert net.critical_words == 0.0
        assert net.total_words == 0.0
        assert net.round_log == []
        assert net.sent_words.tolist() == [0.0] * 4
        assert net.sent_messages.tolist() == [0] * 4
        assert net.edge_words == {}

    def test_fault_injector_refused(self):
        net = FullyConnectedNetwork(2)
        net.fault_injector = FaultInjector(FaultModel())
        with pytest.raises(ReproError, match="fault injector"):
            net.execute_array_rounds([array_round((0, 1, 1))])
        assert net.rounds == 0

    def test_charges_equal_execute_round(self):
        rounds = [
            [(0, 1, 3), (1, 2, 0), (2, 0, 7)],
            [(3, 0, 5), (0, 3, 5)],
            [(0, 1, 2), (1, 0, 4)],
        ]
        msg_net, arr_net = FullyConnectedNetwork(4), FullyConnectedNetwork(4)
        for triples in rounds:
            msg_net.execute_round([
                Message(src=s, dest=d, payload=np.zeros(w), tag="x", empty_ok=True)
                for s, d, w in triples
            ])
        arr_net.execute_array_rounds([array_round(*t) for t in rounds], tag="x")
        for field in ("rounds", "critical_words", "total_words", "sent_words",
                      "recv_words", "sent_messages", "recv_messages", "edge_words"):
            got, want = getattr(arr_net, field), getattr(msg_net, field)
            if isinstance(got, np.ndarray):
                got, want = got.tolist(), want.tolist()
            assert got == want, field
        assert [vars_of(s) for s in arr_net.round_log] == [
            vars_of(s) for s in msg_net.round_log
        ]

    def test_failed_round_keeps_earlier_rounds_charged(self):
        net = FullyConnectedNetwork(3)
        with pytest.raises(NetworkContentionError):
            net.execute_array_rounds([
                array_round((0, 1, 4)),
                array_round((0, 1, 1), (0, 2, 1)),
            ])
        assert net.rounds == 1
        assert net.critical_words == 4.0
        assert net.sent_words.tolist() == [4.0, 0.0, 0.0]
        assert net.edge_words == {(0, 1): 4.0}

    def test_reset_drops_pending_traffic(self):
        net = FullyConnectedNetwork(2)
        net.execute_array_rounds([array_round((0, 1, 4))])
        net.reset()
        assert net.edge_words == {}


def batch(*rounds, tag="b"):
    """One multi-round item: the rounds' messages flat, plus round bounds."""
    flat = [t for r in rounds for t in r]
    src, dest, words = array_round(*flat)
    bounds = np.cumsum([0] + [len(r) for r in rounds])
    return src, dest, words, bounds, tag


def state_of(net):
    return (
        net.rounds, net.critical_words, net.total_words,
        net.sent_words.tolist(), net.recv_words.tolist(),
        net.sent_messages.tolist(), net.recv_messages.tolist(),
        [vars_of(s) for s in net.round_log], list(net.edge_words.items()),
    )


class TestMultiRoundItems:
    """A multi-round item charges and refuses exactly as its rounds would
    one at a time."""

    ROUNDS = [
        [(0, 1, 3), (1, 2, 0), (2, 0, 7)],
        [],
        [(3, 0, 5), (0, 3, 5)],
        [(0, 1, 2), (1, 0, 4), (2, 3, 2)],
    ]

    def test_charges_equal_one_round_at_a_time(self):
        one, many = FullyConnectedNetwork(4), FullyConnectedNetwork(4)
        one.execute_array_rounds([array_round(*r) for r in self.ROUNDS], tag="b")
        many.execute_array_rounds([batch(*self.ROUNDS)])
        assert state_of(many) == state_of(one)

    def test_items_of_both_kinds_mix(self):
        one, many = FullyConnectedNetwork(4), FullyConnectedNetwork(4)
        first, rest = self.ROUNDS[0], self.ROUNDS[1:]
        one.execute_array_rounds([array_round(*first)], tag="a")
        one.execute_array_rounds([array_round(*r) for r in rest], tag="b")
        many.execute_array_rounds([array_round(*first), batch(*rest)], tag="a")
        assert state_of(many) == state_of(one)

    @pytest.mark.parametrize("bad, error", [
        ([(0, 1, 1), (0, 2, 1)], NetworkContentionError),  # two sends
        ([(0, 2, 1), (1, 2, 1)], NetworkContentionError),  # two receives
        ([(0, 7, 1)], NetworkContentionError),  # a rank outside the machine
        ([(1, 1, 1)], InvalidMessageError),  # a self-send
        ([(-1, 1, 1)], InvalidMessageError),  # a negative rank
        ([(0, 1, -1)], InvalidMessageError),  # a negative word count
    ])
    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_invalid_round_keeps_earlier_rounds_and_its_error(self, bad, error, k):
        rounds = self.ROUNDS[:k] + [bad] + self.ROUNDS[k:]
        one, many = FullyConnectedNetwork(4), FullyConnectedNetwork(4)
        with pytest.raises(error) as want:
            one.execute_array_rounds([array_round(*r) for r in rounds], tag="b")
        with pytest.raises(error) as got:
            many.execute_array_rounds([batch(*rounds)])
        assert str(got.value) == str(want.value)
        assert state_of(many) == state_of(one)
        assert many.rounds == sum(1 for r in self.ROUNDS[:k] if r)

    def test_fault_injector_refused(self):
        net = FullyConnectedNetwork(4)
        net.fault_injector = FaultInjector(FaultModel())
        with pytest.raises(ReproError, match="fault injector"):
            net.execute_array_rounds([batch(*self.ROUNDS)])
        assert net.rounds == 0

    def test_bounds_must_span_the_messages(self):
        src, dest, words, bounds, tag = batch(*self.ROUNDS)
        with pytest.raises(ValueError):
            FullyConnectedNetwork(4).execute_array_rounds(
                [(src, dest, words, bounds[:-1], tag)])


def vars_of(summary):
    return (summary.index, summary.n_messages, summary.max_words,
            summary.total_words, summary.tags)


class TestConstruction:
    def test_needs_at_least_one_processor(self):
        with pytest.raises(ValueError):
            FullyConnectedNetwork(0)
