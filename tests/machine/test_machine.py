"""Tests for repro.machine.machine — the assembled simulator."""

import numpy as np
import pytest

from repro.machine import Cost, CostModel, Machine, Message


class TestConstruction:
    def test_processors_created(self):
        m = Machine(4)
        assert m.n_procs == 4
        assert [p.rank for p in m.processors] == [0, 1, 2, 3]

    def test_rank_bounds(self):
        m = Machine(2)
        with pytest.raises(IndexError):
            m.proc(2)
        with pytest.raises(IndexError):
            m.proc(-1)

    def test_needs_processor(self):
        with pytest.raises(ValueError):
            Machine(0)

    def test_memory_limit_propagates(self):
        m = Machine(2, memory_limit=16)
        assert m.proc(0).store.limit == 16
        assert m.proc(1).store.limit == 16


class TestExecution:
    def test_exchange_counts_cost(self):
        m = Machine(2)
        m.exchange([Message(src=0, dest=1, payload=np.zeros(6))])
        assert m.cost == Cost(rounds=1, words=6.0, flops=0.0)

    def test_compute_takes_max_over_processors(self):
        m = Machine(3)
        m.compute(0, 10.0)
        m.compute(1, 25.0)
        m.compute(1, 5.0)
        assert m.cost.flops == 30.0

    def test_time_uses_cost_model(self):
        m = Machine(2, cost_model=CostModel(alpha=100.0, beta=1.0, gamma=2.0))
        m.exchange([Message(src=0, dest=1, payload=np.zeros(6))])
        m.compute(0, 3.0)
        assert m.time == 100.0 + 6.0 + 6.0


class TestSnapshots:
    def test_snapshot_delta(self):
        m = Machine(2)
        before = m.snapshot()
        m.exchange([Message(src=0, dest=1, payload=np.zeros(4))])
        m.compute(1, 8.0)
        delta = before.delta(m.snapshot())
        assert delta.cost == Cost(rounds=1, words=4.0, flops=8.0)
        assert delta.sent_words.tolist() == [4.0, 0.0]
        assert delta.recv_words.tolist() == [0.0, 4.0]
        assert delta.flops.tolist() == [0.0, 8.0]

    def test_snapshot_delta_tracks_messages(self):
        m = Machine(2)
        before = m.snapshot()
        m.exchange([Message(src=0, dest=1, payload=np.zeros(4))])
        delta = before.delta(m.snapshot())
        assert delta.sent_messages.tolist() == [1, 0]
        assert delta.recv_messages.tolist() == [0, 1]

    def test_delta_rejects_mismatched_rank_counts(self):
        # Snapshots from machines of different sizes must not silently
        # zip-truncate; the diff is meaningless and raises instead.
        with pytest.raises(ValueError, match="2 vs 3"):
            Machine(2).snapshot().delta(Machine(3).snapshot())

    def test_reset_counters_keeps_data(self):
        m = Machine(2)
        m.proc(0).store["x"] = np.zeros(4)
        m.exchange([Message(src=0, dest=1, payload=np.zeros(4))])
        m.reset_counters()
        assert m.cost.is_zero()
        assert "x" in m.proc(0).store

    def test_full_reset_clears_stores(self):
        m = Machine(2)
        m.proc(0).store["x"] = np.zeros(4)
        m.reset()
        assert "x" not in m.proc(0).store
        assert m.peak_memory_words() == 0

    def test_peak_memory_over_processors(self):
        m = Machine(3)
        m.proc(0).store["x"] = np.zeros(3)
        m.proc(2).store["y"] = np.zeros(9)
        m.proc(2).store.free("y")
        assert m.peak_memory_words() == 9


class TestWorldCommunicator:
    def test_comm_world_covers_all_ranks(self):
        m = Machine(5)
        comm = m.comm_world()
        assert comm.size == 5
        assert comm.ranks == (0, 1, 2, 3, 4)
