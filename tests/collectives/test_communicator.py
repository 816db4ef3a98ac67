"""Tests for the Communicator facade and parallel_* helpers."""

import numpy as np
import pytest

from repro.collectives import (
    Communicator,
    parallel_allgather,
    parallel_allreduce,
    parallel_alltoall,
    parallel_broadcast,
    parallel_reduce_scatter,
)
from repro.exceptions import CommunicatorError
from repro.machine import Machine


class TestConstruction:
    def test_duplicate_ranks_rejected(self):
        with pytest.raises(CommunicatorError, match="duplicate"):
            Communicator(Machine(3), (0, 1, 1))

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(CommunicatorError, match="outside"):
            Communicator(Machine(2), (0, 5))

    def test_empty_group_rejected(self):
        with pytest.raises(CommunicatorError, match="at least one"):
            Communicator(Machine(2), ())

    def test_index(self):
        comm = Communicator(Machine(5), (3, 1, 4))
        assert comm.index(1) == 1
        assert comm.index(4) == 2
        with pytest.raises(CommunicatorError):
            comm.index(0)


class TestSplitAndSub:
    def test_split_by_parity(self):
        comm = Machine(6).comm_world()
        parts = comm.split(lambda r: r % 2)
        assert [p.ranks for p in parts] == [(0, 2, 4), (1, 3, 5)]

    def test_sub_validates_membership(self):
        comm = Communicator(Machine(6), (0, 2, 4))
        sub = comm.sub((0, 4))
        assert sub.ranks == (0, 4)
        with pytest.raises(CommunicatorError):
            comm.sub((1,))


class TestTraceRecording:
    def test_collectives_recorded_with_costs(self):
        m = Machine(4)
        comm = m.comm_world()
        comm.allgather({r: np.zeros(2) for r in range(4)}, label="test-ag")
        events = [e for e in m.spans.events() if e.kind == "allgather"]
        assert len(events) == 1
        assert events[0].name == "test-ag"
        assert events[0].cost.words == m.cost.words > 0


class TestParallelHelpers:
    def test_parallel_allgather_merges(self):
        m = Machine(6)
        groups = [(0, 1, 2), (3, 4, 5)]
        chunks = {r: np.full(1, float(r)) for r in range(6)}
        res = parallel_allgather(m, groups, chunks)
        assert m.cost.rounds == 2
        assert [c[0] for c in res[4]] == [3.0, 4.0, 5.0]

    def test_parallel_reduce_scatter(self):
        m = Machine(4)
        groups = [(0, 1), (2, 3)]
        blocks = {r: [np.full(2, float(r)), np.full(2, float(r) + 10)] for r in range(4)}
        res = parallel_reduce_scatter(m, groups, blocks)
        assert np.allclose(res[0], [1.0, 1.0])       # 0+1
        assert np.allclose(res[1], [21.0, 21.0])     # 10+11
        assert np.allclose(res[2], [5.0, 5.0])       # 2+3
        assert np.allclose(res[3], [25.0, 25.0])     # 12+13

    def test_parallel_broadcast(self):
        m = Machine(4)
        groups = [(0, 1), (2, 3)]
        roots = [1, 2]
        values = {1: np.full(2, 7.0), 2: np.full(2, 9.0)}
        res = parallel_broadcast(m, groups, roots, values)
        assert np.allclose(res[0], 7.0) and np.allclose(res[1], 7.0)
        assert np.allclose(res[2], 9.0) and np.allclose(res[3], 9.0)

    def test_parallel_allreduce(self):
        m = Machine(4)
        groups = [(0, 1), (2, 3)]
        values = {r: np.full(3, float(r)) for r in range(4)}
        res = parallel_allreduce(m, groups, values)
        assert np.allclose(res[0], 1.0) and np.allclose(res[1], 1.0)
        assert np.allclose(res[2], 5.0) and np.allclose(res[3], 5.0)

    def test_parallel_alltoall(self):
        m = Machine(4)
        groups = [(0, 1), (2, 3)]
        blocks = {r: [np.full(1, 10.0 * r + j) for j in range(2)] for r in range(4)}
        res = parallel_alltoall(m, groups, blocks)
        assert res[0][1][0] == 10.0  # member 1 of group 0 is rank 1; its block 0
        assert res[3][0][0] == 21.0
