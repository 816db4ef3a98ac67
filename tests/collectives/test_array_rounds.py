"""Array replays of All-Gather / Reduce-Scatter vs their Message schedules.

Each case runs the Message schedules through ``run_schedules`` on one
fresh symbolic machine and the array replay on another, and requires every
counter the network and processors keep to be equal, together with the
shapes each rank ends up holding.
"""

import numpy as np
import pytest

from repro.collectives.allgather import (
    allgather_bruck,
    allgather_recursive_doubling,
    allgather_ring,
)
from repro.collectives.array_rounds import replay_allgather, replay_reduce_scatter
from repro.collectives.communicator import parallel_allgather, parallel_reduce_scatter
from repro.collectives.reduce_scatter import (
    reduce_scatter_recursive_halving,
    reduce_scatter_ring,
)
from repro.collectives.schedules import run_schedules
from repro.exceptions import CommunicatorError
from repro.machine.backend import SymbolicBlock
from repro.machine.faults import FaultModel
from repro.machine.machine import Machine

ALLGATHER = {
    "ring": allgather_ring,
    "recursive_doubling": allgather_recursive_doubling,
    "bruck": allgather_bruck,
}
REDUCE_SCATTER = {
    "ring": reduce_scatter_ring,
    "recursive_halving": reduce_scatter_recursive_halving,
}
POWER_OF_TWO = ("recursive_doubling", "recursive_halving")
IDLE = 2  # ranks outside every group, so groups are not the whole machine


def _cases():
    for kind, names in (("allgather", ALLGATHER), ("reduce_scatter", REDUCE_SCATTER)):
        for name in names:
            sizes = (1, 2, 4, 8, 16) if name in POWER_OF_TWO else range(1, 18)
            for p in sizes:
                for n_fibers in (1, 2, 3, 4):
                    for ragged in (False, True):
                        yield kind, name, p, n_fibers, ragged


def _groups(p, n_fibers, seed):
    ranks = np.random.default_rng(seed).permutation(p * n_fibers + IDLE).tolist()
    return [tuple(ranks[f * p:(f + 1) * p]) for f in range(n_fibers)]


def _sizes(rng, count, ragged):
    # Ragged sizes include zero-word chunks, i.e. zero-word messages.
    return rng.integers(0, 9, size=count).tolist() if ragged else [6] * count


def _inputs(kind, groups, ragged, seed):
    rng = np.random.default_rng(seed + 1)
    if kind == "allgather":
        return {
            r: SymbolicBlock((w,))
            for g in groups
            for r, w in zip(g, _sizes(rng, len(g), ragged))
        }
    blocks = {}
    for g in groups:
        shapes = [(w, 2) for w in _sizes(rng, len(g), ragged)]
        shared = [SymbolicBlock(s) for s in shapes]
        for k, r in enumerate(g):
            # Half the ranks share one list object, half own a copy.
            blocks[r] = shared if k % 2 else [SymbolicBlock(s) for s in shapes]
    return blocks


def _machine(groups):
    return Machine(sum(len(g) for g in groups) + IDLE, backend="symbolic")


def _message_run(kind, name, groups, inputs):
    machine = _machine(groups)
    if kind == "allgather":
        schedules = [ALLGATHER[name](g, {r: inputs[r] for r in g}) for g in groups]
    else:
        schedules = [
            REDUCE_SCATTER[name](g, {r: inputs[r] for r in g}, machine=machine)
            for g in groups
        ]
    merged = {}
    for result in run_schedules(machine, schedules):
        merged.update(result)
    return machine, merged


def _array_run(kind, name, groups, inputs):
    machine = _machine(groups)
    replay = (replay_allgather if kind == "allgather" else replay_reduce_scatter)(
        machine, groups, inputs, name
    )
    assert replay is not None, "symbolic fault-free input must take the array path"
    return machine, replay.run(machine)


def _counters(machine):
    net = machine.network
    return {
        "rounds": net.rounds,
        "critical_words": net.critical_words,
        "total_words": net.total_words,
        "sent_words": net.sent_words.tolist(),
        "recv_words": net.recv_words.tolist(),
        "sent_messages": net.sent_messages.tolist(),
        "recv_messages": net.recv_messages.tolist(),
        "flops": machine.flops.tolist(),
        "round_log": [
            (s.index, s.n_messages, s.max_words, s.total_words, s.tags)
            for s in net.round_log
        ],
        "edge_words": net.edge_words,
    }


def _shapes(kind, result):
    if kind == "allgather":
        return {r: [c.shape for c in chunks] for r, chunks in result.items()}
    return {r: block.shape for r, block in result.items()}


@pytest.mark.parametrize("kind,name,p,n_fibers,ragged", list(_cases()))
def test_array_replay_matches_message_schedules(kind, name, p, n_fibers, ragged):
    seed = 1000 * p + 10 * n_fibers + ragged
    groups = _groups(p, n_fibers, seed)
    inputs = _inputs(kind, groups, ragged, seed)
    msg_machine, msg_result = _message_run(kind, name, groups, inputs)
    arr_machine, arr_result = _array_run(kind, name, groups, inputs)
    expected, got = _counters(msg_machine), _counters(arr_machine)
    for field in expected:
        assert got[field] == expected[field], field
    assert _shapes(kind, arr_result) == _shapes(kind, msg_result)


class TestErrorParity:
    @pytest.mark.parametrize("name", ["ring", "recursive_doubling", "bruck"])
    def test_overlapping_allgather_groups(self, name):
        groups = [(0, 1), (1, 2)]
        chunks = {r: SymbolicBlock((3,)) for r in range(3)}
        with pytest.raises(CommunicatorError):
            _message_run("allgather", name, groups, chunks)
        with pytest.raises(CommunicatorError):
            parallel_allgather(Machine(3, backend="symbolic"), groups, chunks, name)

    @pytest.mark.parametrize("name", ["ring", "recursive_halving"])
    def test_overlapping_reduce_scatter_groups(self, name):
        groups = [(0, 1), (1, 2)]
        blocks = {r: [SymbolicBlock((3,)), SymbolicBlock((3,))] for r in range(3)}
        with pytest.raises(CommunicatorError):
            _message_run("reduce_scatter", name, groups, blocks)
        with pytest.raises(CommunicatorError):
            parallel_reduce_scatter(Machine(3, backend="symbolic"), groups, blocks, name)

    @pytest.mark.parametrize("kind,name", [
        ("allgather", "recursive_doubling"), ("reduce_scatter", "recursive_halving"),
    ])
    @pytest.mark.parametrize("p", [3, 5, 6, 12])
    def test_non_power_of_two_group(self, kind, name, p):
        groups = [tuple(range(p))]
        inputs = _inputs(kind, groups, False, p)
        with pytest.raises(CommunicatorError, match="power-of-two"):
            _message_run(kind, name, groups, inputs)
        with pytest.raises(CommunicatorError, match="power-of-two"):
            _array_run(kind, name, groups, inputs)


class TestSelection:
    def test_data_chunks_take_the_message_path(self):
        machine = Machine(4)
        chunks = {r: np.ones(3) for r in range(4)}
        assert replay_allgather(machine, [(0, 1, 2, 3)], chunks) is None
        blocks = {r: [np.ones(2)] * 4 for r in range(4)}
        assert replay_reduce_scatter(machine, [(0, 1, 2, 3)], blocks) is None

    def test_fault_injector_takes_the_message_path(self):
        machine = Machine(4, backend="symbolic", faults=FaultModel())
        chunks = {r: SymbolicBlock((3,)) for r in range(4)}
        assert replay_allgather(machine, [(0, 1, 2, 3)], chunks) is None

    def test_groups_of_different_sizes_take_the_message_path(self):
        machine = Machine(5, backend="symbolic")
        chunks = {r: SymbolicBlock((3,)) for r in range(5)}
        assert replay_allgather(machine, [(0, 1), (2, 3, 4)], chunks) is None
        result = parallel_allgather(machine, [(0, 1), (2, 3, 4)], chunks, "ring")
        assert [len(result[r]) for r in range(5)] == [2, 2, 3, 3, 3]
        assert machine.network.rounds == 2

    def test_parallel_allgather_counts_match_on_both_paths(self):
        # The public entry point picks the replay for symbolic chunks; the
        # same schedule on data chunks of equal sizes counts the same.
        groups = [(0, 2, 4), (1, 3, 5)]
        sym, data = Machine(6, backend="symbolic"), Machine(6)
        parallel_allgather(sym, groups, {r: SymbolicBlock((r + 1,)) for r in range(6)})
        parallel_allgather(data, groups, {r: np.ones(r + 1) for r in range(6)})
        assert sym.network.round_log and _counters(sym) == _counters(data)
        assert sym.trace.events[0].cost == data.trace.events[0].cost
