"""Array replays of All-Gather / Reduce-Scatter / Broadcast vs their Message schedules.

Each case runs the Message schedules through ``run_schedules`` on one
fresh machine and the array replay on another, and requires every counter
the network and processors keep to be equal, together with what each rank
ends up holding: shapes for the symbolic All-Gather and Reduce-Scatter,
and for the broadcast on both backends also the delivered values, their
identities and their ownership.
"""

import numpy as np
import pytest

from repro.collectives.allgather import (
    allgather_bruck,
    allgather_recursive_doubling,
    allgather_ring,
)
from repro.analysis.verification import machine_accounting
from repro.collectives.array_rounds import (
    BroadcastPlan,
    _deliver,
    broadcast_plan,
    replay_allgather,
    replay_broadcast,
    replay_reduce_scatter,
)
from repro.collectives.broadcast import broadcast_schedule
from repro.collectives import communicator
from repro.collectives.communicator import (
    ARRAY_BROADCAST_MIN_MESSAGES,
    parallel_allgather,
    parallel_broadcast,
    parallel_reduce_scatter,
)
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
        assert sym.spans.events()[0].cost == data.spans.events()[0].cost


# --------------------------------------------------------------------- #
# broadcast: rounds with payloads                                       #
# --------------------------------------------------------------------- #

BROADCASTS = ("binomial", "scatter_allgather")


def _broadcast_inputs(seed, backend):
    """Random groups, per-group root positions and ragged values.

    Value sizes run from 0 to past ``2p``, so some values have fewer words
    than the group has members (zero-word scatter pieces).
    """
    rng = np.random.default_rng(seed)
    F, p = int(rng.integers(1, 5)), int(rng.integers(1, 11))
    ranks = rng.permutation(F * p + IDLE).tolist()
    groups = [tuple(ranks[f * p:(f + 1) * p]) for f in range(F)]
    roots = [g[int(rng.integers(p))] for g in groups]
    values = {}
    for root in roots:
        shape = (int(rng.integers(0, 2 * p + 3)), int(rng.integers(1, 4)))
        values[root] = rng.random(shape) if backend == "data" else SymbolicBlock(shape)
    return groups, roots, values


def _broadcast_run(groups, backend, run):
    machine = Machine(sum(len(g) for g in groups) + IDLE, backend=backend)
    with machine.spans.measure("bcast", "broadcast", groups=tuple(groups)):
        result = run(machine)
    return machine, result


def _message_broadcast(name, groups, roots, values, backend):
    def run(machine):
        schedules = [
            broadcast_schedule(g, r, values[r], algorithm=name)
            for g, r in zip(groups, roots)
        ]
        merged = {}
        for result in run_schedules(machine, schedules):
            merged.update(result)
        return merged
    return _broadcast_run(groups, backend, run)


def _array_broadcast(name, groups, roots, values, backend):
    def run(machine):
        replay = replay_broadcast(machine, groups, roots, values, name)
        assert replay is not None, "a fault-free uniform call must take the replay"
        return replay.run(machine)
    return _broadcast_run(groups, backend, run)


def _round_log(machine):
    return [
        (s.index, s.n_messages, s.max_words, s.total_words, s.tags)
        for s in machine.network.round_log
    ]


@pytest.mark.parametrize("backend", ["data", "symbolic"])
@pytest.mark.parametrize("name", BROADCASTS)
@pytest.mark.parametrize("seed", range(40))
def test_broadcast_replay_matches_message_schedules(seed, name, backend):
    groups, roots, values = _broadcast_inputs(seed, backend)
    msg_machine, msg_result = _message_broadcast(name, groups, roots, values, backend)
    arr_machine, arr_result = _array_broadcast(name, groups, roots, values, backend)
    # Every counter and event span, the round log, and the per-link
    # traffic in first-seen order.
    assert machine_accounting(arr_machine) == machine_accounting(msg_machine)
    assert _round_log(arr_machine) == _round_log(msg_machine)
    assert list(arr_machine.network.edge_words.items()) == list(
        msg_machine.network.edge_words.items()
    )
    # The same ranks in the same order, the same values, and the same
    # identities: a root keeps its value object exactly when the Message
    # schedule lets it.
    assert list(arr_result) == list(msg_result)
    for rank, got in arr_result.items():
        want = msg_result[rank]
        assert type(got) is type(want) and got.shape == want.shape
        assert (got is values.get(rank)) == (want is values.get(rank))
        if backend == "data":
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name", BROADCASTS)
@pytest.mark.parametrize("seed", range(10))
def test_broadcast_members_own_their_results(seed, name):
    groups, roots, values = _broadcast_inputs(seed, "data")
    stores = {r: v.copy() for r, v in values.items()}
    _, result = _array_broadcast(name, groups, roots, values, "data")
    owned = [r for r, v in result.items() if v is not values.get(r) and v.size]
    for rank in owned:
        before = {r: v.copy() for r, v in result.items()}
        result[rank][...] = -1.0
        for other, v in result.items():
            if other != rank:
                assert np.array_equal(v, before[other]), (rank, other)
        for root, v in values.items():
            assert np.array_equal(v, stores[root]), (rank, root)
        result[rank][...] = before[rank]


def test_a_skipped_round_leaves_nan_in_the_result():
    # The buffer starts as NaN outside the roots' rows, so a plan that
    # drops a round's copy cannot deliver a clean value.
    groups, values = [(0, 1, 2, 3)], [np.arange(8.0)]
    plan = broadcast_plan("scatter_allgather", 4, (1,), (8,))
    broken = BroadcastPlan(plan.items, plan.copies[:-1], plan.pieces, plan.width, plan.layout)
    assert all(np.array_equal(v, values[0])
               for v in _deliver(plan, groups, [1], values, "scatter_allgather").values())
    delivered = _deliver(broken, groups, [1], values, "scatter_allgather")
    assert any(np.isnan(v).any() for v in delivered.values())


@pytest.mark.parametrize("name", ["binomial", "scatter_allgather"])
def test_a_symbolic_plan_has_the_same_rounds_and_no_copies(name):
    # Symbolic values move no data: their plan keeps the rounds only.
    args = (name, 5, (0, 3, 4), (7, 2, 10))
    data, symbolic = broadcast_plan(*args), broadcast_plan(*args, data=False)
    assert symbolic.copies == () and symbolic.layout == ()
    assert len(data.copies) > 0
    assert len(symbolic.items) == len(data.items)
    for got, want in zip(symbolic.items, data.items):
        assert got[4] == want[4]
        for a, b in zip(got[:4], want[:4]):
            assert np.array_equal(a, b)


class TestBroadcastSelection:
    def _call(self, machine, groups, roots, values, name="scatter_allgather"):
        return replay_broadcast(machine, groups, roots, values, name)

    def test_uniform_calls_take_the_replay(self):
        for backend, value in (("data", np.ones((3, 2))), ("symbolic", SymbolicBlock((3, 2)))):
            machine = Machine(4, backend=backend)
            assert self._call(machine, [(0, 1), (2, 3)], [0, 3],
                              {0: value, 3: value}) is not None

    def test_fault_injector_takes_the_message_path(self):
        machine = Machine(4, faults=FaultModel())
        assert self._call(machine, [(0, 1, 2, 3)], [0], {0: np.ones(3)}) is None

    @pytest.mark.parametrize("groups, roots", [
        ([(0, 1), (2, 3, 4)], [0, 2]),  # groups of different sizes
        ([(0, 1), (1, 2)], [0, 2]),  # overlapping groups
        ([(0, 1), (2, 3)], [0, 4]),  # a root outside its group
        ([(0, 1), (2, 3)], [0]),  # a group without a root
    ])
    def test_malformed_calls_take_the_message_path(self, groups, roots):
        values = {r: np.ones(3) for r in range(5)}
        assert self._call(Machine(5), groups, roots, values) is None

    @pytest.mark.parametrize("second", [
        np.ones(3, dtype=np.float32),  # mixed float dtypes
        SymbolicBlock((3,)),  # mixed backends
        np.ones(3, dtype=np.int64),  # not a float
    ])
    def test_mixed_or_non_float_values_take_the_message_path(self, second):
        values = {0: np.ones(3), 2: second}
        assert self._call(Machine(4), [(0, 1), (2, 3)], [0, 2], values) is None
        ints = {0: np.ones(3, dtype=np.int64), 2: np.ones(3, dtype=np.int64)}
        assert self._call(Machine(4), [(0, 1), (2, 3)], [0, 2], ints) is None

    @pytest.mark.parametrize("name, groups, replayed", [
        ("binomial", [(0, 1)], False),  # 1 message
        ("binomial", [tuple(range(16))], False),  # 15 messages
        ("binomial", [tuple(range(17))], True),  # 16 messages
        ("scatter_allgather", [(0, 1)], False),  # 3 messages
        ("scatter_allgather", [(0, 1, 2, 3)], False),  # 15 messages
        ("scatter_allgather", [(0, 1, 2), (3, 4, 5)], True),  # 16 messages
    ])
    def test_parallel_broadcast_replays_from_the_threshold(
        self, name, groups, replayed, monkeypatch
    ):
        # Below ARRAY_BROADCAST_MIN_MESSAGES messages the Message path is
        # cheaper; the replay itself applies at any size.
        calls = []
        monkeypatch.setattr(
            communicator, "replay_broadcast",
            lambda *args: calls.append(args) or replay_broadcast(*args),
        )
        values = {g[0]: np.ones(6) for g in groups}
        machine = Machine(17)
        assert replay_broadcast(machine, groups, [g[0] for g in groups], values, name)
        parallel_broadcast(machine, groups, [g[0] for g in groups], values, name)
        assert bool(calls) == replayed

    @pytest.mark.parametrize("name", BROADCASTS)
    def test_parallel_broadcast_matches_on_both_paths(self, name):
        # Large enough for the replay, so the public entry point takes it;
        # the Message schedules on the same inputs account identically.
        groups = [tuple(range(f, 32, 4)) for f in range(4)]
        roots = [g[f] for f, g in enumerate(groups)]
        values = {r: np.random.default_rng(r).random((5, 3)) for r in roots}
        assert 4 * 7 >= ARRAY_BROADCAST_MIN_MESSAGES
        machine = Machine(32 + IDLE)
        result = parallel_broadcast(machine, groups, roots, values, name, label="bcast")
        msg_machine, msg_result = _message_broadcast(name, groups, roots, values, "data")
        assert machine_accounting(machine) == machine_accounting(msg_machine)
        assert all(np.array_equal(result[r], msg_result[r]) for r in msg_result)

    @pytest.mark.parametrize("name", BROADCASTS)
    def test_message_path_errors_are_kept(self, name):
        values = {r: np.ones(3) for r in range(3)}
        with pytest.raises(CommunicatorError):
            parallel_broadcast(Machine(3), [(0, 1), (1, 2)], [0, 2], values, name)
        with pytest.raises(CommunicatorError, match="not a member"):
            parallel_broadcast(Machine(4), [(0, 1), (2, 3)], [0, 1], values, name)
