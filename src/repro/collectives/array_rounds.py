"""Array replays of the All-Gather and Reduce-Scatter schedules.

On a fault-free machine whose chunks are all
:class:`~repro.machine.backend.SymbolicBlock` descriptors, a collective
needs no payloads: who sends how many words to whom in round ``t`` follows
from the group layout and the chunk sizes alone.  The generators here
replay the :class:`~repro.machine.message.Message` schedules of
:mod:`.allgather` and :mod:`.reduce_scatter` for all groups at once: ``F``
groups of ``p`` members are an ``F x p`` rank array ``G`` and an ``F x p``
size array, and each round is one ``(src, dest, words)`` triple of arrays
over all ``F * p`` members, with words read from per-group chunk-size
prefix sums.
:meth:`~repro.machine.network.FullyConnectedNetwork.execute_array_rounds`
executes the rounds under the one-send/one-receive rule.

Each generator follows its Message schedule round for round, so the counts
are equal by construction and pinned against it by
``tests/collectives/test_array_rounds.py``.  None of this shares code with
the closed forms in :mod:`repro.analysis.oracle` and
:mod:`repro.analysis.oracle_vec`, so the oracle stays an independent
witness of the simulator.

:func:`allgather_replay` and :func:`reduce_scatter_replay` are the core:
they take the ``(G, S)`` arrays, resolve the algorithm, refuse what the
Message schedules refuse, and return an :class:`ArrayReplay`.  Algorithm 1
builds its fiber arrays directly and calls them (see
:func:`repro.collectives.communicator.array_allgather`); the adapters
:func:`replay_allgather` and :func:`replay_reduce_scatter` build the arrays
from ``rank -> block`` mappings, and return ``None`` whenever the replay
does not apply — a fault injector is attached, a chunk
is not symbolic, the groups differ in size, or the input is malformed
(overlapping groups, mismatched blocks) — and the caller then runs the
Message schedules, which raise their own typed errors on malformed input.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CommunicatorError
from ..machine.backend import SymbolicBlock
from ..machine.machine import Machine
from .allgather import resolve_allgather_algorithm
from .ops import resolve_op
from .reduce_scatter import resolve_reduce_scatter_algorithm
from .schedules import is_power_of_two

__all__ = [
    "ArrayReplay",
    "allgather_replay",
    "reduce_scatter_replay",
    "replay_allgather",
    "replay_reduce_scatter",
]

Round = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclasses.dataclass
class ArrayReplay:
    """A collective ready to replay: its rounds, its result, its flops.

    ``rounds`` is lazy; ``flops`` (aligned with the ``F x p`` rank array
    ``ranks``) fills up as the rounds are consumed.
    """

    rounds: Iterator[Round]
    result: Dict[int, Any]
    tag: str
    ranks: Optional[np.ndarray] = None
    flops: Optional[np.ndarray] = None

    def run(self, machine: Machine) -> Dict[int, Any]:
        """Execute the rounds, charge the flops, and return the result."""
        machine.network.execute_array_rounds(self.rounds, tag=self.tag)
        if self.flops is not None:
            # Per-rank flop totals are sums of whole block sizes, so one
            # array charge equals the Message path's per-block charges.
            machine.compute_ranks(self.flops.ravel(), self.ranks.ravel())
        return self.result


# ---------------------------------------------------------------------- #
# round generators, one per Message schedule                             #
# ---------------------------------------------------------------------- #


def _prefix(sizes: np.ndarray) -> np.ndarray:
    """Row-wise prefix sums with a leading zero column."""
    out = np.zeros((sizes.shape[0], sizes.shape[1] + 1), dtype=np.int64)
    np.cumsum(sizes, axis=1, out=out[:, 1:])
    return out


def allgather_ring_rounds(G: np.ndarray, S: np.ndarray) -> Iterator[Round]:
    """:func:`~.allgather.allgather_ring`: in round ``t`` member ``i`` forwards
    the chunk of member ``(i - t) mod p`` to member ``(i + 1) mod p``."""
    p = G.shape[1]
    i = np.arange(p)
    src, dest = G.ravel(), G[:, (i + 1) % p].ravel()
    for t in range(p - 1):
        yield src, dest, S[:, (i - t) % p].ravel()


def allgather_recursive_doubling_rounds(G: np.ndarray, S: np.ndarray) -> Iterator[Round]:
    """:func:`~.allgather.allgather_recursive_doubling`: at distance ``d``
    member ``i`` sends the aligned block of ``d`` chunks it holds to
    ``i XOR d``."""
    p = G.shape[1]
    i = np.arange(p)
    pre = _prefix(S)
    d = 1
    while d < p:
        lo = (i // d) * d
        yield G.ravel(), G[:, i ^ d].ravel(), (pre[:, lo + d] - pre[:, lo]).ravel()
        d *= 2


def allgather_bruck_rounds(G: np.ndarray, S: np.ndarray) -> Iterator[Round]:
    """:func:`~.allgather.allgather_bruck`: at distance ``d`` member ``i``
    sends the chunks of members ``i .. i + min(d, p - d) - 1`` (mod ``p``)
    to member ``(i - d) mod p``."""
    p = G.shape[1]
    i = np.arange(p)
    pre = _prefix(np.concatenate([S, S], axis=1))
    d = 1
    while d < p:
        count = min(d, p - d)
        yield G.ravel(), G[:, (i - d) % p].ravel(), (pre[:, i + count] - pre[:, i]).ravel()
        d *= 2


def reduce_scatter_ring_rounds(
    G: np.ndarray, B: np.ndarray, flops: np.ndarray
) -> Iterator[Round]:
    """:func:`~.reduce_scatter.reduce_scatter_ring`: in round ``t`` member
    ``i`` forwards its partial of block ``(i - t - 1) mod p`` to member
    ``(i + 1) mod p``, which adds its own block ``(i - t - 2) mod p``."""
    p = G.shape[1]
    i = np.arange(p)
    src, dest = G.ravel(), G[:, (i + 1) % p].ravel()
    for t in range(p - 1):
        yield src, dest, B[:, (i - t - 1) % p].ravel()
        flops += B[:, (i - t - 2) % p]


def reduce_scatter_recursive_halving_rounds(
    G: np.ndarray, B: np.ndarray, flops: np.ndarray
) -> Iterator[Round]:
    """:func:`~.reduce_scatter.reduce_scatter_recursive_halving`: at
    distance ``d`` member ``i`` sends the partials of the aligned ``d``
    blocks around ``i XOR d`` to that partner and adds the partner's
    partials of the ``d`` blocks around ``i`` into its own."""
    p = G.shape[1]
    i = np.arange(p)
    pre = _prefix(B)
    d = p // 2
    while d >= 1:
        theirs = ((i ^ d) // d) * d
        ours = (i // d) * d
        yield G.ravel(), G[:, i ^ d].ravel(), (pre[:, theirs + d] - pre[:, theirs]).ravel()
        flops += pre[:, ours + d] - pre[:, ours]
        d //= 2


_ALLGATHER_ROUNDS = {
    "ring": allgather_ring_rounds,
    "recursive_doubling": allgather_recursive_doubling_rounds,
    "bruck": allgather_bruck_rounds,
}

_REDUCE_SCATTER_ROUNDS = {
    "ring": reduce_scatter_ring_rounds,
    "recursive_halving": reduce_scatter_recursive_halving_rounds,
}


# ---------------------------------------------------------------------- #
# selection                                                              #
# ---------------------------------------------------------------------- #


def _check_power_of_two(p: int, name: str) -> None:
    # The Message schedules' own refusal, word for word.
    if not is_power_of_two(p):
        raise CommunicatorError(f"{name} requires a power-of-two group, got p={p}")


def allgather_replay(
    G: np.ndarray, S: np.ndarray, algorithm: str = "auto", result=None
) -> ArrayReplay:
    """The All-Gather over the ``F x p`` rank array ``G`` with chunk sizes ``S``.

    Resolves ``algorithm`` for groups of ``p`` members and refuses what the
    Message schedule refuses (recursive doubling on a non-power-of-two
    ``p``) before any round runs.  ``result`` is what :meth:`ArrayReplay.run`
    returns (an empty dict by default).
    """
    name = resolve_allgather_algorithm(algorithm, G.shape[1])
    if name == "recursive_doubling":
        _check_power_of_two(G.shape[1], "recursive-doubling allgather")
    return ArrayReplay(
        _ALLGATHER_ROUNDS[name](G, S), {} if result is None else result, "allgather"
    )


def reduce_scatter_replay(
    G: np.ndarray, B: np.ndarray, algorithm: str = "auto", op="sum", result=None
) -> ArrayReplay:
    """The Reduce-Scatter over the ``F x p`` rank array ``G`` with block sizes ``B``.

    ``B[f, j]`` is the size of block ``j`` in every member of group ``f``.
    Resolves ``op`` and ``algorithm`` and refuses a non-power-of-two
    recursive halving before any round runs; the reduction flops (one per
    received word) are charged per rank after the last round.
    """
    resolve_op(op)
    name = resolve_reduce_scatter_algorithm(algorithm, G.shape[1])
    if name == "recursive_halving":
        _check_power_of_two(G.shape[1], "recursive-halving reduce-scatter")
    flops = np.zeros(G.shape, dtype=np.int64)
    rounds = _REDUCE_SCATTER_ROUNDS[name](G, B, flops)
    return ArrayReplay(
        rounds, {} if result is None else result, "reduce-scatter", G, flops
    )


# ---------------------------------------------------------------------- #
# adapters from rank -> block mappings                                   #
# ---------------------------------------------------------------------- #


def _first_rank(machine: Machine, groups: Sequence[Sequence[int]]) -> Optional[int]:
    """The first group's first rank, or ``None`` when no replay may run.

    Callers look at that rank's input alone before walking anything, so
    data-backend and faulted calls leave at O(1) cost.
    """
    if machine.network.fault_injector is not None or not groups or not len(groups[0]):
        return None
    return groups[0][0]


def _rank_array(groups: Sequence[Sequence[int]]) -> Optional[np.ndarray]:
    """The ``F x p`` rank array of equal-sized, pairwise disjoint groups."""
    p = len(groups[0])
    if any(len(g) != p for g in groups):
        return None
    G = np.array([tuple(g) for g in groups], dtype=np.int64)
    return G if len(np.unique(G)) == G.size else None


def replay_allgather(
    machine: Machine,
    groups: Sequence[Sequence[int]],
    chunks: Mapping[int, Any],
    algorithm: str = "auto",
) -> Optional[ArrayReplay]:
    """The array replay of a parallel All-Gather, or ``None`` if it does not apply.

    Every member of a group receives the same list of the group's chunks
    in group order; the replay hands each group's members one shared list
    (symbolic blocks are immutable; callers only read it).
    """
    first = _first_rank(machine, groups)
    if first is None or type(chunks[first]) is not SymbolicBlock:
        return None
    G = _rank_array(groups)
    if G is None:
        return None
    sizes: List[List[int]] = []
    result: Dict[int, Any] = {}
    for g in groups:
        gathered = [chunks[r] for r in g]
        for chunk in gathered:
            if type(chunk) is not SymbolicBlock:
                return None
        sizes.append([chunk.size for chunk in gathered])
        result.update(dict.fromkeys(g, gathered))
    return allgather_replay(G, np.array(sizes, dtype=np.int64), algorithm, result)


def replay_reduce_scatter(
    machine: Machine,
    groups: Sequence[Sequence[int]],
    blocks: Mapping[int, Sequence[Any]],
    algorithm: str = "auto",
    op="sum",
) -> Optional[ArrayReplay]:
    """The array replay of a parallel Reduce-Scatter, or ``None`` if it does not apply.

    Member ``j`` of a group receives the reduction of block ``j``; under
    the symbolic backend that is a block of block ``j``'s shape, so the
    replay returns the member's own block ``j``.
    """
    first = _first_rank(machine, groups)
    if first is None or not len(blocks[first]) or type(blocks[first][0]) is not SymbolicBlock:
        return None
    G = _rank_array(groups)
    if G is None:
        return None
    sizes: List[List[int]] = []
    result: Dict[int, Any] = {}
    for g in groups:
        ref_shapes = None
        for r in g:
            lst = blocks[r]
            if not all(type(b) is SymbolicBlock for b in lst):
                return None
            shapes = [b.shape for b in lst]
            if ref_shapes is None:
                ref_shapes = shapes
            elif shapes != ref_shapes:
                return None
        if len(ref_shapes) != len(g):
            return None
        sizes.append([b.size for b in blocks[g[0]]])
        for j, r in enumerate(g):
            result[r] = blocks[r][j]
    return reduce_scatter_replay(
        G, np.array(sizes, dtype=np.int64), algorithm, op, result
    )
