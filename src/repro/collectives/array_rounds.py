"""Array replays of the All-Gather, Reduce-Scatter and Broadcast schedules.

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

The broadcast schedules of :mod:`.broadcast` are replayed on either
backend, and real data still travels: :func:`broadcast_plan` lays out a
broadcast's rounds in member space, as multi-round items for the network
plus, for data values, the buffer rows each round copies, and
:func:`replay_broadcast` maps it onto ranks and moves data values through
one buffer with one fancy-index copy per round.

Each replay follows its Message schedule round for round, so the counts
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
:func:`replay_allgather`, :func:`replay_reduce_scatter` and
:func:`replay_broadcast` build the arrays from ``rank -> block``
mappings, and return ``None`` whenever the replay does not apply — a
fault injector is attached, a chunk is not symbolic (or, for the
broadcast, the values are neither all symbolic nor all float arrays of
one dtype), the groups differ in size, or the input is malformed
(overlapping groups, mismatched blocks, a root outside its group) — and
the caller then runs the Message schedules, which raise their own typed
errors on malformed input.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CommunicatorError
from ..machine.backend import SymbolicBlock
from ..machine.machine import Machine
from .allgather import resolve_allgather_algorithm
from .ops import resolve_op
from .reduce_scatter import resolve_reduce_scatter_algorithm
from .schedules import ceil_log2, is_power_of_two

__all__ = [
    "ArrayReplay",
    "BroadcastPlan",
    "allgather_replay",
    "broadcast_plan",
    "reduce_scatter_replay",
    "replay_allgather",
    "replay_broadcast",
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
# broadcast: rounds with payloads                                        #
# ---------------------------------------------------------------------- #

#: ``(src, dest, words, bounds, tag)``: consecutive rounds as flat arrays,
#: round ``j`` being messages ``bounds[j]:bounds[j + 1]``.
Item = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, str]


@dataclasses.dataclass(frozen=True)
class BroadcastPlan:
    """A parallel broadcast in member space, for every group at once.

    Member ``m = f * p + j`` is position ``j`` of group ``f``, and
    ``items`` are the network rounds with member indices for ranks.  For
    data values, each member's copy of the value is ``pieces`` rows of
    ``width`` words (piece ``q`` of member ``m`` is buffer row
    ``m * pieces + q``), ``copies`` holds, per round, the buffer rows its
    messages carry as ``(from, to)``, and ``layout[f]`` picks group
    ``f``'s value out of a member's ``pieces * width`` words.  A plan for
    symbolic values has no copies and no layout.
    """

    items: Tuple[Item, ...]
    copies: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    pieces: int
    width: int
    layout: Tuple[Any, ...]


@functools.lru_cache(maxsize=64)
def _tree(p: int, scatter: bool):
    """A binomial tree over ``p`` places, the root at place 0, level by level.

    Returns the messages as ``(src, dest, lo, hi)`` place arrays, where a
    scatter message carries the pieces of places ``lo .. hi - 1``; the
    pieces each message carries as ``(message, place)`` arrays; and the
    number of messages and of pieces up to the end of each level.  The
    broadcast tree doubles its senders each level: at distance ``d``
    place ``i < d`` sends to ``i + d``.  The scatter tree halves its
    ranges: at distance ``d`` the holder of places ``[h, h + 2d)`` sends
    places ``[h + d, h + 2d)`` to place ``h + d``.
    """
    msgs: List[Tuple[int, int, int, int]] = []
    ends: List[Tuple[int, int]] = []
    pieces: List[Tuple[int, int]] = []
    levels = range(ceil_log2(p))
    for d in (1 << e for e in (reversed(levels) if scatter else levels)):
        if scatter:
            level = [(h, h + d, h + d, min(h + 2 * d, p)) for h in range(0, p - d, 2 * d)]
        else:
            level = [(i, i + d, 0, 1) for i in range(min(d, p - d))]
        for k, (_, _, lo, hi) in enumerate(level, start=len(msgs)):
            pieces.extend((k, j) for j in range(lo, hi))
        msgs.extend(level)
        ends.append((len(msgs), len(pieces)))
    return (np.array(msgs, dtype=np.int64).reshape(-1, 4).T,
            np.array(pieces, dtype=np.int64).reshape(-1, 2).T, ends)


def _by_level(a: np.ndarray, ends: Sequence[int]) -> List[np.ndarray]:
    """Columns of the ``F x n`` array ``a`` cut at ``ends``, each level
    raveled group by group (a merged round lists group 0's messages first)."""
    return [a[:, lo:hi].ravel() for lo, hi in zip([0] + list(ends[:-1]), ends)]


def _binomial_plan(p: int, rp: np.ndarray, w: np.ndarray, data: bool) -> BroadcastPlan:
    """:func:`~.broadcast.broadcast_binomial`: each level doubles the
    members holding the whole value."""
    F = len(rp)
    place = (np.arange(F) * p)[:, None] + (np.arange(p) + rp[:, None]) % p
    (s, d, _, _), _, ends = _tree(p, False)
    cut = [m for m, _ in ends]
    src, dest = _by_level(place[:, s], cut), _by_level(place[:, d], cut)
    items = ()
    if src:
        senders = np.concatenate(src)
        # Level l of every group is one round: F times a group's messages.
        bounds = F * np.array([0] + cut)
        items = ((senders, np.concatenate(dest), w[senders // p], bounds, "broadcast"),)
    if not data:
        return BroadcastPlan(items, (), 1, 0, ())
    return BroadcastPlan(
        items, tuple(zip(src, dest)), 1, int(w.max()), tuple(slice(0, x) for x in w.tolist())
    )


def _scatter_allgather_plan(p: int, rp: np.ndarray, w: np.ndarray, data: bool) -> BroadcastPlan:
    """:func:`~.broadcast.broadcast_scatter_allgather`: the value's ``p``
    pieces (``np.array_split`` sizes) go out by
    :func:`~.scatter.scatter_binomial`, after which member ``j`` holds
    piece ``j``, and come back together by :func:`allgather_ring_rounds`."""
    F = len(rp)
    q = np.arange(p)
    members = np.arange(F * p).reshape(F, p)
    lens = (w // p)[:, None] + (q < (w % p)[:, None])
    rot = (q + rp[:, None]) % p  # place -> position, per group
    place = members[np.arange(F)[:, None], rot]  # place -> member
    pre = _prefix(lens[np.arange(F)[:, None], rot])
    (s, d, lo, hi), (k, j), ends = _tree(p, True)
    cut = [m for m, _ in ends]
    src, dest = _by_level(place[:, s], cut), _by_level(place[:, d], cut)
    items: List[Item] = []
    copies: List[Tuple[np.ndarray, np.ndarray]] = []
    if src:
        # The ring run with each member's own index for its chunk says
        # whose piece every message carries.
        ring = list(allgather_ring_rounds(members, members))
        ring_src, ring_dest, owner = (np.concatenate(part) for part in zip(*ring))
        items = [
            (np.concatenate(src), np.concatenate(dest),
             np.concatenate(_by_level(pre[:, hi] - pre[:, lo], cut)),
             F * np.array([0] + cut), "broadcast/scatter"),
            (ring_src, ring_dest, lens.ravel()[owner],
             np.arange(0, len(ring_src) + 1, F * p), "broadcast/allgather"),
        ]
    if not data:
        return BroadcastPlan(tuple(items), (), p, 0, ())
    if src:
        # A piece's buffer row is its holder's member index times p plus
        # its position in the value.
        piece = rot[:, j]
        cut = [n for _, n in ends]
        copies.extend(zip(_by_level(place[:, s[k]] * p + piece, cut),
                          _by_level(place[:, d[k]] * p + piece, cut)))
        piece = owner % p
        copies.extend(zip((ring_src * p + piece).reshape(p - 1, -1),
                          (ring_dest * p + piece).reshape(p - 1, -1)))
    # Piece q of a member's value starts at word q * width of its row span.
    width = int(lens.max())
    spans = q[:, None] * width + np.arange(width)
    filled = np.arange(width) < lens[:, :, None]
    layout = tuple(
        slice(0, x) if x == p * width else spans[filled[f]]
        for f, x in enumerate(w.tolist())
    )
    return BroadcastPlan(tuple(items), tuple(copies), p, width, layout)


_BROADCAST_PLANS = {
    "binomial": _binomial_plan,
    "scatter_allgather": _scatter_allgather_plan,
}


def broadcast_plan(
    algorithm: str, p: int, roots: Sequence[int], sizes: Sequence[int], data: bool = True
) -> BroadcastPlan:
    """The broadcast plan for groups of ``p`` members, roots and sizes given.

    ``algorithm`` runs over groups of ``p`` members whose roots sit at
    positions ``roots`` and whose values hold ``sizes`` words; with
    ``data=False`` (symbolic values) the plan has no copies or layout.

    Only the tree in place space is memoized, once per ``p``: the root
    positions change from call to call (SUMMA moves its panel owner and
    Fox its root every stage), and so do the sizes, so everything that
    depends on them is built per call and freed with it.
    """
    return _BROADCAST_PLANS[algorithm](
        p, np.array(roots, dtype=np.int64), np.array(sizes, dtype=np.int64), data
    )


def _place(result: Dict[int, Any], algorithm: str, group, root: int, blocks, value) -> None:
    """Add one group's results in the Message schedule's order and identities."""
    members = list(zip(group, blocks))
    if algorithm == "binomial":
        # The binomial schedule lists members from the root on, and the
        # root keeps its own value object.
        result.update(members[root:] + members[:root])
        result[group[root]] = value
    else:
        result.update(members)


def _deliver(plan: BroadcastPlan, groups, positions, values, algorithm: str) -> Dict[int, Any]:
    """Move real data through the plan's rounds; ``{rank: its value}``.

    One buffer holds every member's copy; the roots' rows start with their
    values and every other row as NaN, and each round is one fancy-index
    copy, so a schedule that skips a piece leaves NaN in some result.
    """
    p, k = len(groups[0]), plan.pieces
    buf = np.full((len(groups) * p * k, plan.width), np.nan, dtype=values[0].dtype)
    rows = buf.reshape(len(groups) * p, k * plan.width)
    for f, (root, lay, value) in enumerate(zip(positions, plan.layout, values)):
        rows[f * p + root, lay] = value.reshape(-1)
    for frm, to in plan.copies:
        buf[to] = buf[frm]
    result: Dict[int, Any] = {}
    for f, (g, root, lay, value) in enumerate(zip(groups, positions, plan.layout, values)):
        block = rows[f * p:(f + 1) * p, lay].reshape((p,) + value.shape)
        _place(result, algorithm, g, root, block, value)
    return result


def replay_broadcast(
    machine: Machine,
    groups: Sequence[Sequence[int]],
    roots: Sequence[int],
    values: Mapping[int, Any],
    algorithm: str = "binomial",
) -> Optional[ArrayReplay]:
    """The array replay of a parallel broadcast, or ``None`` if it does not apply.

    Applies on a fault-free machine to pairwise disjoint groups of one size
    whose roots are members and whose values are all symbolic blocks or
    all numpy float arrays of one dtype.  Data values travel through one
    buffer (:func:`_deliver`); symbolic ones need no buffer.  The result
    has the Message schedule's identity semantics: under ``binomial`` the
    root keeps its value object, under ``scatter_allgather`` every member
    gets a new block, and no two members share memory.
    """
    if (algorithm not in _BROADCAST_PLANS or machine.network.fault_injector is not None
            or not groups or len(groups) != len(roots)):
        return None
    p = len(groups[0])
    ranks: List[int] = []
    positions: List[int] = []
    vals: List[Any] = []
    for g, root in zip(groups, roots):
        g = tuple(g)
        if len(g) != p or root not in g:
            return None
        positions.append(g.index(root))
        ranks.extend(g)
        vals.append(values[root])
    if (len(set(ranks)) != len(ranks) or min(ranks) < 0
            or max(ranks) >= machine.n_procs):
        return None
    kind = type(vals[0])
    if kind is SymbolicBlock:
        if any(type(v) is not SymbolicBlock for v in vals):
            return None
    elif kind is np.ndarray and vals[0].dtype.kind == "f":
        dtype = vals[0].dtype
        if any(type(v) is not np.ndarray or v.dtype != dtype or not v.ndim for v in vals):
            return None
    else:
        return None
    plan = broadcast_plan(
        algorithm, p, positions, [v.size for v in vals], data=kind is np.ndarray
    )
    G = np.array(ranks, dtype=np.int64)
    items = [(G[s], G[d], words, bounds, tag) for s, d, words, bounds, tag in plan.items]
    if kind is np.ndarray:
        result = _deliver(plan, groups, positions, vals, algorithm)
    else:
        result = {}
        for g, root, v in zip(groups, positions, vals):
            block = v if algorithm == "binomial" else SymbolicBlock(v.shape)
            _place(result, algorithm, g, root, [block] * p, v)
    return ArrayReplay(iter(items), result, "broadcast")


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
