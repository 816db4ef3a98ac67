"""Reduce-Scatter schedules.

A Reduce-Scatter over ``p`` processors, where each member starts with ``p``
blocks (block ``j`` destined for group member ``j``), computes the
element-wise sum of each block across members and leaves member ``j``
holding only the reduced block ``j``.  With each member starting from ``W``
words (``p`` blocks of ``w = W/p``), the bandwidth-optimal cost is
``(1 - 1/p) * W`` words per processor — the figure used in the paper's cost
analysis (Section 5.1).  The receiving processor also performs
``(1 - 1/p) W`` additions, which the paper notes is dominated by the local
GEMM; we charge those to the flop counters.

Algorithms:

``ring``
    ``p - 1`` rounds, any group size.
``recursive_halving``
    ``log2 p`` rounds, power-of-two groups.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from ..exceptions import CommunicatorError
from ..machine.backend import as_block
from ..machine.machine import Machine
from ..machine.message import Message
from .ops import resolve_op
from .schedules import Schedule, is_power_of_two

__all__ = [
    "reduce_scatter_ring",
    "reduce_scatter_recursive_halving",
    "reduce_scatter_schedule",
]


def _check_blocks(group: Sequence[int], blocks: Mapping[int, Sequence[np.ndarray]]) -> None:
    p = len(group)
    for rank in group:
        if rank not in blocks:
            raise CommunicatorError(f"reduce_scatter: no input blocks for rank {rank}")
        if len(blocks[rank]) != p:
            raise CommunicatorError(
                f"reduce_scatter: rank {rank} supplied {len(blocks[rank])} blocks, "
                f"expected one per group member (p={p})"
            )
    shapes = [tuple(as_block(b).shape) for b in blocks[group[0]]]
    for rank in group[1:]:
        other = [tuple(as_block(b).shape) for b in blocks[rank]]
        if other != shapes:
            raise CommunicatorError(
                f"reduce_scatter: block shapes differ between ranks "
                f"{group[0]} ({shapes}) and {rank} ({other})"
            )


def reduce_scatter_ring(
    group: Sequence[int],
    blocks: Mapping[int, Sequence[np.ndarray]],
    machine: Machine = None,
    tag: str = "reduce-scatter",
    op="sum",
) -> Schedule:
    """Ring Reduce-Scatter for any group size.

    Block ``b``'s partial sum travels the ring starting at member
    ``(b + 1) mod p``; each host adds its own contribution, and after
    ``p - 1`` hops the fully reduced block arrives at member ``b``.

    ``machine`` (optional) is used only to charge the reduction flops to
    the receiving processors.

    Returns ``{rank: reduced block for that rank}``.
    """
    group = tuple(group)
    p = len(group)
    _check_blocks(group, blocks)
    combine = resolve_op(op)
    own: List[List[np.ndarray]] = [
        [as_block(b, dtype=float) for b in blocks[group[i]]] for i in range(p)
    ]
    if p == 1:
        return {group[0]: own[0][0].copy()}

    # carry[i]: the traveling partial currently hosted by member i.
    carry: List[np.ndarray] = [own[i][(i - 1) % p].copy() for i in range(p)]

    for t in range(p - 1):
        msgs = [
            Message(src=group[i], dest=group[(i + 1) % p], payload=carry[i], tag=tag, empty_ok=True)
            for i in range(p)
        ]
        deliveries = yield msgs
        for i in range(p):
            block_index = (i - t - 2) % p
            incoming = deliveries[group[i]]
            carry[i] = combine(incoming, own[i][block_index])
            if machine is not None:
                machine.compute(group[i], float(incoming.size))

    # After t = p-2 the partial hosted by member i is block (i - p) % p == i.
    return {group[i]: carry[i] for i in range(p)}


def reduce_scatter_recursive_halving(
    group: Sequence[int],
    blocks: Mapping[int, Sequence[np.ndarray]],
    machine: Machine = None,
    tag: str = "reduce-scatter",
    op="sum",
) -> Schedule:
    """Recursive-halving Reduce-Scatter (power-of-two groups).

    At distance ``d = p/2, p/4, ..., 1`` each member exchanges, with partner
    ``i XOR d``, the partial blocks belonging to the partner's half of the
    index range, then adds the received partials into its own half.  Message
    sizes halve each round; the total is ``(1 - 1/p) W`` words per processor
    in ``log2 p`` rounds.
    """
    group = tuple(group)
    p = len(group)
    if not is_power_of_two(p):
        raise CommunicatorError(
            f"recursive-halving reduce-scatter requires a power-of-two group, got p={p}"
        )
    _check_blocks(group, blocks)
    combine = resolve_op(op)
    partial: List[Dict[int, np.ndarray]] = [
        {j: as_block(blocks[group[i]][j], dtype=float).copy() for j in range(p)}
        for i in range(p)
    ]
    if p == 1:
        return {group[0]: partial[0][0]}

    dist = p // 2
    while dist >= 1:
        msgs = []
        send_sets: List[List[int]] = []
        for i in range(p):
            # Indices still alive at member i whose dist-bit differs from i's
            # belong to the partner's half.
            to_send = sorted(j for j in partial[i] if (j & dist) != (i & dist))
            send_sets.append(to_send)
            payload = tuple(partial[i][j] for j in to_send)
            msgs.append(Message(src=group[i], dest=group[i ^ dist], payload=payload, tag=tag, empty_ok=True))
        deliveries = yield msgs
        for i in range(p):
            partner = i ^ dist
            incoming = deliveries[group[i]]
            for j, arr in zip(send_sets[partner], incoming):
                partial[i][j] = combine(partial[i][j], arr)
                if machine is not None:
                    machine.compute(group[i], float(arr.size))
            for j in send_sets[i]:
                del partial[i][j]
        dist //= 2

    return {group[i]: partial[i][i] for i in range(p)}


def reduce_scatter_schedule(
    group: Sequence[int],
    blocks: Mapping[int, Sequence[np.ndarray]],
    machine: Machine = None,
    algorithm: str = "auto",
    tag: str = "reduce-scatter",
    op="sum",
) -> Schedule:
    """Dispatch to a concrete Reduce-Scatter algorithm (see module doc)."""
    schedule = _SCHEDULES[resolve_reduce_scatter_algorithm(algorithm, len(tuple(group)))]
    return schedule(group, blocks, machine=machine, tag=tag, op=op)


_SCHEDULES = {
    "ring": reduce_scatter_ring,
    "recursive_halving": reduce_scatter_recursive_halving,
}


def resolve_reduce_scatter_algorithm(algorithm: str, p: int) -> str:
    """The concrete Reduce-Scatter algorithm ``algorithm`` names for ``p`` members."""
    if algorithm == "auto":
        return "recursive_halving" if is_power_of_two(p) else "ring"
    if algorithm not in _SCHEDULES:
        raise CommunicatorError(f"unknown reduce_scatter algorithm {algorithm!r}")
    return algorithm
