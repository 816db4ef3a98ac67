"""All-Gather schedules.

An All-Gather over a group of ``p`` processors, where member ``j`` starts
with a chunk of ``w_j`` words, ends with every member holding all ``p``
chunks.  With equal chunks of ``w = W/p`` words (``W`` the gathered total),
the bandwidth-optimal cost is ``(1 - 1/p) * W`` words — the figure used in
the paper's cost analysis of Algorithm 1 (Section 5.1, citing Thakur et al.
2005 and Chan et al. 2007).

Two bandwidth-optimal algorithms are provided:

``ring``
    ``p - 1`` rounds; works for any ``p`` (and any ragged chunk sizes).
``recursive_doubling``
    ``log2 p`` rounds (the *bidirectional exchange* algorithm); requires
    ``p`` to be a power of two.

Both move exactly ``(1 - 1/p) W`` words per processor for equal chunks, so
the choice only affects the latency term — which is precisely the ablation
``benchmarks/bench_collectives.py`` reports.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from ..exceptions import CommunicatorError
from ..machine.backend import as_block
from ..machine.message import Message
from .schedules import Schedule, is_power_of_two

__all__ = [
    "allgather_ring",
    "allgather_recursive_doubling",
    "allgather_bruck",
    "allgather_schedule",
]


def _check_chunks(group: Sequence[int], chunks: Mapping[int, np.ndarray]) -> None:
    missing = [r for r in group if r not in chunks]
    if missing:
        raise CommunicatorError(f"allgather: no input chunk for ranks {missing}")


def allgather_ring(
    group: Sequence[int],
    chunks: Mapping[int, np.ndarray],
    tag: str = "allgather",
) -> Schedule:
    """Ring All-Gather for any group size.

    Round ``t`` (``t = 0 .. p-2``): member ``i`` forwards the chunk that
    originated at member ``(i - t) mod p`` to member ``(i + 1) mod p``.
    After ``p - 1`` rounds everyone holds every chunk.

    Returns (as the generator's value) ``{rank: [chunk_0, ..., chunk_{p-1}]}``
    with chunks ordered by group position.
    """
    group = tuple(group)
    p = len(group)
    _check_chunks(group, chunks)
    held: List[Dict[int, np.ndarray]] = [{i: as_block(chunks[group[i]])} for i in range(p)]

    for t in range(p - 1):
        msgs = []
        for i in range(p):
            origin = (i - t) % p
            msgs.append(
                Message(
                    src=group[i],
                    dest=group[(i + 1) % p],
                    payload=held[i][origin],
                    tag=tag,
                    empty_ok=True,
                )
            )
        deliveries = yield msgs
        for i in range(p):
            origin = (i - t - 1) % p
            held[i][origin] = deliveries[group[i]]

    return {group[i]: [held[i][j] for j in range(p)] for i in range(p)}


def allgather_recursive_doubling(
    group: Sequence[int],
    chunks: Mapping[int, np.ndarray],
    tag: str = "allgather",
) -> Schedule:
    """Recursive-doubling (bidirectional exchange) All-Gather.

    Round ``s`` (``s = 0 .. log2(p) - 1``): member ``i`` exchanges all the
    chunks it currently holds with member ``i XOR 2**s``.  Message sizes
    double each round; the total is still ``(1 - 1/p) W`` per processor but
    only ``log2 p`` rounds are needed.  Requires ``p`` to be a power of two.
    """
    group = tuple(group)
    p = len(group)
    if not is_power_of_two(p):
        raise CommunicatorError(
            f"recursive-doubling allgather requires a power-of-two group, got p={p}"
        )
    _check_chunks(group, chunks)
    held: List[Dict[int, np.ndarray]] = [{i: as_block(chunks[group[i]])} for i in range(p)]

    dist = 1
    while dist < p:
        msgs = []
        for i in range(p):
            partner = i ^ dist
            payload = tuple(held[i][j] for j in sorted(held[i]))
            msgs.append(Message(src=group[i], dest=group[partner], payload=payload, tag=tag, empty_ok=True))
        deliveries = yield msgs
        # Snapshot pre-round index sets: held[] mutates as deliveries are
        # applied, and partner pairs are processed in both directions.
        pre_indices = [sorted(held[i].keys()) for i in range(p)]
        for i in range(p):
            partner = i ^ dist
            incoming = deliveries[group[i]]
            for j, arr in zip(pre_indices[partner], incoming):
                held[i][j] = arr
        dist *= 2

    return {group[i]: [held[i][j] for j in range(p)] for i in range(p)}


def allgather_bruck(
    group: Sequence[int],
    chunks: Mapping[int, np.ndarray],
    tag: str = "allgather",
) -> Schedule:
    """Bruck All-Gather: ``ceil(log2 p)`` rounds for *any* group size.

    Round with distance ``d = 1, 2, 4, ...``: member ``i`` sends its first
    ``min(d, p - d)`` accumulated chunks to member ``(i - d) mod p`` and
    receives as many from ``(i + d) mod p``.  After the last round member
    ``i`` holds the chunks of members ``i, i+1, ..., i+p-1 (mod p)``; a
    free local rotation restores group order.  Per-processor bandwidth is
    the optimal ``(1 - 1/p) W`` like the ring, but with logarithmic
    latency even when ``p`` is not a power of two (where recursive
    doubling does not apply).
    """
    group = tuple(group)
    p = len(group)
    _check_chunks(group, chunks)
    held: List[List[np.ndarray]] = [[as_block(chunks[group[i]])] for i in range(p)]

    d = 1
    while d < p:
        count = min(d, p - d)
        msgs = []
        for i in range(p):
            payload = tuple(held[i][:count])
            msgs.append(
                Message(src=group[i], dest=group[(i - d) % p], payload=payload, tag=tag, empty_ok=True)
            )
        deliveries = yield msgs
        for i in range(p):
            held[i].extend(deliveries[group[i]])
        d *= 2

    # Member i's list is [chunk_i, chunk_{i+1}, ..., chunk_{i+p-1}] (mod p):
    # rotate locally into group order (no communication).
    return {
        group[i]: [held[i][(j - i) % p] for j in range(p)] for i in range(p)
    }


def allgather_schedule(
    group: Sequence[int],
    chunks: Mapping[int, np.ndarray],
    algorithm: str = "auto",
    tag: str = "allgather",
) -> Schedule:
    """Dispatch to a concrete All-Gather algorithm.

    ``algorithm`` is ``"ring"``, ``"recursive_doubling"``, ``"bruck"`` or
    ``"auto"`` (recursive doubling when the group size is a power of two —
    fewer rounds at identical bandwidth — otherwise ring).
    """
    schedule = _SCHEDULES[resolve_allgather_algorithm(algorithm, len(tuple(group)))]
    return schedule(group, chunks, tag=tag)


_SCHEDULES = {
    "ring": allgather_ring,
    "recursive_doubling": allgather_recursive_doubling,
    "bruck": allgather_bruck,
}


def resolve_allgather_algorithm(algorithm: str, p: int) -> str:
    """The concrete All-Gather algorithm ``algorithm`` names for ``p`` members."""
    if algorithm == "auto":
        return "recursive_doubling" if is_power_of_two(p) else "ring"
    if algorithm not in _SCHEDULES:
        raise CommunicatorError(f"unknown allgather algorithm {algorithm!r}")
    return algorithm
