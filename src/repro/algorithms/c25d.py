"""The 2.5D matrix multiplication algorithm of Solomonik & Demmel (baseline).

On a ``q x q x c`` grid (``P = q^2 c``, ``c | q``), the inputs are stored
once on layer 0, replicated ``c`` ways with depth broadcasts, and each
layer executes ``q/c`` of Cannon's shift stages on its own offset of the
contraction index; finally ``C`` contributions are summed across layers
with depth reductions.

Per-processor communication is ``O(n^2 / sqrt(c P))`` for square ``n`` —
interpolating between Cannon (``c = 1``, where this implementation
degenerates to exactly Cannon's schedule) and a 3D algorithm
(``c = P^(1/3)``).  The 2.5D family is the classic way to trade extra
memory (``c`` copies) for less communication in the limited-memory regime
of Section 6.2; the bench suite compares it against Algorithm 1 and the
memory-dependent bound.

The broadcast delivers each block directly to the *skewed* position every
layer needs (the replication and Cannon pre-skew are fused), so layer
``l``'s processor ``(i, j)`` starts holding ``A(i, i + j + l q/c)`` and
``B(i + j + l q/c, j)`` (indices mod ``q``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from ..collectives.communicator import parallel_broadcast
from ..collectives.reduce import reduce_schedule
from ..collectives.schedules import run_schedules
from ..core.shapes import ProblemShape
from ..exceptions import GridError
from ..machine.backend import as_block, backend_for, empty_block
from ..machine.cost import Cost
from ..machine.machine import Machine
from ..machine.message import Message
from ..machine.semiring import Semiring, resolve_semiring
from .distributions import block_bounds

__all__ = ["C25DResult", "run_25d"]


@dataclasses.dataclass
class C25DResult:
    """Output of a 2.5D run."""

    C: np.ndarray
    shape: ProblemShape
    q: int
    c: int
    cost: Cost
    machine: Machine


def _reduce_scatter_gather(group, root, values, machine, op="sum"):
    """Depth reduction as Reduce-Scatter + binomial gather to ``root``.

    Bandwidth ``2 (1 - 1/c) w`` versus the binomial tree's
    ``ceil(log2 c) w`` — the standard long-message reduction.
    """
    import numpy as _np

    from ..collectives.gather import gather_binomial
    from ..collectives.reduce_scatter import reduce_scatter_ring

    group = tuple(group)
    p = len(group)
    shape = as_block(values[group[0]]).shape
    splits = {
        r: _np.array_split(as_block(values[r], dtype=float).reshape(-1), p)
        for r in group
    }
    reduced = yield from reduce_scatter_ring(group, splits, machine=machine, op=op)
    gathered = yield from gather_binomial(group, root, {r: reduced[r] for r in group})
    flat = _np.concatenate([as_block(chunk).reshape(-1) for chunk in gathered[root]])
    out = {r: None for r in group}
    out[root] = flat.reshape(shape)
    return out


def run_25d(
    A: np.ndarray,
    B: np.ndarray,
    q: int,
    c: int,
    machine: Optional[Machine] = None,
    pre_skewed: bool = False,
    reduce_algorithm: str = "binomial",
    semiring: Optional[Semiring] = None,
) -> C25DResult:
    """Run the 2.5D algorithm on a ``q x q x c`` grid.

    Requires ``c | q`` and ``q <= min(n1, n2, n3)`` (ragged blocks are
    supported like in Cannon).

    ``pre_skewed=True`` starts from the Cannon-skewed initial distribution
    (processor ``(i, j, 0)`` owns ``A(i, (j+i) mod q)`` and
    ``B((i+j) mod q, j)``) — a legitimate choice since the lower bound lets
    the algorithm pick its distribution — saving the two skew rounds.
    ``reduce_algorithm`` selects the depth reduction: ``"binomial"``
    (``log2 c`` rounds of full blocks) or ``"reduce_scatter_gather"``
    (bandwidth ``2 (1 - 1/c) w``, better for ``c > 4``).
    ``semiring`` selects the scalar multiply-accumulate and the depth
    reduction's operator (default ``plus_times``); costs are identical
    for every semiring.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> A, B = rng.random((8, 8)), rng.random((8, 8))
    >>> res = run_25d(A, B, q=4, c=2)
    >>> bool(np.allclose(res.C, A @ B))
    True
    """
    A = as_block(A, dtype=float)
    B = as_block(B, dtype=float)
    sr = resolve_semiring(semiring)
    n1, n2 = A.shape
    n3 = B.shape[1]
    shape = ProblemShape(n1, n2, n3)
    if c < 1 or q < 1 or q % c:
        raise GridError(f"2.5D needs c | q, got q={q}, c={c}")
    if q > min(n1, n2, n3):
        raise GridError(f"q={q} exceeds the smallest dimension of {shape}")
    P = q * q * c
    if machine is None:
        machine = Machine(P, backend=backend_for(A, B))
    else:
        machine.reset()
        if machine.n_procs != P:
            raise GridError(f"machine has {machine.n_procs} processors, need {P}")

    def rank(i: int, j: int, l: int) -> int:
        return (i * q + j) * c + l

    stride = q // c

    if pre_skewed:
        # Skewed initial distribution: (i, j, 0) directly owns the block
        # Cannon's skews would have delivered — no communication.
        for i in range(q):
            for j in range(q):
                r = rank(i, j, 0)
                jj = (j + i) % q
                r0, r1 = block_bounds(n1, q, i)
                c0, c1 = block_bounds(n2, q, jj)
                machine.proc(r).store["A0"] = A[r0:r1, c0:c1].copy()
                ii = (i + j) % q
                r0, r1 = block_bounds(n2, q, ii)
                c0, c1 = block_bounds(n3, q, j)
                machine.proc(r).store["B0"] = B[r0:r1, c0:c1].copy()
        machine.spans.record_event(
            "distribute", f"2.5D pre-skewed layer-0 blocks on {q}x{q}x{c} grid"
        )
    else:
        # Layer 0 holds the canonical block distribution.
        for i in range(q):
            for j in range(q):
                r = rank(i, j, 0)
                r0, r1 = block_bounds(n1, q, i)
                c0, c1 = block_bounds(n2, q, j)
                machine.proc(r).store["A0"] = A[r0:r1, c0:c1].copy()
                r0, r1 = block_bounds(n2, q, i)
                c0, c1 = block_bounds(n3, q, j)
                machine.proc(r).store["B0"] = B[r0:r1, c0:c1].copy()
        machine.spans.record_event(
            "distribute", f"2.5D layer-0 blocks on {q}x{q}x{c} grid"
        )

        # Phase 1: Cannon pre-skew on layer 0.  A(i, j) moves left by i so
        # processor (i, j, 0) holds A(i, (j + i) % q); B(i, j) moves up by j.
        msgs = []
        for i in range(q):
            for j in range(q):
                if i % q == 0:
                    continue
                src = rank(i, j, 0)
                msgs.append(Message(
                    src=src, dest=rank(i, (j - i) % q, 0),
                    payload=machine.proc(src).store["A0"], tag="skew A",
                ))
        for dest, payload in machine.exchange(msgs).items():
            machine.proc(dest).store["A0"] = payload
        msgs = []
        for i in range(q):
            for j in range(q):
                if j % q == 0:
                    continue
                src = rank(i, j, 0)
                msgs.append(Message(
                    src=src, dest=rank((i - j) % q, j, 0),
                    payload=machine.proc(src).store["B0"], tag="skew B",
                ))
        for dest, payload in machine.exchange(msgs).items():
            machine.proc(dest).store["B0"] = payload
        machine.spans.record_event("shift", "layer-0 Cannon pre-skews")

    # Phase 2: replicate along skewed depth groups.  Layer l's processor
    # (i, j, l) must start from A(i, (j + i + l*stride) % q), which after
    # the skew resides at layer-0 processor (i, (j + l*stride) % q, 0); so
    # the group rooted at (i, j0, 0) is {(i, (j0 - l*stride) % q, l)}.
    # These groups are disjoint (per layer the map is a bijection) and each
    # contains its root (the l = 0 member), so they broadcast in parallel.
    if c > 1:
        a_groups, a_roots, a_values = [], [], {}
        b_groups, b_roots, b_values = [], [], {}
        for i in range(q):
            for j0 in range(q):
                root = rank(i, j0, 0)
                a_groups.append(tuple(rank(i, (j0 - l * stride) % q, l) for l in range(c)))
                a_roots.append(root)
                a_values[root] = machine.proc(root).store["A0"]
        for i0 in range(q):
            for j in range(q):
                root = rank(i0, j, 0)
                b_groups.append(tuple(rank((i0 - l * stride) % q, j, l) for l in range(c)))
                b_roots.append(root)
                b_values[root] = machine.proc(root).store["B0"]
        a_recv = parallel_broadcast(machine, a_groups, a_roots, a_values, label="replicate A")
        b_recv = parallel_broadcast(machine, b_groups, b_roots, b_values, label="replicate B")
        for grp in a_groups:
            for r in grp:
                machine.proc(r).store["A"] = as_block(a_recv[r])
        for grp in b_groups:
            for r in grp:
                machine.proc(r).store["B"] = as_block(b_recv[r])
    else:
        for i in range(q):
            for j in range(q):
                r = rank(i, j, 0)
                machine.proc(r).store["A"] = machine.proc(r).store["A0"]
                machine.proc(r).store["B"] = machine.proc(r).store["B0"]

    # Each layer runs q/c Cannon stages, shifting within its own layer.
    partials: Dict[Tuple[int, int, int], Optional[np.ndarray]] = {}
    for step in range(stride):
        for l in range(c):
            for i in range(q):
                for j in range(q):
                    r = rank(i, j, l)
                    a_blk = machine.proc(r).store["A"]
                    b_blk = machine.proc(r).store["B"]
                    prod = sr.matmul(a_blk, b_blk)
                    machine.compute(
                        r, float(a_blk.shape[0] * a_blk.shape[1] * b_blk.shape[1])
                    )
                    key = (i, j, l)
                    partials[key] = (
                        prod if key not in partials else sr.add(partials[key], prod)
                    )
        if step < stride - 1:
            msgs = []
            for l in range(c):
                for i in range(q):
                    for j in range(q):
                        src = rank(i, j, l)
                        msgs.append(Message(
                            src=src, dest=rank(i, (j - 1) % q, l),
                            payload=machine.proc(src).store["A"], tag="shift A",
                        ))
            deliveries = machine.exchange(msgs)
            for dest, payload in deliveries.items():
                machine.proc(dest).store["A"] = payload
            msgs = []
            for l in range(c):
                for i in range(q):
                    for j in range(q):
                        src = rank(i, j, l)
                        msgs.append(Message(
                            src=src, dest=rank((i - 1) % q, j, l),
                            payload=machine.proc(src).store["B"], tag="shift B",
                        ))
            deliveries = machine.exchange(msgs)
            for dest, payload in deliveries.items():
                machine.proc(dest).store["B"] = payload
    machine.spans.record_event("compute", f"{stride} Cannon stages per layer")

    # Sum C contributions across depth fibers onto layer 0.
    if c > 1:
        schedules = []
        groups = []
        for i in range(q):
            for j in range(q):
                group = tuple(rank(i, j, l) for l in range(c))
                values = {rank(i, j, l): partials[(i, j, l)] for l in range(c)}
                if reduce_algorithm == "binomial":
                    schedules.append(
                        reduce_schedule(group, rank(i, j, 0), values, machine=machine,
                                        op=sr.reduce_op)
                    )
                elif reduce_algorithm == "reduce_scatter_gather":
                    schedules.append(
                        _reduce_scatter_gather(group, rank(i, j, 0), values, machine,
                                               op=sr.reduce_op)
                    )
                else:
                    raise GridError(
                        f"reduce_algorithm must be 'binomial' or "
                        f"'reduce_scatter_gather', got {reduce_algorithm!r}"
                    )
                groups.append(group)
        before = machine.cost
        results = run_schedules(machine, schedules)
        machine.spans.record_event(
            "reduce", "sum C across layers", groups=tuple(groups),
            cost=machine.cost - before,
        )
        summed: Dict[Tuple[int, int], np.ndarray] = {}
        for res, group in zip(results, groups):
            root = group[0]
            i, j = root // (q * c), (root // c) % q
            summed[(i, j)] = res[root]
    else:
        summed = {(i, j): partials[(i, j, 0)] for i in range(q) for j in range(q)}

    C = empty_block((n1, n3), like=A)
    for i in range(q):
        for j in range(q):
            machine.proc(rank(i, j, 0)).store["C"] = summed[(i, j)]
            r0, r1 = block_bounds(n1, q, i)
            c0, c1 = block_bounds(n3, q, j)
            C[r0:r1, c0:c1] = summed[(i, j)]

    return C25DResult(C=C, shape=shape, q=q, c=c, cost=machine.cost, machine=machine)
