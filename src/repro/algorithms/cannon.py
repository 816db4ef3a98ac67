"""Cannon's algorithm on a square 2D grid (baseline).

The classic systolic algorithm (1969): on a ``q x q`` grid,

1. skew ``A`` — block ``(i, j)`` moves left by ``i`` positions;
2. skew ``B`` — block ``(i, j)`` moves up by ``j`` positions;
3. repeat ``q`` times: multiply-accumulate the resident blocks, then shift
   ``A`` left by one and ``B`` up by one.

Every shift is a single network round (each processor sends one block and
receives one).  Per-processor communication: the skews cost at most
``n1 n2/q^2 + n2 n3/q^2`` and the ``q - 1`` shifts cost
``(q - 1)(n1 n2 + n2 n3)/q^2`` — asymptotically ``(n1 n2 + n2 n3)/q``,
the classic 2D cost.  Cannon never communicates ``C``, so it beats
Algorithm 1 nowhere but matches its ``q x 1 x q``-style costs on square
problems up to constants; the bench suite uses it as the "practical 2D"
reference point alongside SUMMA.

Requires ``P = q^2`` and works for any dimensions with ``q <= min(n_i)``
(ragged blocks supported; skews/shifts always move whole resident blocks).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..core.shapes import ProblemShape
from ..exceptions import GridError
from ..machine.backend import as_block, backend_for, empty_block
from ..machine.cost import Cost
from ..machine.machine import Machine
from ..machine.message import Message
from ..machine.semiring import Semiring, resolve_semiring
from .distributions import block_bounds

__all__ = ["CannonResult", "run_cannon", "cannon_predicted_words"]


@dataclasses.dataclass
class CannonResult:
    """Output of a Cannon run."""

    C: np.ndarray
    shape: ProblemShape
    q: int
    cost: Cost
    predicted_words: float
    machine: Machine


def cannon_predicted_words(shape: ProblemShape, q: int) -> float:
    """Critical-path words of Cannon on a ``q x q`` grid (divisible dims).

    Two skews of one block each plus ``q - 1`` shifts of two blocks each,
    all rounds charging the larger of the ``A``/``B`` block sizes:

        ``(q + 1) * max(n1 n2, n2 n3) / q^2``  (critical path)

    but per-processor *volume* is ``(q + 1)(n1 n2 + n2 n3)/q^2``.  This
    helper returns the critical-path figure used against measurements.
    """
    a_block = shape.n1 * shape.n2 / (q * q)
    b_block = shape.n2 * shape.n3 / (q * q)
    # Skews: one round moving A blocks, one moving B blocks.  Shifts: each
    # of the q-1 steps does one A round and one B round.
    return q * a_block + q * b_block  # (1 skew + (q-1) shifts) per matrix


def _rotate(
    machine: Machine,
    grid_rank: Dict[tuple, int],
    q: int,
    key: str,
    axis: int,
    amounts: Dict[tuple, int],
) -> None:
    """Rotate stored blocks along grid rows (axis=1) or columns (axis=0).

    ``amounts[(i, j)]`` gives how many positions the block at ``(i, j)``
    moves (leftward for axis=1, upward for axis=0).  Each distinct amount
    is applied as its own sequence of single-step rounds would be wasteful;
    instead each processor sends its block directly to its destination —
    still one send and one receive per processor per round because the
    rotation is a permutation.
    """
    msgs: List[Message] = []
    for (i, j), shift in amounts.items():
        shift = shift % q
        if shift == 0:
            continue
        src = grid_rank[(i, j)]
        if axis == 1:
            dest = grid_rank[(i, (j - shift) % q)]
        else:
            dest = grid_rank[((i - shift) % q, j)]
        msgs.append(Message(src=src, dest=dest, payload=machine.proc(src).store[key], tag=key))
    if not msgs:
        return
    deliveries = machine.exchange(msgs)
    for dest, payload in deliveries.items():
        machine.proc(dest).store[key] = payload


def run_cannon(
    A: np.ndarray,
    B: np.ndarray,
    q: int,
    machine: Optional[Machine] = None,
    semiring: Optional[Semiring] = None,
) -> CannonResult:
    """Run Cannon's algorithm on a ``q x q`` grid.

    ``semiring`` selects the scalar multiply-accumulate (default
    ``plus_times``); the systolic schedule and all costs are identical
    for every semiring.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> A, B = rng.random((6, 9)), rng.random((9, 6))
    >>> res = run_cannon(A, B, 3)
    >>> bool(np.allclose(res.C, A @ B))
    True
    """
    A = as_block(A, dtype=float)
    B = as_block(B, dtype=float)
    sr = resolve_semiring(semiring)
    n1, n2 = A.shape
    n3 = B.shape[1]
    shape = ProblemShape(n1, n2, n3)
    if q < 1:
        raise GridError(f"grid side q must be positive, got {q}")
    if q > min(n1, n2, n3):
        raise GridError(f"q={q} exceeds the smallest dimension of {shape}")
    P = q * q
    if machine is None:
        machine = Machine(P, backend=backend_for(A, B))
    else:
        machine.reset()
        if machine.n_procs != P:
            raise GridError(f"machine has {machine.n_procs} processors, Cannon needs {P}")

    grid_rank = {(i, j): i * q + j for i in range(q) for j in range(q)}

    # Block-distribute A (n2 split by columns of the grid), B (n2 by rows).
    for (i, j), r in grid_rank.items():
        r0, r1 = block_bounds(n1, q, i)
        c0, c1 = block_bounds(n2, q, j)
        machine.proc(r).store["A"] = A[r0:r1, c0:c1].copy()
        r0, r1 = block_bounds(n2, q, i)
        c0, c1 = block_bounds(n3, q, j)
        machine.proc(r).store["B"] = B[r0:r1, c0:c1].copy()
        # The (i, j) processor owns C block (i, j); accumulated over stages.
    machine.spans.record_event("distribute", f"Cannon blocks on {q}x{q} grid")

    # Initial skews: A(i, j) -> left by i; B(i, j) -> up by j.
    _rotate(machine, grid_rank, q, "A", axis=1,
            amounts={(i, j): i for i in range(q) for j in range(q)})
    _rotate(machine, grid_rank, q, "B", axis=0,
            amounts={(i, j): j for i in range(q) for j in range(q)})
    machine.spans.record_event("shift", "initial skews")

    # q multiply-accumulate + shift stages.
    partials: Dict[tuple, np.ndarray] = {}
    for step in range(q):
        for (i, j), r in grid_rank.items():
            a_blk = machine.proc(r).store["A"]
            b_blk = machine.proc(r).store["B"]
            prod = sr.matmul(a_blk, b_blk)
            machine.compute(r, float(a_blk.shape[0] * a_blk.shape[1] * b_blk.shape[1]))
            if (i, j) in partials:
                partials[(i, j)] = sr.add(partials[(i, j)], prod)
            else:
                partials[(i, j)] = prod
        if step < q - 1:
            ones = {(i, j): 1 for i in range(q) for j in range(q)}
            _rotate(machine, grid_rank, q, "A", axis=1, amounts=ones)
            _rotate(machine, grid_rank, q, "B", axis=0, amounts=ones)
    machine.spans.record_event("compute", f"{q} Cannon stages")

    C = empty_block((n1, n3), like=A)
    for (i, j), r in grid_rank.items():
        machine.proc(r).store["C"] = partials[(i, j)]
        r0, r1 = block_bounds(n1, q, i)
        c0, c1 = block_bounds(n3, q, j)
        C[r0:r1, c0:c1] = partials[(i, j)]

    return CannonResult(
        C=C, shape=shape, q=q, cost=machine.cost,
        predicted_words=cannon_predicted_words(shape, q) if
        (n1 % q == 0 and n2 % q == 0 and n3 % q == 0) else float("nan"),
        machine=machine,
    )
