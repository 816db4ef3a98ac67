"""Fox's algorithm (broadcast-multiply-roll, a.k.a. BMR / PUMMA) — baseline.

The other classic 2D algorithm (Fox & Otto 1987; generalized by PUMMA):
on a ``q x q`` grid, stage ``t`` broadcasts the ``A`` block on the
``t``-th generalized diagonal along each grid row, multiplies with the
*resident* ``B`` block, and rolls ``B`` upward by one position.

Compared with Cannon: identical asymptotic cost, but the ``A`` traffic is
a row *broadcast* per stage (one-to-many) instead of a point-to-point
shift, so Fox pays the broadcast overhead (binomial: a ``log q`` factor on
``A``'s words; with the long-message scatter+allgather broadcast, a factor
~2).  Including it in the baseline pool shows that the 2D family's
position against Theorem 3 is robust to implementation flavor.

Requires a ``q x q`` grid with ``q <= min(n1, n2, n3)``; ragged blocks
are supported (blocks move whole, like Cannon).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..collectives.communicator import parallel_broadcast
from ..core.shapes import ProblemShape
from ..exceptions import GridError
from ..machine.backend import as_block, backend_for, empty_block
from ..machine.cost import Cost
from ..machine.machine import Machine
from ..machine.message import Message
from ..machine.semiring import Semiring, resolve_semiring
from .distributions import block_bounds

__all__ = ["FoxResult", "run_fox"]


@dataclasses.dataclass
class FoxResult:
    """Output of a Fox/BMR run."""

    C: np.ndarray
    shape: ProblemShape
    q: int
    cost: Cost
    machine: Machine


def run_fox(
    A: np.ndarray,
    B: np.ndarray,
    q: int,
    machine: Optional[Machine] = None,
    broadcast_algorithm: str = "scatter_allgather",
    semiring: Optional[Semiring] = None,
) -> FoxResult:
    """Run Fox's algorithm on a ``q x q`` grid.

    ``semiring`` selects the scalar operations of the local
    multiply-accumulate (default ``plus_times``); with ``"min_plus"`` this
    is exactly the Fox-Otto all-pairs-shortest-path step (see
    :mod:`repro.algorithms.fox_otto`).  The schedule — and therefore every
    cost counter — is identical for every semiring.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> A, B = rng.random((6, 9)), rng.random((9, 6))
    >>> res = run_fox(A, B, 3)
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
            raise GridError(f"machine has {machine.n_procs} processors, Fox needs {P}")

    def rank(i: int, j: int) -> int:
        return i * q + j

    for i in range(q):
        for j in range(q):
            r = rank(i, j)
            r0, r1 = block_bounds(n1, q, i)
            c0, c1 = block_bounds(n2, q, j)
            machine.proc(r).store["A"] = A[r0:r1, c0:c1].copy()
            r0, r1 = block_bounds(n2, q, i)
            c0, c1 = block_bounds(n3, q, j)
            machine.proc(r).store["B"] = B[r0:r1, c0:c1].copy()
    machine.spans.record_event("distribute", f"Fox blocks on {q}x{q} grid")

    partials: Dict[tuple, np.ndarray] = {}
    row_groups = [tuple(rank(i, j) for j in range(q)) for i in range(q)]
    for t in range(q):
        # Stage t: row i's pivot column is (i + t) mod q.
        if q > 1:
            roots = [rank(i, (i + t) % q) for i in range(q)]
            values = {root: machine.proc(root).store["A"] for root in roots}
            a_recv = parallel_broadcast(
                machine, row_groups, roots, values,
                algorithm=broadcast_algorithm, label=f"A diag {t}",
            )
        else:
            a_recv = {rank(0, 0): machine.proc(rank(0, 0)).store["A"]}

        for i in range(q):
            for j in range(q):
                r = rank(i, j)
                a_blk = as_block(a_recv[r])
                b_blk = machine.proc(r).store["B"]
                prod = sr.matmul(a_blk, b_blk)
                machine.compute(r, float(a_blk.shape[0] * a_blk.shape[1] * b_blk.shape[1]))
                key = (i, j)
                partials[key] = prod if key not in partials else sr.add(partials[key], prod)

        if t < q - 1 and q > 1:
            msgs = []
            for i in range(q):
                for j in range(q):
                    src = rank(i, j)
                    msgs.append(Message(
                        src=src, dest=rank((i - 1) % q, j),
                        payload=machine.proc(src).store["B"], tag="roll B",
                    ))
            for dest, payload in machine.exchange(msgs).items():
                machine.proc(dest).store["B"] = payload
    machine.spans.record_event("compute", f"{q} Fox stages")

    C = empty_block((n1, n3), like=A)
    for i in range(q):
        for j in range(q):
            machine.proc(rank(i, j)).store["C"] = partials[(i, j)]
            r0, r1 = block_bounds(n1, q, i)
            c0, c1 = block_bounds(n3, q, j)
            C[r0:r1, c0:c1] = partials[(i, j)]

    return FoxResult(C=C, shape=shape, q=q, cost=machine.cost, machine=machine)
