"""One-dimensional baseline algorithms.

Two classic 1D schemes, each a standalone implementation (they coincide
with Algorithm 1 on degenerate grids, which the tests exploit as a
cross-check):

``run_row_1d`` — *all-gather-B* algorithm
    ``A`` and ``C`` are row-sharded; ``B`` starts sharded and is
    All-Gathered by everyone.  Per-processor communication
    ``(1 - 1/P) n2 n3`` words.  Communication-optimal exactly when
    ``P <= m/n`` and the largest dimension is ``n1``
    (then it equals Algorithm 1 on the ``P x 1 x 1`` grid).

``run_outer_1d`` — *outer-product* algorithm
    The contraction dimension ``n2`` is sharded: each processor holds a
    column block of ``A`` and a row block of ``B``, computes a full-size
    rank-``n2/P`` contribution to ``C``, and a Reduce-Scatter sums the
    contributions leaving ``C`` row-sharded.  Per-processor communication
    ``(1 - 1/P) n1 n3`` words — optimal when the largest dimension is the
    contraction dimension ``n2`` and ``P <= m/n``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..collectives.communicator import Communicator
from ..core.shapes import ProblemShape
from ..machine.backend import as_block, backend_for, empty_block
from ..machine.cost import Cost
from ..machine.machine import Machine
from ..machine.semiring import Semiring, resolve_semiring
from .distributions import block_bounds, shard_bounds

__all__ = ["OneDResult", "run_row_1d", "run_outer_1d"]


@dataclasses.dataclass
class OneDResult:
    """Output of a 1D baseline run."""

    C: np.ndarray
    shape: ProblemShape
    P: int
    cost: Cost
    predicted_words: float
    machine: Machine


def run_row_1d(
    A: np.ndarray,
    B: np.ndarray,
    P: int,
    machine: Optional[Machine] = None,
    collective_algorithm: str = "auto",
    semiring: Optional[Semiring] = None,
) -> OneDResult:
    """All-gather-B 1D algorithm: row-shard ``A``/``C``, replicate ``B``.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> A, B = rng.random((12, 5)), rng.random((5, 7))
    >>> res = run_row_1d(A, B, 4)
    >>> bool(np.allclose(res.C, A @ B))
    True
    """
    A = as_block(A, dtype=float)
    B = as_block(B, dtype=float)
    sr = resolve_semiring(semiring)
    n1, n2 = A.shape
    n3 = B.shape[1]
    shape = ProblemShape(n1, n2, n3)
    if machine is None:
        machine = Machine(P, backend=backend_for(A, B))
    else:
        machine.reset()
    comm = Communicator(machine, tuple(range(P)))

    # Initial distribution: A rows blocked; B flattened into P shards.
    b_flat = B.reshape(-1)
    for r in range(P):
        r0, r1 = block_bounds(n1, P, r)
        machine.proc(r).store["A_rows"] = A[r0:r1].copy()
        lo, hi = shard_bounds(b_flat.size, P, r)
        machine.proc(r).store["B_shard"] = b_flat[lo:hi].copy()

    gathered = comm.allgather(
        {r: machine.proc(r).store["B_shard"] for r in range(P)},
        algorithm=collective_algorithm,
        label="replicate B",
    )
    C = empty_block((n1, n3), like=A)
    for r in range(P):
        full_b = np.concatenate([c.reshape(-1) for c in gathered[r]]).reshape(n2, n3)
        machine.proc(r).store["B_full"] = full_b
        a_rows = machine.proc(r).store["A_rows"]
        c_rows = sr.matmul(a_rows, full_b)
        machine.proc(r).store["C_rows"] = c_rows
        machine.compute(r, float(a_rows.shape[0] * n2 * n3))
        r0, r1 = block_bounds(n1, P, r)
        C[r0:r1] = c_rows
    machine.spans.record_event("compute", "local GEMM on row shards")

    predicted = n2 * n3 * (P - 1) / P
    return OneDResult(
        C=C, shape=shape, P=P, cost=machine.cost,
        predicted_words=predicted, machine=machine,
    )


def run_outer_1d(
    A: np.ndarray,
    B: np.ndarray,
    P: int,
    machine: Optional[Machine] = None,
    collective_algorithm: str = "auto",
    semiring: Optional[Semiring] = None,
) -> OneDResult:
    """Outer-product 1D algorithm: shard the contraction dimension.

    Each processor multiplies its ``n1 x (n2/P)`` column block of ``A``
    by its ``(n2/P) x n3`` row block of ``B`` and the ``n1 x n3`` partial
    products are Reduce-Scattered (leaving ``C`` evenly sharded).
    """
    A = as_block(A, dtype=float)
    B = as_block(B, dtype=float)
    sr = resolve_semiring(semiring)
    n1, n2 = A.shape
    n3 = B.shape[1]
    shape = ProblemShape(n1, n2, n3)
    if machine is None:
        machine = Machine(P, backend=backend_for(A, B))
    else:
        machine.reset()
    comm = Communicator(machine, tuple(range(P)))

    partials = {}
    for r in range(P):
        k0, k1 = block_bounds(n2, P, r)
        a_cols = A[:, k0:k1].copy()
        b_rows = B[k0:k1].copy()
        machine.proc(r).store["A_cols"] = a_cols
        machine.proc(r).store["B_rows"] = b_rows
        d = sr.matmul(a_cols, b_rows)
        machine.proc(r).store["D"] = d
        machine.compute(r, float(n1 * (k1 - k0) * n3))
        partials[r] = d.reshape(-1)
    machine.spans.record_event("compute", "local rank-(n2/P) outer products")

    rs_alg = {"recursive_doubling": "recursive_halving"}.get(
        collective_algorithm, collective_algorithm
    )
    blocks = {
        r: [partials[r][lo:hi] for lo, hi in
            (shard_bounds(n1 * n3, P, j) for j in range(P))]
        for r in range(P)
    }
    reduced = comm.reduce_scatter(
        blocks, algorithm=rs_alg, label="sum C contributions", op=sr.reduce_op
    )

    flat = empty_block((n1 * n3,), like=A)
    for r in range(P):
        machine.proc(r).store["C_shard"] = as_block(reduced[r]).reshape(-1)
        machine.proc(r).store.free("D")
        lo, hi = shard_bounds(n1 * n3, P, r)
        flat[lo:hi] = reduced[r].reshape(-1)
    C = flat.reshape(n1, n3)

    predicted = n1 * n3 * (P - 1) / P
    return OneDResult(
        C=C, shape=shape, P=P, cost=machine.cost,
        predicted_words=predicted, machine=machine,
    )
