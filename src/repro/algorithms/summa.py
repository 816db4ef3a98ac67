"""SUMMA — Scalable Universal Matrix Multiplication Algorithm (baseline).

Van de Geijn & Watts' stationary-``C`` algorithm on a ``pr x pc`` grid:
``A``, ``B`` and ``C`` are block-distributed; the contraction dimension is
processed in panels, and at each stage the owners of the current ``A``
column panel broadcast it along their grid *rows* while the owners of the
current ``B`` row panel broadcast it along their grid *columns*; every
processor accumulates ``C_local += A_panel @ B_panel``.

Panel width is ``gcd(n2/pr, n2/pc)`` blocks so that each panel lies inside
a single block row/column (requires ``pr | n2`` and ``pc | n2``).

Per-processor communication (with the long-message scatter+allgather
broadcast, bandwidth ``~2w``): about ``2 (n1 n2 / pr + n2 n3 / pc) / p*``
— the classic ``O((n1 n2 + n2 n3)/sqrt(P))`` 2D cost on square grids.
SUMMA never attains Theorem 3's constants (it re-broadcasts panels and
never exploits a third grid dimension), which is exactly the gap the
baseline benchmarks display.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional

import numpy as np

from ..collectives.communicator import parallel_broadcast
from ..core.shapes import ProblemShape
from ..exceptions import GridError
from ..machine.backend import as_block, backend_for, empty_block
from ..machine.cost import Cost
from ..machine.machine import Machine
from ..machine.semiring import Semiring, resolve_semiring
from .distributions import block_bounds

__all__ = ["SummaResult", "run_summa"]


@dataclasses.dataclass
class SummaResult:
    """Output of a SUMMA run."""

    C: np.ndarray
    shape: ProblemShape
    pr: int
    pc: int
    stages: int
    cost: Cost
    machine: Machine


def run_summa(
    A: np.ndarray,
    B: np.ndarray,
    pr: int,
    pc: int,
    machine: Optional[Machine] = None,
    broadcast_algorithm: str = "scatter_allgather",
    semiring: Optional[Semiring] = None,
) -> SummaResult:
    """Run SUMMA on a ``pr x pc`` grid (``P = pr * pc`` processors).

    Requires ``pr | n1``, ``pc | n3`` and both ``pr | n2`` and ``pc | n2``
    (so panels align with blocks).  ``semiring`` selects the scalar
    multiply-accumulate (default ``plus_times``); costs are identical for
    every semiring.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> A, B = rng.random((4, 12)), rng.random((12, 6))
    >>> res = run_summa(A, B, 2, 3)
    >>> bool(np.allclose(res.C, A @ B))
    True
    """
    A = as_block(A, dtype=float)
    B = as_block(B, dtype=float)
    sr = resolve_semiring(semiring)
    n1, n2 = A.shape
    n3 = B.shape[1]
    shape = ProblemShape(n1, n2, n3)
    if n1 % pr or n3 % pc or n2 % pr or n2 % pc:
        raise GridError(
            f"SUMMA needs pr | n1, pc | n3, pr | n2 and pc | n2; "
            f"got grid {pr}x{pc} for {shape}"
        )
    P = pr * pc
    if machine is None:
        machine = Machine(P, backend=backend_for(A, B))
    else:
        machine.reset()
        if machine.n_procs != P:
            raise GridError(f"machine has {machine.n_procs} processors, SUMMA needs {P}")

    def rank(i: int, j: int) -> int:
        return i * pc + j

    # Block-distribute all three matrices on the 2D grid.
    for i in range(pr):
        for j in range(pc):
            r = rank(i, j)
            r0, r1 = block_bounds(n1, pr, i)
            c0, c1 = block_bounds(n2, pc, j)
            machine.proc(r).store["A"] = A[r0:r1, c0:c1].copy()
            r0, r1 = block_bounds(n2, pr, i)
            c0, c1 = block_bounds(n3, pc, j)
            machine.proc(r).store["B"] = B[r0:r1, c0:c1].copy()
            machine.proc(r).store["C"] = sr.zeros(
                (block_bounds(n1, pr, i)[1] - block_bounds(n1, pr, i)[0],
                 block_bounds(n3, pc, j)[1] - block_bounds(n3, pc, j)[0]),
                like=A,
            )
    machine.spans.record_event("distribute", f"SUMMA blocks on {pr}x{pc} grid")

    panel = math.gcd(n2 // pr, n2 // pc)
    stages = n2 // panel
    row_groups = [tuple(rank(i, j) for j in range(pc)) for i in range(pr)]
    col_groups = [tuple(rank(i, j) for i in range(pr)) for j in range(pc)]

    for t in range(stages):
        k0, k1 = t * panel, (t + 1) * panel

        # Owners of A's panel columns: grid column jt; broadcast along rows.
        jt = k0 // (n2 // pc)
        a_off = k0 - jt * (n2 // pc)
        a_panels: Dict[int, np.ndarray] = {}
        for i in range(pr):
            holder = rank(i, jt)
            a_panels[holder] = machine.proc(holder).store["A"][:, a_off:a_off + panel]
        if pc > 1:
            a_recv = parallel_broadcast(
                machine, row_groups, [rank(i, jt) for i in range(pr)], a_panels,
                algorithm=broadcast_algorithm, label=f"A panel {t}",
            )
        else:
            a_recv = {rank(i, 0): a_panels[rank(i, 0)] for i in range(pr)}

        # Owners of B's panel rows: grid row it; broadcast along columns.
        it = k0 // (n2 // pr)
        b_off = k0 - it * (n2 // pr)
        b_panels: Dict[int, np.ndarray] = {}
        for j in range(pc):
            holder = rank(it, j)
            b_panels[holder] = machine.proc(holder).store["B"][b_off:b_off + panel, :]
        if pr > 1:
            b_recv = parallel_broadcast(
                machine, col_groups, [rank(it, j) for j in range(pc)], b_panels,
                algorithm=broadcast_algorithm, label=f"B panel {t}",
            )
        else:
            b_recv = {rank(0, j): b_panels[rank(0, j)] for j in range(pc)}

        for i in range(pr):
            for j in range(pc):
                r = rank(i, j)
                a_p = as_block(a_recv[r])
                b_p = as_block(b_recv[r])
                machine.proc(r).store["C"] = sr.add(
                    machine.proc(r).store["C"], sr.matmul(a_p, b_p)
                )
                machine.compute(r, float(a_p.shape[0] * panel * b_p.shape[1]))
    machine.spans.record_event("compute", f"{stages} SUMMA stages of width {panel}")

    C = empty_block((n1, n3), like=A)
    for i in range(pr):
        for j in range(pc):
            r0, r1 = block_bounds(n1, pr, i)
            c0, c1 = block_bounds(n3, pc, j)
            C[r0:r1, c0:c1] = machine.proc(rank(i, j)).store["C"]

    return SummaResult(
        C=C, shape=shape, pr=pr, pc=pc, stages=stages,
        cost=machine.cost, machine=machine,
    )
