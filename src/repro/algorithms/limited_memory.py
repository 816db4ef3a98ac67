"""Memory-constrained variant of Algorithm 1 (Section 6.2's remark).

The paper notes that for 1D and 2D grids, "Alg. 1 can be adapted to reduce
the temporary memory required to a negligible amount at the expense of
higher latency cost but without affecting the bandwidth cost".  This module
implements that adaptation and demonstrates the claim executably.

Instead of All-Gathering the *entire* ``A`` and ``B`` blocks before the
local multiply, the gathered fibers are processed in ``chunks`` pieces:

1. All-Gather the ``t``-th slice of the ``B`` block along the p1-fiber;
2. multiply the local ``A`` panel columns against it, accumulating into a
   local partial ``D``;
3. free the slice and continue.

Each slice's All-Gather moves ``(1 - 1/p1) |B block| / chunks`` words, so
the total bandwidth is unchanged while the peak temporary footprint drops
by roughly the chunk factor; the latency grows by the same factor (one
collective per chunk).  The implementation supports chunking the
contraction dimension, which covers the 1D/2D-grid cases the paper's
remark targets (for 3D grids the output temporaries themselves dominate
and chunking cannot help — also asserted by the tests).

For simplicity this variant requires a 2D grid (``p3 == 1``) with even
divisions; the general function :func:`run_alg1_chunked` falls back to the
plain algorithm when ``chunks == 1``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..collectives.communicator import parallel_allgather, parallel_reduce_scatter
from ..core.shapes import ProblemShape
from ..exceptions import GridError
from ..machine.backend import as_block, backend_for
from ..machine.machine import Machine
from ..machine.semiring import Semiring, resolve_semiring
from ..obs.attainment import record_attainment
from .alg1 import Alg1Result, run_alg1
from .cost_models import alg1_cost_terms
from .distributions import (
    assemble_c,
    block_bounds,
    distribute_inputs,
    shard_bounds,
)
from .grid import ProcessorGrid

__all__ = ["run_alg1_chunked"]


def run_alg1_chunked(
    A: np.ndarray,
    B: np.ndarray,
    grid: ProcessorGrid,
    chunks: int = 1,
    machine: Optional[Machine] = None,
    semiring: Optional[Semiring] = None,
) -> Alg1Result:
    """Algorithm 1 with the contraction dimension gathered in ``chunks`` pieces.

    Requires ``grid.p3 == 1`` (a 1D or 2D grid — the regime where the
    Section 6.2 remark applies), ``chunks`` dividing the per-processor
    contraction extent ``n2 / p2``, and even blocks.

    Same bandwidth as :func:`~repro.algorithms.alg1.run_alg1`, ``chunks``
    times the collective latency, and a peak temporary footprint reduced
    by roughly the chunk factor.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> A, B = rng.random((16, 8)), rng.random((8, 4))
    >>> res = run_alg1_chunked(A, B, ProcessorGrid(4, 2, 1), chunks=2)
    >>> bool(np.allclose(res.C, A @ B))
    True
    """
    A = as_block(A, dtype=float)
    B = as_block(B, dtype=float)
    sr = resolve_semiring(semiring)
    if chunks == 1:
        return run_alg1(A, B, grid, machine=machine, semiring=sr)
    if grid.p3 != 1:
        raise GridError(
            f"the chunked variant targets 1D/2D grids (p3 == 1); got {grid}. "
            f"On 3D grids the output temporaries dominate and chunking the "
            f"gather cannot reduce the footprint (Section 6.2)."
        )
    n1, n2 = A.shape
    n3 = B.shape[1]
    shape = ProblemShape(n1, n2, n3)
    if n1 % grid.p1 or n2 % grid.p2:
        raise GridError(f"grid {grid} must divide the dimensions of {shape}")
    local_k = n2 // grid.p2
    if chunks < 1 or local_k % chunks:
        raise GridError(
            f"chunks={chunks} must divide the local contraction extent {local_k}"
        )

    if machine is None:
        machine = Machine(grid.size, backend=backend_for(A, B))
    else:
        machine.reset()

    distribute_inputs(machine, grid, A, B)
    p1, p2, _ = grid.dims
    phase_words = {"allgather_a": 0.0, "allgather_b": 0.0, "reduce_scatter_c": 0.0}

    # p3 == 1 means the A block is already local: reshape the shard.
    for rank in range(grid.size):
        c1, c2, _ = grid.coord(rank)
        r0, r1 = block_bounds(n1, p1, c1)
        k0, k1 = block_bounds(n2, p2, c2)
        store = machine.proc(rank).store
        store["A_block"] = store["A_shard"].reshape(r1 - r0, k1 - k0)
        store["D"] = sr.zeros((r1 - r0, n3), like=A)

    # The B block (local_k x n3) is gathered slice by slice.  The variant
    # picks a *chunk-aligned* initial distribution (the lower bound lets the
    # algorithm choose it): each fiber member owns 1/p1-th of every chunk's
    # rows, so slice t's All-Gather sources exactly the member's own data.
    # We materialize those shares from the global operand for brevity; the
    # words match the stored "B_shard" count, so the accounting is honest.
    step = local_k // chunks
    before = machine.cost
    for t in range(chunks):
        chunk_shards = {}
        for rank in range(grid.size):
            c1, c2, _ = grid.coord(rank)
            k0, k1 = block_bounds(n2, p2, c2)
            b_block_rows = B[k0 + t * step:k0 + (t + 1) * step, :]
            flat = b_block_rows.reshape(-1)
            lo, hi = shard_bounds(flat.size, p1, c1)
            chunk_shards[rank] = flat[lo:hi].copy()
        if p1 > 1:
            gathered = parallel_allgather(
                machine, grid.fibers(1), chunk_shards, label=f"B slice {t}",
            )
        else:
            gathered = {r: [chunk_shards[r]] for r in range(grid.size)}
        for rank in range(grid.size):
            store = machine.proc(rank).store
            flat = np.concatenate([as_block(ch).reshape(-1) for ch in gathered[rank]])
            b_slice = flat.reshape(step, n3)
            store["B_slice"] = b_slice
            a_block = store["A_block"]
            a_panel = a_block[:, t * step:(t + 1) * step]
            store["D"] = sr.add(store["D"], sr.matmul(a_panel, b_slice))
            machine.compute(rank, float(a_panel.shape[0] * step * n3))
            store.free("B_slice")
    phase_words["allgather_b"] = (machine.cost - before).words
    machine.spans.record_event("compute", f"chunked gather-multiply, {chunks} slices")

    # Reduce-Scatter D along p2-fibers, exactly as in the plain algorithm.
    before = machine.cost
    if p2 > 1:
        blocks = {}
        for rank in range(grid.size):
            d_flat = machine.proc(rank).store["D"].reshape(-1)
            blocks[rank] = [
                d_flat[lo:hi]
                for lo, hi in (shard_bounds(d_flat.size, p2, j) for j in range(p2))
            ]
        reduced = parallel_reduce_scatter(
            machine, grid.fibers(2), blocks, label="C blocks", op=sr.reduce_op,
        )
    else:
        reduced = {r: machine.proc(r).store["D"].reshape(-1).copy()
                   for r in range(grid.size)}
    for rank in range(grid.size):
        store = machine.proc(rank).store
        store["C_shard"] = as_block(reduced[rank]).reshape(-1)
        store.free("D")
        store.free("A_block")
    phase_words["reduce_scatter_c"] = (machine.cost - before).words

    C = assemble_c(machine, shape, grid)
    return Alg1Result(
        C=C,
        shape=shape,
        grid=grid,
        cost=machine.cost,
        predicted=alg1_cost_terms(shape, grid),
        phase_words=phase_words,
        peak_memory=machine.peak_memory_words(),
        machine=machine,
        attainment=record_attainment(
            machine, shape, P=grid.size, algorithm="alg1_limited_memory"
        ),
    )
