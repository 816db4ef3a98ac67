"""Block distributions of matrices onto processor grids.

Algorithm 1 requires (paper, Section 5):

* ``A``'s block ``A_{p1', p2'}`` distributed evenly across the p3-fiber
  ``(p1', p2', :)``;
* ``B``'s block ``B_{p2', p3'}`` distributed evenly across the p1-fiber
  ``(:, p2', p3')``;
* ``C``'s block ``C_{p1', p3'}`` ending up evenly distributed across the
  p2-fiber ``(p1', :, p3')``.

"Any even distribution ... suffices" (Figure 1's caption), so we use the
simplest one: flatten the block row-major and give fiber member ``t`` the
``t``-th of ``p`` nearly equal 1D shards.  Row/column block boundaries use
``numpy.array_split`` semantics, so *any* grid with ``p_i <= n_i`` works —
perfectly even blocks (and exact cost formulas) arise when each ``p_i``
divides ``n_i``.

The helpers here are also reused by the baseline algorithms (2D and 2.5D
grids are special cases with unit dimensions).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..core.shapes import ProblemShape
from ..exceptions import DistributionError
from ..machine.backend import as_block, empty_block
from ..machine.machine import Machine
from .grid import ProcessorGrid

__all__ = [
    "block_bounds",
    "block_extents",
    "block_of",
    "shard_bounds",
    "shard_sizes",
    "check_operands",
    "distribute_inputs",
    "expected_shard_words",
    "shards_divide_evenly",
    "assemble_c",
    "reference_product",
]


def block_bounds(extent: int, parts: int, index: int) -> Tuple[int, int]:
    """Half-open bounds of block ``index`` of ``extent`` split into ``parts``.

    ``numpy.array_split`` semantics: the first ``extent % parts`` blocks get
    one extra element.  Requires ``parts <= extent`` so no block is empty.
    """
    if parts < 1 or index < 0 or index >= parts:
        raise DistributionError(f"bad split: extent={extent}, parts={parts}, index={index}")
    if parts > extent:
        raise DistributionError(
            f"cannot split extent {extent} into {parts} non-empty blocks"
        )
    base, extra = divmod(extent, parts)
    lo = index * base + min(index, extra)
    hi = lo + base + (1 if index < extra else 0)
    return lo, hi


def block_extents(extent: int, parts: int) -> np.ndarray:
    """Sizes of all ``parts`` blocks of :func:`block_bounds`, as an int64 array."""
    if parts < 1 or parts > extent:
        raise DistributionError(
            f"cannot split extent {extent} into {parts} non-empty blocks"
        )
    return shard_sizes(extent, parts, np.arange(parts))


def block_of(matrix: np.ndarray, parts: Tuple[int, int], index: Tuple[int, int]) -> np.ndarray:
    """The 2D block of ``matrix`` at block-index ``index`` of a
    ``parts[0] x parts[1]`` blocking (a view, not a copy)."""
    r0, r1 = block_bounds(matrix.shape[0], parts[0], index[0])
    c0, c1 = block_bounds(matrix.shape[1], parts[1], index[1])
    return matrix[r0:r1, c0:c1]


def shard_bounds(words: int, parts: int, index: int) -> Tuple[int, int]:
    """Bounds of 1D shard ``index`` when ``words`` are split into ``parts``.

    Unlike :func:`block_bounds` empty shards are allowed (``parts`` may
    exceed ``words``), because fibers can be longer than a block has words
    in degenerate tiny problems.
    """
    if parts < 1 or index < 0 or index >= parts:
        raise DistributionError(f"bad shard: words={words}, parts={parts}, index={index}")
    base, extra = divmod(words, parts)
    lo = index * base + min(index, extra)
    hi = lo + base + (1 if index < extra else 0)
    return lo, hi


def shard_sizes(words, parts: int, index) -> np.ndarray:
    """Sizes ``hi - lo`` of :func:`shard_bounds`, vectorised over ``words``
    and ``index`` (int64 arrays or scalars, broadcast together)."""
    base, extra = np.divmod(np.asarray(words, dtype=np.int64), parts)
    return base + (np.asarray(index) < extra)


def expected_shard_words(shape: ProblemShape, grid: ProcessorGrid) -> Dict[str, float]:
    """Average per-processor words of each matrix's initial/final shards.

    With divisible dimensions these are exact:
    ``A``: ``n1 n2 / P``, ``B``: ``n2 n3 / P``, ``C``: ``n1 n3 / P``.
    """
    P = grid.size
    return {
        "A": shape.n1 * shape.n2 / P,
        "B": shape.n2 * shape.n3 / P,
        "C": shape.n1 * shape.n3 / P,
    }


def shards_divide_evenly(shape: ProblemShape, grid: ProcessorGrid) -> bool:
    """True when every Algorithm 1 message is perfectly even.

    Expression (3) matches the *measured* critical path exactly only when,
    in addition to each ``p_i`` dividing ``n_i``, each matrix block's word
    count divides by the fiber it is sharded across: ``p3`` must divide
    ``|A block|``, ``p1`` must divide ``|B block|`` and ``p2`` must divide
    ``|C block|``.  With ragged shards the rounds charge the largest shard
    and the measured cost sits slightly above the formula (the model is
    honest about imbalance).
    """
    if not grid.divides(shape.n1, shape.n2, shape.n3):
        return False
    a_block = (shape.n1 // grid.p1) * (shape.n2 // grid.p2)
    b_block = (shape.n2 // grid.p2) * (shape.n3 // grid.p3)
    c_block = (shape.n1 // grid.p1) * (shape.n3 // grid.p3)
    return (
        a_block % grid.p3 == 0
        and b_block % grid.p1 == 0
        and c_block % grid.p2 == 0
    )


def check_operands(
    machine: Machine, grid: ProcessorGrid, A: np.ndarray, B: np.ndarray
) -> ProblemShape:
    """The problem shape of ``A @ B``, after checking it fits ``grid`` and ``machine``.

    Raises
    ------
    DistributionError
        When the operands do not multiply, a ``p_i`` exceeds ``n_i``, or
        the machine's size is not the grid's.
    """
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise DistributionError(
            f"operand mismatch: A is {A.shape}, B is {B.shape}"
        )
    n1, n2 = A.shape
    n3 = B.shape[1]
    shape = ProblemShape(n1, n2, n3)
    if grid.p1 > n1 or grid.p2 > n2 or grid.p3 > n3:
        raise DistributionError(
            f"grid {grid} too large for problem {shape}: each p_i must be <= n_i"
        )
    if machine.n_procs != grid.size:
        raise DistributionError(
            f"machine has {machine.n_procs} processors but grid {grid} needs {grid.size}"
        )
    return shape


def distribute_inputs(
    machine: Machine,
    grid: ProcessorGrid,
    A: np.ndarray,
    B: np.ndarray,
) -> ProblemShape:
    """Place one copy of ``A`` and ``B`` into the processors' stores.

    Each processor ``(c1, c2, c3)`` receives

    * ``"A_shard"``: shard ``c3`` of the flattened block ``A[c1, c2]``;
    * ``"B_shard"``: shard ``c1`` of the flattened block ``B[c2, c3]``.

    This is the algorithm's *assumed initial distribution* — the lower
    bound allows the algorithm to pick it (Section 5) — so no
    communication is charged.  Returns the problem shape.
    """
    shape = check_operands(machine, grid, A, B)
    for rank in range(grid.size):
        c1, c2, c3 = grid.coord(rank)
        a_block = block_of(A, (grid.p1, grid.p2), (c1, c2)).reshape(-1)
        lo, hi = shard_bounds(a_block.size, grid.p3, c3)
        machine.proc(rank).store["A_shard"] = a_block[lo:hi].copy()

        b_block = block_of(B, (grid.p2, grid.p3), (c2, c3)).reshape(-1)
        lo, hi = shard_bounds(b_block.size, grid.p1, c1)
        machine.proc(rank).store["B_shard"] = b_block[lo:hi].copy()

    machine.spans.record_event("distribute", f"inputs onto grid {grid}")
    return shape


def assemble_c(
    machine: Machine,
    shape: ProblemShape,
    grid: ProcessorGrid,
    key: str = "C_shard",
) -> np.ndarray:
    """Reassemble the global ``C`` from per-processor shards (verification).

    This is a god-view read of the stores used only to check numerical
    correctness; it charges no communication (a real program would leave
    ``C`` distributed, exactly as the lower bound's "one copy of the output"
    accounting assumes).
    """
    sample = machine.proc(0).store[key]
    C = empty_block((shape.n1, shape.n3), like=sample)
    for c1 in range(grid.p1):
        for c3 in range(grid.p3):
            r0, r1 = block_bounds(shape.n1, grid.p1, c1)
            k0, k1 = block_bounds(shape.n3, grid.p3, c3)
            block_words = (r1 - r0) * (k1 - k0)
            flat = empty_block((block_words,), like=sample)
            for c2 in range(grid.p2):
                lo, hi = shard_bounds(block_words, grid.p2, c2)
                shard = machine.proc(grid.rank((c1, c2, c3))).store[key]
                if shard.size != hi - lo:
                    raise DistributionError(
                        f"shard {key} at {(c1, c2, c3)} has {shard.size} words, "
                        f"expected {hi - lo}"
                    )
                flat[lo:hi] = shard.reshape(-1)
            C[r0:r1, k0:k1] = flat.reshape(r1 - r0, k1 - k0)
    return C


def reference_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The numpy reference ``A @ B`` all algorithms are checked against."""
    return as_block(A) @ as_block(B)
