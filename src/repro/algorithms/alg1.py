"""Algorithm 1: the communication-optimal parallel matrix multiplication.

The paper's Algorithm 1 on a ``p1 x p2 x p3`` grid, for each processor
``(p1', p2', p3')``:

1. ``A_{p1' p2'} = All-Gather(A_shard, fiber (p1', p2', :))``
2. ``B_{p2' p3'} = All-Gather(B_shard, fiber (:, p2', p3'))``
3. ``D = A_{p1' p2'} @ B_{p2' p3'}``              (local compute)
4. ``C_shard = Reduce-Scatter(D, fiber (p1', :, p3'))``

With the Section 5.2 grid the measured communication equals the Theorem 3
lower bound exactly, proving the constants tight; our simulator reproduces
that equality to the word (see ``benchmarks/bench_alg1_optimality.py``).

The implementation runs every fiber's collective simultaneously (merged
network rounds), uses bandwidth-optimal All-Gather/Reduce-Scatter
algorithms, and performs the real numerical multiplication so the output is
checked against ``A @ B``.

With symbolic operands on a fault-free machine without a memory limit,
and the Reduce-Scatter final phase, nothing per rank needs a Python
object: the run is one rank-array replay (:func:`_replay_symbolic`) that
charges the same rounds, words, flops, spans and peak footprint from
block extents alone.  Every other run moves blocks through the stores.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..collectives.communicator import (
    array_allgather,
    array_reduce_scatter,
    parallel_allgather,
    parallel_alltoall,
    parallel_reduce_scatter,
)
from ..core.shapes import ProblemShape
from ..exceptions import DistributionError
from ..machine.backend import SymbolicBlock, as_block, backend_for
from ..machine.cost import Cost, CostModel
from ..machine.machine import Machine
from ..machine.semiring import Semiring, resolve_semiring
from ..obs.attainment import Attainment, record_attainment
from .cost_models import Alg1CostBreakdown, alg1_cost_terms
from .distributions import (
    assemble_c,
    block_bounds,
    block_extents,
    check_operands,
    distribute_inputs,
    shard_bounds,
    shard_sizes,
)
from .grid import ProcessorGrid

__all__ = ["Alg1Result", "run_alg1"]


def _extent(n: int, parts: int, index: int) -> int:
    lo, hi = block_bounds(n, parts, index)
    return hi - lo


#: The gather-phase algorithm names map onto their reduce-phase duals;
#: Bruck has no Reduce-Scatter dual, so it falls back to "auto".
_REDUCE_DUAL = {"recursive_doubling": "recursive_halving", "bruck": "auto"}


def _store_gathered(machine, grid, axis, gathered, key, block_shape) -> None:
    """Concatenate every rank's gathered chunks into its ``key`` block.

    All members of an ``axis`` fiber gather the same chunks into a block
    of the same shape, ``block_shape(coord)``; every rank owns its copy.
    """
    for fiber in grid.fibers(axis):
        shape = block_shape(grid.coord(fiber[0]))
        for rank in fiber:
            flat = np.concatenate([as_block(ch).reshape(-1) for ch in gathered[rank]])
            machine.proc(rank).store[key] = flat.reshape(shape)


def _fits_int64(a_shape: tuple, b_shape: tuple, grid: ProcessorGrid) -> bool:
    """Whether the largest local product's flop count fits in int64.

    The replay computes per-rank extents and products in int64; larger
    blocks, and operands that are not matrices, take the store path,
    whose Python ints cannot overflow and whose checks name the problem.
    """
    if len(a_shape) != 2 or len(b_shape) != 2:
        return False
    dims = (a_shape[0], a_shape[1], b_shape[1])
    e1, e2, e3 = (-(-n // p) for n, p in zip(dims, grid.dims))
    return e1 * e2 * e3 < 2**63


def _replay_symbolic(
    machine: Machine,
    grid: ProcessorGrid,
    shape: ProblemShape,
    collective_algorithm: str,
    keep_blocks: bool,
    sr: Semiring,
) -> Dict[str, float]:
    """Algorithm 1 on symbolic operands as one rank-array replay.

    Rank ``r`` sits at ``np.unravel_index(r, grid.dims)``, the order of
    ``grid.rank``, so per-rank extents are gathers of the per-block
    extents.  The fibers are rows of reshaped views of the rank cube, in
    the order of ``grid.fibers``.  The measured and explicit-cost spans,
    rounds, per-rank counters and flops are those of the store path; the
    peak footprint follows the store path's put/free sequence.  Returns
    the per-phase critical-path words.
    """
    p1, p2, p3 = grid.dims
    P = grid.size
    c1, c2, c3 = np.unravel_index(np.arange(P), grid.dims)
    e1, e2, e3 = (block_extents(n, p) for n, p in zip(shape.dims, grid.dims))
    a_words = e1[c1] * e2[c2]
    b_words = e2[c2] * e3[c3]
    d_words = e1[c1] * e3[c3]
    a_shard = shard_sizes(a_words, p3, c3)
    b_shard = shard_sizes(b_words, p1, c1)
    machine.spans.record_event("distribute", f"inputs onto grid {grid}")

    cube = np.arange(P).reshape(grid.dims)
    phase_words: Dict[str, float] = {}
    with machine.span("allgather-A", kind="collective") as span_a:
        if p3 > 1:
            G = cube.reshape(-1, p3)
            array_allgather(machine, G, a_shard[G], collective_algorithm, "A blocks")
    phase_words["allgather_a"] = span_a.cost.words

    with machine.span("allgather-B", kind="collective") as span_b:
        if p1 > 1:
            G = cube.transpose(1, 2, 0).reshape(-1, p1)
            array_allgather(machine, G, b_shard[G], collective_algorithm, "B blocks")
    phase_words["allgather_b"] = span_b.cost.words

    with machine.spans.measure("local GEMM D = A_block @ B_block", "compute"):
        machine.compute_ranks(e1[c1] * e2[c2] * e3[c3])

    with machine.span("reduce-scatter-C", kind="collective") as span_c:
        c_words = d_words
        if p2 > 1:
            G = cube.transpose(0, 2, 1).reshape(-1, p2)
            sizes = shard_sizes(d_words[G], p2, np.arange(p2))
            array_reduce_scatter(
                machine, G, sizes, _REDUCE_DUAL.get(collective_algorithm, collective_algorithm),
                "C blocks", op=sr.reduce_op,
            )
            c_words = np.empty(P, dtype=np.int64)
            c_words[G] = sizes
    phase_words["reduce_scatter_c"] = span_c.cost.words

    # What assemble_c checks shard by shard on the store path.
    wrong = np.flatnonzero(c_words != shard_sizes(d_words, p2, c2))
    if wrong.size:
        rank = int(wrong[0])
        raise DistributionError(
            f"shard C_shard at {grid.coord(rank)} has {c_words[rank]} words, "
            f"expected {shard_sizes(d_words[rank], p2, c2[rank])}"
        )

    # Footprints along the store path: shards, then both gathered blocks
    # and D; after the GEMM the blocks go (unless kept) and C_shard joins D.
    held = a_shard + b_shard
    peak = held + a_words + b_words + d_words
    if keep_blocks:
        held = held + a_words + b_words
    peak = np.maximum(peak, held + d_words + c_words)
    machine.note_peak_words(int(peak.max()))
    return phase_words


@dataclasses.dataclass
class Alg1Result:
    """Everything measured from one Algorithm 1 execution.

    Attributes
    ----------
    C:
        The assembled product, numerically equal to ``A @ B`` under the
        data backend (a shape-only descriptor under the symbolic one).
    shape, grid:
        Problem and grid actually run.
    cost:
        Measured critical-path cost (rounds, words, flops).
    predicted:
        The closed-form expression (3) breakdown for comparison.
    phase_words:
        Measured critical-path words of each phase
        (``allgather_a``, ``allgather_b``, ``reduce_scatter_c``).
    peak_memory:
        Largest per-processor peak store footprint (words), for the
        Section 6.2 memory analysis.
    machine:
        The machine the run used (with full span trace, metrics registry
        and counters).
    attainment:
        Bound-attainment gauges for this run: measured words over the
        Theorem 3 bound (and over the memory-dependent bound when the
        machine has a memory limit).  Also published to
        ``machine.metrics`` as ``attainment_ratio`` gauges.
    """

    C: np.ndarray
    shape: ProblemShape
    grid: ProcessorGrid
    cost: Cost
    predicted: Alg1CostBreakdown
    phase_words: Dict[str, float]
    peak_memory: int
    machine: Machine
    attainment: Attainment


def _run_stores(
    machine: Machine,
    grid: ProcessorGrid,
    A: np.ndarray,
    B: np.ndarray,
    collective_algorithm: str,
    keep_blocks: bool,
    final_phase: str,
    sr: Semiring,
):
    """Algorithm 1 through the processors' stores, block by block.

    Returns the problem shape and the per-phase critical-path words; the
    product stays distributed as every rank's ``"C_shard"``.
    """
    shape = distribute_inputs(machine, grid, A, B)
    n1, n2, n3 = shape.dims
    p1, p2, p3 = grid.dims
    phase_words: Dict[str, float] = {}

    # ---- Line 3: All-Gather A blocks along p3-fibers ------------------- #
    ag_alg = collective_algorithm
    with machine.span("allgather-A", kind="collective") as span_a:
        if p3 > 1:
            chunks = {r: machine.proc(r).store["A_shard"] for r in range(grid.size)}
            gathered = parallel_allgather(
                machine, grid.fibers(3), chunks, algorithm=ag_alg, label="A blocks"
            )
        else:
            gathered = {r: [machine.proc(r).store["A_shard"]] for r in range(grid.size)}
        _store_gathered(machine, grid, 3, gathered, "A_block", lambda c: (
            _extent(n1, p1, c[0]), _extent(n2, p2, c[1])))
    phase_words["allgather_a"] = span_a.cost.words

    # ---- Line 4: All-Gather B blocks along p1-fibers ------------------- #
    with machine.span("allgather-B", kind="collective") as span_b:
        if p1 > 1:
            chunks = {r: machine.proc(r).store["B_shard"] for r in range(grid.size)}
            gathered = parallel_allgather(
                machine, grid.fibers(1), chunks, algorithm=ag_alg, label="B blocks"
            )
        else:
            gathered = {r: [machine.proc(r).store["B_shard"]] for r in range(grid.size)}
        _store_gathered(machine, grid, 1, gathered, "B_block", lambda c: (
            _extent(n2, p2, c[1]), _extent(n3, p3, c[2])))
    phase_words["allgather_b"] = span_b.cost.words

    # ---- Line 6: local computation D = A_block @ B_block --------------- #
    with machine.spans.measure("local GEMM D = A_block @ B_block", "compute"):
        for rank in range(grid.size):
            store = machine.proc(rank).store
            a_blk = store["A_block"]
            b_blk = store["B_block"]
            d = sr.matmul(a_blk, b_blk)
            store["D"] = d
            # The paper counts semiring multiply-add pairs: (n1/p1)(n2/p2)(n3/p3).
            machine.compute(rank, float(a_blk.shape[0] * a_blk.shape[1] * b_blk.shape[1]))
            if not keep_blocks:
                store.free("A_block")
                store.free("B_block")

    # ---- Line 8: Reduce-Scatter D along p2-fibers ---------------------- #
    rs_alg = _REDUCE_DUAL.get(collective_algorithm, collective_algorithm)
    with machine.span("reduce-scatter-C", kind="collective") as span_c:
        if p2 > 1:
            blocks = {}
            bounds_cache = {}
            for rank in range(grid.size):
                d_flat = machine.proc(rank).store["D"].reshape(-1)
                bounds = bounds_cache.get(d_flat.size)
                if bounds is None:
                    bounds = [shard_bounds(d_flat.size, p2, j) for j in range(p2)]
                    bounds_cache[d_flat.size] = bounds
                blocks[rank] = [d_flat[lo:hi] for lo, hi in bounds]
            if final_phase == "reduce_scatter":
                reduced = parallel_reduce_scatter(
                    machine, grid.fibers(2), blocks, algorithm=rs_alg, label="C blocks",
                    op=sr.reduce_op,
                )
            elif final_phase == "alltoall":
                exchanged = parallel_alltoall(
                    machine, grid.fibers(2), blocks, label="C blocks (all-to-all)",
                )
                reduced = {}
                for rank in range(grid.size):
                    partials = exchanged[rank]
                    total = as_block(partials[0], dtype=float)
                    for part in partials[1:]:
                        total = sr.add(total, as_block(part, dtype=float))
                    # Local reduction of p2 partials, charged as flops.
                    machine.compute(rank, float(total.size * (len(partials) - 1)))
                    reduced[rank] = total
            else:
                raise ValueError(
                    f"final_phase must be 'reduce_scatter' or 'alltoall', got "
                    f"{final_phase!r}"
                )
        else:
            reduced = {
                r: machine.proc(r).store["D"].reshape(-1).copy() for r in range(grid.size)
            }
        for rank in range(grid.size):
            store = machine.proc(rank).store
            store["C_shard"] = as_block(reduced[rank]).reshape(-1)
            store.free("D")
    phase_words["reduce_scatter_c"] = span_c.cost.words

    return shape, phase_words


def run_alg1(
    A: np.ndarray,
    B: np.ndarray,
    grid: ProcessorGrid,
    machine: Optional[Machine] = None,
    collective_algorithm: str = "auto",
    cost_model: Optional[CostModel] = None,
    keep_blocks: bool = False,
    final_phase: str = "reduce_scatter",
    semiring: Optional[Semiring] = None,
) -> Alg1Result:
    """Run Algorithm 1 on the simulated machine.

    Parameters
    ----------
    A, B:
        Global operands (``n1 x n2`` and ``n2 x n3``).
    grid:
        The ``p1 x p2 x p3`` logical grid; ``grid.size`` processors are used.
        Any grid with ``p_i <= n_i`` runs (ragged blocks are supported);
        the cost matches expression (3) exactly when each ``p_i`` divides
        ``n_i``.
    machine:
        Reuse an existing machine (counters are reset); a fresh one is
        created by default.  Symbolic runs on a machine with no fault
        injector and no memory limit (and the Reduce-Scatter final phase)
        are rank-array replays that leave the stores empty; every count
        is that of the store path.
    collective_algorithm:
        Forwarded to the All-Gather / Reduce-Scatter dispatchers
        (``"auto"``, ``"ring"``, ``"recursive_doubling"`` /
        ``"recursive_halving"``, or ``"bruck"`` — logarithmic-latency
        All-Gather for *any* fiber length, with the Reduce-Scatter falling
        back to its ``"auto"`` choice since no Bruck dual exists).  The
        ``"bruck"`` option is what makes non-power-of-two fibers feasible
        at very large ``P`` under the symbolic backend.
    keep_blocks:
        Keep the gathered ``A``/``B`` blocks in the stores after the local
        multiply instead of freeing them (affects only peak-memory
        reporting semantics; peak already includes them either way).
    final_phase:
        ``"reduce_scatter"`` (the paper's Algorithm 1, default) or
        ``"alltoall"`` — the original Agarwal et al. (1995) formulation,
        which exchanges the partial blocks with an All-to-All and sums
        locally.  Identical bandwidth, but ``p2 - 1`` rounds instead of
        the Reduce-Scatter's ``log2 p2`` — exactly the difference the
        paper points out in Section 5.1.
    semiring:
        Scalar semiring for the local products and the reduction
        (name, :class:`~repro.machine.semiring.Semiring`, or ``None`` =
        ``plus_times``).  Costs are identical for every semiring — all
        charges are shape-derived.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> A, B = rng.random((8, 6)), rng.random((6, 4))
    >>> res = run_alg1(A, B, ProcessorGrid(2, 3, 2))
    >>> bool(np.allclose(res.C, A @ B))
    True
    """
    A = as_block(A, dtype=float)
    B = as_block(B, dtype=float)
    sr = resolve_semiring(semiring)
    if machine is None:
        machine = Machine(grid.size, cost_model=cost_model, backend=backend_for(A, B))
    else:
        machine.reset()

    if (
        type(A) is SymbolicBlock
        and type(B) is SymbolicBlock
        and machine.network.fault_injector is None
        and machine.memory_limit is None
        and final_phase == "reduce_scatter"
        and _fits_int64(A.shape, B.shape, grid)
    ):
        shape = check_operands(machine, grid, A, B)
        phase_words = _replay_symbolic(
            machine, grid, shape, collective_algorithm, keep_blocks, sr
        )
        C = SymbolicBlock((shape.n1, shape.n3))
    else:
        shape, phase_words = _run_stores(
            machine, grid, A, B, collective_algorithm, keep_blocks, final_phase, sr
        )
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
            machine, shape, P=grid.size, algorithm="alg1"
        ),
    )
