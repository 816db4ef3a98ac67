"""ABFT checksum-encoded matrix multiplication: survive a rank failure.

Algorithm-based fault tolerance (Huang & Abraham 1984) encodes the
operands with checksums *before* the multiplication so that the partial
results a dead processor held can be reconstructed from the survivors —
no checkpoint, no global restart.  This module ships checksum-encoded
variants of the repo's two workhorse schedules:

``summa_abft``
    SUMMA on a ``pr x pc`` grid extended with one **checksum row** of
    processors: row ``pr`` owns ``S_j = sum_i A_{ij}``, so its stationary
    ``C`` blocks satisfy ``C-hat_j = sum_i C_{ij}`` at *every* stage
    boundary — the checksum row rides the unmodified SUMMA schedule.  When
    a rank dies mid-run, its ``A`` block and accumulated ``C`` block are
    both linear combinations of what its grid column's survivors hold;
    its stationary ``B`` block (not covered by the row checksum) is
    replicated to a buddy in one charged permutation round at encode time.

``alg1_abft``
    Algorithm 1 with **checksum shards**: each All-Gather fiber all-reduces
    its input shards at encode time (``cks = sum over the fiber``), so a
    dead rank's shard equals ``cks - sum(surviving shards)``.  Fibers of
    length 1 fall back to buddy replication.  After reconstruction the
    four phases simply re-run — shards are never mutated, so the redo is
    exact.

Accounting contract (the quadchotomy's "reconstructed" leg):

* Encoding is charged: the checksum all-reduces / buddy replication rounds
  appear in rounds, words and flops — this is the ABFT overhead the
  survivability report compares against the Theorem 3 bound.
* The *initial* checksum-row contents (``S_j``) and block layout are set
  up conductor-side for free, mirroring the repo-wide "assumed initial
  distribution" convention (:func:`~repro.algorithms.distributions.distribute_inputs`).
* Reconstruction runs on the :meth:`~repro.machine.recovery.RecoveryManager.fence`
  channel: fully charged, not re-faulted (the single-failure model), and
  attributed to ``words_recovered`` together with the wasted partial
  attempt, so ``measured == fault-free + words_resent + words_recovered``
  holds exactly.
* Fault-free runs never touch the recovery path and their costs are the
  closed forms in :mod:`repro.analysis.oracle`.

Checksum reconstruction needs additive inverses, so both variants refuse
non-ring semirings (``min_plus`` has no subtraction) with a
:class:`~repro.exceptions.SemiringError`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..collectives.communicator import (
    parallel_allgather,
    parallel_allreduce,
    parallel_broadcast,
    parallel_reduce_scatter,
)
from ..collectives.schedules import is_power_of_two
from ..core.shapes import ProblemShape
from ..exceptions import (
    FaultDetectedError,
    GridError,
    RankFailedError,
    SemiringError,
)
from ..machine.backend import SymbolicBlock, as_block, backend_for, empty_block
from ..machine.cost import Cost
from ..machine.machine import Machine
from ..machine.message import Message
from ..machine.recovery import RecoveryManager
from ..machine.semiring import Semiring, resolve_semiring
from .distributions import (
    assemble_c,
    block_bounds,
    distribute_inputs,
    shard_bounds,
)
from .grid import ProcessorGrid
from .grid_selection import select_grid, sorted_divisors

__all__ = [
    "ABFT_ALGORITHMS",
    "AbftResult",
    "abft_summa_grid",
    "alg1_abft_grid",
    "run_alg1_abft",
    "run_summa_abft",
]

#: Registry names whose runs self-heal rank failures in place (no external
#: checkpoint/restart wrapper needed).
ABFT_ALGORITHMS: Tuple[str, ...] = ("alg1_abft", "summa_abft")


def _require_ring(sr: Semiring, what: str) -> None:
    if sr.name != "plus_times":
        raise SemiringError(
            f"{what} reconstructs lost blocks as checksum differences, which "
            f"needs additive inverses; the {sr.name!r} semiring is not a ring"
        )


def _combine(blocks):
    """Sum of same-shaped blocks (numpy or symbolic)."""
    total = blocks[0]
    for blk in blocks[1:]:
        total = total + blk
    return total


@dataclasses.dataclass
class AbftResult:
    """Output of one ABFT-encoded run.

    ``recovered`` counts the rank-failure reconstructions the run absorbed
    (0 on a fault-free run, whose cost then equals the oracle closed form
    exactly).
    """

    C: np.ndarray
    shape: ProblemShape
    cost: Cost
    machine: Machine
    recovered: int


# ---------------------------------------------------------------------- #
# grid choosers (shared with the analytic oracle)                        #
# ---------------------------------------------------------------------- #


def abft_summa_grid(shape: ProblemShape, P: int) -> Optional[Tuple[int, int]]:
    """Most balanced ``(pr, pc)`` with ``(pr + 1) * pc == P`` for ABFT SUMMA.

    The grid spends one full processor row on checksums, so ``pr`` real
    rows plus the checksum row must exactly tile ``P``.  Divisibility
    mirrors SUMMA's (``pr | n1``, ``pc | n3``, ``pc | n2``) with the panel
    constraint on the *extended* row count: ``(pr + 1) | n2``.  Public
    because the oracle must predict costs for exactly the grid the
    registry run would pick; ``None`` when no feasible grid exists.
    """
    best = None
    # qr = pr + 1 must divide P, so scan the divisors >= 2 ascending —
    # the same candidates, in the same order, as the historical
    # range(1, P) scan over pr.
    for qr in sorted_divisors(P):
        if qr == 1:
            continue
        pr = qr - 1
        pc = P // qr
        if shape.n1 % pr or shape.n2 % qr or shape.n2 % pc or shape.n3 % pc:
            continue
        score = abs(qr - pc)
        if best is None or score < best[0]:
            best = (score, pr, pc)
    return None if best is None else (best[1], best[2])


def alg1_abft_grid(shape: ProblemShape, P: int) -> Optional[ProcessorGrid]:
    """The Section 5.2 grid, when ABFT encoding is feasible on it.

    Checksum shards are built with recursive-doubling all-reduces over the
    All-Gather fibers, so any fiber longer than 1 must be a power of two
    and must divide its shard evenly; buddy replication (the length-1
    fallback) needs ``P >= 2``.  Shared with the oracle; ``None`` when
    infeasible.
    """
    if P < 2:
        return None
    try:
        choice = select_grid(shape, P)
    except Exception:
        return None
    g = choice.grid
    if not (g.p1 <= shape.n1 and g.p2 <= shape.n2 and g.p3 <= shape.n3):
        return None
    if not g.divides(*shape.dims):
        return None
    a_block = (shape.n1 // g.p1) * (shape.n2 // g.p2)
    b_block = (shape.n2 // g.p2) * (shape.n3 // g.p3)
    if g.p3 > 1 and (not is_power_of_two(g.p3) or a_block % g.p3):
        return None
    if g.p1 > 1 and (not is_power_of_two(g.p1) or b_block % g.p1):
        return None
    return g


# ---------------------------------------------------------------------- #
# SUMMA with a checksum row                                              #
# ---------------------------------------------------------------------- #


def run_summa_abft(
    A: np.ndarray,
    B: np.ndarray,
    pr: int,
    pc: int,
    machine: Optional[Machine] = None,
    semiring: Optional[Semiring] = None,
) -> AbftResult:
    """SUMMA on ``pr`` real rows plus one checksum row (``P = (pr+1) pc``).

    Fault-free, the schedule is exactly SUMMA on the extended
    ``(pr+1) x pc`` grid after one charged permutation round replicating
    each rank's stationary ``B`` block to its column buddy.  Under an
    ambient fault injector whose model carries a
    :class:`~repro.machine.faults.RecoveryConfig`, a single rank failure
    is absorbed: the dead rank's ``A`` and ``C`` blocks are reconstructed
    as checksum differences over its grid column's survivors, its ``B``
    block is fetched from the buddy, and the interrupted stage re-runs.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> A, B = rng.random((4, 6)), rng.random((6, 4))
    >>> res = run_summa_abft(A, B, 2, 2)
    >>> bool(np.allclose(res.C, A @ B))
    True
    """
    A = as_block(A, dtype=float)
    B = as_block(B, dtype=float)
    sr = resolve_semiring(semiring)
    _require_ring(sr, "ABFT SUMMA")
    n1, n2 = A.shape
    n3 = B.shape[1]
    shape = ProblemShape(n1, n2, n3)
    qr = pr + 1
    if pr < 1 or pc < 1:
        raise GridError(f"ABFT SUMMA needs pr >= 1 and pc >= 1, got {pr}x{pc}")
    if n1 % pr or n3 % pc or n2 % qr or n2 % pc:
        raise GridError(
            f"ABFT SUMMA needs pr | n1, pc | n3, (pr+1) | n2 and pc | n2; "
            f"got real grid {pr}x{pc} (+1 checksum row) for {shape}"
        )
    P = qr * pc
    if machine is None:
        machine = Machine(P, backend=backend_for(A, B))
    else:
        machine.reset()
        if machine.n_procs != P:
            raise GridError(
                f"machine has {machine.n_procs} processors, ABFT SUMMA needs "
                f"{P} (= ({pr}+1) x {pc})"
            )

    def rank(i: int, j: int) -> int:
        return i * pc + j

    a_rows, a_cols = n1 // pr, n2 // pc
    b_rows, c_cols = n2 // qr, n3 // pc

    def _distribute() -> None:
        # Conductor-side and free, like every initial distribution in the
        # repo; the checksum row's S_j = sum_i A_ij is part of that layout.
        for j in range(pc):
            col_blocks = []
            for i in range(pr):
                blk = as_block(
                    A[i * a_rows:(i + 1) * a_rows, j * a_cols:(j + 1) * a_cols]
                ).copy()
                col_blocks.append(blk)
                machine.proc(rank(i, j)).store["A"] = blk
            machine.proc(rank(pr, j)).store["A"] = _combine(col_blocks)
        for i in range(qr):
            for j in range(pc):
                machine.proc(rank(i, j)).store["B"] = as_block(
                    B[i * b_rows:(i + 1) * b_rows, j * c_cols:(j + 1) * c_cols]
                ).copy()
        for i in range(qr):
            for j in range(pc):
                machine.proc(rank(i, j)).store["C"] = sr.zeros(
                    (a_rows, c_cols), like=A
                )
        machine.spans.record_event(
            "distribute",
            f"ABFT SUMMA blocks on {pr}x{pc} grid + checksum row",
        )

    def _encode() -> None:
        # The stationary B blocks are outside the row checksum's span, so
        # they get a buddy replica: one charged permutation round down
        # each grid column, (i, j) -> ((i+1) mod (pr+1), j).
        with machine.span("abft-encode", kind="recovery"):
            msgs = [
                Message(
                    rank(i, j), rank((i + 1) % qr, j),
                    machine.proc(rank(i, j)).store["B"], tag="abft-b-copy",
                )
                for i in range(qr) for j in range(pc)
            ]
            deliveries = machine.exchange(msgs)
            for dest, payload in deliveries.items():
                machine.proc(dest).store["B_ckpt"] = as_block(payload)

    panel = math.gcd(b_rows, a_cols)
    stages = n2 // panel
    row_groups = [tuple(rank(i, j) for j in range(pc)) for i in range(qr)]
    col_groups = [tuple(rank(i, j) for i in range(qr)) for j in range(pc)]

    def _stage(t: int) -> None:
        # One SUMMA stage on the extended grid; local C accumulation only
        # happens after both broadcasts succeed, so an interrupted stage
        # leaves every store exactly at the stage-(t-1) boundary and the
        # redo is exact.
        k0 = t * panel
        jt = k0 // a_cols
        a_off = k0 - jt * a_cols
        a_panels: Dict[int, np.ndarray] = {}
        for i in range(qr):
            holder = rank(i, jt)
            a_panels[holder] = machine.proc(holder).store["A"][:, a_off:a_off + panel]
        if pc > 1:
            a_recv = parallel_broadcast(
                machine, row_groups, [rank(i, jt) for i in range(qr)], a_panels,
                algorithm="scatter_allgather", label=f"A panel {t}",
            )
        else:
            a_recv = {rank(i, 0): a_panels[rank(i, 0)] for i in range(qr)}
        it = k0 // b_rows
        b_off = k0 - it * b_rows
        b_panels: Dict[int, np.ndarray] = {}
        for j in range(pc):
            holder = rank(it, j)
            b_panels[holder] = machine.proc(holder).store["B"][b_off:b_off + panel, :]
        # qr = pr + 1 >= 2, so the column broadcast always runs.
        b_recv = parallel_broadcast(
            machine, col_groups, [rank(it, j) for j in range(pc)], b_panels,
            algorithm="scatter_allgather", label=f"B panel {t}",
        )
        for i in range(qr):
            for j in range(pc):
                r = rank(i, j)
                a_p = as_block(a_recv[r])
                b_p = as_block(b_recv[r])
                store = machine.proc(r).store
                store["C"] = sr.add(store["C"], sr.matmul(a_p, b_p))
                machine.compute(r, float(a_p.shape[0] * panel * b_p.shape[1]))

    def _reconstruct(dead: int, encoded: bool) -> None:
        i0, j0 = divmod(dead, pc)
        mgr.revive(dead)
        store = machine.proc(dead).store
        if not encoded:
            # Death before any replica existed: every store is still in
            # its (free) initial-distribution state, so restage it the
            # same way and redo the encode round.
            _distribute()
            return
        with machine.span("abft-reconstruct", kind="recovery"):
            # A and C come back as checksum differences over the column's
            # survivors (the checksum row itself is the plain column sum).
            for key in ("A", "C"):
                peer_blocks = {}
                for i in range(qr):
                    if i == i0:
                        continue
                    peer = rank(i, j0)
                    recv = machine.exchange([
                        Message(peer, dead, machine.proc(peer).store[key],
                                tag=f"abft-restore-{key}")
                    ])
                    peer_blocks[i] = as_block(recv[dead])
                if i0 == pr:
                    block = _combine(list(peer_blocks.values()))
                else:
                    others = [blk for i, blk in peer_blocks.items() if i != pr]
                    # pr == 1: the dead real row IS the column sum.
                    block = (
                        peer_blocks[pr] - _combine(others) if others
                        else peer_blocks[pr]
                    )
                store[key] = block
                machine.compute(dead, float(block.size * (qr - 1)))
            # B comes back from the buddy replica; then the replica the
            # dead rank held for its predecessor is re-established.
            buddy = rank((i0 + 1) % qr, j0)
            recv = machine.exchange([
                Message(buddy, dead, machine.proc(buddy).store["B_ckpt"],
                        tag="abft-restore-B")
            ])
            store["B"] = as_block(recv[dead])
            pred = rank((i0 - 1) % qr, j0)
            recv = machine.exchange([
                Message(pred, dead, machine.proc(pred).store["B"],
                        tag="abft-b-copy")
            ])
            store["B_ckpt"] = as_block(recv[dead])

    mgr = RecoveryManager(machine)
    _distribute()
    encoded = False
    while not encoded:
        before = mgr.begin_attempt()
        try:
            _encode()
            encoded = True
        except RankFailedError as exc:
            plan = mgr.on_failure(exc, before)
            with mgr.fence():
                _reconstruct(plan.failed_rank, encoded=False)
    t = 0
    while t < stages:
        before = mgr.begin_attempt()
        try:
            _stage(t)
            t += 1
        except RankFailedError as exc:
            plan = mgr.on_failure(exc, before)
            with mgr.fence():
                _reconstruct(plan.failed_rank, encoded=True)
    machine.spans.record_event(
        "compute", f"{stages} ABFT SUMMA stages of width {panel}"
    )

    # Assemble from the real rows; the checksum row's C-hat blocks are the
    # run's self-check: each must equal its column sum.
    C = empty_block((n1, n3), like=A)
    for i in range(pr):
        for j in range(pc):
            C[i * a_rows:(i + 1) * a_rows, j * c_cols:(j + 1) * c_cols] = (
                machine.proc(rank(i, j)).store["C"]
            )
    if not isinstance(C, SymbolicBlock):
        for j in range(pc):
            column_sum = _combine(
                [np.asarray(machine.proc(rank(i, j)).store["C"]) for i in range(pr)]
            )
            if not np.allclose(machine.proc(rank(pr, j)).store["C"], column_sum):
                raise FaultDetectedError(
                    f"ABFT checksum column {j} drifted from its C blocks: "
                    f"silent corruption survived the run"
                )
    return AbftResult(
        C=C, shape=shape, cost=machine.cost, machine=machine,
        recovered=mgr.recovered,
    )


# ---------------------------------------------------------------------- #
# Algorithm 1 with checksum shards                                       #
# ---------------------------------------------------------------------- #


def run_alg1_abft(
    A: np.ndarray,
    B: np.ndarray,
    grid: ProcessorGrid,
    machine: Optional[Machine] = None,
    semiring: Optional[Semiring] = None,
) -> AbftResult:
    """Algorithm 1 with checksum-encoded input shards.

    The encode phase all-reduces each All-Gather fiber's shards into a
    per-rank checksum (``cks_A`` over the p3-fibers, ``cks_B`` over the
    p1-fibers); length-1 fibers fall back to a buddy replica in one
    permutation round.  Because the four phases never mutate the shards,
    a failed attempt is survived by reconstructing the dead rank's shards
    (checksum minus surviving shards, or the buddy copy) and re-running
    the phases.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> A, B = rng.random((8, 4)), rng.random((4, 4))
    >>> res = run_alg1_abft(A, B, ProcessorGrid(2, 1, 2))
    >>> bool(np.allclose(res.C, A @ B))
    True
    """
    A = as_block(A, dtype=float)
    B = as_block(B, dtype=float)
    sr = resolve_semiring(semiring)
    _require_ring(sr, "ABFT Algorithm 1")
    p1, p2, p3 = grid.dims
    P = grid.size
    if P < 2:
        raise GridError(
            f"ABFT Algorithm 1 needs P >= 2 (a rank cannot be its own "
            f"buddy), got grid {grid}"
        )
    if machine is None:
        machine = Machine(P, backend=backend_for(A, B))
    else:
        machine.reset()
        if machine.n_procs != P:
            raise GridError(
                f"machine has {machine.n_procs} processors, grid {grid} needs {P}"
            )
    shape = distribute_inputs(machine, grid, A, B)
    n1, n2, n3 = shape.dims
    if not grid.divides(n1, n2, n3):
        raise GridError(
            f"ABFT Algorithm 1 needs every p_i | n_i, got grid {grid} for {shape}"
        )
    a_block = (n1 // p1) * (n2 // p2)
    b_block = (n2 // p2) * (n3 // p3)
    if p3 > 1 and (not is_power_of_two(p3) or a_block % p3):
        raise GridError(
            f"checksum shards need p3 a power of two dividing the A block "
            f"({a_block} words), got p3={p3}"
        )
    if p1 > 1 and (not is_power_of_two(p1) or b_block % p1):
        raise GridError(
            f"checksum shards need p1 a power of two dividing the B block "
            f"({b_block} words), got p1={p1}"
        )

    def _encode() -> None:
        with machine.span("abft-encode", kind="recovery"):
            if p3 > 1:
                shards = {r: machine.proc(r).store["A_shard"] for r in range(P)}
                sums = parallel_allreduce(
                    machine, grid.fibers(3), shards,
                    algorithm="recursive_doubling", label="A shard checksums",
                    op="sum",
                )
                for r in range(P):
                    machine.proc(r).store["cks_A"] = as_block(sums[r])
            if p1 > 1:
                shards = {r: machine.proc(r).store["B_shard"] for r in range(P)}
                sums = parallel_allreduce(
                    machine, grid.fibers(1), shards,
                    algorithm="recursive_doubling", label="B shard checksums",
                    op="sum",
                )
                for r in range(P):
                    machine.proc(r).store["cks_B"] = as_block(sums[r])
            if p3 == 1 or p1 == 1:
                # Length-1 fibers have nothing to checksum against: buddy
                # replication in one permutation round r -> (r+1) mod P.
                msgs = []
                for r in range(P):
                    store = machine.proc(r).store
                    items = []
                    if p3 == 1:
                        items.append(store["A_shard"])
                    if p1 == 1:
                        items.append(store["B_shard"])
                    msgs.append(
                        Message(r, (r + 1) % P, tuple(items), tag="abft-buddy")
                    )
                deliveries = machine.exchange(msgs)
                for dest, payload in deliveries.items():
                    store = machine.proc(dest).store
                    idx = 0
                    if p3 == 1:
                        store["buddy_A"] = as_block(payload[idx])
                        idx += 1
                    if p1 == 1:
                        store["buddy_B"] = as_block(payload[idx])

    def _phases() -> None:
        # The four phases of run_alg1, verbatim schedule (auto collectives,
        # blocks freed after the local product).
        with machine.span("allgather-A", kind="collective"):
            if p3 > 1:
                chunks = {r: machine.proc(r).store["A_shard"] for r in range(P)}
                gathered = parallel_allgather(
                    machine, grid.fibers(3), chunks, algorithm="auto",
                    label="A blocks",
                )
            else:
                gathered = {
                    r: [machine.proc(r).store["A_shard"]] for r in range(P)
                }
            for r in range(P):
                c1, c2, _ = grid.coord(r)
                r0, r1 = block_bounds(n1, p1, c1)
                c0, c1b = block_bounds(n2, p2, c2)
                flat = np.concatenate(
                    [as_block(ch).reshape(-1) for ch in gathered[r]]
                )
                machine.proc(r).store["A_block"] = flat.reshape(r1 - r0, c1b - c0)
        with machine.span("allgather-B", kind="collective"):
            if p1 > 1:
                chunks = {r: machine.proc(r).store["B_shard"] for r in range(P)}
                gathered = parallel_allgather(
                    machine, grid.fibers(1), chunks, algorithm="auto",
                    label="B blocks",
                )
            else:
                gathered = {
                    r: [machine.proc(r).store["B_shard"]] for r in range(P)
                }
            for r in range(P):
                _, c2, c3 = grid.coord(r)
                r0, r1 = block_bounds(n2, p2, c2)
                c0, c1b = block_bounds(n3, p3, c3)
                flat = np.concatenate(
                    [as_block(ch).reshape(-1) for ch in gathered[r]]
                )
                machine.proc(r).store["B_block"] = flat.reshape(r1 - r0, c1b - c0)
        with machine.spans.measure("local GEMM D = A_block @ B_block", "compute"):
            for r in range(P):
                store = machine.proc(r).store
                a_blk = store["A_block"]
                b_blk = store["B_block"]
                store["D"] = sr.matmul(a_blk, b_blk)
                machine.compute(
                    r, float(a_blk.shape[0] * a_blk.shape[1] * b_blk.shape[1])
                )
                store.free("A_block")
                store.free("B_block")
        with machine.span("reduce-scatter-C", kind="collective"):
            if p2 > 1:
                blocks = {}
                for r in range(P):
                    d_flat = machine.proc(r).store["D"].reshape(-1)
                    bounds = [shard_bounds(d_flat.size, p2, j) for j in range(p2)]
                    blocks[r] = [d_flat[lo:hi] for lo, hi in bounds]
                reduced = parallel_reduce_scatter(
                    machine, grid.fibers(2), blocks, algorithm="auto",
                    label="C blocks", op=sr.reduce_op,
                )
            else:
                reduced = {
                    r: machine.proc(r).store["D"].reshape(-1).copy()
                    for r in range(P)
                }
            for r in range(P):
                store = machine.proc(r).store
                store["C_shard"] = as_block(reduced[r]).reshape(-1)
                store.free("D")

    def _restore_shard(dead: int, axis: int, key: str, cks_key: str,
                       buddy_key: str, fiber_len: int) -> None:
        store = machine.proc(dead).store
        if fiber_len > 1:
            fiber = grid.fiber(axis, grid.coord(dead))
            peers = [r for r in fiber if r != dead]
            recv = machine.exchange([
                Message(peers[0], dead, machine.proc(peers[0]).store[cks_key],
                        tag=f"abft-{cks_key}")
            ])
            total = as_block(recv[dead])
            shards = []
            for peer in peers:
                recv = machine.exchange([
                    Message(peer, dead, machine.proc(peer).store[key],
                            tag=f"abft-restore-{key}")
                ])
                shards.append(as_block(recv[dead]))
            store[key] = total - _combine(shards)
            store[cks_key] = total
            machine.compute(dead, float(total.size * len(peers)))
        else:
            buddy = (dead + 1) % P
            recv = machine.exchange([
                Message(buddy, dead, machine.proc(buddy).store[buddy_key],
                        tag=f"abft-restore-{key}")
            ])
            store[key] = as_block(recv[dead])

    def _reconstruct(dead: int, encoded: bool) -> None:
        mgr.revive(dead)
        if not encoded:
            # Shards are still pure initial-distribution state: restage
            # them free (the convention all entry points share) and redo
            # the encode from the top.
            distribute_inputs(machine, grid, A, B)
            return
        with machine.span("abft-reconstruct", kind="recovery"):
            _restore_shard(dead, 3, "A_shard", "cks_A", "buddy_A", p3)
            _restore_shard(dead, 1, "B_shard", "cks_B", "buddy_B", p1)
            if p3 == 1 or p1 == 1:
                # Re-establish the buddy copies the dead rank held for its
                # predecessor.
                pred = (dead - 1) % P
                items = []
                if p3 == 1:
                    items.append(machine.proc(pred).store["A_shard"])
                if p1 == 1:
                    items.append(machine.proc(pred).store["B_shard"])
                recv = machine.exchange([
                    Message(pred, dead, tuple(items), tag="abft-buddy")
                ])
                payload = recv[dead]
                store = machine.proc(dead).store
                idx = 0
                if p3 == 1:
                    store["buddy_A"] = as_block(payload[idx])
                    idx += 1
                if p1 == 1:
                    store["buddy_B"] = as_block(payload[idx])

    mgr = RecoveryManager(machine)
    encoded = False
    while not encoded:
        before = mgr.begin_attempt()
        try:
            _encode()
            encoded = True
        except RankFailedError as exc:
            plan = mgr.on_failure(exc, before)
            with mgr.fence():
                _reconstruct(plan.failed_rank, encoded=False)
    while True:
        before = mgr.begin_attempt()
        try:
            _phases()
            break
        except RankFailedError as exc:
            plan = mgr.on_failure(exc, before)
            with mgr.fence():
                _reconstruct(plan.failed_rank, encoded=True)

    C = assemble_c(machine, shape, grid)
    return AbftResult(
        C=C, shape=shape, cost=machine.cost, machine=machine,
        recovered=mgr.recovered,
    )
