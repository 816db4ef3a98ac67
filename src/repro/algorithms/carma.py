"""CARMA-style recursive matrix multiplication (baseline).

A breadth-first recursive algorithm in the spirit of Demmel et al. (2013):
at each level the *largest* remaining dimension is halved and the processor
group splits in two; pairs of processors across the halves exchange exactly
the data the other half's subproblem needs.  When the contraction dimension
``n2`` was split, the two halves compute contributions to the *same* region
of ``C`` and a pairwise exchange-and-add combines them on the way back up.
When a single processor remains it multiplies its subproblem locally.

Because it always halves the largest dimension, the recursion adapts its
effective grid to the aspect ratios just like the Section 5.2 selection —
this is the algorithm Demmel et al. used to show the three asymptotic
regimes are attainable (without tracking constants).  Our benchmarks show
it tracks Algorithm 1 within a small constant factor across all three
regimes, while never beating the exact-constant Algorithm 1 + optimal-grid
combination.

Implementation notes
--------------------
* Data is represented as *rectangle pieces* ``(r0, r1, c0, c1, array)`` of
  the global matrices; every exchange moves real subarrays through the
  simulated network.
* Both halves of every split run their communication in *merged* rounds
  (:func:`repro.collectives.schedules.merge_schedules`), so the measured
  critical path reflects the parallel recursion, not a sequential replay.
* Requirements: ``P`` a power of two; every dimension the recursion
  decides to split must be even at that point (guaranteed when the
  dimensions are multiples of suitable powers of two, e.g. all equal to
  ``P``-smooth even numbers); ``n1 >= P`` and ``n2 >= P`` for the initial
  slab distribution.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..collectives.schedules import Schedule, is_power_of_two, merge_schedules, run_schedule
from ..core.shapes import ProblemShape
from ..exceptions import GridError
from ..machine.backend import SymbolicBlock, as_block, backend_for, is_symbolic
from ..machine.cost import Cost
from ..machine.machine import Machine
from ..machine.message import Message
from ..machine.semiring import Semiring, resolve_semiring

__all__ = ["CarmaResult", "run_carma"]

# A piece is (r0, r1, c0, c1, array) with array.shape == (r1-r0, c1-c0).
Piece = Tuple[int, int, int, int, np.ndarray]
Region = Tuple[int, int, int, int]  # (r0, r1, c0, c1)


def _clip(piece: Piece, region: Region) -> Optional[Piece]:
    """The part of ``piece`` inside ``region`` (None when disjoint)."""
    pr0, pr1, pc0, pc1, arr = piece
    rr0, rr1, rc0, rc1 = region
    r0, r1 = max(pr0, rr0), min(pr1, rr1)
    c0, c1 = max(pc0, rc0), min(pc1, rc1)
    if r0 >= r1 or c0 >= c1:
        return None
    return (r0, r1, c0, c1, arr[r0 - pr0:r1 - pr0, c0 - pc0:c1 - pc0])


def _clip_all(pieces: Sequence[Piece], region: Region) -> List[Piece]:
    out = []
    for p in pieces:
        clipped = _clip(p, region)
        if clipped is not None:
            out.append(clipped)
    return out


def _pack(pieces: Sequence[Piece]):
    """Payload encoding: a tuple of (meta row, array) pairs, flattened.

    Message payloads must be arrays or nested tuples of arrays, so the
    rectangle coordinates ride along as tiny int arrays; their 4 words per
    piece are a negligible, honest header cost.
    """
    return tuple(
        (np.array([r0, r1, c0, c1]),
         arr if is_symbolic(arr) else np.ascontiguousarray(arr))
        for (r0, r1, c0, c1, arr) in pieces
    )


def _unpack(payload) -> List[Piece]:
    return [
        (int(meta[0]), int(meta[1]), int(meta[2]), int(meta[3]), arr)
        for (meta, arr) in payload
    ]


def _assemble(pieces: Sequence[Piece], region: Region) -> np.ndarray:
    """Tile ``pieces`` into a dense array covering ``region`` exactly."""
    r0, r1, c0, c1 = region
    if any(is_symbolic(arr) for (_, _, _, _, arr) in pieces):
        # Symbolic mode: the NaN-sentinel check needs elements, so verify
        # the tiling geometrically instead (containment + exact area).
        covered = 0
        for (pr0, pr1, pc0, pc1, arr) in pieces:
            if pr0 < r0 or pr1 > r1 or pc0 < c0 or pc1 > c1:
                raise GridError(
                    f"CARMA invariant violated: piece outside region {region}"
                )
            covered += (pr1 - pr0) * (pc1 - pc0)
        if covered != (r1 - r0) * (c1 - c0):
            raise GridError(
                f"CARMA invariant violated: pieces do not tile region {region}"
            )
        return SymbolicBlock((r1 - r0, c1 - c0))
    out = np.full((r1 - r0, c1 - c0), np.nan)
    for (pr0, pr1, pc0, pc1, arr) in pieces:
        out[pr0 - r0:pr1 - r0, pc0 - c0:pc1 - c0] = arr
    if np.isnan(out).any():
        raise GridError(
            f"CARMA invariant violated: pieces do not tile region {region}"
        )
    return out


def _split_piece_for_combine(piece: Piece) -> Tuple[Optional[Piece], Optional[Piece]]:
    """Split a C piece into (first, second) halves for the pairwise combine.

    Rows are split when possible, else columns; a 1x1 piece goes entirely
    into the first half.
    """
    r0, r1, c0, c1, arr = piece
    if r1 - r0 > 1:
        mid = (r0 + r1) // 2
        return (r0, mid, c0, c1, arr[: mid - r0]), (mid, r1, c0, c1, arr[mid - r0:])
    if c1 - c0 > 1:
        mid = (c0 + c1) // 2
        return (r0, r1, c0, mid, arr[:, : mid - c0]), (r0, r1, mid, c1, arr[:, mid - c0:])
    return piece, None


@dataclasses.dataclass
class CarmaResult:
    """Output of a CARMA run."""

    C: np.ndarray
    shape: ProblemShape
    P: int
    cost: Cost
    machine: Machine
    splits: List[str]


def run_carma(
    A: np.ndarray,
    B: np.ndarray,
    P: int,
    machine: Optional[Machine] = None,
    semiring: Optional[Semiring] = None,
) -> CarmaResult:
    """Run the CARMA-style recursive algorithm on ``P`` processors.

    ``semiring`` selects the scalar multiply-accumulate of the leaf
    products and the pairwise combines (default ``plus_times``); the
    recursion and all costs are identical for every semiring.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> A, B = rng.random((16, 8)), rng.random((8, 12))
    >>> res = run_carma(A, B, 4)
    >>> bool(np.allclose(res.C, A @ B))
    True
    """
    A = as_block(A, dtype=float)
    B = as_block(B, dtype=float)
    sr = resolve_semiring(semiring)
    n1, n2 = A.shape
    n3 = B.shape[1]
    shape = ProblemShape(n1, n2, n3)
    if not is_power_of_two(P):
        raise GridError(f"CARMA requires a power-of-two processor count, got {P}")
    if n1 < P or n2 < P:
        raise GridError(
            f"initial slab distribution needs n1 >= P and n2 >= P, got {shape}, P={P}"
        )
    if machine is None:
        machine = Machine(P, backend=backend_for(A, B))
    else:
        machine.reset()
        if machine.n_procs != P:
            raise GridError(f"machine has {machine.n_procs} processors, need {P}")

    # Initial one-copy distribution: horizontal slabs of A and of B.
    holdings_a: Dict[int, List[Piece]] = {}
    holdings_b: Dict[int, List[Piece]] = {}
    holdings_c: Dict[int, List[Piece]] = {}
    bounds_a = np.array_split(np.arange(n1), P)
    bounds_b = np.array_split(np.arange(n2), P)
    for r in range(P):
        ra = bounds_a[r]
        holdings_a[r] = [(int(ra[0]), int(ra[-1]) + 1, 0, n2,
                          A[int(ra[0]):int(ra[-1]) + 1].copy())]
        rb = bounds_b[r]
        holdings_b[r] = [(int(rb[0]), int(rb[-1]) + 1, 0, n3,
                          B[int(rb[0]):int(rb[-1]) + 1].copy())]
        holdings_c[r] = []
        machine.proc(r).store["A_slab"] = holdings_a[r][0][4]
        machine.proc(r).store["B_slab"] = holdings_b[r][0][4]
    machine.spans.record_event("distribute", f"CARMA slabs over {P} processors")

    splits: List[str] = []

    def recurse(
        group: Tuple[int, ...],
        i_rng: Tuple[int, int],
        k_rng: Tuple[int, int],
        j_rng: Tuple[int, int],
    ) -> Schedule:
        """Schedule computing C[i_rng, j_rng] += A[i_rng, k_rng] @ B[k_rng, j_rng]."""
        a_region: Region = (i_rng[0], i_rng[1], k_rng[0], k_rng[1])
        b_region: Region = (k_rng[0], k_rng[1], j_rng[0], j_rng[1])
        c_region: Region = (i_rng[0], i_rng[1], j_rng[0], j_rng[1])

        if len(group) == 1:
            rank = group[0]
            a_sub = _assemble(_clip_all(holdings_a[rank], a_region), a_region)
            b_sub = _assemble(_clip_all(holdings_b[rank], b_region), b_region)
            c_sub = sr.matmul(a_sub, b_sub)
            machine.compute(rank, float(a_sub.shape[0] * a_sub.shape[1] * b_sub.shape[1]))
            holdings_c[rank].append(
                (c_region[0], c_region[1], c_region[2], c_region[3], c_sub)
            )
            return
            yield  # pragma: no cover - marks this function as a generator

        d1 = i_rng[1] - i_rng[0]
        d2 = k_rng[1] - k_rng[0]
        d3 = j_rng[1] - j_rng[0]
        largest = max(d1, d2, d3)
        half = len(group) // 2
        G0, G1 = group[:half], group[half:]

        if largest % 2:
            raise GridError(
                f"CARMA wants to halve a dimension of odd size {largest} "
                f"at subproblem {d1}x{d2}x{d3}; choose dimensions divisible "
                f"by 2^(levels splitting them)"
            )

        if d1 == largest:  # split the i (n1) dimension; B is shared
            axis = "n1"
            mid = (i_rng[0] + i_rng[1]) // 2
            sub0 = ((i_rng[0], mid), k_rng, j_rng)
            sub1 = ((mid, i_rng[1]), k_rng, j_rng)
            a_reg0: Region = (i_rng[0], mid, k_rng[0], k_rng[1])
            a_reg1: Region = (mid, i_rng[1], k_rng[0], k_rng[1])
            msgs = []
            for g0, g1 in zip(G0, G1):
                send01 = (_pack(_clip_all(holdings_a[g0], a_reg1)),
                          _pack(_clip_all(holdings_b[g0], b_region)))
                send10 = (_pack(_clip_all(holdings_a[g1], a_reg0)),
                          _pack(_clip_all(holdings_b[g1], b_region)))
                msgs.append(Message(src=g0, dest=g1, payload=send01, tag="carma n1"))
                msgs.append(Message(src=g1, dest=g0, payload=send10, tag="carma n1"))
            deliveries = yield msgs
            for g0, g1 in zip(G0, G1):
                for rank, keep_a in ((g0, a_reg0), (g1, a_reg1)):
                    in_a = _unpack(deliveries[rank][0])
                    in_b = _unpack(deliveries[rank][1])
                    holdings_a[rank] = _clip_all(holdings_a[rank] + in_a, keep_a)
                    holdings_b[rank] = _clip_all(holdings_b[rank] + in_b, b_region)
        elif d3 == largest:  # split the j (n3) dimension; A is shared
            axis = "n3"
            mid = (j_rng[0] + j_rng[1]) // 2
            sub0 = (i_rng, k_rng, (j_rng[0], mid))
            sub1 = (i_rng, k_rng, (mid, j_rng[1]))
            b_reg0: Region = (k_rng[0], k_rng[1], j_rng[0], mid)
            b_reg1: Region = (k_rng[0], k_rng[1], mid, j_rng[1])
            msgs = []
            for g0, g1 in zip(G0, G1):
                send01 = (_pack(_clip_all(holdings_a[g0], a_region)),
                          _pack(_clip_all(holdings_b[g0], b_reg1)))
                send10 = (_pack(_clip_all(holdings_a[g1], a_region)),
                          _pack(_clip_all(holdings_b[g1], b_reg0)))
                msgs.append(Message(src=g0, dest=g1, payload=send01, tag="carma n3"))
                msgs.append(Message(src=g1, dest=g0, payload=send10, tag="carma n3"))
            deliveries = yield msgs
            for rank, keep_b in [(g, b_reg0) for g in G0] + [(g, b_reg1) for g in G1]:
                in_a = _unpack(deliveries[rank][0])
                in_b = _unpack(deliveries[rank][1])
                holdings_b[rank] = _clip_all(holdings_b[rank] + in_b, keep_b)
                holdings_a[rank] = _clip_all(holdings_a[rank] + in_a, a_region)
        else:  # split the contraction (n2) dimension; C contributions combine
            axis = "n2"
            mid = (k_rng[0] + k_rng[1]) // 2
            sub0 = (i_rng, (k_rng[0], mid), j_rng)
            sub1 = (i_rng, (mid, k_rng[1]), j_rng)
            a_reg0: Region = (i_rng[0], i_rng[1], k_rng[0], mid)
            a_reg1: Region = (i_rng[0], i_rng[1], mid, k_rng[1])
            b_reg0: Region = (k_rng[0], mid, j_rng[0], j_rng[1])
            b_reg1: Region = (mid, k_rng[1], j_rng[0], j_rng[1])
            msgs = []
            for g0, g1 in zip(G0, G1):
                send01 = (_pack(_clip_all(holdings_a[g0], a_reg1)),
                          _pack(_clip_all(holdings_b[g0], b_reg1)))
                send10 = (_pack(_clip_all(holdings_a[g1], a_reg0)),
                          _pack(_clip_all(holdings_b[g1], b_reg0)))
                msgs.append(Message(src=g0, dest=g1, payload=send01, tag="carma n2"))
                msgs.append(Message(src=g1, dest=g0, payload=send10, tag="carma n2"))
            deliveries = yield msgs
            for rank, keep_a, keep_b in (
                [(g, a_reg0, b_reg0) for g in G0] + [(g, a_reg1, b_reg1) for g in G1]
            ):
                in_a = _unpack(deliveries[rank][0])
                in_b = _unpack(deliveries[rank][1])
                holdings_a[rank] = _clip_all(holdings_a[rank] + in_a, keep_a)
                holdings_b[rank] = _clip_all(holdings_b[rank] + in_b, keep_b)

        splits.append(axis)
        results = yield from merge_schedules(
            [recurse(G0, *sub0), recurse(G1, *sub1)]
        )
        del results

        if axis == "n2":
            # Pairwise exchange-and-add of the partial C contributions.
            firsts: Dict[int, List[Piece]] = {}
            seconds: Dict[int, List[Piece]] = {}
            for rank in group:
                f, s = [], []
                for piece in holdings_c[rank]:
                    if _clip(piece, c_region) is None:
                        continue  # belongs to an outer region; untouched
                    p0, p1 = _split_piece_for_combine(piece)
                    if p0 is not None:
                        f.append(p0)
                    if p1 is not None:
                        s.append(p1)
                firsts[rank], seconds[rank] = f, s
            msgs = []
            for g0, g1 in zip(G0, G1):
                msgs.append(Message(src=g0, dest=g1, payload=_pack(seconds[g0]),
                                    tag="carma combine"))
                msgs.append(Message(src=g1, dest=g0, payload=_pack(firsts[g1]),
                                    tag="carma combine"))
            deliveries = yield msgs
            for g0, g1 in zip(G0, G1):
                for rank, keep in ((g0, firsts[g0]), (g1, seconds[g1])):
                    incoming = _unpack(deliveries[rank])
                    merged = _merge_add(keep, incoming)
                    outer = [p for p in holdings_c[rank] if _clip(p, c_region) is None]
                    holdings_c[rank] = outer + merged
                    machine.compute(rank, float(sum(p[4].size for p in incoming)))

    def _merge_add(kept: List[Piece], incoming: List[Piece]) -> List[Piece]:
        """Combine geometrically identical piece lists with the semiring add."""
        by_region = {(p[0], p[1], p[2], p[3]): p[4].copy() for p in kept}
        for (r0, r1, c0, c1, arr) in incoming:
            key = (r0, r1, c0, c1)
            if key not in by_region:
                raise GridError(
                    f"CARMA combine: received piece {key} with no local match "
                    f"(geometry asymmetry)"
                )
            by_region[key] = sr.add(by_region[key], arr)
        return [(r0, r1, c0, c1, arr) for (r0, r1, c0, c1), arr in by_region.items()]

    run_schedule(machine, recurse(tuple(range(P)), (0, n1), (0, n2), (0, n3)))
    machine.spans.record_event("compute", f"CARMA recursion, splits: {splits}")

    C = sr.zeros((n1, n3), like=A)
    for r in range(P):
        for (r0, r1, c0, c1, arr) in holdings_c[r]:
            C[r0:r1, c0:c1] = sr.add(C[r0:r1, c0:c1], arr)

    return CarmaResult(C=C, shape=shape, P=P, cost=machine.cost,
                       machine=machine, splits=splits)
