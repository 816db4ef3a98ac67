"""Oracle closed forms as array kernels: one algorithm over a batch of rows.

Every closed form the oracle knows is written here, once.
:func:`predict_batch` evaluates one algorithm over a batch of
``(n1, n2, n3, P)`` rows and returns a :class:`BatchPrediction`;
:func:`repro.analysis.oracle.predict_cost` is its one-row view.

* a **validity mask** replaces the per-call exception: ``valid[i]`` is
  ``False`` exactly where ``predict_cost`` on row ``i`` raises
  :class:`~repro.exceptions.OracleUnsupportedError` (and
  ``prediction(i)`` raises it);
* integer cost counters (``rounds``, ``words``, ``flops``) computed with
  integer arithmetic, regrouped freely because integer sums are
  associative, so the totals are *identical*, not approximate;
* the float analysis (Theorem 3 bound, attainment ratio, bound-check
  gap) evaluated as numpy ``float64`` expressions in the op order of
  :func:`repro.obs.attainment.bound_attainment` and
  :func:`repro.analysis.verification.check_cost_against_bound` (see
  DESIGN.md, "Vectorization soundness").

Two integer dtypes, one set of kernels
--------------------------------------
Rows that pass :func:`_shape_in_safe_range` run on ``int64`` arrays and
get the vectorized float finish.  Rows outside it, where ``int64`` could
overflow or ``float64`` could round, run through the *same* kernels on
object arrays of Python integers; the helpers that would be inexact there
(:func:`_bit_length`, :func:`_isqrt_vec`, :func:`_unique_rows`,
:func:`_sab_all_roots`) take an exact branch on object arrays, and those
rows are finished one by one by ``bound_attainment`` and
``check_cost_against_bound``.  Exactness is never traded for speed.

The mask and every field are checked against the simulator
(:func:`~repro.analysis.verification.cross_check_oracle` on both
backends), against pinned per-algorithm digests and out-of-range values
(``tests/analysis/test_oracle_vec.py``), and against the golden fixtures.

Per-algorithm cost shapes (divisible configurations, ``a/b/d`` block words):

=========  ================================================================
alg1       expression (3) words; rounds from the collective dispatch
           (``log2 p`` for power-of-two fibers, ``p - 1`` ring, Bruck
           ``ceil log2 p``); flops ``n1 n2 n3 / P`` + reduce-scatter adds.
row_1d     ``(1 - 1/P) n2 n3`` words (All-Gather of ``B``).
outer_1d   ``(1 - 1/P) n1 n3`` words (Reduce-Scatter of ``C`` partials).
cannon     ``q (a + b)`` words in ``2q`` rounds (2 skews + ``2(q-1)`` shifts).
fox        per stage: scatter+allgather broadcast of the pivot ``A`` block
           along rows (max over the ``q`` root rotations) plus a
           one-round roll of ``B``.
fox_otto   identical to fox: the min-plus distance product runs the same
           schedule, and all counters are semiring-independent.
summa      per panel stage: scatter+allgather broadcasts of the ``A``
           column panel (rows) and ``B`` row panel (columns).
c25d       Cannon skews + ``ceil(log2 c)`` depth broadcasts + ``q/c - 1``
           shifts + ``ceil(log2 c)`` binomial depth reductions.
carma      one round per split level plus one per ``n2`` combine; words
           per round are the largest message, from slab-overlap arithmetic
           per rank and level (:mod:`repro.algorithms.carma_counts`).
alg1_abft  alg1 (auto collectives) plus the charged encode: one
           recursive-doubling All-Reduce per fiber longer than 1
           (``log2 p`` rounds of one shard each, same flops) and one
           buddy-replication round when some fiber has length 1.
summa_abft summa on the extended ``(pr+1) x pc`` grid (the checksum row
           rides every panel stage) plus one encode round replicating the
           stationary ``B`` blocks.
=========  ================================================================

Kernel structure per algorithm
------------------------------
``row_1d`` / ``outer_1d`` / ``cannon``
    Pure broadcasted numpy: closed forms with no grid search at all.
``fox`` / ``fox_otto`` / ``summa`` / ``summa_abft``
    The scatter-allgather broadcast is evaluated through an exact
    interval model of the binomial scatter (:func:`_sab_structure`):
    holdings stay contiguous index ranges, so each round's critical
    message is ``base * len + overlap(shifted range, extra window)`` — an
    O(1) expression per moved interval, vectorized over every root
    rotation at once instead of replayed per stage.
``alg1`` / ``alg1_abft`` / ``c25d``
    The grid picker runs once per *unique* ``(shape, P)`` (cached), then
    expression (3) and the encode/broadcast arithmetic broadcast over
    the whole batch.
``carma``
    The per-level slab arithmetic (vectorized over ranks, memoized in
    :func:`repro.algorithms.carma_counts.carma_counts`) runs once per
    unique ``(shape, P)``.  Refusals (non-power-of-two ``P``, slabs
    thinner than one row) return before any level is evaluated.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import List, Optional, Tuple

import numpy as np

from ..algorithms.abft import abft_summa_grid, alg1_abft_grid
from ..algorithms.grid_selection import select_grid
from ..algorithms.registry import c25d_grid, summa_grid
from ..core.shapes import ProblemShape
from ..exceptions import GridError, OracleUnsupportedError, ShapeError
from ..machine.cost import Cost
from ..obs.attainment import bound_attainment
from .oracle import ORACLE_ALGORITHMS, OraclePrediction, _carma_replay

__all__ = ["BatchPrediction", "predict_batch"]

#: Integers below this are exactly representable in float64, so numpy
#: float arithmetic on them reproduces Python's correctly rounded
#: int-division and sqrt bit for bit.
_EXACT_FLOAT = 2 ** 53
#: Headroom bound for int64 products (2**62 < 2**63 - 1).
_INT64_SAFE = 2 ** 62

_KNOWN_COLLECTIVES = (
    None, "auto", "ring", "recursive_doubling", "recursive_halving", "bruck"
)


# --------------------------------------------------------------------- #
# result container                                                      #
# --------------------------------------------------------------------- #


@dataclasses.dataclass
class BatchPrediction:
    """Vectorized oracle output for one algorithm over N configuration rows.

    ``valid`` is the refusal mask: ``False`` entries are exactly the rows
    the oracle refuses; their cost/bound entries are zero/NaN filler and
    ``configs`` entry ``None``.  ``dims`` and ``P`` are ``int64``, or
    object arrays of Python ints when some input needs more than 64 bits.
    """

    algorithm: str
    dims: np.ndarray          #: (N, 3) int64 — raw (n1, n2, n3) per row
    P: np.ndarray             #: (N,) int64
    valid: np.ndarray         #: (N,) bool — True where the oracle predicts
    rounds: np.ndarray        #: (N,) int64
    words: np.ndarray         #: (N,) float64 — == float(int words) exactly
    flops: np.ndarray         #: (N,) float64
    bound: np.ndarray         #: (N,) float64 — Theorem 3 communicated bound
    attainment: np.ndarray    #: (N,) float64 — words / bound (corner-cased)
    gap_ratio: np.ndarray     #: (N,) float64 — sweep's bound-check ratio
    satisfied: np.ndarray     #: (N,) bool — words respect the bound
    configs: List[Optional[str]]  #: per-row config string (None if invalid)

    def __len__(self) -> int:
        return len(self.valid)

    def prediction(self, i: int) -> OraclePrediction:
        """The :class:`OraclePrediction` for row ``i``.

        This is what :func:`repro.analysis.oracle.predict_cost` returns for
        the row; raises :class:`OracleUnsupportedError` where ``valid[i]``
        is False.
        """
        if not self.valid[i]:
            raise OracleUnsupportedError(
                f"{self.algorithm}: row {i} "
                f"({tuple(int(d) for d in self.dims[i])}, P={int(self.P[i])}) "
                f"is outside the oracle's supported domain"
            )
        return OraclePrediction(
            algorithm=self.algorithm,
            shape=ProblemShape(*(int(d) for d in self.dims[i])),
            P=int(self.P[i]),
            cost=Cost(
                rounds=int(self.rounds[i]),
                words=float(self.words[i]),
                flops=float(self.flops[i]),
            ),
            config=self.configs[i],
            bound=float(self.bound[i]),
            attainment=float(self.attainment[i]),
        )


# --------------------------------------------------------------------- #
# exact-range guard                                                     #
# --------------------------------------------------------------------- #


@functools.lru_cache(maxsize=65536)
def _shape_in_safe_range(n1: int, n2: int, n3: int, P: int) -> bool:
    """Can this row run through the int64/float64 kernels exactly?

    Checked with Python's unbounded integers.  The conditions guarantee
    (a) every float the bound evaluation materializes (``n*k``,
    ``m*n*k*k``, ``total_data`` …) is below 2**53, so its float64 image is
    exact and numpy's correctly rounded divide/sqrt reproduce Python's
    float arithmetic bit for bit, and (b) every int64 intermediate
    (classify comparisons, word/flop counters bounded by
    ``volume * O(log P)``) stays far from overflow.  Rows failing it run
    on object arrays of Python ints instead.
    """
    vol = n1 * n2 * n3
    k = min(n1, n2, n3)
    n_mid = sorted((n1, n2, n3))[1]
    return (
        vol * k < _EXACT_FLOAT
        and n1 * n2 + n2 * n3 + n1 * n3 < _EXACT_FLOAT
        and P * k * k < _INT64_SAFE
        and P * n_mid < _INT64_SAFE
        and P < 2 ** 31
    )


# --------------------------------------------------------------------- #
# vectorized integer helpers                                            #
# --------------------------------------------------------------------- #


def _bit_length(a: np.ndarray) -> np.ndarray:
    """Elementwise ``int.bit_length`` for ``a >= 0``.

    ``frexp`` is exact below 2**53; object arrays use Python's own.
    """
    if a.dtype == object:
        return np.frompyfunc(int.bit_length, 1, 1)(a)
    _, exponent = np.frexp(a.astype(np.float64))
    return exponent.astype(np.int64)


def _is_pow2(p: np.ndarray) -> np.ndarray:
    return (p > 0) & ((p & (p - 1)) == 0)


def _collective_rounds_vec(
    p: np.ndarray, algorithm: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.analysis.oracle.collective_rounds`.

    Returns ``(rounds, ok)``; ``ok`` is False where the scalar function
    raises (recursive doubling/halving on non-power-of-two groups, or an
    unknown collective name on a group longer than 1).
    """
    gt1 = p > 1
    ok = np.ones(p.shape, dtype=bool)
    rounds = np.zeros(p.shape, dtype=np.int64)
    if algorithm == "auto":
        rounds = np.where(
            gt1, np.where(_is_pow2(p), _bit_length(p) - 1, p - 1), 0
        )
    elif algorithm == "ring":
        rounds = np.where(gt1, p - 1, 0)
    elif algorithm in ("recursive_doubling", "recursive_halving"):
        ok = ~gt1 | _is_pow2(p)
        rounds = np.where(gt1 & ok, _bit_length(p) - 1, 0)
    elif algorithm == "bruck":
        rounds = np.where(gt1, _bit_length(np.maximum(p, 1) - 1), 0)
    else:
        ok = ~gt1  # scalar raises only when the collective actually runs
    return rounds, ok


def _isqrt_vec(P: np.ndarray) -> np.ndarray:
    """Exact elementwise integer sqrt: float sqrt corrected below 2**53,
    :func:`math.isqrt` on object arrays."""
    if P.dtype == object:
        return np.frompyfunc(math.isqrt, 1, 1)(P)
    q = np.floor(np.sqrt(P.astype(np.float64))).astype(np.int64)
    q = np.where((q + 1) * (q + 1) <= P, q + 1, q)  # sqrt rounded low
    q = np.where(q * q > P, q - 1, q)               # sqrt rounded high
    return np.maximum(q, 0)


# --------------------------------------------------------------------- #
# scatter-allgather broadcast: exact interval model                     #
# --------------------------------------------------------------------- #


@functools.lru_cache(maxsize=4096)
def _sab_structure(p: int) -> Tuple[int, Tuple[Tuple[Tuple[int, int], ...], ...]]:
    """Round structure of the binomial scatter over ``p`` contiguous pieces.

    The broadcast schedule's holdings are always *contiguous* index
    ranges: they start as ``{0: range(p)}`` and each round splits
    ``[i, i+len)`` into a kept prefix ``[i, i+dist)`` and a moved suffix
    ``[i+dist, i+len)``.  This function replays only that interval
    geometry — returning, per non-empty round, the moved suffixes as
    ``(start, length)`` pairs — so critical-word maxima become O(1)
    overlap formulas instead of per-piece sums.
    """
    from ..collectives.schedules import ceil_log2

    blocks = [(0, p)]
    dist = 1 << max(ceil_log2(p) - 1, 0) if p > 1 else 0
    rounds = []
    while dist >= 1:
        moves = []
        next_blocks = []
        for start, end in blocks:
            if end > start + dist:
                moves.append((start + dist, end - start - dist))
                next_blocks.append((start, start + dist))
                next_blocks.append((start + dist, end))
            else:
                next_blocks.append((start, end))
        if moves:
            rounds.append(tuple(moves))
        blocks = next_blocks
        dist //= 2
    return len(rounds), tuple(rounds)


def _overlap(s: np.ndarray, length: int, extra: int, p: int) -> np.ndarray:
    """``#{j in [s, s+length) : j mod p < extra}`` for 0 <= s < p, length <= p."""
    hi = s + length
    f_hi = np.where(hi <= p, np.minimum(hi, extra), extra + np.minimum(hi - p, extra))
    f_lo = np.minimum(s, extra)
    return f_hi - f_lo


@functools.lru_cache(maxsize=16384)
def _sab_all_roots(p: int, w: int) -> Tuple[int, int]:
    """``(rounds, sum over roots rho in range(p) of critical words)``.

    The summed critical words of the van de Geijn broadcast (binomial
    scatter of ``numpy.array_split`` pieces, then a ring All-Gather) over
    every single-root rotation, with the shared per-root round count —
    the exact ingredients of SUMMA's regrouped stage loop.  Piece ``j`` under root
    ``rho`` has ``base + (1 if (j + rho) % p < extra else 0)`` words, so
    a moved suffix of ``length`` starting at ``start`` sends
    ``base * length + overlap`` words; the per-round critical message
    maximizes that over the moved suffixes, vectorized over all roots.
    """
    base, extra = divmod(w, p)
    if base == 0:
        raise OracleUnsupportedError(
            f"scatter_allgather broadcast of {w} words over {p} ranks has "
            f"empty pieces; the executable schedule cannot send them"
        )
    scatter_rounds, structure = _sab_structure(p)
    # Each root's words are at most w per scatter round plus (p-1)
    # pieces; past int64 headroom the sums run on Python ints.
    exact = p * (w * (p.bit_length() + 1) + p) >= _INT64_SAFE
    dtype = object if exact else np.int64
    rho = np.arange(p, dtype=np.int64).astype(dtype)
    total = np.zeros(p, dtype=dtype)
    for intervals in structure:
        crit = np.zeros(p, dtype=dtype)
        for start, length in intervals:
            shifted = (start + rho) % p
            sent = base * length + _overlap(shifted, length, extra, p)
            np.maximum(crit, sent, out=crit)
        total += crit
    per_root = total + (p - 1) * (base + (1 if extra else 0))
    return scatter_rounds + (p - 1), int(per_root.sum())


@functools.lru_cache(maxsize=16384)
def _sab_merged_roots(p: int, w: int) -> Tuple[int, int]:
    """``(rounds, critical words)`` of the broadcast with all ``p`` root
    rotations merged into each round (Fox's pivot broadcasts).

    With every rotation present, a moved suffix of ``length`` can always
    be aligned to cover ``min(length, extra)`` of the +1-sized pieces
    (and no rotation covers more), so the per-round critical message is
    ``max over suffixes of base * length + min(length, extra)``.  All
    arithmetic is on Python ints, so it is exact at any size.
    """
    base, extra = divmod(w, p)
    if base == 0:
        raise OracleUnsupportedError(
            f"scatter_allgather broadcast of {w} words over {p} ranks has "
            f"empty pieces; the executable schedule cannot send them"
        )
    scatter_rounds, structure = _sab_structure(p)
    words = 0
    for intervals in structure:
        words += max(
            base * length + min(length, extra) for _, length in intervals
        )
    words += (p - 1) * (base + (1 if extra else 0))
    return scatter_rounds + (p - 1), words


# --------------------------------------------------------------------- #
# cached per-unique grid pickers                                        #
# --------------------------------------------------------------------- #


@functools.lru_cache(maxsize=65536)
def _select_grid_cached(dims: Tuple[int, int, int], P: int):
    try:
        return select_grid(ProblemShape(*dims), P).grid.dims
    except GridError:
        return None


@functools.lru_cache(maxsize=65536)
def _summa_grid_cached(dims: Tuple[int, int, int], P: int):
    return summa_grid(ProblemShape(*dims), P)


@functools.lru_cache(maxsize=65536)
def _c25d_grid_cached(dims: Tuple[int, int, int], P: int):
    return c25d_grid(ProblemShape(*dims), P)


@functools.lru_cache(maxsize=65536)
def _alg1_abft_grid_cached(dims: Tuple[int, int, int], P: int):
    grid = alg1_abft_grid(ProblemShape(*dims), P)
    return None if grid is None else grid.dims


@functools.lru_cache(maxsize=65536)
def _abft_summa_grid_cached(dims: Tuple[int, int, int], P: int):
    return abft_summa_grid(ProblemShape(*dims), P)


def _unique_rows(dims: np.ndarray, P: np.ndarray, mask: np.ndarray):
    """Iterate ``(row_indices, (n1, n2, n3), P)`` per unique masked row."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return
    rows = np.column_stack([dims[idx], P[idx]])
    if rows.dtype == object:  # np.unique(axis=0) rejects object arrays
        groups = {}
        for i, row in zip(idx, rows.tolist()):
            groups.setdefault(tuple(row), []).append(i)
        for (n1, n2, n3, p), members in groups.items():
            yield np.asarray(members), (n1, n2, n3), p
        return
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    for u in range(len(uniq)):
        n1, n2, n3, p = (int(v) for v in uniq[u])
        yield idx[inverse == u], (n1, n2, n3), p


# --------------------------------------------------------------------- #
# per-algorithm kernels                                                 #
# --------------------------------------------------------------------- #
#
# Each kernel fills (ok, rounds, words, flops, configs) in place for the
# rows selected by `active`; P is guaranteed >= 1 on those rows.


def _kernel_row_1d(state, coll):
    n1, n2, n3, P = state.cols()
    ok = (P <= n1) & ((n2 * n3) % P == 0)
    state.ok &= ok
    state.rounds[:], _ = _collective_rounds_vec(P, "auto")
    state.words[:] = (P - 1) * ((n2 * n3) // P)
    state.flops[:] = -(-n1 // P) * n2 * n3
    state.config_per_row(lambda i, row: f"P={row[3]}")


def _kernel_outer_1d(state, coll):
    n1, n2, n3, P = state.cols()
    ok = (P <= n2) & ((n1 * n3) % P == 0)
    state.ok &= ok
    shard = (n1 * n3) // P
    state.rounds[:], _ = _collective_rounds_vec(P, "auto")
    state.words[:] = (P - 1) * shard
    state.flops[:] = np.where(
        P > 1, n1 * (-(-n2 // P)) * n3 + (P - 1) * shard, n1 * n2 * n3
    )
    state.config_per_row(lambda i, row: f"P={row[3]}")


def _square_grid_ok(n1, n2, n3, P):
    q = _isqrt_vec(P)
    square = q * q == P
    qs = np.maximum(q, 1)
    ok = square & (q <= np.minimum(np.minimum(n1, n2), n3))
    ok &= (n1 % qs == 0) & (n2 % qs == 0) & (n3 % qs == 0)
    return q, ok


def _kernel_cannon(state, coll):
    n1, n2, n3, P = state.cols()
    q, ok = _square_grid_ok(n1, n2, n3, P)
    state.ok &= ok
    qs = np.maximum(q, 1)
    a_block = (n1 // qs) * (n2 // qs)
    b_block = (n2 // qs) * (n3 // qs)
    multi = q > 1
    state.rounds[:] = np.where(multi, 2 * q, 0)
    state.words[:] = np.where(multi, q * (a_block + b_block), 0)
    state.flops[:] = np.where(
        multi, q * (n1 // qs) * (n2 // qs) * (n3 // qs), n1 * n2 * n3
    )
    state.config_per_row(lambda i, row: f"grid {q[i]}x{q[i]}")


def _kernel_fox(state, coll):
    n1, n2, n3, P = state.cols()
    q, ok = _square_grid_ok(n1, n2, n3, P)
    state.ok &= ok
    qs = np.maximum(q, 1)
    a_block = (n1 // qs) * (n2 // qs)
    b_block = (n2 // qs) * (n3 // qs)
    multi = ok & (q > 1)
    state.ok &= ~multi | (a_block >= qs)  # empty broadcast pieces refuse
    state.flops[:] = np.where(q > 1, q * a_block * (n3 // qs), n1 * n2 * n3)
    state.rounds[:] = 0
    state.words[:] = 0
    for idx in np.flatnonzero(state.ok & multi):
        br, bw = _sab_merged_roots(int(q[idx]), int(a_block[idx]))
        state.rounds[idx] = q[idx] * br + (q[idx] - 1)
        state.words[idx] = q[idx] * bw + (q[idx] - 1) * b_block[idx]
    state.config_per_row(lambda i, row: f"grid {q[i]}x{q[i]}")


def _summa_direction(p: int, w: int, stages: int) -> Optional[Tuple[int, int]]:
    """(rounds, words) one SUMMA broadcast direction contributes, or None.

    The stage loop visits each of the ``p`` root positions exactly
    ``stages // p`` times; integer sums regroup exactly.
    """
    if w < p:
        return None  # empty pieces: the schedule cannot send them
    rounds_single, words_all_roots = _sab_all_roots(p, w)
    return stages * rounds_single, (stages // p) * words_all_roots


def _kernel_summa(state, coll):
    n1c, n2c, n3c, Pc = state.cols()
    state.flops[:] = 0
    for rows, (n1, n2, n3), P in state.unique_rows():
        grid = _summa_grid_cached((n1, n2, n3), P)
        if grid is None:
            state.ok[rows] = False
            continue
        pr, pc = grid
        panel = math.gcd(n2 // pr, n2 // pc)
        stages = n2 // panel
        rounds = words = 0
        refused = False
        for p, w in (
            (pc, (n1 // pr) * panel),
            (pr, panel * (n3 // pc)),
        ):
            if p <= 1:
                continue
            part = _summa_direction(p, w, stages)
            if part is None:
                refused = True
                break
            rounds += part[0]
            words += part[1]
        if refused:
            state.ok[rows] = False
            continue
        state.rounds[rows] = rounds
        state.words[rows] = words
        state.flops[rows] = (n1 // pr) * n2 * (n3 // pc)
        state.set_config(rows, f"grid {pr}x{pc}")


def _kernel_summa_abft(state, coll):
    for rows, (n1, n2, n3), P in state.unique_rows():
        grid = _abft_summa_grid_cached((n1, n2, n3), P)
        if grid is None:
            state.ok[rows] = False
            continue
        pr, pc = grid
        qr = pr + 1
        panel = math.gcd(n2 // qr, n2 // pc)
        stages = n2 // panel
        rounds = 1  # encode: replicate stationary B down each column
        words = (n2 // qr) * (n3 // pc)
        refused = False
        directions = []
        if pc > 1:
            directions.append((pc, (n1 // pr) * panel))
        directions.append((qr, panel * (n3 // pc)))  # qr >= 2: always runs
        for p, w in directions:
            part = _summa_direction(p, w, stages)
            if part is None:
                refused = True
                break
            rounds += part[0]
            words += part[1]
        if refused:
            state.ok[rows] = False
            continue
        state.rounds[rows] = rounds
        state.words[rows] = words
        state.flops[rows] = (n1 // pr) * n2 * (n3 // pc)
        state.set_config(rows, f"grid {pr}x{pc} + checksum row")


def _kernel_alg1(state, coll):
    n1, n2, n3, P = state.cols()
    p1 = np.ones_like(P)
    p2 = np.ones_like(P)
    p3 = np.ones_like(P)
    for rows, dims, Pu in state.unique_rows():
        grid = _select_grid_cached(dims, Pu)
        if grid is None:
            state.ok[rows] = False
        else:
            p1[rows], p2[rows], p3[rows] = grid
    state.ok &= (p1 <= n1) & (p2 <= n2) & (p3 <= n3)
    # shards_divide_evenly: the grid divides the dims and every block
    # divides by the fiber it is sharded across.
    state.ok &= (n1 % p1 == 0) & (n2 % p2 == 0) & (n3 % p3 == 0)
    a_block = (n1 // p1) * (n2 // p2)
    b_block = (n2 // p2) * (n3 // p3)
    c_block = (n1 // p1) * (n3 // p3)
    state.ok &= (a_block % p3 == 0) & (b_block % p1 == 0) & (c_block % p2 == 0)

    ag = "auto" if coll is None else coll
    rs = {"recursive_doubling": "recursive_halving", "bruck": "auto"}.get(ag, ag)
    if ag not in _KNOWN_COLLECTIVES[1:]:
        # Unknown collectives only raise when a collective actually runs.
        state.ok &= (p1 == 1) & (p2 == 1) & (p3 == 1)
        r3 = r1 = r2 = np.zeros_like(P)
    else:
        r3, ok3 = _collective_rounds_vec(p3, ag)
        r1, ok1 = _collective_rounds_vec(p1, ag)
        r2, ok2 = _collective_rounds_vec(p2, rs)
        state.ok &= ok3 & ok1 & ok2
    gather_a = p3 > 1
    gather_b = p1 > 1
    reduce_c = p2 > 1
    state.words[:] = (
        np.where(gather_a, (p3 - 1) * (a_block // p3), 0)
        + np.where(gather_b, (p1 - 1) * (b_block // p1), 0)
        + np.where(reduce_c, (p2 - 1) * (c_block // p2), 0)
    )
    state.rounds[:] = (
        np.where(gather_a, r3, 0)
        + np.where(gather_b, r1, 0)
        + np.where(reduce_c, r2, 0)
    )
    state.flops[:] = (n1 // p1) * (n2 // p2) * (n3 // p3) + np.where(
        reduce_c, (p2 - 1) * (c_block // p2), 0
    )
    suffix = "" if ag == "auto" else f", collectives {ag}"
    state.config_per_row(
        lambda i, row: f"grid {p1[i]}x{p2[i]}x{p3[i]}{suffix}"
    )


def _kernel_alg1_abft(state, coll):
    n1, n2, n3, P = state.cols()
    p1 = np.ones_like(P)
    p2 = np.ones_like(P)
    p3 = np.ones_like(P)
    for rows, dims, Pu in state.unique_rows():
        grid = _alg1_abft_grid_cached(dims, Pu)
        if grid is None:
            state.ok[rows] = False
        else:
            p1[rows], p2[rows], p3[rows] = grid
    # Invalid rows keep the all-ones grid, so block arithmetic below is
    # well defined everywhere and masked out at the end.
    a_block = (n1 // p1) * (n2 // p2)
    b_block = (n2 // p2) * (n3 // p3)
    c_block = (n1 // p1) * (n3 // p3)
    enc3 = p3 > 1
    enc1 = p1 > 1
    # Encode: recursive-doubling All-Reduce per fiber longer than 1 (the
    # grid picker guarantees power-of-two fibers, so ok3/ok1 are vacuous
    # but kept as a refusal guard), then one buddy
    # replication round when some fiber has length 1.
    s3, ok3 = _collective_rounds_vec(p3, "recursive_doubling")
    s1, ok1 = _collective_rounds_vec(p1, "recursive_doubling")
    state.ok &= ok3 & ok1
    buddy = (p3 == 1) | (p1 == 1)
    a_shard = a_block // p3
    b_shard = b_block // p1
    rounds = (
        np.where(enc3, s3, 0) + np.where(enc1, s1, 0) + np.where(buddy, 1, 0)
    )
    words = (
        np.where(enc3, s3 * a_shard, 0)
        + np.where(enc1, s1 * b_shard, 0)
        + np.where(p3 == 1, a_block, 0)
        + np.where(p1 == 1, b_block, 0)
    )
    flops = np.where(enc3, s3 * a_shard, 0) + np.where(enc1, s1 * b_shard, 0)
    # The four alg1 phases with auto collectives.
    r3, _ = _collective_rounds_vec(p3, "auto")
    r1, _ = _collective_rounds_vec(p1, "auto")
    r2, _ = _collective_rounds_vec(p2, "auto")
    reduce_c = p2 > 1
    c_shard = c_block // p2
    words = words + (
        np.where(enc3, (p3 - 1) * a_shard, 0)
        + np.where(enc1, (p1 - 1) * b_shard, 0)
        + np.where(reduce_c, (p2 - 1) * c_shard, 0)
    )
    rounds = rounds + (
        np.where(enc3, r3, 0)
        + np.where(enc1, r1, 0)
        + np.where(reduce_c, r2, 0)
    )
    flops = flops + (
        (n1 // p1) * (n2 // p2) * (n3 // p3)
        + np.where(reduce_c, (p2 - 1) * c_shard, 0)
    )
    state.rounds[:] = rounds
    state.words[:] = words
    state.flops[:] = flops
    state.config_per_row(lambda i, row: f"grid {p1[i]}x{p2[i]}x{p3[i]}")


def _kernel_c25d(state, coll):
    n1, n2, n3, P = state.cols()
    q = np.ones_like(P)
    c = np.ones_like(P)
    for rows, dims, Pu in state.unique_rows():
        best = _c25d_grid_cached(dims, Pu)
        if best is None:
            state.ok[rows] = False
        else:
            q[rows], c[rows] = best
    state.ok &= (n1 % q == 0) & (n2 % q == 0) & (n3 % q == 0)
    a_block = (n1 // q) * (n2 // q)
    b_block = (n2 // q) * (n3 // q)
    d_block = (n1 // q) * (n3 // q)
    stride = q // c
    depth = _bit_length(np.maximum(c, 1) - 1)  # ceil_log2(c)
    rounds = np.zeros_like(P)
    words = np.zeros_like(P)
    skew = q > 1
    rounds = rounds + np.where(skew, 2, 0)
    words = words + np.where(skew, a_block + b_block, 0)
    deep = c > 1
    rounds = rounds + np.where(deep, 2 * depth, 0)
    words = words + np.where(deep, depth * (a_block + b_block), 0)
    shifting = stride > 1
    rounds = rounds + np.where(shifting, 2 * (stride - 1), 0)
    words = words + np.where(shifting, (stride - 1) * (a_block + b_block), 0)
    flops = stride * (n1 // q) * (n2 // q) * (n3 // q)
    rounds = rounds + np.where(deep, depth, 0)
    words = words + np.where(deep, depth * d_block, 0)
    flops = flops + np.where(deep, depth * d_block, 0)
    state.rounds[:] = rounds
    state.words[:] = words
    state.flops[:] = flops
    state.config_per_row(lambda i, row: f"grid {q[i]}x{q[i]}x{c[i]}")


def _kernel_carma(state, coll):
    for rows, dims, P in state.unique_rows():
        try:
            rounds, words, flops, n_splits = _carma_replay(ProblemShape(*dims), P)
        except OracleUnsupportedError:
            state.ok[rows] = False
            continue
        state.rounds[rows] = rounds
        state.words[rows] = words
        state.flops[rows] = flops
        state.set_config(rows, f"{n_splits} splits")


_KERNELS = {
    "alg1": _kernel_alg1,
    "row_1d": _kernel_row_1d,
    "outer_1d": _kernel_outer_1d,
    "cannon": _kernel_cannon,
    "fox": _kernel_fox,
    "fox_otto": _kernel_fox,
    "summa": _kernel_summa,
    "c25d": _kernel_c25d,
    "carma": _kernel_carma,
    "alg1_abft": _kernel_alg1_abft,
    "summa_abft": _kernel_summa_abft,
}


# --------------------------------------------------------------------- #
# kernel state + float finish                                           #
# --------------------------------------------------------------------- #


class _KernelState:
    """Mutable working arrays one kernel fills; counters take the dtype
    of ``dims`` (int64, or object for exact Python ints)."""

    def __init__(self, dims: np.ndarray, P: np.ndarray):
        n = len(P)
        self.dims = dims
        self.P = P
        self.ok = np.ones(n, dtype=bool)
        self.rounds = np.zeros(n, dtype=dims.dtype)
        self.words = np.zeros(n, dtype=dims.dtype)
        self.flops = np.zeros(n, dtype=dims.dtype)
        self.configs: List[Optional[str]] = [None] * n

    def cols(self):
        return (
            self.dims[:, 0], self.dims[:, 1], self.dims[:, 2], self.P
        )

    def unique_rows(self):
        return _unique_rows(self.dims, self.P, self.ok)

    def set_config(self, rows, config: str) -> None:
        for i in rows:
            self.configs[i] = config

    def config_per_row(self, fn) -> None:
        for i in np.flatnonzero(self.ok):
            row = (
                int(self.dims[i, 0]), int(self.dims[i, 1]),
                int(self.dims[i, 2]), int(self.P[i]),
            )
            self.configs[i] = fn(i, row)


def _float_finish(
    dims: np.ndarray, P: np.ndarray, words: np.ndarray, mask: np.ndarray
):
    """Theorem 3 bound, attainment, gap and satisfied flags, vectorized.

    Replicates the op order of ``bound_attainment`` and
    ``check_cost_against_bound`` exactly: sorted float dims, the
    case-wise Lemma 2 value summed left to right, ``D - total_data / P``,
    and the guarded ratios.  Valid only on rows passing the safe-range
    guard (all inputs exactly representable; classify comparisons free of
    int64 overflow).
    """
    n = len(P)
    bound = np.full(n, np.nan)
    attainment = np.full(n, np.nan)
    gap = np.full(n, np.nan)
    satisfied = np.zeros(n, dtype=bool)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return bound, attainment, gap, satisfied
    d = np.sort(dims[idx], axis=1)
    k, nn, m = d[:, 0], d[:, 1], d[:, 2]
    p = P[idx]
    case1 = p * nn <= m
    case2 = ~case1 & (p * k * k <= m * nn)
    mf = m.astype(np.float64)
    nf = nn.astype(np.float64)
    kf = k.astype(np.float64)
    pf = p.astype(np.float64)
    # Case 1: sum((float(n*k), m*k/P, m*n/P)) — left-to-right addition.
    v1 = (nf * kf + (mf * kf) / pf) + (mf * nf) / pf
    # Case 2: s = sqrt(m*n*k*k / P); sum((s, s, m*n/P)).
    with np.errstate(invalid="ignore"):
        s = np.sqrt(((mf * nf) * kf * kf) / pf)
    v2 = (s + s) + (mf * nf) / pf
    # Case 3: c = (m*n*k/P) ** (2/3); sum((c, c, c)).  numpy's vectorized
    # power is not correctly rounded (1-ulp drift vs libm on some inputs),
    # so the pow itself runs through CPython's float.__pow__ on the unique
    # ratio values — bit-identical to ``bound_attainment`` by construction.
    ratio = ((mf * nf) * kf) / pf
    uniq, inverse = np.unique(ratio, return_inverse=True)
    c3 = np.asarray([float(u) ** (2.0 / 3.0) for u in uniq])[inverse]
    v3 = (c3 + c3) + c3
    accessed = np.where(case1, v1, np.where(case2, v2, v3))
    n1, n2, n3 = dims[idx, 0], dims[idx, 1], dims[idx, 2]
    total_data = (n1 * n2 + n2 * n3 + n1 * n3).astype(np.float64)
    b = accessed - total_data / pf
    w = words[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        att = np.where(b == 0.0, np.where(w == 0.0, 1.0, np.inf), w / b)
        g = np.where(b > 0.0, w / b, np.nan)
    tol = 1e-9 * np.maximum(1.0, np.abs(b))
    sat = w >= b - tol
    bound[idx] = b
    attainment[idx] = att
    gap[idx] = g
    satisfied[idx] = sat
    return bound, attainment, gap, satisfied


# --------------------------------------------------------------------- #
# public entry                                                          #
# --------------------------------------------------------------------- #


def _int_array(values) -> np.ndarray:
    """``values`` as int64, or as an object array of Python ints when some
    entry needs more than 64 bits."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        arr = np.asarray(values, dtype=object)
        return np.array([int(v) for v in arr.flat], dtype=object).reshape(arr.shape)


def _normalize_batch(shapes, P) -> Tuple[np.ndarray, np.ndarray]:
    if isinstance(shapes, ProblemShape):
        shapes = [shapes.dims]
    elif not isinstance(shapes, np.ndarray):
        shapes = list(shapes)
        if shapes and isinstance(shapes[0], ProblemShape):
            shapes = [s.dims for s in shapes]
    dims = _int_array(shapes)
    if dims.ndim == 1 and dims.size in (0, 3):  # no rows, or one bare triple
        dims = dims.reshape(-1, 3)
    if dims.ndim != 2 or dims.shape[1] != 3:
        raise ShapeError(f"expected (N, 3) dimensions, got shape {dims.shape}")
    Parr = np.atleast_1d(_int_array(P))
    if dims.dtype == object or Parr.dtype == object:
        dims, Parr = dims.astype(object), Parr.astype(object)
    if len(dims) == 1 and len(Parr) > 1:
        dims = np.repeat(dims, len(Parr), axis=0)
    if len(Parr) == 1 and len(dims) > 1:
        Parr = np.repeat(Parr, len(dims))
    if len(dims) != len(Parr):
        raise ShapeError(
            f"batch length mismatch: {len(dims)} shapes vs {len(Parr)} "
            f"processor counts"
        )
    if np.any(dims < 1):
        raise ShapeError("matrix dimensions must be positive")
    return dims, Parr


def predict_batch(
    name: str,
    shapes,
    P,
    collective_algorithm: Optional[str] = None,
) -> BatchPrediction:
    """The oracle over a batch of configurations, one algorithm at a time.

    Parameters
    ----------
    name:
        Registry algorithm name.  Unknown names raise
        :class:`OracleUnsupportedError`.
    shapes, P:
        Either equal-length sequences of shapes (``ProblemShape`` or
        ``(n1, n2, n3)`` triples) and processor counts, or one of the two
        broadcast against the other (one shape x many P, many shapes x
        one P).  Empty sequences give an empty batch.
    collective_algorithm:
        Honoured for ``alg1`` only, mirroring
        :func:`repro.algorithms.registry.run_algorithm`.

    Returns
    -------
    BatchPrediction
        Per-row validity mask, integer cost counters, configs, and the
        float analysis (bound / attainment / gap).  ``prediction(i)`` is
        :func:`repro.analysis.oracle.predict_cost` on row ``i``, and
        ``valid[i]`` is False exactly where that raises
        ``OracleUnsupportedError``.
    """
    if name not in _KERNELS:
        raise OracleUnsupportedError(
            f"unknown algorithm {name!r}; oracle covers "
            f"{sorted(ORACLE_ALGORITHMS)}"
        )
    dims, Parr = _normalize_batch(shapes, P)
    n = len(Parr)

    positive = Parr >= 1
    Pc = np.where(positive, Parr, 1)
    safe = np.fromiter(
        (
            _shape_in_safe_range(int(d[0]), int(d[1]), int(d[2]), int(p))
            for d, p in zip(dims, Pc)
        ),
        dtype=bool,
        count=n,
    )
    fast = positive & safe
    if dims.dtype == object:  # the in-range rows still run on int64
        dims64 = np.where(fast[:, None], dims, 1).astype(np.int64)
        P64 = np.where(fast, Pc, 1).astype(np.int64)
    else:
        dims64, P64 = dims, Pc

    state = _KernelState(dims64, P64)
    state.ok &= fast
    if fast.any():
        _KERNELS[name](state, collective_algorithm)
    state.ok &= fast

    valid = state.ok.copy()
    rounds = np.where(valid, state.rounds, 0)
    words = np.where(valid, state.words, 0).astype(np.float64)
    flops = np.where(valid, state.flops, 0).astype(np.float64)
    configs = [c if ok else None for c, ok in zip(state.configs, valid)]

    bound, attainment, gap, satisfied = _float_finish(
        dims64, P64, words, valid
    )

    # Rows outside the int64/float64-exact range run through the same
    # kernel on Python ints; their float finish is the per-row one.
    wide = np.flatnonzero(positive & ~safe)
    if wide.size:
        from .verification import check_cost_against_bound

        exact = _KernelState(dims[wide].astype(object), Pc[wide].astype(object))
        _KERNELS[name](exact, collective_algorithm)
        for j in np.flatnonzero(exact.ok):
            i = wide[j]
            shape = ProblemShape(*exact.dims[j])
            cost = Cost(
                rounds=exact.rounds[j],
                words=float(exact.words[j]),
                flops=float(exact.flops[j]),
            )
            gauge = bound_attainment(shape, exact.P[j], cost.words)
            check = check_cost_against_bound(shape, exact.P[j], cost)
            valid[i] = True
            rounds[i] = cost.rounds
            words[i] = cost.words
            flops[i] = cost.flops
            configs[i] = exact.configs[j]
            bound[i] = gauge.bound
            attainment[i] = gauge.ratio
            gap[i] = check.gap_ratio
            satisfied[i] = check.satisfied

    return BatchPrediction(
        algorithm=name,
        dims=dims,
        P=Parr,
        valid=valid,
        rounds=rounds,
        words=words,
        flops=flops,
        bound=bound,
        attainment=attainment,
        gap_ratio=gap,
        satisfied=satisfied,
        configs=configs,
    )
