"""Analytic cost oracle: closed-form per-algorithm cost predictions.

Every registered algorithm's simulated cost is a deterministic function of
``(shape, P)`` alone — the simulator counts words and rounds, it never
times elements — so each has a closed form.  This module computes those
forms and returns the same :class:`~repro.machine.cost.Cost` structure the
simulator produces, making the oracle

* a **fast path**: ``sweep(engine="oracle")`` and ``repro run --oracle``
  evaluate points in microseconds instead of simulating data movement
  (the ROADMAP's scaling lever — parameter spaces at ``P = 10^6+``), and
* an **independent correctness witness**: the formulas below are derived
  from the paper (expression (3), Section 5.1) and the classic literature
  (Cannon 1969, Fox & Otto 1987, van de Geijn & Watts 1997, Solomonik &
  Demmel 2011, Demmel et al. 2013), *not* from the simulator's code, so
  :func:`repro.analysis.verification.cross_check_oracle` asserting exact
  equality checks both sides at once.

The contract is **bit-exact equality or refusal**: configurations whose
simulated critical path charges ragged pieces (uneven blocks or shards)
are rejected with :class:`~repro.exceptions.OracleUnsupportedError`
instead of approximated.  In the supported domain every quantity is an
integer computed with integer arithmetic, so float representation cannot
introduce drift.

Per-algorithm cost shapes (divisible configurations, ``a/b/d`` block words):

=========  ================================================================
alg1       expression (3) words; rounds from the collective dispatch
           (``log2 p`` for power-of-two fibers, ``p - 1`` ring, Bruck
           ``ceil log2 p``); flops ``n1 n2 n3 / P`` + reduce-scatter adds.
row_1d     ``(1 - 1/P) n2 n3`` words (All-Gather of ``B``).
outer_1d   ``(1 - 1/P) n1 n3`` words (Reduce-Scatter of ``C`` partials).
cannon     ``q (a + b)`` words in ``2q`` rounds (2 skews + ``2(q-1)`` shifts).
fox        per stage: scatter+allgather broadcast of the pivot ``A`` block
           along rows (replayed exactly, max over the ``q`` root rotations)
           plus a one-round roll of ``B``.
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

The ABFT forms are *fault-free* costs: recovery traffic is charged to the
run's injector (``words_recovered``), never predicted here, so the oracle
stays an independent witness for the encode overhead the survivability
report compares against the Theorem 3 bound.

The Fox/SUMMA broadcast is *replayed over integer geometry* — identical
round structure and piece sizes as the executable schedule, but no arrays,
no machine, no data movement.  CARMA is not replayed at all: every split
it can execute halves an even dimension, so all subproblems at one level
share a shape, and the initial row slabs of ``A`` and ``B`` are the only
irregularity.  After ``l`` levels rank ``r`` holds exactly the slabs
``s = r (mod P >> l)`` that meet its region, so each level's messages are
counts and overlap sums over an arithmetic progression of slabs — integer
arithmetic per rank and level, independent of the matrix dimensions.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..algorithms.abft import abft_summa_grid, alg1_abft_grid
from ..algorithms.carma_counts import carma_counts
from ..algorithms.distributions import shards_divide_evenly
from ..algorithms.grid_selection import select_grid
from ..algorithms.registry import REGISTRY, c25d_grid, summa_grid
from ..collectives.schedules import ceil_log2, is_power_of_two
from ..core.shapes import ProblemShape
from ..exceptions import GridError, OracleUnsupportedError
from ..machine.cost import Cost
from ..obs.attainment import bound_attainment

__all__ = [
    "ORACLE_ALGORITHMS",
    "OraclePrediction",
    "collective_rounds",
    "oracle_supported",
    "predict_cost",
]


@dataclasses.dataclass(frozen=True)
class OraclePrediction:
    """A closed-form prediction mirroring a registry run's observables.

    ``cost`` matches ``run_algorithm(...).cost`` exactly (rounds, words,
    flops); ``config`` matches the registry's config string; ``bound`` and
    ``attainment`` mirror the run's bound-attainment gauge.
    """

    algorithm: str
    shape: ProblemShape
    P: int
    cost: Cost
    config: str
    bound: float
    attainment: float


def collective_rounds(p: int, algorithm: str = "auto") -> int:
    """Communication rounds of one bandwidth-optimal collective over ``p`` ranks.

    Matches the executable schedules: ``ring`` takes ``p - 1`` rounds,
    ``recursive_doubling``/``recursive_halving`` take ``log2 p`` (powers of
    two only), ``bruck`` takes ``ceil(log2 p)``, and ``auto`` dispatches to
    doubling/halving when ``p`` is a power of two, else ring.
    """
    if p <= 1:
        return 0
    if algorithm == "auto":
        return p.bit_length() - 1 if is_power_of_two(p) else p - 1
    if algorithm == "ring":
        return p - 1
    if algorithm in ("recursive_doubling", "recursive_halving"):
        if not is_power_of_two(p):
            raise OracleUnsupportedError(
                f"{algorithm} requires a power-of-two group, got p={p}"
            )
        return p.bit_length() - 1
    if algorithm == "bruck":
        return ceil_log2(p)
    raise OracleUnsupportedError(f"unknown collective algorithm {algorithm!r}")


# --------------------------------------------------------------------- #
# Algorithm 1 and the 1D baselines                                      #
# --------------------------------------------------------------------- #


def _predict_alg1(
    shape: ProblemShape, P: int, collective_algorithm: Optional[str]
) -> OraclePrediction:
    n1, n2, n3 = shape.dims
    try:
        choice = select_grid(shape, P)
    except GridError as exc:
        raise OracleUnsupportedError(f"alg1: no grid for P={P}: {exc}") from exc
    grid = choice.grid
    p1, p2, p3 = grid.dims
    if p1 > n1 or p2 > n2 or p3 > n3:
        raise OracleUnsupportedError(
            f"alg1: selected grid {grid} exceeds dimensions {shape.dims}"
        )
    if not shards_divide_evenly(shape, grid):
        raise OracleUnsupportedError(
            f"alg1: grid {grid} does not shard {shape} evenly; the simulated "
            f"critical path charges the largest ragged shard"
        )
    ag = "auto" if collective_algorithm is None else collective_algorithm
    # The executable maps gather algorithms to their reduce-phase duals;
    # Bruck has no Reduce-Scatter dual and falls back to "auto".
    rs = {"recursive_doubling": "recursive_halving", "bruck": "auto"}.get(ag, ag)

    a_block = (n1 // p1) * (n2 // p2)
    b_block = (n2 // p2) * (n3 // p3)
    c_block = (n1 // p1) * (n3 // p3)
    words = 0
    rounds = 0
    if p3 > 1:  # All-Gather A along p3-fibers
        words += (p3 - 1) * (a_block // p3)
        rounds += collective_rounds(p3, ag)
    if p1 > 1:  # All-Gather B along p1-fibers
        words += (p1 - 1) * (b_block // p1)
        rounds += collective_rounds(p1, ag)
    flops = (n1 // p1) * (n2 // p2) * (n3 // p3)
    if p2 > 1:  # Reduce-Scatter C along p2-fibers (+ the reduction adds)
        words += (p2 - 1) * (c_block // p2)
        rounds += collective_rounds(p2, rs)
        flops += (p2 - 1) * (c_block // p2)

    config = f"grid {grid}"
    if ag != "auto":
        config += f", collectives {ag}"
    return _finish("alg1", shape, P, rounds, words, flops, config)


def _predict_row_1d(shape: ProblemShape, P: int) -> OraclePrediction:
    n1, n2, n3 = shape.dims
    if P > n1:
        raise OracleUnsupportedError(f"row_1d needs P <= n1, got P={P}, n1={n1}")
    if (n2 * n3) % P:
        raise OracleUnsupportedError(
            f"row_1d: P={P} does not divide |B| = {n2 * n3}; shards are ragged"
        )
    words = (P - 1) * ((n2 * n3) // P)
    rounds = collective_rounds(P, "auto")
    flops = -(-n1 // P) * n2 * n3  # largest row block does the most work
    return _finish("row_1d", shape, P, rounds, words, flops, f"P={P}")


def _predict_outer_1d(shape: ProblemShape, P: int) -> OraclePrediction:
    n1, n2, n3 = shape.dims
    if P > n2:
        raise OracleUnsupportedError(f"outer_1d needs P <= n2, got P={P}, n2={n2}")
    if (n1 * n3) % P:
        raise OracleUnsupportedError(
            f"outer_1d: P={P} does not divide |C| = {n1 * n3}; shards are ragged"
        )
    shard = (n1 * n3) // P
    words = (P - 1) * shard
    rounds = collective_rounds(P, "auto")
    flops = n1 * (-(-n2 // P)) * n3 + (P - 1) * shard if P > 1 else n1 * n2 * n3
    return _finish("outer_1d", shape, P, rounds, words, flops, f"P={P}")


# --------------------------------------------------------------------- #
# 2D and 2.5D baselines                                                 #
# --------------------------------------------------------------------- #


def _square_grid_side(name: str, shape: ProblemShape, P: int) -> int:
    q = math.isqrt(P)
    if q * q != P:
        raise OracleUnsupportedError(f"{name} needs a square P, got {P}")
    if q > min(shape.dims):
        raise OracleUnsupportedError(
            f"{name}: q={q} exceeds the smallest dimension of {shape}"
        )
    if any(n % q for n in shape.dims):
        raise OracleUnsupportedError(
            f"{name}: q={q} does not divide {shape.dims}; blocks are ragged"
        )
    return q


def _predict_cannon(shape: ProblemShape, P: int) -> OraclePrediction:
    n1, n2, n3 = shape.dims
    q = _square_grid_side("cannon", shape, P)
    config = f"grid {q}x{q}"
    if q == 1:
        return _finish("cannon", shape, P, 0, 0, n1 * n2 * n3, config)
    a_block = (n1 // q) * (n2 // q)
    b_block = (n2 // q) * (n3 // q)
    # 1 skew + (q - 1) shift rounds per matrix, each moving one full block.
    rounds = 2 * q
    words = q * (a_block + b_block)
    flops = q * (n1 // q) * (n2 // q) * (n3 // q)
    return _finish("cannon", shape, P, rounds, words, flops, config)


def _scatter_allgather_broadcast(
    p: int, w: int, root_positions: Sequence[int]
) -> Tuple[int, int]:
    """Exact (rounds, critical words) of the van de Geijn broadcast.

    Replays the binomial scatter's round structure over ``p`` pieces of
    ``numpy.array_split`` sizes, taking the per-round maximum message
    across the merged groups' root rotations (``root_positions``), then
    adds the ring All-Gather (``p - 1`` rounds charging the largest piece).

    Memoized on ``(p, w, roots)``: SUMMA's stage loop asks for the same
    handful of root rotations thousands of times, and sweeps repeat
    identical block sizes across shapes.
    """
    return _scatter_allgather_cached(p, w, tuple(root_positions))


@functools.lru_cache(maxsize=65536)
def _scatter_allgather_cached(
    p: int, w: int, root_positions: Tuple[int, ...]
) -> Tuple[int, int]:
    base, extra = divmod(w, p)
    psize = [base + (1 if j < extra else 0) for j in range(p)]
    if psize[-1] == 0:
        raise OracleUnsupportedError(
            f"scatter_allgather broadcast of {w} words over {p} ranks has "
            f"empty pieces; the executable schedule cannot send them"
        )
    rounds = 0
    words = 0
    # Binomial scatter: holders forward the upper half of their index range.
    holding: Dict[int, List[int]] = {0: list(range(p))}
    dist = 1 << max(ceil_log2(p) - 1, 0) if p > 1 else 0
    while dist >= 1:
        moves = []
        for i in sorted(holding):
            upper = [j for j in holding[i] if j >= i + dist]
            if upper:
                moves.append((i, upper))
        if moves:
            rounds += 1
            crit = 0
            for rho in root_positions:
                for _, upper in moves:
                    sent = sum(psize[(j + rho) % p] for j in upper)
                    if sent > crit:
                        crit = sent
            words += crit
            for i, upper in moves:
                holding[i] = [j for j in holding[i] if j < i + dist]
                holding[i + dist] = upper
        dist //= 2
    # Ring All-Gather: every piece is in flight each round.
    rounds += p - 1
    words += (p - 1) * max(psize)
    return rounds, words


def _predict_fox(shape: ProblemShape, P: int, name: str = "fox") -> OraclePrediction:
    """Fox's schedule; ``name`` may be ``fox_otto`` — the min-plus distance
    product runs the identical schedule, so the closed form is shared."""
    n1, n2, n3 = shape.dims
    q = _square_grid_side(name, shape, P)
    config = f"grid {q}x{q}"
    if q == 1:
        return _finish(name, shape, P, 0, 0, n1 * n2 * n3, config)
    a_block = (n1 // q) * (n2 // q)
    b_block = (n2 // q) * (n3 // q)
    # Stage t broadcasts the pivot A block along every grid row; row i's
    # root sits at column (i + t) % q, so all q rotations are always
    # present among the merged groups.
    bcast_rounds, bcast_words = _scatter_allgather_broadcast(
        q, a_block, range(q)
    )
    rounds = q * bcast_rounds + (q - 1)  # + one roll of B per early stage
    words = q * bcast_words + (q - 1) * b_block
    flops = q * (n1 // q) * (n2 // q) * (n3 // q)
    return _finish(name, shape, P, rounds, words, flops, config)


def _predict_summa(shape: ProblemShape, P: int) -> OraclePrediction:
    n1, n2, n3 = shape.dims
    grid = summa_grid(shape, P)
    if grid is None:
        raise OracleUnsupportedError(f"summa: no divisible grid for {shape}, P={P}")
    pr, pc = grid
    panel = math.gcd(n2 // pr, n2 // pc)
    stages = n2 // panel
    rounds = 0
    words = 0
    # Over the stage loop (t = 0 .. stages-1, k0 = t * panel) the row root
    # jt = k0 // (n2 // pc) visits each value 0 .. pc-1 exactly
    # stages // pc times (panel divides n2 // pc, which divides n2), and
    # likewise it visits 0 .. pr-1 exactly stages // pr times.  All
    # summands are Python ints, so regrouping the sum by root value is
    # exact — identical words and rounds as the per-stage loop, in
    # O(pr + pc) broadcast evaluations instead of O(stages).
    if pc > 1:
        for jt in range(pc):
            r, w = _scatter_allgather_broadcast(pc, (n1 // pr) * panel, (jt,))
            rounds += (stages // pc) * r
            words += (stages // pc) * w
    if pr > 1:
        for it in range(pr):
            r, w = _scatter_allgather_broadcast(pr, panel * (n3 // pc), (it,))
            rounds += (stages // pr) * r
            words += (stages // pr) * w
    flops = (n1 // pr) * n2 * (n3 // pc)
    return _finish("summa", shape, P, rounds, words, flops, f"grid {pr}x{pc}")


def _predict_c25d(shape: ProblemShape, P: int) -> OraclePrediction:
    n1, n2, n3 = shape.dims
    best = c25d_grid(shape, P)
    if best is None:
        raise OracleUnsupportedError(f"c25d: no q^2 c grid for {shape}, P={P}")
    q, c = best
    if any(n % q for n in shape.dims):
        raise OracleUnsupportedError(
            f"c25d: q={q} does not divide {shape.dims}; blocks are ragged"
        )
    config = f"grid {q}x{q}x{c}"
    a_block = (n1 // q) * (n2 // q)
    b_block = (n2 // q) * (n3 // q)
    d_block = (n1 // q) * (n3 // q)
    stride = q // c
    rounds = 0
    words = 0
    if q > 1:  # layer-0 Cannon pre-skews, one round per matrix
        rounds += 2
        words += a_block + b_block
    if c > 1:  # binomial depth broadcasts of the skewed A and B blocks
        depth_rounds = ceil_log2(c)
        rounds += 2 * depth_rounds
        words += depth_rounds * (a_block + b_block)
    if stride > 1:  # per-layer Cannon shift stages
        rounds += 2 * (stride - 1)
        words += (stride - 1) * (a_block + b_block)
    flops = stride * (n1 // q) * (n2 // q) * (n3 // q)
    if c > 1:  # binomial depth reduction of C; roots sum one block per round
        depth_rounds = ceil_log2(c)
        rounds += depth_rounds
        words += depth_rounds * d_block
        flops += depth_rounds * d_block
    return _finish("c25d", shape, P, rounds, words, flops, config)


# --------------------------------------------------------------------- #
# CARMA: per-level slab arithmetic                                      #
# --------------------------------------------------------------------- #


def _carma_replay(shape: ProblemShape, P: int) -> Tuple[int, int, int, int]:
    """CARMA's exact ``(rounds, words, flops, splits)``, or a typed refusal.

    The counts come from :func:`repro.algorithms.carma_counts.carma_counts`,
    the same predicate the registry's ``carma`` applicability reads.
    """
    counts = carma_counts(shape.dims, P)
    if isinstance(counts, str):
        raise OracleUnsupportedError(counts)
    return counts


def _predict_carma(shape: ProblemShape, P: int) -> OraclePrediction:
    rounds, words, flops, n_splits = _carma_replay(shape, P)
    return _finish(
        "carma", shape, P, rounds, words, flops, f"{n_splits} splits"
    )


# --------------------------------------------------------------------- #
# ABFT checksum-encoded variants                                        #
# --------------------------------------------------------------------- #


def _predict_alg1_abft(shape: ProblemShape, P: int) -> OraclePrediction:
    n1, n2, n3 = shape.dims
    grid = alg1_abft_grid(shape, P)
    if grid is None:
        raise OracleUnsupportedError(
            f"alg1_abft: no ABFT-encodable grid for {shape}, P={P}"
        )
    p1, p2, p3 = grid.dims
    a_block = (n1 // p1) * (n2 // p2)
    b_block = (n2 // p2) * (n3 // p3)
    c_block = (n1 // p1) * (n3 // p3)
    rounds = 0
    words = 0
    flops = 0
    # Encode: one recursive-doubling All-Reduce per fiber longer than 1
    # (every round moves and combines one full shard per rank), then one
    # buddy-replication permutation round when some fiber has length 1.
    if p3 > 1:
        steps = collective_rounds(p3, "recursive_doubling")
        rounds += steps
        words += steps * (a_block // p3)
        flops += steps * (a_block // p3)
    if p1 > 1:
        steps = collective_rounds(p1, "recursive_doubling")
        rounds += steps
        words += steps * (b_block // p1)
        flops += steps * (b_block // p1)
    if p3 == 1 or p1 == 1:
        rounds += 1
        words += (a_block if p3 == 1 else 0) + (b_block if p1 == 1 else 0)
    # The four alg1 phases with auto collectives (fibers longer than 1 are
    # powers of two by construction, so auto dispatches logarithmically).
    if p3 > 1:
        words += (p3 - 1) * (a_block // p3)
        rounds += collective_rounds(p3, "auto")
    if p1 > 1:
        words += (p1 - 1) * (b_block // p1)
        rounds += collective_rounds(p1, "auto")
    flops += (n1 // p1) * (n2 // p2) * (n3 // p3)
    if p2 > 1:
        words += (p2 - 1) * (c_block // p2)
        rounds += collective_rounds(p2, "auto")
        flops += (p2 - 1) * (c_block // p2)
    return _finish(
        "alg1_abft", shape, P, rounds, words, flops, f"grid {grid}"
    )


def _predict_summa_abft(shape: ProblemShape, P: int) -> OraclePrediction:
    n1, n2, n3 = shape.dims
    grid = abft_summa_grid(shape, P)
    if grid is None:
        raise OracleUnsupportedError(
            f"summa_abft: no (pr+1) x pc grid for {shape}, P={P}"
        )
    pr, pc = grid
    qr = pr + 1
    # Encode: one permutation round replicating each stationary B block
    # down its grid column.
    rounds = 1
    words = (n2 // qr) * (n3 // pc)
    # SUMMA stages on the extended grid: the checksum row broadcasts and
    # accumulates exactly like a real row.
    panel = math.gcd(n2 // qr, n2 // pc)
    stages = n2 // panel
    # Same stage-loop regrouping as _predict_summa (exact for integer
    # sums): each row root jt occurs stages // pc times, each extended
    # column root it occurs stages // qr times.
    if pc > 1:
        for jt in range(pc):
            r, w = _scatter_allgather_broadcast(pc, (n1 // pr) * panel, (jt,))
            rounds += (stages // pc) * r
            words += (stages // pc) * w
    # qr = pr + 1 >= 2: the column broadcast always runs.
    for it in range(qr):
        r, w = _scatter_allgather_broadcast(qr, panel * (n3 // pc), (it,))
        rounds += (stages // qr) * r
        words += (stages // qr) * w
    flops = (n1 // pr) * n2 * (n3 // pc)
    return _finish(
        "summa_abft", shape, P, rounds, words, flops,
        f"grid {pr}x{pc} + checksum row",
    )


# --------------------------------------------------------------------- #
# dispatch                                                              #
# --------------------------------------------------------------------- #


def _finish(
    name: str,
    shape: ProblemShape,
    P: int,
    rounds: int,
    words: int,
    flops: int,
    config: str,
) -> OraclePrediction:
    cost = Cost(rounds=rounds, words=float(words), flops=float(flops))
    gauge = bound_attainment(shape, P, cost.words)
    return OraclePrediction(
        algorithm=name,
        shape=shape,
        P=P,
        cost=cost,
        config=config,
        bound=gauge.bound,
        attainment=gauge.ratio,
    )


#: Algorithms the oracle predicts (all registry entries).
ORACLE_ALGORITHMS: Tuple[str, ...] = tuple(REGISTRY)


def predict_cost(
    name: str,
    shape: ProblemShape,
    P: int,
    collective_algorithm: Optional[str] = None,
) -> OraclePrediction:
    """Closed-form prediction of ``run_algorithm(name, A, B, P)``'s cost.

    Exact by contract: wherever this returns, the prediction equals the
    simulated :class:`~repro.machine.cost.Cost` bit for bit on both
    backends (:func:`repro.analysis.verification.cross_check_oracle`
    enforces it).  ``collective_algorithm`` is honoured for ``alg1`` only,
    mirroring :func:`repro.algorithms.registry.run_algorithm`.

    Raises
    ------
    OracleUnsupportedError
        Unknown algorithm, infeasible ``(shape, P)``, or a configuration
        whose simulated cost depends on ragged pieces.
    """
    if P < 1:
        raise OracleUnsupportedError(f"P must be positive, got {P}")
    if name == "alg1":
        return _predict_alg1(shape, P, collective_algorithm)
    if name == "row_1d":
        return _predict_row_1d(shape, P)
    if name == "outer_1d":
        return _predict_outer_1d(shape, P)
    if name == "cannon":
        return _predict_cannon(shape, P)
    if name in ("fox", "fox_otto"):
        return _predict_fox(shape, P, name=name)
    if name == "summa":
        return _predict_summa(shape, P)
    if name == "c25d":
        return _predict_c25d(shape, P)
    if name == "carma":
        return _predict_carma(shape, P)
    if name == "alg1_abft":
        return _predict_alg1_abft(shape, P)
    if name == "summa_abft":
        return _predict_summa_abft(shape, P)
    raise OracleUnsupportedError(
        f"unknown algorithm {name!r}; oracle covers {sorted(ORACLE_ALGORITHMS)}"
    )


def oracle_supported(
    name: str,
    shape: ProblemShape,
    P: int,
    collective_algorithm: Optional[str] = None,
) -> bool:
    """True when :func:`predict_cost` accepts this configuration."""
    try:
        predict_cost(name, shape, P, collective_algorithm=collective_algorithm)
    except OracleUnsupportedError:
        return False
    return True
