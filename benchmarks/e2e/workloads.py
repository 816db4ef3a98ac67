"""The benchmark's four workloads.

Each workload turns a seed into a list of ops up front, runs one op as
exactly one public ``repro`` call (the timed region), and checks the
result afterwards, outside the timed region, against witnesses that
share no code with the call: the vectorized oracle for model counts, the
Theorem-3 bound, the planner's own candidate list for its argmin, and the
quadchotomy for chaos cells.  ``repro`` is imported inside the functions,
so importing this module costs only numpy.

Ops come in passes, each with the same mix of op costs, and pass ``j``
of a seed is drawn from ``(seed, j)`` alone: more passes extend the list
without changing the ops before them, so the seed-0 digests pinned in
``expected/`` cover every shorter run.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["Op", "Outcome", "Workload", "WORKLOADS"]

#: Relative slack of the Theorem-3 check; the bound is a float closed form.
_BOUND_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Op:
    """One benchmark operation: a stable id and the inputs of one call."""

    id: str
    args: Tuple[Any, ...]


@dataclasses.dataclass
class Outcome:
    """What the untimed check of one op found.

    ``counts`` are the model counts the seed-0 digest pins; ``problems``
    is empty when the op passed every check; ``stats`` carries extra
    quantities the traced run aggregates (chaos: resent and clean words).
    """

    counts: Tuple[Any, ...]
    problems: List[str]
    stats: Dict[str, float] = dataclasses.field(default_factory=dict)


def _rng(seed: int, workload: str, part: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), part])


def _below_bound(words: float, bound: float) -> bool:
    return words < bound * (1.0 - _BOUND_RTOL)


def _oracle(name, dims, P, collective=None):
    """``predict_batch``'s (words, rounds, flops), or ``None`` where undefined."""
    from repro.analysis.oracle_vec import predict_batch

    batch = predict_batch(name, [dims], [P], collective_algorithm=collective)
    if not batch.valid[0]:
        return None
    return float(batch.words[0]), int(batch.rounds[0]), float(batch.flops[0])


def _mismatch(name, dims, P, measured, predicted) -> List[str]:
    if predicted is None or measured == predicted:
        return []
    return [f"{name} {dims} P={P}: simulated (words, rounds, flops) "
            f"{measured} != oracle {predicted}"]


class Workload:
    """A named, seeded op generator with its timed call and its check."""

    name = ""
    #: Seconds one pass of ops takes on the reference host.  ``--seconds``
    #: divided by this is the pass count, so a parent and a change always
    #: measure the same ops, and every run holds the same mix of ops.
    pass_seconds = 1.0

    def inputs(self, seed: int, passes: int) -> List[Op]:
        """The ops of ``passes`` passes; pass ``j`` draws from ``(seed, j)``."""
        raise NotImplementedError

    def warmup(self) -> Op:
        """An op outside every seed's timed set, run once during set-up."""
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> Outcome:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# largep-symbolic                                                       #
# --------------------------------------------------------------------- #

#: Per Theorem-3 case, eight (P, grid) strata.  The grids are fixed
#: balanced factorizations so that an op's host cost depends on P and the
#: grid, never on the seed; the seed picks the block sizes.  Case 1 stops
#: at P=1024 because its single P-wide all-gather costs O(P^2) host time.
_LARGEP_STRATA: Dict[int, Tuple[Tuple[int, Tuple[int, int, int]], ...]] = {
    1: tuple((P, (P, 1, 1)) for P in (384, 432, 512, 576, 648, 768, 864, 1024)),
    2: ((512, (32, 16, 1)), (648, (27, 24, 1)), (864, (32, 27, 1)),
        (1152, (36, 32, 1)), (1536, (48, 32, 1)), (2048, (64, 32, 1)),
        (2916, (54, 54, 1)), (4374, (81, 54, 1))),
    3: ((512, (8, 8, 8)), (648, (9, 9, 8)), (864, (12, 9, 8)),
        (1152, (12, 12, 8)), (1536, (16, 12, 8)), (2048, (16, 16, 8)),
        (2916, (18, 18, 9)), (4374, (27, 18, 9))),
}


def _divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _largep_shape(case: int, grid: Tuple[int, int, int], rng) -> Tuple[int, int, int]:
    """A shape in Theorem-3 case ``case`` that ``grid`` shards evenly.

    Every block and every block's share of its fiber is a whole number
    (``shards_divide_evenly``), so the oracle is defined and Algorithm 1
    runs on the grid the Section 5.2 picker chooses.
    """
    p1, p2, p3 = grid
    u = int(rng.integers(1, 4))
    if case == 1:
        # B (n2 x n3) is all-gathered across P ranks: make |B| a multiple
        # of P, and n1/P at least the middle dimension (P <= m/n).
        near_root = [d for d in _divisors(p1) if d * d <= p1]
        n2 = near_root[-1 - int(rng.integers(0, min(3, len(near_root))))]
        n3 = (p1 // n2) * u
        return (p1 * max(n2, n3) * int(rng.integers(1, 3)), n2, n3)
    block = math.lcm(p1, p2, p3) * u
    if case == 2:
        # k <= block keeps P * k^2 <= m * n (not case 3).
        return (p1 * block, p2 * block, int(rng.integers(2, min(64, block) + 1)))
    return (p1 * block, p2 * block, p3 * block)


class LargePSymbolic(Workload):
    name = "largep-symbolic"
    pass_seconds = 6.0

    def inputs(self, seed, passes):
        ops: List[Op] = []
        for sweep_pass in range(passes):
            rng = _rng(seed, self.name, sweep_pass)
            for stratum in range(8):
                for case in (1, 2, 3):
                    P, grid = _LARGEP_STRATA[case][stratum]
                    shape = _largep_shape(case, grid, rng)
                    ops.append(Op(f"c{case}-P{P}-pass{sweep_pass}", (shape, P)))
        return ops

    def warmup(self):
        return Op("warmup", ((32, 32, 32), 64))

    def run(self, op):
        from repro.analysis.sweep import sweep
        from repro.core.shapes import ProblemShape

        shape, P = op.args
        return sweep([ProblemShape(*shape)], [P], algorithms=["alg1"],
                     backend="symbolic", collective_algorithm="bruck")

    def check(self, op, records):
        dims, P = op.args
        if len(records) != 1:
            return Outcome((op.id,), [f"expected one record, got {len(records)}"])
        rec = records[0]
        counts = (op.id, rec.words, rec.rounds, rec.flops)
        predicted = _oracle("alg1", dims, P, "bruck")
        problems = _mismatch("alg1", dims, P, counts[1:], predicted)
        if predicted is None:
            problems.append(f"oracle refuses {dims} P={P}; the grid should "
                            f"shard it evenly")
        if _below_bound(rec.words, rec.bound):
            problems.append(f"beats the Theorem-3 bound: {rec.words} < {rec.bound}")
        return Outcome(counts, problems)


# --------------------------------------------------------------------- #
# sweep-data                                                            #
# --------------------------------------------------------------------- #

_SWEEP_P = (2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 64)
#: Volume classes (n1 * n2 * n3, within a factor of two) of the ragged
#: points; each pass draws one point per (P, class), so the mix of op costs
#: is the same for every seed.
_SWEEP_VOLUMES = (2**12, 2**15, 2**18)
_SMOOTH_ODD = (1, 1, 3, 5)
#: The largest point, run first on every seed: its all-gathered 256x256
#: operand on 64 ranks sets the peak memory, which then does not depend
#: on the seed.
_SWEEP_ANCHORS = (((256, 256, 256), 64, "row_1d"), ((256, 256, 256), 64, "outer_1d"))


def _smooth(rng, odd: Sequence[int], lo: int, hi: int) -> int:
    """A random ``odd * 2**e`` in ``[lo, hi]``: shapes most grids divide."""
    while True:
        value = int(rng.choice(odd)) << int(rng.integers(0, hi.bit_length()))
        if lo <= value <= hi:
            return value


def _sweep_points(rng, P: int):
    """One pass's points for ``P``: ``(dims, even)`` per volume class, plus one
    even point (every dimension a multiple of P, each at most 64)."""
    for volume in _SWEEP_VOLUMES:
        while True:
            dims = tuple(_smooth(rng, _SMOOTH_ODD, 2, 256) for _ in range(3))
            if volume // 2 <= dims[0] * dims[1] * dims[2] <= 2 * volume:
                yield dims, False
                break
    yield tuple(P * int(rng.integers(1, 64 // P + 1)) for _ in range(3)), True


class SweepData(Workload):
    name = "sweep-data"
    pass_seconds = 2.7

    def inputs(self, seed, passes):
        from repro.algorithms.registry import applicable_algorithms
        from repro.core.shapes import ProblemShape

        ops = [Op(f"anchor-{name}", (dims, P, name, i))
               for i, (dims, P, name) in enumerate(_SWEEP_ANCHORS)]
        for sweep_pass in range(passes):
            rng = _rng(seed, self.name, sweep_pass)
            for P in _SWEEP_P:
                for point, (dims, even) in enumerate(_sweep_points(rng, P)):
                    for name in applicable_algorithms(ProblemShape(*dims), P):
                        # alg1_abft runs on even points only: its closed form
                        # does not model a ragged C reduce-scatter, so a ragged
                        # point fails the oracle check with no fault in the run.
                        if name == "alg1_abft" and not even:
                            continue
                        # The registry admits a few CARMA points whose schedule
                        # then sends an empty message and is rejected; the
                        # oracle refuses those too, so CARMA runs only where
                        # the oracle is defined.
                        if name == "carma" and _oracle(name, dims, P) is None:
                            continue
                        ops.append(Op(f"pass{sweep_pass}-P{P}-{point}-{name}",
                                      (dims, P, name, int(rng.integers(2**31)))))
        return ops

    def warmup(self):
        return Op("warmup", ((14, 10, 6), 2, "alg1", 0))

    def run(self, op):
        from repro.analysis.sweep import sweep
        from repro.core.shapes import ProblemShape

        dims, P, name, seed = op.args
        return sweep([ProblemShape(*dims)], [P], algorithms=[name], seed=seed)

    def check(self, op, records):
        dims, P, name, _seed = op.args
        if len(records) != 1:
            return Outcome((op.id,), [f"expected one record, got {len(records)}"])
        rec = records[0]
        counts = (op.id, rec.words, rec.rounds, rec.flops)
        problems = _mismatch(name, dims, P, counts[1:], _oracle(name, dims, P))
        if rec.correct is not True:
            problems.append(f"{name} {dims} P={P}: product not verified")
        if _below_bound(rec.words, rec.bound):
            problems.append(f"beats the Theorem-3 bound: {rec.words} < {rec.bound}")
        return Outcome(counts, problems)


# --------------------------------------------------------------------- #
# plan-cold                                                             #
# --------------------------------------------------------------------- #

_PLAN_ODD = (1, 1, 3, 5, 9, 15)
_PLAN_P_ODD = (3, 5, 9, 15, 27)
#: A pass is 35 queries: 30 general ones, whose P is never a power of two,
#: and one CARMA query (power-of-two P, two dimensions >= P) per exponent.
#: Replay cost grows as P^2, so fixing the exponents keeps the total work
#: seed-independent.
_PLAN_GENERAL = 30
_CARMA_EXPONENTS = (5, 6, 7, 8, 9)
#: Run first on every seed: a CARMA replay at P=1024, whose working set
#: (about 23 MB) exceeds any P <= 512 replay's, so it sets the peak memory
#: and the peak does not depend on the seed.
_PLAN_ANCHOR = ((3072, 1024, 5), 1024)


class PlanCold(Workload):
    name = "plan-cold"
    pass_seconds = 0.5

    def inputs(self, seed, passes):
        ops = [Op("anchor", _PLAN_ANCHOR)]
        warm = self.warmup().args
        seen = {(tuple(sorted(warm[0])), warm[1]),
                (tuple(sorted(_PLAN_ANCHOR[0])), _PLAN_ANCHOR[1])}
        for plan_pass in range(passes):
            rng = _rng(seed, self.name, plan_pass)
            kinds = [None] * _PLAN_GENERAL + list(_CARMA_EXPONENTS)
            for k in rng.permutation(len(kinds)):
                while True:  # distinct canonical queries: every memo misses
                    dims, P = (self._general(rng) if kinds[k] is None
                               else self._carma(rng, kinds[k]))
                    if (tuple(sorted(dims)), P) not in seen:
                        break
                seen.add((tuple(sorted(dims)), P))
                ops.append(Op(f"q{len(ops) - 1}", (dims, P)))
        return ops

    @staticmethod
    def _general(rng):
        while True:
            dims = tuple(_smooth(rng, _PLAN_ODD, 2, 8192) for _ in range(3))
            limit = min(2**19, dims[0] * dims[1] * dims[2])
            # Never a power of two, so CARMA (and its replay) refuses.
            P = int(rng.choice(_PLAN_P_ODD)) << int(
                rng.integers(0, max(1, limit.bit_length() - 4)))
            if P <= limit:
                return dims, P

    @staticmethod
    def _carma(rng, exponent):
        P = 1 << exponent
        dims = [_smooth(rng, _PLAN_ODD, P, 8192), _smooth(rng, _PLAN_ODD, P, 8192),
                _smooth(rng, _PLAN_ODD, 2, 8192)]
        rng.shuffle(dims)
        return tuple(dims), P

    def warmup(self):
        return Op("warmup", ((448, 224, 112), 63))

    def run(self, op):
        from repro.analysis.plan import PlanCache, plan

        dims, P = op.args
        return plan(dims, P, cache=PlanCache())

    def check(self, op, result):
        dims, P = op.args
        problems = []
        if result.P != P or sorted(result.shape.dims) != sorted(dims):
            problems.append(f"answer is for {result.shape.dims} P={result.P}")
        best = result.best
        if best is None:
            return Outcome((op.id, None), problems)
        if best.words != min(c.words for c in result.candidates):
            problems.append(f"best {best.algorithm} ({best.words} words) is "
                            f"not the argmin of its candidates")
        for cand in result.candidates:
            if _below_bound(cand.words, cand.bound):
                problems.append(f"{cand.algorithm} beats the Theorem-3 bound")
        counts = (op.id, best.algorithm, best.words, best.rounds, best.flops,
                  len(result.candidates))
        return Outcome(counts, problems)


# --------------------------------------------------------------------- #
# chaos-recover                                                         #
# --------------------------------------------------------------------- #

#: One point per Theorem-3 case, as ``(regime name, dims, P)``.
_CHAOS_POINTS = (
    ("ONE_D", (512, 8, 8), 32),
    ("TWO_D", (128, 128, 8), 64),
    ("THREE_D", (48, 48, 48), 64),
)


class ChaosRecover(Workload):
    name = "chaos-recover"
    pass_seconds = 4.5

    def _columns(self):
        from repro.algorithms.registry import applicable_algorithms
        from repro.core.shapes import ProblemShape

        return [(regime, dims, P, name)
                for regime, dims, P in _CHAOS_POINTS
                for name in applicable_algorithms(ProblemShape(*dims), P)]

    def inputs(self, seed, passes):
        columns = self._columns()
        ops: List[Op] = []
        for fault_pass in range(passes):
            rng = _rng(seed, self.name, fault_pass)
            fault_seed, operand_seed = (int(v) for v in rng.integers(2**31, size=2))
            for regime, dims, P, name in columns:
                ops.append(Op(f"{name}-{regime}-pass{fault_pass}",
                              (regime, dims, P, name, fault_seed, operand_seed)))
        return ops

    def warmup(self):
        return Op("warmup", ("THREE_D", (16, 16, 16), 4, "alg1", 0, 0))

    def run(self, op):
        from repro.analysis.chaos import run_chaos
        from repro.core.cases import Regime
        from repro.core.shapes import ProblemShape

        regime, dims, P, name, fault_seed, operand_seed = op.args
        return run_chaos(
            algorithms=[name],
            points={Regime[regime]: (ProblemShape(*dims), P)},
            seeds=(fault_seed,),
            operand_seed=operand_seed,
            recover=True,
        )

    def check(self, op, report):
        _regime, dims, P, name, _fault_seed, _operand_seed = op.args
        problems = [f"{row.schedule}: {row.error}" for row in report.violations]
        counts = (op.id,) + tuple(
            (row.schedule, row.outcome, row.words, row.words_resent,
             row.recovery_words)
            for row in report.rows
        )
        if not report.rows:
            problems.append("no chaos cells ran")
        else:
            # Chaos rows carry only the clean run's words; compare those.
            clean = report.rows[0].clean_words
            predicted = _oracle(name, dims, P)
            if predicted is not None and predicted[0] != clean:
                problems.append(f"clean words {clean} != oracle {predicted[0]}")
        stats = {
            "words_resent": sum(row.words_resent for row in report.rows),
            "clean_words": sum(row.clean_words for row in report.rows),
        }
        return Outcome(counts, problems, stats)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (LargePSymbolic(), SweepData(), PlanCold(), ChaosRecover())
}
