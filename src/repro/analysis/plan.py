"""Oracle-backed capacity planner: pick the cheapest algorithm per point.

Given a batch of ``(m, n, k, P)`` queries — optionally with a local
memory budget ``M`` — the planner scores **every** registry algorithm
through the vectorized oracle (:func:`repro.analysis.oracle_vec.predict_batch`),
keeps the admissible ones (the validity mask), and returns the argmin-words
choice together with its Theorem 3 bound attainment and, when ``M`` is
given, the Section 6.2 memory-dependent crossover
(:func:`repro.core.crossover.compare_bounds`).

Canonical orientation
---------------------
The matrix-multiplication iteration space is symmetric in ``(m, n, k)``,
and Theorem 3's bound depends only on the dimension *multiset* — but the
registry's closed forms are orientation-specific (``row_1d`` shards the
*first* dimension, ``outer_1d`` the middle one, ...).  The planner
therefore canonicalizes every query to the descending orientation
``m >= n >= k`` before scoring, which makes its output invariant under
any permutation of the query dimensions: ``plan((k, n, m), P)`` is the
same answer, bit for bit, as ``plan((m, n, k), P)``.

Caching
-------
Results are memoized in a :class:`PlanCache` keyed on a SHA-256
fingerprint of the *canonical* query configuration (schema version,
sorted dims, ``P``, ``M``).  A cache hit returns the stored
:class:`PlanResult` object itself, so hot answers are bit-identical to
cold ones by construction; the fingerprint is also the natural join key
for ledger records and CI artifacts.

Atlases
-------
:func:`case_atlas` sweeps one pinned shape per Theorem 3 case over a
decade-spanning processor grid (default up to ``P = 10**7``) and reports
the per-``P`` winner — the planner's answer sheet for each regime.  All
three atlases evaluate through the array kernels in well under a minute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.cases import Regime, classify
from ..core.crossover import BoundComparison, compare_bounds
from ..core.shapes import ProblemShape
from ..exceptions import ShapeError
from .oracle import ORACLE_ALGORITHMS
from .oracle_vec import predict_batch

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "ATLAS_SHAPES",
    "PlanCandidate",
    "PlanResult",
    "PlanCache",
    "canonical_shape",
    "query_fingerprint",
    "plan",
    "plan_batch",
    "atlas_processor_counts",
    "case_atlas",
]

#: Bump when the fingerprint/result layout changes incompatibly.  Part of
#: the fingerprint preimage, so stale cache hits cannot cross versions.
PLAN_SCHEMA_VERSION = 1

#: One pinned shape per Theorem 3 case, sized so the whole default
#: processor grid stays (almost entirely) inside the named regime while
#: every row fits the vectorized kernels' exact int64/float64 range.
ATLAS_SHAPES: Dict[int, ProblemShape] = {
    1: ProblemShape(10**8, 10, 10),
    2: ProblemShape(10**6, 10**4, 10),
    3: ProblemShape(10**4, 10**3, 10**3),
}


def canonical_shape(shape: ProblemShape) -> ProblemShape:
    """The descending-orientation representative of ``shape``'s multiset."""
    return ProblemShape(*sorted(shape.dims, reverse=True))


@dataclasses.dataclass(frozen=True)
class PlanCandidate:
    """One admissible algorithm's oracle scorecard for a planner query."""

    algorithm: str
    config: str
    words: float
    rounds: int
    flops: float
    bound: float
    attainment: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class PlanResult:
    """The planner's answer for one canonical ``(shape, P[, M])`` query.

    ``candidates`` lists every admissible algorithm in ascending words
    order (registry order on ties); ``best`` is ``candidates[0]`` or
    ``None`` when no registry algorithm admits the point.  ``crossover``
    carries the Section 6.2 bound comparison when the query specified a
    memory budget, else ``None``.
    """

    shape: ProblemShape
    P: int
    M: Optional[float]
    regime: Regime
    fingerprint: str
    candidates: Tuple[PlanCandidate, ...]
    crossover: Optional[BoundComparison] = None

    @property
    def best(self) -> Optional[PlanCandidate]:
        return self.candidates[0] if self.candidates else None

    def to_dict(self) -> dict:
        best = self.best
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "shape": list(self.shape.dims),
            "P": self.P,
            "M": self.M,
            "regime": str(self.regime),
            "fingerprint": self.fingerprint,
            "best": None if best is None else best.to_dict(),
            "candidates": [c.to_dict() for c in self.candidates],
            "crossover": None if self.crossover is None else {
                "memory_independent": self.crossover.memory_independent,
                "memory_dependent": self.crossover.memory_dependent,
                "binding": self.crossover.binding,
            },
        }


def query_fingerprint(
    shape: ProblemShape, P: int, M: Optional[float] = None
) -> str:
    """SHA-256 fingerprint of the canonical query configuration.

    Permutations of the dimensions fingerprint identically (the preimage
    uses the canonical orientation), so the cache and any artifact keyed
    on this value are permutation-invariant too.
    """
    canonical = canonical_shape(shape)
    preimage = json.dumps(
        {
            "schema_version": PLAN_SCHEMA_VERSION,
            "dims": list(canonical.dims),
            "P": int(P),
            "M": None if M is None else float(M),
        },
        sort_keys=True,
    )
    return hashlib.sha256(preimage.encode("ascii")).hexdigest()


class PlanCache:
    """Fingerprint-keyed memo of :class:`PlanResult` objects.

    Stores (and returns) the result object itself, so a hit is
    bit-identical to the cold computation that populated it.
    """

    def __init__(self) -> None:
        self._store: Dict[str, PlanResult] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._store

    def get(self, fingerprint: str) -> Optional[PlanResult]:
        found = self._store.get(fingerprint)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def put(self, result: PlanResult) -> None:
        self._store[result.fingerprint] = result


#: Module-level default cache, shared by :func:`plan` calls that do not
#: bring their own (CLI queries reuse it within a process).
_DEFAULT_CACHE = PlanCache()

ShapeLike = Union[ProblemShape, Sequence[int]]


def _as_shape(value: ShapeLike) -> ProblemShape:
    if isinstance(value, ProblemShape):
        return value
    return ProblemShape(*(int(d) for d in value))


def plan_batch(
    shapes: Iterable[ShapeLike],
    processor_counts: Iterable[int],
    memory: Optional[Iterable[Optional[float]]] = None,
    cache: Optional[PlanCache] = None,
) -> List[PlanResult]:
    """Answer a batch of planner queries through the vectorized oracle.

    ``shapes`` and ``processor_counts`` pair up row-wise; ``memory``
    optionally supplies a per-row budget (``None`` entries skip the
    crossover).  Rows already in ``cache`` are returned from it verbatim;
    the remaining rows are scored with **one** ``predict_batch`` call per
    registry algorithm, whatever the batch size.

    Raises
    ------
    ShapeError
        On ragged input lengths, or when a row's memory budget cannot
        even hold the distributed problem (from ``compare_bounds``).
    """
    cache = _DEFAULT_CACHE if cache is None else cache
    shape_list = [_as_shape(s) for s in shapes]
    procs = [int(P) for P in processor_counts]
    if len(shape_list) != len(procs):
        raise ShapeError(
            f"plan batch length mismatch: {len(shape_list)} shapes "
            f"vs {len(procs)} processor counts"
        )
    mems: List[Optional[float]]
    if memory is None:
        mems = [None] * len(procs)
    else:
        mems = [None if m is None else float(m) for m in memory]
        if len(mems) != len(procs):
            raise ShapeError(
                f"plan batch length mismatch: {len(mems)} memory budgets "
                f"vs {len(procs)} processor counts"
            )

    results: List[Optional[PlanResult]] = [None] * len(procs)
    cold_rows: List[int] = []
    for i, (shape, P, M) in enumerate(zip(shape_list, procs, mems)):
        found = cache.get(query_fingerprint(shape, P, M))
        if found is not None:
            results[i] = found
        else:
            cold_rows.append(i)

    if cold_rows:
        canon = [canonical_shape(shape_list[i]) for i in cold_rows]
        cold_P = [procs[i] for i in cold_rows]
        # One vectorized call per algorithm covers every cold row.
        batches = {
            name: predict_batch(name, [s.dims for s in canon], cold_P)
            for name in ORACLE_ALGORITHMS
        }
        for j, i in enumerate(cold_rows):
            shape, P, M = canon[j], procs[i], mems[i]
            candidates = []
            for name in ORACLE_ALGORITHMS:
                batch = batches[name]
                if not batch.valid[j]:
                    continue
                candidates.append(
                    PlanCandidate(
                        algorithm=name,
                        config=batch.configs[j],
                        words=float(batch.words[j]),
                        rounds=int(batch.rounds[j]),
                        flops=float(batch.flops[j]),
                        bound=float(batch.bound[j]),
                        attainment=float(batch.attainment[j]),
                    )
                )
            # Stable sort: ascending words, registry order on ties (the
            # candidates are appended in registry order already).
            candidates.sort(key=lambda c: c.words)
            result = PlanResult(
                shape=shape,
                P=P,
                M=M,
                regime=classify(shape, P),
                fingerprint=query_fingerprint(shape, P, M),
                candidates=tuple(candidates),
                crossover=None if M is None else compare_bounds(shape, P, M),
            )
            cache.put(result)
            results[i] = result
    return [r for r in results if r is not None]


def plan(
    shape: ShapeLike,
    P: int,
    M: Optional[float] = None,
    cache: Optional[PlanCache] = None,
) -> PlanResult:
    """Answer a single planner query (see :func:`plan_batch`)."""
    return plan_batch([shape], [P], memory=[M], cache=cache)[0]


def atlas_processor_counts(limit: int = 10**7) -> List[int]:
    """The atlas processor grid: ``{1, 2, 4, 5, 8} * 10**e`` up to ``limit``."""
    counts = []
    decade = 1
    while decade <= limit:
        for mantissa in (1, 2, 4, 5, 8):
            P = mantissa * decade
            if P <= limit:
                counts.append(P)
        decade *= 10
    return counts


def case_atlas(
    limit: int = 10**7, cache: Optional[PlanCache] = None
) -> dict:
    """Planner answer sheets: one pinned shape per Theorem 3 case.

    Returns a JSON-serializable dict mapping ``"case1" | "case2" | "case3"``
    to the shape and its per-``P`` planner rows (winner, words, bound,
    attainment, admissible-algorithm count) over
    :func:`atlas_processor_counts`.
    """
    counts = atlas_processor_counts(limit)
    atlas: dict = {
        "schema_version": PLAN_SCHEMA_VERSION,
        "limit": limit,
        "processor_counts": counts,
    }
    for case, shape in ATLAS_SHAPES.items():
        rows = plan_batch([shape] * len(counts), counts, cache=cache)
        atlas[f"case{case}"] = {
            "shape": list(shape.dims),
            "rows": [
                {
                    "P": r.P,
                    "regime": str(r.regime),
                    "admissible": len(r.candidates),
                    "best": None if r.best is None else {
                        "algorithm": r.best.algorithm,
                        "config": r.best.config,
                        "words": r.best.words,
                        "bound": r.best.bound,
                        "attainment": r.best.attainment,
                    },
                }
                for r in rows
            ],
        }
    return atlas
