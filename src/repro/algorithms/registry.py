"""Name-based algorithm registry for sweeps and benchmarks.

Each entry adapts an algorithm to the common signature
``run(A, B, P) -> AlgorithmRun`` choosing reasonable configuration
(e.g. the Section 5.2 optimal grid for Algorithm 1, the nearest square
grid for Cannon/SUMMA).  Entries report applicability so sweeps can skip
combinations an algorithm does not support (Cannon needs a square ``P``,
CARMA a power of two, ...).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Optional

import numpy as np

from ..core.shapes import ProblemShape
from ..exceptions import InvalidProblemError, ShapeError
from ..machine.backend import SymbolicBlock, is_symbolic, resolve_backend
from ..machine.cost import Cost
from ..machine.semiring import Semiring, resolve_semiring
from ..obs.attainment import Attainment, bound_attainment
from .abft import (
    abft_summa_grid,
    alg1_abft_grid,
    run_alg1_abft,
    run_summa_abft,
)
from .alg1 import run_alg1
from .cannon import run_cannon
from .fox import run_fox
from .fox_otto import run_fox_otto
from .carma import run_carma
from .carma_counts import carma_counts
from .c25d import run_25d
from .grid_selection import select_grid, sorted_divisors
from .naive import run_outer_1d, run_row_1d
from .summa import run_summa

__all__ = [
    "AlgorithmRun",
    "AlgorithmEntry",
    "REGISTRY",
    "run_algorithm",
    "validate_problem",
    "applicable_algorithms",
    "summa_grid",
    "c25d_grid",
    "abft_summa_grid",
    "alg1_abft_grid",
]


@dataclasses.dataclass
class AlgorithmRun:
    """Uniform result record for registry-driven runs.

    ``attainment`` (populated by :func:`run_algorithm`) carries the
    bound-attainment gauges: measured words over the Theorem 3 lower
    bound — 1.0 exactly for Algorithm 1 on an optimal grid, strictly
    above 1.0 for suboptimal baselines.  ``machine`` is the simulated
    machine the run executed on (span trace, metrics registry and per-rank
    counters included), so sweeps and the experiment ledger can derive
    load-imbalance gauges without re-running anything.
    """

    name: str
    C: np.ndarray
    shape: ProblemShape
    P: int
    cost: Cost
    config: str
    attainment: Optional[Attainment] = None
    machine: Optional[object] = None
    semiring: str = "plus_times"


@dataclasses.dataclass(frozen=True)
class AlgorithmEntry:
    """A runnable algorithm with an applicability predicate."""

    name: str
    description: str
    applicable: Callable[[ProblemShape, int], bool]
    run: Callable[[np.ndarray, np.ndarray, int], AlgorithmRun]


def _shape_of(A: np.ndarray, B: np.ndarray) -> ProblemShape:
    return ProblemShape(A.shape[0], A.shape[1], B.shape[1])


def _sr_name(semiring, default: str = "plus_times") -> str:
    """Resolved semiring name for the run record (``default`` when unset)."""
    if semiring is None:
        return default
    return resolve_semiring(semiring).name


def _run_alg1_optimal(
    A: np.ndarray, B: np.ndarray, P: int, collective_algorithm: str = "auto",
    semiring: Optional[Semiring] = None,
) -> AlgorithmRun:
    shape = _shape_of(A, B)
    choice = select_grid(shape, P)
    res = run_alg1(
        A, B, choice.grid, collective_algorithm=collective_algorithm,
        semiring=semiring,
    )
    config = f"grid {choice.grid}"
    if collective_algorithm != "auto":
        config += f", collectives {collective_algorithm}"
    return AlgorithmRun(
        name="alg1", C=res.C, shape=shape, P=P, cost=res.cost,
        config=config, machine=res.machine, semiring=_sr_name(semiring),
    )


def _alg1_applicable(shape: ProblemShape, P: int) -> bool:
    try:
        choice = select_grid(shape, P)
    except Exception:
        return False
    g = choice.grid
    return g.p1 <= shape.n1 and g.p2 <= shape.n2 and g.p3 <= shape.n3


def _run_cannon_square(
    A: np.ndarray, B: np.ndarray, P: int, semiring: Optional[Semiring] = None,
) -> AlgorithmRun:
    q = math.isqrt(P)
    res = run_cannon(A, B, q, semiring=semiring)
    return AlgorithmRun(
        name="cannon", C=res.C, shape=res.shape, P=P, cost=res.cost,
        config=f"grid {q}x{q}", machine=res.machine, semiring=_sr_name(semiring),
    )


def _run_fox_square(
    A: np.ndarray, B: np.ndarray, P: int, semiring: Optional[Semiring] = None,
) -> AlgorithmRun:
    q = math.isqrt(P)
    res = run_fox(A, B, q, semiring=semiring)
    return AlgorithmRun(
        name="fox", C=res.C, shape=res.shape, P=P, cost=res.cost,
        config=f"grid {q}x{q}", machine=res.machine, semiring=_sr_name(semiring),
    )


def _run_fox_otto_square(
    A: np.ndarray, B: np.ndarray, P: int, semiring: Optional[Semiring] = None,
) -> AlgorithmRun:
    q = math.isqrt(P)
    res = run_fox_otto(A, B, q, semiring=semiring)
    return AlgorithmRun(
        name="fox_otto", C=res.C, shape=res.shape, P=P, cost=res.cost,
        config=f"grid {q}x{q}", machine=res.machine,
        semiring=_sr_name(semiring, default="min_plus"),
    )


def _cannon_applicable(shape: ProblemShape, P: int) -> bool:
    q = math.isqrt(P)
    return q * q == P and q <= min(shape.dims)


def summa_grid(shape: ProblemShape, P: int) -> Optional[tuple]:
    """Most balanced pr x pc factorization satisfying SUMMA's divisibility.

    Public because the analytic oracle (:mod:`repro.analysis.oracle`) must
    predict costs for *exactly* the grid the registry run would use.
    """
    best = None
    for pr in sorted_divisors(P):  # ascending: same scan order as range(1, P+1)
        pc = P // pr
        if shape.n1 % pr or shape.n2 % pr or shape.n2 % pc or shape.n3 % pc:
            continue
        score = abs(pr - pc)
        if best is None or score < best[0]:
            best = (score, pr, pc)
    return None if best is None else (best[1], best[2])


#: Backward-compatible alias (the picker predates its public exposure).
_summa_grid = summa_grid


def c25d_grid(shape: ProblemShape, P: int) -> Optional[tuple]:
    """The ``(q, c)`` the 2.5D auto-runner picks: largest ``c`` with
    ``P = q^2 c``, ``c | q`` and ``q <= min(dims)``; ``None`` if infeasible.

    Shared with the analytic oracle so both sides agree on the grid.
    """
    best = None
    for c in sorted_divisors(P):  # ascending: same scan order as range(1, P+1)
        q = math.isqrt(P // c)
        if q * q * c != P or q % c or q > min(shape.dims):
            continue
        if best is None or c > best[1]:
            best = (q, c)
    return best


def _run_summa_auto(
    A: np.ndarray, B: np.ndarray, P: int, semiring: Optional[Semiring] = None,
) -> AlgorithmRun:
    shape = _shape_of(A, B)
    grid = summa_grid(shape, P)
    if grid is None:
        raise ValueError(f"no SUMMA grid for {shape} on P={P}")
    res = run_summa(A, B, *grid, semiring=semiring)
    return AlgorithmRun(
        name="summa", C=res.C, shape=shape, P=P, cost=res.cost,
        config=f"grid {grid[0]}x{grid[1]}", machine=res.machine,
        semiring=_sr_name(semiring),
    )


def _run_25d_auto(
    A: np.ndarray, B: np.ndarray, P: int, semiring: Optional[Semiring] = None,
) -> AlgorithmRun:
    shape = _shape_of(A, B)
    best = c25d_grid(shape, P)
    if best is None:
        raise ValueError(f"no 2.5D grid for {shape} on P={P}")
    res = run_25d(A, B, best[0], best[1], semiring=semiring)
    return AlgorithmRun(
        name="c25d", C=res.C, shape=shape, P=P, cost=res.cost,
        config=f"grid {best[0]}x{best[0]}x{best[1]}", machine=res.machine,
        semiring=_sr_name(semiring),
    )


def _c25d_applicable(shape: ProblemShape, P: int) -> bool:
    return c25d_grid(shape, P) is not None


def _run_alg1_abft_auto(
    A: np.ndarray, B: np.ndarray, P: int, semiring: Optional[Semiring] = None,
) -> AlgorithmRun:
    shape = _shape_of(A, B)
    grid = alg1_abft_grid(shape, P)
    if grid is None:
        raise ValueError(f"no ABFT-encodable Algorithm 1 grid for {shape} on P={P}")
    res = run_alg1_abft(A, B, grid, semiring=semiring)
    return AlgorithmRun(
        name="alg1_abft", C=res.C, shape=shape, P=P, cost=res.cost,
        config=f"grid {grid}", machine=res.machine, semiring=_sr_name(semiring),
    )


def _run_summa_abft_auto(
    A: np.ndarray, B: np.ndarray, P: int, semiring: Optional[Semiring] = None,
) -> AlgorithmRun:
    shape = _shape_of(A, B)
    grid = abft_summa_grid(shape, P)
    if grid is None:
        raise ValueError(f"no ABFT SUMMA grid for {shape} on P={P}")
    res = run_summa_abft(A, B, *grid, semiring=semiring)
    return AlgorithmRun(
        name="summa_abft", C=res.C, shape=shape, P=P, cost=res.cost,
        config=f"grid {grid[0]}x{grid[1]} + checksum row", machine=res.machine,
        semiring=_sr_name(semiring),
    )


REGISTRY: Dict[str, AlgorithmEntry] = {
    "alg1": AlgorithmEntry(
        name="alg1",
        description="Algorithm 1 with the Section 5.2 optimal grid (this paper)",
        applicable=_alg1_applicable,
        run=_run_alg1_optimal,
    ),
    "row_1d": AlgorithmEntry(
        name="row_1d",
        description="1D all-gather-B baseline",
        applicable=lambda s, P: P <= s.n1,
        run=lambda A, B, P, semiring=None: _wrap_1d(
            run_row_1d(A, B, P, semiring=semiring), "row_1d", semiring),
    ),
    "outer_1d": AlgorithmEntry(
        name="outer_1d",
        description="1D outer-product (contraction-split) baseline",
        applicable=lambda s, P: P <= s.n2,
        run=lambda A, B, P, semiring=None: _wrap_1d(
            run_outer_1d(A, B, P, semiring=semiring), "outer_1d", semiring),
    ),
    "cannon": AlgorithmEntry(
        name="cannon",
        description="Cannon's algorithm on a square 2D grid",
        applicable=_cannon_applicable,
        run=_run_cannon_square,
    ),
    "fox": AlgorithmEntry(
        name="fox",
        description="Fox's broadcast-multiply-roll algorithm on a square 2D grid",
        applicable=_cannon_applicable,
        run=_run_fox_square,
    ),
    "fox_otto": AlgorithmEntry(
        name="fox_otto",
        description="Fox-Otto min-plus distance product on a square 2D grid",
        applicable=_cannon_applicable,
        run=_run_fox_otto_square,
    ),
    "summa": AlgorithmEntry(
        name="summa",
        description="SUMMA on the most balanced divisible 2D grid",
        applicable=lambda s, P: _summa_grid(s, P) is not None,
        run=_run_summa_auto,
    ),
    "c25d": AlgorithmEntry(
        name="c25d",
        description="2.5D algorithm with the largest feasible replication factor",
        applicable=_c25d_applicable,
        run=_run_25d_auto,
    ),
    "carma": AlgorithmEntry(
        name="carma",
        description="CARMA-style recursive algorithm",
        applicable=lambda s, P: not isinstance(carma_counts(s.dims, P), str),
        run=lambda A, B, P, semiring=None: _wrap_carma(
            run_carma(A, B, P, semiring=semiring), semiring),
    ),
    "alg1_abft": AlgorithmEntry(
        name="alg1_abft",
        description="Algorithm 1 with ABFT checksum shards "
                    "(survives one rank failure)",
        applicable=lambda s, P: alg1_abft_grid(s, P) is not None,
        run=_run_alg1_abft_auto,
    ),
    "summa_abft": AlgorithmEntry(
        name="summa_abft",
        description="SUMMA with a Huang-Abraham checksum row "
                    "(survives one rank failure)",
        applicable=lambda s, P: abft_summa_grid(s, P) is not None,
        run=_run_summa_abft_auto,
    ),
}


def _wrap_1d(res, name: str, semiring=None) -> AlgorithmRun:
    return AlgorithmRun(
        name=name, C=res.C, shape=res.shape, P=res.P, cost=res.cost,
        config=f"P={res.P}", machine=res.machine, semiring=_sr_name(semiring),
    )


def _wrap_carma(res, semiring=None) -> AlgorithmRun:
    return AlgorithmRun(
        name="carma", C=res.C, shape=res.shape, P=res.P, cost=res.cost,
        config=f"{len(res.splits)} splits", machine=res.machine,
        semiring=_sr_name(semiring),
    )


#: Why each algorithm's applicability predicate can say no — surfaced in
#: the :class:`~repro.exceptions.InvalidProblemError` message so the caller
#: knows what to change.
_APPLICABILITY_HINTS: Dict[str, str] = {
    "alg1": "needs an optimal grid with every p_i <= n_i "
            "(P may exceed the problem's parallelism)",
    "row_1d": "needs P <= n1 (one row block per processor)",
    "outer_1d": "needs P <= n2 (one contraction slice per processor)",
    "cannon": "needs P = q^2 a perfect square with q <= min(n1, n2, n3)",
    "fox": "needs P = q^2 a perfect square with q <= min(n1, n2, n3)",
    "fox_otto": "needs P = q^2 a perfect square with q <= min(n1, n2, n3)",
    "summa": "needs a pr x pc factorization of P with pr | n1, pr | n2, "
             "pc | n2 and pc | n3",
    "c25d": "needs P = q^2 c with the replication factor c dividing q and "
            "q <= min(n1, n2, n3)",
    "carma": "needs P a power of two with n1 >= P, n2 >= P, every "
             "recursive split landing on an even dimension and every "
             "exchange carrying at least one piece (no empty message)",
    "alg1_abft": "needs P >= 2, the optimal grid dividing every dimension, "
                 "and each All-Gather fiber longer than 1 a power of two "
                 "dividing its shard",
    "summa_abft": "needs a pr x pc factorization with (pr+1) pc = P, "
                  "pr | n1, (pr+1) | n2, pc | n2 and pc | n3",
}


def validate_problem(name: str, A, B, P) -> ProblemShape:
    """Validate a ``(name, A, B, P)`` request before any machine is built.

    Raises
    ------
    InvalidProblemError
        For an unknown algorithm name, non-2-D or non-positive operand
        shapes, mismatched inner dimensions, a non-positive processor
        count, or a combination the named algorithm's applicability
        predicate rejects.  The message states the reason and which
        registered algorithms *could* run the problem.
    """
    if name not in REGISTRY:
        raise InvalidProblemError(
            f"unknown algorithm {name!r}; registered algorithms: "
            f"{', '.join(sorted(REGISTRY))}"
        )
    # SymbolicBlock rejects __array_function__ protocols by design, so read
    # the ``shape`` attribute directly; fall back to np.shape for lists etc.
    a_shape = tuple(A.shape) if hasattr(A, "shape") else tuple(np.shape(A))
    b_shape = tuple(B.shape) if hasattr(B, "shape") else tuple(np.shape(B))
    if len(a_shape) != 2 or len(b_shape) != 2:
        raise InvalidProblemError(
            f"operands must be 2-D matrices, got A with shape {a_shape} "
            f"and B with shape {b_shape}"
        )
    if a_shape[1] != b_shape[0]:
        raise InvalidProblemError(
            f"inner dimensions do not match: A is {a_shape[0]}x{a_shape[1]} "
            f"but B is {b_shape[0]}x{b_shape[1]}"
        )
    try:
        shape = ProblemShape(a_shape[0], a_shape[1], b_shape[1])
    except ShapeError as exc:
        raise InvalidProblemError(
            f"invalid problem shape {a_shape[0]}x{a_shape[1]}x{b_shape[1]}: {exc}"
        ) from exc
    if isinstance(P, bool) or not isinstance(P, (int, np.integer)) or P < 1:
        raise InvalidProblemError(
            f"processor count must be a positive integer, got {P!r}"
        )
    P = int(P)
    if not REGISTRY[name].applicable(shape, P):
        others = applicable_algorithms(shape, P)
        alternatives = (
            f" Applicable here: {', '.join(others)}." if others
            else " No registered algorithm can run this combination."
        )
        raise InvalidProblemError(
            f"{name} cannot run {shape} on P={P}: "
            f"{_APPLICABILITY_HINTS[name]}.{alternatives}"
        )
    return shape


def run_algorithm(
    name: str,
    A: np.ndarray,
    B: np.ndarray,
    P: int,
    backend=None,
    collective_algorithm: Optional[str] = None,
    semiring=None,
) -> AlgorithmRun:
    """Run a registered algorithm by name.

    Every run comes back with its bound-attainment gauge filled in, so
    sweeps and the report can surface ``measured / Theorem-3-bound``
    ratios uniformly across algorithms.

    The ``(name, A, B, P)`` combination is validated up front
    (:func:`validate_problem`): infeasible requests raise
    :class:`~repro.exceptions.InvalidProblemError` with an actionable
    message instead of failing deep inside grid construction.

    ``backend`` (a name or :class:`~repro.machine.backend.Backend`)
    selects the execution mode: under ``"symbolic"`` real operands are
    demoted to shape descriptors before the run, so no elements are
    allocated or moved while every counter is accounted identically.
    ``collective_algorithm`` forces a specific collective implementation
    where the algorithm exposes the choice (currently Algorithm 1; other
    entries use their fixed defaults).  ``semiring`` (a name or
    :class:`~repro.machine.semiring.Semiring`) selects the scalar
    multiply-add pair; every entry threads it to its algorithm, the
    schedule — and with it every cost counter — is semiring-independent,
    and the resolved name lands on ``AlgorithmRun.semiring``.  When unset,
    entries use their natural default (``plus_times`` everywhere except
    ``fox_otto``, which defaults to ``min_plus``).
    """
    validate_problem(name, A, B, P)
    if semiring is not None:
        semiring = resolve_semiring(semiring)
    if backend is not None:
        backend = resolve_backend(backend)
        if not backend.verifies and not is_symbolic(A):
            A = SymbolicBlock(np.shape(A))
            B = SymbolicBlock(np.shape(B))
        elif backend.verifies and is_symbolic(A):
            raise ValueError(
                "data backend requested but the operands are symbolic; "
                "pass real arrays or backend='symbolic'"
            )
    if name == "alg1" and collective_algorithm is not None:
        run = _run_alg1_optimal(
            A, B, P, collective_algorithm=collective_algorithm, semiring=semiring,
        )
    else:
        run = REGISTRY[name].run(A, B, P, semiring=semiring)
    run.attainment = bound_attainment(run.shape, run.P, run.cost.words)
    return run


def applicable_algorithms(shape: ProblemShape, P: int):
    """Names of all registered algorithms runnable on ``(shape, P)``."""
    return [name for name, entry in REGISTRY.items() if entry.applicable(shape, P)]
