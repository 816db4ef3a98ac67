"""Production-scale sweeps: Theorem 3's constants at P up to ``10^5``.

The data backend tops out at a few thousand simulated processors — the
operand elements alone for a problem worth running at ``P = 10^5`` would
not fit in memory, let alone move through the simulated network in
reasonable time.  The symbolic backend removes exactly that wall: blocks
are shape descriptors, every counter is charged from shape arithmetic,
and :func:`repro.analysis.verification.cross_check_backends` proves the
accounting identical to the data backend's.  This module uses it to
demonstrate the paper's headline claim at *production-sized* processor
counts: Algorithm 1 on the Section 5.2 grid attains the Theorem 3 bound
— constant included — in all three cases.

The standard points (:data:`LARGE_P_POINTS`) pick one shape per case,
each chosen so the optimal grid divides the dimensions exactly and the
measured words land *on* the bound, not merely near it:

=====  =======================  ========  ==============  ========
case   shape (n1 x n2 x n3)     P         grid            constant
=====  =======================  ========  ==============  ========
1      65536 x 32 x 32          1024      1024 x 1 x 1    1
2      8192 x 8192 x 2          16384     128 x 128 x 1   2
3      25000 x 6400 x 5000      100000    125 x 32 x 25   3
=====  =======================  ========  ==============  ========

All-gathers run the Bruck algorithm (`collective_algorithm="bruck"`),
which keeps fiber groups feasible at any size — "auto" would fall back
to the ring at non-power-of-two fiber lengths, which is just as exact
but quadratically slower to simulate at these scales.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence

from ..core.cases import Regime, classify
from ..core.lower_bounds import leading_term_constant
from ..core.shapes import ProblemShape
from ..exceptions import BoundViolationError
from ..parallel import parallel_map
from .sweep import SweepRecord, sweep

__all__ = ["LargePPoint", "LargePResult", "LARGE_P_POINTS", "run_large_p_sweep"]


@dataclasses.dataclass(frozen=True)
class LargePPoint:
    """One (case, shape, P) target of the large-P attainment sweep."""

    case: int
    shape: ProblemShape
    P: int


@dataclasses.dataclass(frozen=True)
class LargePResult:
    """Outcome of one large-P point: the sweep record plus the verdict."""

    point: LargePPoint
    record: SweepRecord
    constant: float
    ratio: float
    tight: bool
    wall_clock: float


LARGE_P_POINTS: Sequence[LargePPoint] = (
    LargePPoint(case=1, shape=ProblemShape(65536, 32, 32), P=1024),
    LargePPoint(case=2, shape=ProblemShape(8192, 8192, 2), P=16384),
    LargePPoint(case=3, shape=ProblemShape(25000, 6400, 5000), P=100000),
)

_REGIME_CASE = {Regime.ONE_D: 1, Regime.TWO_D: 2, Regime.THREE_D: 3}


def _large_p_task(task) -> LargePResult:
    """Run one large-P point; one process-pool task (module-level, picklable).

    The ledger is never passed in: the parent appends the returned
    record itself so the file is written once, in point order, for any
    worker count.
    """
    point, tight_tol = task
    regime = classify(point.shape, point.P)
    if _REGIME_CASE[regime] != point.case:
        raise BoundViolationError(
            f"large-P point {point.shape}, P={point.P} declared case "
            f"{point.case} but classifies as {regime}"
        )
    start = time.perf_counter()
    records = sweep(
        [point.shape],
        [point.P],
        algorithms=["alg1"],
        backend="symbolic",
        collective_algorithm="bruck",
    )
    elapsed = time.perf_counter() - start
    record = records[0]
    _oracle_cross_check(point, record)
    ratio = record.words / record.bound
    tight = abs(ratio - 1.0) <= tight_tol * max(1.0, ratio)
    if not tight:
        raise BoundViolationError(
            f"large-P case {point.case} ({point.shape}, P={point.P}): "
            f"measured {record.words:g} words vs bound {record.bound:g} "
            f"(ratio {ratio:.6f}) — Algorithm 1 should attain the bound "
            f"exactly on this grid"
        )
    return LargePResult(
        point=point,
        record=record,
        constant=leading_term_constant(regime),
        ratio=ratio,
        tight=tight,
        wall_clock=elapsed,
    )


def _oracle_cross_check(point: LargePPoint, record: SweepRecord) -> None:
    """Assert the vectorized closed-form oracle reproduces the simulated
    model costs of a large-P point exactly.

    An independent second witness for the headline table: the symbolic
    machine *counts* the words; the array kernels *compute* them from the
    closed forms.  Any divergence — words, rounds, flops, bound, or the
    chosen grid — is a model bug, reported as a bound violation.  Runs in
    microseconds and never alters the record, so table output and golden
    fixtures are unchanged.
    """
    from .oracle_vec import predict_batch

    batch = predict_batch(
        "alg1", point.shape, point.P, collective_algorithm="bruck"
    )
    mismatches = []
    if not batch.valid[0]:
        mismatches.append("oracle refuses the point")
    else:
        for field, measured, predicted in (
            ("words", record.words, float(batch.words[0])),
            ("rounds", record.rounds, int(batch.rounds[0])),
            ("flops", record.flops, float(batch.flops[0])),
            ("bound", record.bound, float(batch.bound[0])),
            ("config", record.config, batch.configs[0]),
        ):
            if measured != predicted:
                mismatches.append(
                    f"{field}: simulated {measured!r} vs oracle {predicted!r}"
                )
    if mismatches:
        raise BoundViolationError(
            f"large-P case {point.case} ({point.shape}, P={point.P}): "
            f"symbolic run and closed-form oracle disagree — "
            + "; ".join(mismatches)
        )


def run_large_p_sweep(
    points: Optional[Sequence[LargePPoint]] = None,
    tight_tol: float = 1e-9,
    ledger=None,
    label: str = "large-p",
    workers: int = 1,
    telemetry=None,
    profile=None,
    progress=None,
) -> List[LargePResult]:
    """Run Algorithm 1 symbolically on each large-P point and check tightness.

    Every point must land in its declared Theorem 3 case and attain the
    bound to relative tolerance ``tight_tol`` — with the case's tight
    constant (1, 2 or 3), since the bound itself carries the constant.
    With ``workers > 1`` the points run in a process pool (one point per
    task); results and ledger records keep point order either way.
    ``telemetry``/``profile``/``progress`` are the optional driver
    observability sinks of :func:`repro.parallel.parallel_map` — inert by
    default, and unable to perturb measured costs.

    Raises
    ------
    BoundViolationError
        If a point is misclassified or the measured words miss the bound.
    """
    from ..obs.telemetry import maybe_stage

    with maybe_stage(telemetry, "plan"):
        tasks = [
            (point, tight_tol)
            for point in (points if points is not None else LARGE_P_POINTS)
        ]
    with maybe_stage(telemetry, "map", tasks=len(tasks), workers=workers):
        results = parallel_map(
            _large_p_task, tasks, workers=workers,
            telemetry=telemetry, profile=profile, progress=progress,
            label="large-p-point",
        )
    if telemetry is not None:
        for index, _result in enumerate(results):
            telemetry.set_task_items(index, 1, label="large-p-point")
    with maybe_stage(telemetry, "ledger-append"):
        if ledger is not None:
            from ..obs.ledger import RunRecord

            for result in results:
                ledger.append(RunRecord.from_sweep(result.record, label=label))
    return results
