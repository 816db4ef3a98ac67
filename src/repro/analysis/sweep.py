"""Generic parameter-sweep driver over registered algorithms.

Runs every applicable algorithm from :mod:`repro.algorithms.registry` over
a grid of ``(shape, P)`` combinations, verifying numerics against numpy and
the Theorem 3 bound on the way, and returns tidy result records for the
benchmark harnesses to print.

Every record carries the wall-clock time of its run and the per-rank
``sent_words`` skew derived from the machine's span attribution, and a
sweep can stream its records into a persistent experiment ledger
(:class:`repro.obs.ledger.Ledger`) so cross-run trajectories come for free:

    >>> from repro.obs.ledger import Ledger                    # doctest: +SKIP
    >>> sweep(shapes, counts, ledger=Ledger("repro_ledger.jsonl"),
    ...       label="nightly")                                 # doctest: +SKIP

Sweeps parallelize across shapes with ``workers=N`` (each shape's grid of
``(P, algorithm)`` runs is one process-pool task) and the records come back
in the same order as the serial loop — model costs are bit-identical for
any worker count because every task derives its operand seed from
``(seed, shape_index)``, never from a shared sequential stream.  With
``engine="oracle"`` the sweep skips simulation entirely and evaluates the
closed-form cost oracle (:mod:`repro.analysis.oracle`), which is exact
wherever it is defined and fast enough for ``P = 10^6`` parameter spaces.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.registry import REGISTRY, applicable_algorithms, run_algorithm
from ..core.lower_bounds import communication_lower_bound
from ..core.shapes import ProblemShape
from ..exceptions import BoundViolationError, NumericalMismatchError
from ..machine.backend import resolve_backend
from ..machine.semiring import resolve_semiring
from ..obs.metrics import RankSkew
from ..parallel import parallel_map, task_seed
from .verification import check_cost_against_bound

__all__ = ["SweepRecord", "sweep"]


@dataclasses.dataclass(frozen=True)
class SweepRecord:
    """One (algorithm, shape, P) measurement.

    ``wall_clock`` is the measured driver time of the run in seconds
    (:func:`time.perf_counter`); ``skew`` summarizes the per-rank
    ``sent_words`` imbalance of the execution (``None`` only when the
    algorithm exposes no machine).  ``backend`` names the execution
    backend the run used (``"oracle"`` for closed-form records, which
    never touch a machine); ``correct`` is ``None`` under the symbolic
    backend and the oracle engine (no elements exist to verify — the cost
    counters are identical to the data backend's by construction, which
    :func:`repro.analysis.verification.cross_check_backends` and
    :func:`repro.analysis.verification.cross_check_oracle` assert).
    """

    algorithm: str
    config: str
    shape: ProblemShape
    P: int
    words: float
    rounds: int
    bound: float
    gap_ratio: float
    correct: Optional[bool]
    wall_clock: float = 0.0
    flops: float = 0.0
    skew: Optional[RankSkew] = None
    backend: str = "data"
    #: Index of the ``parallel_map`` task (= shape index) that produced
    #: this record; populated only under driver telemetry so merged
    #: :class:`~repro.obs.telemetry.TaskSpan` timelines join records
    #: without positional guessing.  ``None`` (the default) keeps
    #: telemetry-off records — and the ledger lines derived from them —
    #: byte-identical to pre-telemetry behaviour.
    task_index: Optional[int] = None
    #: Semiring the run's scalar multiply-add pair came from.  Additive:
    #: the default names the classical ``(+, x)`` pair, so records written
    #: before the semiring seam existed read back unchanged.
    semiring: str = "plus_times"


def _sweep_shape(
    task: Tuple[ProblemShape, int, Tuple[int, ...], Tuple[str, ...], int,
                str, Optional[str], str, bool, Optional[str]],
) -> Tuple[List[SweepRecord], Optional[dict]]:
    """Run one shape's full ``(P, algorithm)`` grid; one process-pool task.

    Module-level (picklable) with a plain-data argument tuple so it can
    cross the process boundary; the operand RNG is seeded from
    ``(seed, shape_index)`` so results are identical no matter which
    worker runs the task or in what order.

    Returns ``(records, stage_seconds)``: ``stage_seconds`` breaks the
    task's wall-clock into the driver stages that happen *inside* the
    worker (``operands`` / ``evaluate`` / ``verify``) and is ``None``
    unless the final ``want_telemetry`` flag is set, so untimed sweeps
    run the exact pre-telemetry loop.
    """
    (shape, shape_index, processor_counts, names, seed,
     backend, collective_algorithm, engine, want_telemetry, semiring) = task

    def record_semiring(name: str) -> str:
        # The resolved name that lands on the record; entries may default
        # to a non-plus_times semiring (fox_otto) when none is requested.
        if semiring is not None:
            return resolve_semiring(semiring).name
        return "min_plus" if name == "fox_otto" else "plus_times"

    timings = {"operands": 0.0, "evaluate": 0.0, "verify": 0.0}
    record_index = shape_index if want_telemetry else None
    records: List[SweepRecord] = []
    if engine == "oracle":
        from .oracle_vec import predict_batch

        # One vectorized call per algorithm covers the shape's whole P
        # column; rows come back in (P, name) order, refusals arrive as
        # mask entries instead of exceptions, and every emitted field is
        # pinned by the golden fixtures.
        order: List[Tuple[int, str]] = []
        for P in processor_counts:
            runnable = set(applicable_algorithms(shape, P))
            for name in names:
                if name in runnable:
                    order.append((P, name))
        columns: dict = {}
        for P, name in order:
            columns.setdefault(name, []).append(P)
        rows: dict = {}
        for name, counts_for_name in columns.items():
            start = time.perf_counter()
            batch = predict_batch(
                name, shape, counts_for_name,
                collective_algorithm=collective_algorithm,
            )
            elapsed = time.perf_counter() - start
            timings["evaluate"] += elapsed
            per_row = elapsed / len(counts_for_name)
            for i, P in enumerate(counts_for_name):
                rows[(name, P)] = (batch, i, per_row)
        for P, name in order:
            batch, i, per_row = rows[(name, P)]
            if not batch.valid[i]:
                continue  # predict_cost would refuse this row
            verify_start = time.perf_counter()
            if not bool(batch.satisfied[i]):
                pred = batch.prediction(i)
                check = check_cost_against_bound(shape, P, pred.cost)
                raise BoundViolationError(
                    f"oracle predicted {name} below the lower bound on "
                    f"{shape}, P={P}: {pred.cost.words} < "
                    f"{check.bound.communicated}"
                )
            timings["verify"] += time.perf_counter() - verify_start
            records.append(SweepRecord(
                algorithm=name,
                config=batch.configs[i],
                shape=shape,
                P=P,
                words=float(batch.words[i]),
                rounds=int(batch.rounds[i]),
                bound=float(batch.bound[i]),
                gap_ratio=float(batch.gap_ratio[i]),
                correct=None,
                wall_clock=per_row,
                flops=float(batch.flops[i]),
                skew=None,
                backend="oracle",
                task_index=record_index,
                semiring=record_semiring(name),
            ))
        return records, (timings if want_telemetry else None)

    backend_obj = resolve_backend(backend)
    operand_start = time.perf_counter()
    rng = np.random.default_rng(task_seed(seed, shape_index))
    expected_cache: dict = {}

    def expected_for(sr_name: str):
        # One dense reference product per semiring actually run; sweeping
        # a mixed pool (fox_otto beside plus_times entries) verifies each
        # run against its own semiring's reference.
        if sr_name not in expected_cache:
            expected_cache[sr_name] = resolve_semiring(sr_name).matmul_data(A, B)
        return expected_cache[sr_name]

    if backend_obj.verifies:
        A = rng.random((shape.n1, shape.n2))
        B = rng.random((shape.n2, shape.n3))
    else:
        A, B = backend_obj.operands((shape.n1, shape.n2, shape.n3))
    timings["operands"] = time.perf_counter() - operand_start
    for P in processor_counts:
        runnable = set(applicable_algorithms(shape, P))
        for name in names:
            if name not in runnable:
                continue
            start = time.perf_counter()
            run = run_algorithm(
                name, A, B, P, collective_algorithm=collective_algorithm,
                semiring=semiring,
            )
            elapsed = time.perf_counter() - start
            timings["evaluate"] += elapsed
            verify_start = time.perf_counter()
            correct = (
                bool(np.allclose(run.C, expected_for(run.semiring)))
                if backend_obj.verifies else None
            )
            check = check_cost_against_bound(shape, P, run.cost)
            if correct is False:
                raise NumericalMismatchError(
                    f"{name} produced a wrong product on {shape}, P={P}"
                )
            if not check.satisfied:
                raise BoundViolationError(
                    f"{name} beat the lower bound on {shape}, P={P}: "
                    f"{run.cost.words} < {check.bound.communicated}"
                )
            timings["verify"] += time.perf_counter() - verify_start
            records.append(SweepRecord(
                algorithm=name,
                config=run.config,
                shape=shape,
                P=P,
                words=run.cost.words,
                rounds=run.cost.rounds,
                bound=communication_lower_bound(shape, P),
                gap_ratio=check.gap_ratio,
                correct=correct,
                wall_clock=elapsed,
                flops=run.cost.flops,
                skew=None if run.machine is None else run.machine.rank_skew(),
                backend=backend_obj.name,
                task_index=record_index,
                semiring=run.semiring,
            ))
    return records, (timings if want_telemetry else None)


def sweep(
    shapes: Iterable[ProblemShape],
    processor_counts: Sequence[int],
    algorithms: Optional[Sequence[str]] = None,
    seed: int = 0,
    ledger=None,
    label: str = "",
    backend: str = "data",
    collective_algorithm: Optional[str] = None,
    workers: int = 1,
    engine: str = "simulate",
    telemetry=None,
    profile=None,
    progress=None,
    semiring: Optional[str] = None,
) -> List[SweepRecord]:
    """Run algorithms across shapes and processor counts.

    Parameters
    ----------
    shapes, processor_counts, algorithms, seed:
        The sweep grid: every applicable registered algorithm (or the
        named subset) runs on every ``(shape, P)`` combination, with
        operands drawn from an RNG seeded per shape with
        ``(seed, shape_index)``.
    ledger:
        Optional :class:`repro.obs.ledger.Ledger`; every record is
        appended to it as a persistent run record tagged with ``label``.
        Appends happen in the parent process after all tasks complete, in
        deterministic record order, so the ledger file is identical for
        any ``workers`` value.
    backend:
        Execution backend name (``"data"`` or ``"symbolic"``).  Under
        ``"symbolic"`` no operand elements are ever allocated, so the
        sweep scales to production-sized ``P`` (``10^5`` and beyond);
        numerical verification is skipped (``correct=None``) while the
        bound check still runs on the identically-accounted counters.
    collective_algorithm:
        Optional override threaded to algorithms that expose the choice
        (Algorithm 1); e.g. ``"bruck"`` keeps all-gather fibers feasible
        at non-power-of-two sizes.
    workers:
        Process-pool width; ``1`` (default) runs the serial in-process
        loop.  Tasks are whole shapes, results merge in input order, and
        model costs are bit-identical to the serial run by construction.
    engine:
        ``"simulate"`` (default) executes the algorithms on the machine
        model; ``"oracle"`` evaluates the closed-form cost oracle instead
        — exact where defined (configurations the oracle refuses are
        silently skipped, mirroring ``applicable_algorithms`` filtering),
        with ``backend="oracle"``, ``correct=None`` and no skew on every
        record.
    telemetry:
        Optional :class:`repro.obs.telemetry.Telemetry`: the driver then
        records host-side stage spans (``plan`` / ``map`` / ``merge`` /
        ``ledger-append``), one :class:`~repro.obs.telemetry.TaskSpan`
        per shape task (worker pid, queue wait, duration, records
        produced), worker-side stage second counters (``operands`` /
        ``evaluate`` / ``verify``), and every record/ledger line carries
        its ``task_index`` plus a per-task telemetry summary.  ``None``
        (the default) runs the exact uninstrumented path — model costs,
        records and ledger bytes are unperturbed either way.
    profile:
        Optional :class:`repro.obs.profile.ProfileCollector`: every task
        runs under cProfile (in its worker) and the stats merge into the
        collector for a cross-process hotspot table.
    progress:
        Optional :class:`repro.obs.telemetry.ProgressReporter`,
        heartbeat-updated as shape tasks complete.
    semiring:
        Optional semiring name threaded to every run (``"plus_times"`` /
        ``"min_plus"``).  ``None`` keeps each entry's own default.  Data
        runs are verified against the *requested* semiring's dense
        reference product; costs and bound checks are identical for every
        semiring by construction.

    Raises
    ------
    NumericalMismatchError
        If any run produces a numerically wrong product.
    BoundViolationError
        If any run communicates less than the Theorem 3 lower bound.

    Either failure means a simulator bug, and silently recording it would
    poison every downstream comparison — including any attached ledger, so
    records are verified *before* they are appended.  The checks are real
    control flow (typed exceptions from :mod:`repro.exceptions`), not
    ``assert`` statements, so they survive ``python -O``.
    """
    from ..obs.telemetry import maybe_stage

    if engine not in ("simulate", "oracle"):
        raise ValueError(f"unknown sweep engine {engine!r}")
    if engine == "simulate":
        resolve_backend(backend)  # validate the name before forking tasks
    if semiring is not None:
        semiring = resolve_semiring(semiring).name  # validate before forking
    with maybe_stage(telemetry, "plan"):
        names = tuple(algorithms) if algorithms is not None else tuple(REGISTRY)
        counts = tuple(processor_counts)
        tasks = [
            (shape, index, counts, names, seed, backend,
             collective_algorithm, engine, telemetry is not None, semiring)
            for index, shape in enumerate(shapes)
        ]
    with maybe_stage(telemetry, "map", tasks=len(tasks), workers=workers):
        results = parallel_map(
            _sweep_shape, tasks, workers=workers,
            telemetry=telemetry, profile=profile, progress=progress,
            label="sweep-shape",
        )
    with maybe_stage(telemetry, "merge"):
        records: List[SweepRecord] = [
            rec for batch, _timings in results for rec in batch
        ]
        if telemetry is not None:
            for index, (batch, timings) in enumerate(results):
                telemetry.set_task_items(index, len(batch), label="sweep-shape")
                for stage, seconds in (timings or {}).items():
                    telemetry.metrics.counter(
                        "worker_stage_seconds_total", stage=stage
                    ).inc(seconds)
    with maybe_stage(telemetry, "ledger-append"):
        if ledger is not None:
            from ..obs.ledger import RunRecord

            for record in records:
                ledger.append(RunRecord.from_sweep(
                    record, label=label,
                    telemetry=_task_telemetry(telemetry, record),
                ))
    return records


def _task_telemetry(telemetry, record: SweepRecord) -> Optional[dict]:
    """The per-task telemetry summary a ledger record carries (or ``None``)."""
    if telemetry is None or record.task_index is None:
        return None
    span = telemetry.task_by_index(record.task_index, label="sweep-shape")
    if span is None:
        return None
    return {
        "task_index": span.index,
        "worker_pid": span.worker_pid,
        "queue_wait": span.queue_wait,
        "task_duration": span.duration,
        "items": span.items,
    }
