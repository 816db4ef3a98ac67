"""Multiprocess map with deterministic, worker-count-independent results.

The sweep, chaos and large-P drivers are embarrassingly parallel across
their outermost task lists, but naive pooling would break two contracts
the repo depends on:

* **Determinism** — results (and the ledger records derived from them)
  must be bit-identical regardless of ``workers``.  We guarantee this by
  (a) deriving per-task seeds from ``(seed, task_index)`` instead of
  drawing from one sequential stream, so a task's randomness does not
  depend on which worker ran it or what ran before it, and (b) merging
  results back in submission order (``Executor.map`` preserves order).
* **Picklability** — tasks cross a process boundary, so worker functions
  must be module-level callables and arguments plain data.  Callers in
  :mod:`repro.analysis` define module-level ``_*_task`` functions for
  this reason.

``parallel_map(fn, items, workers=1)`` is the only entry point.  With
``workers <= 1`` (the default and the CLI default) it runs a plain serial
loop in-process — no pool, no pickling, identical behaviour to the
pre-parallel code — so serial remains the well-trodden path and the pool
is pure opt-in via ``--workers N``.

Three opt-in observability hooks ride on the same entry point, all inert
(``None``/``False``) by default so the uninstrumented path stays
byte-identical to the description above:

* ``telemetry=`` — a :class:`repro.obs.telemetry.Telemetry` recorder;
  every task then reports a timing tuple (worker pid, parent submit
  time, worker start/end on the shared monotonic clock) which the parent
  merges into the recorder as a
  :class:`~repro.obs.telemetry.TaskSpan`.
* ``profile=`` — a :class:`repro.obs.profile.ProfileCollector`; every
  task runs under its own :mod:`cProfile` and ships the raw stats
  mapping back for cross-worker aggregation.
* ``progress=`` — a :class:`repro.obs.telemetry.ProgressReporter`,
  heartbeat-updated as each result arrives.

Pooled tasks are additionally chunked (``chunksize`` heuristic: about
four chunks per worker) to amortize pickling on large task lists, and a
worker exception is re-raised in the parent **from** a
:class:`~repro.exceptions.TaskError` naming the failing task's index and
item ``repr`` — instead of the bare pickled traceback pools give you.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from .exceptions import TaskError

__all__ = [
    "default_chunksize",
    "default_workers",
    "parallel_map",
    "task_seed",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def task_seed(seed: int, index: int) -> tuple:
    """Seed for task ``index`` of a run seeded with ``seed``.

    A ``(seed, index)`` tuple fed to :func:`numpy.random.default_rng`,
    which hashes the whole sequence: streams are independent across tasks
    and depend only on the task's position, never on scheduling order or
    worker count.
    """
    return (seed, index)


def default_workers(requested: Optional[int]) -> int:
    """Resolve a ``--workers`` value: ``None``/``0`` → serial, ``-1`` → all cores."""
    if requested is None or requested == 0:
        return 1
    if requested < 0:
        return os.cpu_count() or 1
    return requested


def default_chunksize(n_tasks: int, pool_size: int) -> int:
    """Heuristic pool chunk size: about four chunks per worker.

    Large task lists (a 10^5-configuration sweep fanned over 8 workers)
    would otherwise pay one pickle round-trip per task; four chunks per
    worker keeps the pickling overhead amortized while leaving enough
    chunks for the pool to rebalance around stragglers.  Small lists
    degrade to ``chunksize=1``, which is the previous behaviour.
    """
    if n_tasks <= 0 or pool_size <= 0:
        return 1
    return max(1, math.ceil(n_tasks / (pool_size * 4)))


@dataclasses.dataclass
class _TaskOutcome:
    """What one wrapped task sends back across the process boundary."""

    index: int
    value: object = None
    timing: Optional[tuple] = None  # (pid, submitted, started, ended)
    profile: Optional[dict] = None
    error: Optional[Exception] = None
    item_repr: str = ""
    worker_traceback: str = ""


def _safe_repr(item, limit: int = 200) -> str:
    try:
        text = repr(item)
    except Exception:  # pragma: no cover - pathological __repr__
        text = f"<unreprable {type(item).__name__}>"
    return text if len(text) <= limit else text[: limit - 3] + "..."


class _Runner:
    """Picklable per-task wrapper: timing, profiling, exception capture.

    Instances hold only the task function (module-level, picklable) and
    two booleans, so they cross the process boundary like the bare
    function did.  Exceptions are captured — not raised — so the parent
    can re-raise them with task context instead of the pool's opaque
    pickled traceback.
    """

    def __init__(self, fn: Callable, telemetry: bool, profile: bool) -> None:
        self.fn = fn
        self.telemetry = telemetry
        self.profile = profile

    def __call__(self, payload) -> _TaskOutcome:
        index, submitted, item = payload
        started = time.perf_counter()
        stats = None
        try:
            if self.profile:
                from .obs.profile import capture_stats

                value, stats = capture_stats(lambda: self.fn(item))
            else:
                value = self.fn(item)
        except Exception as exc:
            ended = time.perf_counter()
            return _TaskOutcome(
                index=index,
                timing=(
                    (os.getpid(), submitted, started, ended)
                    if self.telemetry else None
                ),
                error=exc,
                item_repr=_safe_repr(item),
                worker_traceback=traceback.format_exc(),
            )
        ended = time.perf_counter()
        return _TaskOutcome(
            index=index,
            value=value,
            timing=(
                (os.getpid(), submitted, started, ended)
                if self.telemetry else None
            ),
            profile=stats,
        )


def _ingest(outcome: _TaskOutcome, telemetry, profile, progress, label: str):
    """Feed one outcome's instrumentation into the parent-side sinks."""
    if outcome.timing is not None and telemetry is not None:
        pid, submitted, started, ended = outcome.timing
        telemetry.record_task(
            outcome.index, label, pid, submitted, started, ended
        )
    if outcome.profile is not None and profile is not None:
        profile.add(outcome.profile)
    if progress is not None:
        progress.update()


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: int = 1,
    *,
    telemetry=None,
    profile=None,
    progress=None,
    chunksize: Optional[int] = None,
    label: Optional[str] = None,
) -> List[_R]:
    """Map ``fn`` over ``items``, optionally across a process pool.

    Results come back in input order, so callers can zip them against
    ``items`` and downstream accounting (ledger append order, report row
    order) is identical to the serial loop.  Exceptions raised by ``fn``
    propagate to the caller in either mode; in pool mode the original
    exception is re-raised **from** a :class:`~repro.exceptions.TaskError`
    carrying the failing task's index, item ``repr`` and worker-side
    traceback.

    ``fn`` must be picklable (a module-level function) when ``workers > 1``.

    Parameters
    ----------
    telemetry:
        Optional :class:`repro.obs.telemetry.Telemetry`; each task then
        reports a :class:`~repro.obs.telemetry.TaskSpan` (worker pid,
        queue wait, duration) merged into the recorder's timeline.
    profile:
        Optional :class:`repro.obs.profile.ProfileCollector`; each task
        runs under cProfile and its stats merge into the collector.
    progress:
        Optional :class:`repro.obs.telemetry.ProgressReporter`, updated
        once per completed task.
    chunksize:
        Pool chunk size; defaults to :func:`default_chunksize`.  Ignored
        in serial mode.
    label:
        Task label for telemetry spans; defaults to ``fn.__name__``.

    All five are inert by default: with none of them set, the serial path
    is the bare pre-instrumentation loop and the pooled path adds only
    exception wrapping — neither perturbs results, which stay
    bit-identical for any combination (asserted in
    ``tests/obs/test_telemetry.py``).
    """
    tasks: Sequence[_T] = list(items)
    span_label = label if label is not None else getattr(fn, "__name__", "task")
    instrumented = telemetry is not None or profile is not None

    if workers <= 1 or len(tasks) <= 1:
        if not instrumented and progress is None:
            return [fn(task) for task in tasks]
        runner = _Runner(fn, telemetry is not None, profile is not None)
        results: List[_R] = []
        for index, item in enumerate(tasks):
            outcome = runner((index, time.perf_counter(), item))
            _ingest(outcome, telemetry, profile, progress, span_label)
            if outcome.error is not None:
                # Same process: the original traceback is still attached,
                # so re-raise bare exactly like the uninstrumented loop.
                raise outcome.error
            results.append(outcome.value)
        return results

    pool_size = min(workers, len(tasks))
    runner = _Runner(fn, telemetry is not None, profile is not None)
    size = chunksize if chunksize is not None else default_chunksize(
        len(tasks), pool_size
    )
    payloads = [
        (index, time.perf_counter(), item) for index, item in enumerate(tasks)
    ]
    results = []
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        for outcome in pool.map(runner, payloads, chunksize=size):
            _ingest(outcome, telemetry, profile, progress, span_label)
            if outcome.error is not None:
                context = TaskError(
                    f"parallel_map task {outcome.index} of {len(tasks)} "
                    f"({span_label}) failed on item {outcome.item_repr}; "
                    f"worker traceback:\n{outcome.worker_traceback}"
                )
                raise outcome.error from context
            results.append(outcome.value)
    return results
