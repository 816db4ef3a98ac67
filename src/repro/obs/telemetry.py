"""Driver-level telemetry: host-process spans for the code that *runs* runs.

The PR-1 span layer (:mod:`repro.obs.span`) instruments the **simulated
machine** — its clock is modelled time, its counters are modelled words.
The drivers that orchestrate those simulations (the sweep, the chaos
matrix, the large-P attainment sweep) spend real wall-clock seconds in
operand generation, simulation, verification, ledger appends and result
merging, and with ``--workers N`` most of that time happens inside
opaque pool processes.  This module gives the *host*
side the same treatment the machine already enjoys:

* :class:`StageSpan` — one nested wall-clock region of the driver
  (``plan`` / ``map`` / ``merge`` / ``ledger-append`` ...), opened with
  ``telemetry.stage(name)`` exactly like ``machine.span``.
* :class:`TaskSpan` — one :func:`repro.parallel.parallel_map` task as a
  worker saw it: the worker's pid, when the parent submitted it, when the
  worker actually started (the difference is **queue wait**), when it
  finished, and how many work items (configs) it processed.
* :class:`Telemetry` — the recorder that owns both, merges every worker's
  task spans into one unified timeline (a shared monotonic clock, origin
  at recorder creation), derives worker-utilization statistics
  (:meth:`Telemetry.worker_stats` — per-worker busy fraction,
  task-duration histogram, pool-straggler detection analogous to
  :class:`~repro.obs.metrics.RankSkew`) and renders a compact
  :meth:`Telemetry.summary` for ledger and BENCH records.
* :class:`ProgressReporter` — a throttled heartbeat for long sweeps:
  ``done/total``, throughput, and an ETA, at most once per interval.

All timestamps come from :func:`time.perf_counter`, which is system-wide
(``CLOCK_MONOTONIC`` on Linux), so parent-submitted and worker-measured
instants live on one comparable axis and queue waits are real, not
inferred.  The recorder stores every instant relative to its own creation
(:attr:`Telemetry.epoch`), so exported timelines start near zero.

Telemetry is strictly opt-in and inert by design: drivers accept
``telemetry=None`` (the default) and skip every recording call, so a
telemetry-off run executes the exact pre-telemetry code path — the
determinism tests in ``tests/obs/test_telemetry.py`` assert that model
costs, attainment and ledger bytes are unperturbed.  The exporters in
:mod:`repro.obs.exporters` render the merged timeline as Chrome-trace
JSON (driver stages and per-worker lanes side by side, loadable in
``chrome://tracing`` next to a simulated machine's spans) and as
JSON-lines records, both under the same zero-drift contract as the
machine exporters: the durations written are the durations measured,
exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import sys
import time
from typing import Dict, Iterator, List, Optional, TextIO, Tuple

from .metrics import MetricsRegistry, RankSkew, rank_skew

__all__ = [
    "StageSpan",
    "TaskSpan",
    "Telemetry",
    "WorkerStats",
    "ProgressReporter",
    "maybe_stage",
]

#: Task-duration histogram buckets (seconds): powers of two from ~1 ms up.
TASK_DURATION_BUCKETS: Tuple[float, ...] = tuple(
    2.0 ** e for e in range(-10, 11)
)


@dataclasses.dataclass
class StageSpan:
    """One nested wall-clock region of the host driver.

    Times are seconds relative to the owning :class:`Telemetry`'s epoch.
    ``index`` is the creation sequence number; ``parent`` is the index of
    the enclosing stage (or ``None`` at top level), mirroring the
    ``id``/``parent`` encoding of machine spans so the exporters can
    reuse one tree convention.
    """

    index: int
    name: str
    kind: str = "stage"
    depth: int = 0
    parent: Optional[int] = None
    start: float = 0.0
    end: float = 0.0
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_record(self) -> dict:
        """A JSON-serializable flat record (used by the exporters)."""
        return {
            "type": "stage_span",
            "id": self.index,
            "parent": self.parent,
            "name": self.name,
            "kind": self.kind,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "meta": dict(self.meta),
        }


@dataclasses.dataclass
class TaskSpan:
    """One ``parallel_map`` task as measured by the worker that ran it.

    ``submitted`` is stamped by the parent just before handing the task
    to the pool; ``started``/``ended`` are stamped inside the worker.
    All three share the system-wide monotonic clock and are stored
    relative to the telemetry epoch, so ``queue_wait`` is an honest
    measurement of time spent waiting for a worker slot (and of pickling
    overhead), not a model.

    ``items`` counts the work units the task processed — for a sweep
    task, the number of records its shape produced — so ``items_per_sec``
    is the configs/sec throughput the vectorized-sweep work will be
    judged against.
    """

    index: int
    label: str
    worker_pid: int
    submitted: float
    started: float
    ended: float
    items: int = 0

    @property
    def duration(self) -> float:
        """Seconds the worker spent executing the task."""
        return self.ended - self.started

    @property
    def queue_wait(self) -> float:
        """Seconds between parent submission and worker start."""
        return self.started - self.submitted

    @property
    def items_per_sec(self) -> float:
        """Throughput in work items (configs) per second; 0 when untimed."""
        return self.items / self.duration if self.duration > 0 else 0.0

    def to_record(self) -> dict:
        """A JSON-serializable flat record (used by the exporters)."""
        return {
            "type": "task_span",
            "index": self.index,
            "label": self.label,
            "worker_pid": self.worker_pid,
            "submitted": self.submitted,
            "started": self.started,
            "ended": self.ended,
            "duration": self.duration,
            "queue_wait": self.queue_wait,
            "items": self.items,
            "items_per_sec": self.items_per_sec,
        }


@dataclasses.dataclass(frozen=True)
class WorkerStats:
    """Utilization of one pool worker over the telemetry window.

    ``busy`` is the exact sum of the worker's task durations (zero-drift
    by construction: the same numbers the task spans carry).
    ``busy_fraction`` divides by the pool window — first task start to
    last task end across *all* workers — so a straggler-free pool shows
    every worker near 1.0 and a skewed pool shows idle tails directly.
    """

    pid: int
    tasks: int
    busy: float
    items: int
    busy_fraction: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class Telemetry:
    """Recorder for one driver invocation's host-side telemetry.

    Parameters
    ----------
    driver:
        Name of the driver being instrumented (``"sweep"``, ``"chaos"``,
        ``"large-p"``); labels exports and summaries.

    The recorder is cheap to create and every method is callable from the
    parent process only — workers report plain timing tuples through
    :func:`repro.parallel.parallel_map`, which forwards them to
    :meth:`record_task`.
    """

    def __init__(self, driver: str = "driver") -> None:
        self.driver = driver
        #: perf_counter value all stored times are relative to.
        self.epoch = time.perf_counter()
        self.stages: List[StageSpan] = []
        self.tasks: List[TaskSpan] = []
        self.metrics = MetricsRegistry()
        self._stack: List[StageSpan] = []

    # ------------------------------------------------------------------ #
    # recording                                                          #
    # ------------------------------------------------------------------ #

    def now(self) -> float:
        """Seconds since the telemetry epoch (shared monotonic clock)."""
        return time.perf_counter() - self.epoch

    @contextlib.contextmanager
    def stage(self, name: str, kind: str = "stage", **meta) -> Iterator[StageSpan]:
        """Open a nested driver-stage span; closes on exit, even on error."""
        span = StageSpan(
            index=len(self.stages),
            name=name,
            kind=kind,
            depth=len(self._stack),
            parent=self._stack[-1].index if self._stack else None,
            start=self.now(),
            meta=dict(meta),
        )
        self.stages.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.now()
            self.metrics.counter("driver_stages_total", stage=name).inc()

    def record_task(
        self,
        index: int,
        label: str,
        worker_pid: int,
        submitted: float,
        started: float,
        ended: float,
        items: int = 0,
    ) -> TaskSpan:
        """Ingest one worker-measured task timing (absolute clock values).

        ``submitted``/``started``/``ended`` are raw :func:`time.perf_counter`
        readings; they are rebased onto the telemetry epoch here so every
        span — parent stages and worker tasks alike — shares one timeline.
        """
        span = TaskSpan(
            index=index,
            label=label,
            worker_pid=worker_pid,
            submitted=submitted - self.epoch,
            started=started - self.epoch,
            ended=ended - self.epoch,
            items=items,
        )
        self.tasks.append(span)
        self.metrics.counter("driver_tasks_total", label=label).inc()
        self.metrics.histogram(
            "task_duration_seconds", buckets=TASK_DURATION_BUCKETS, label=label
        ).observe(span.duration)
        self.metrics.histogram(
            "task_queue_wait_seconds", buckets=TASK_DURATION_BUCKETS, label=label
        ).observe(span.queue_wait)
        return span

    def set_task_items(
        self, index: int, items: int, label: Optional[str] = None
    ) -> None:
        """Attach a work-item count to task ``index`` after the fact.

        Drivers whose task payload size is only known once results merge
        (e.g. a sweep task's record count) call this during their merge
        stage; throughput counters update along with the span.  ``label``
        disambiguates when one recorder served several ``parallel_map``
        calls (each call numbers its tasks from zero).
        """
        span = self.task_by_index(index, label=label)
        if span is None:
            raise KeyError(
                f"no task span with index {index}"
                + (f" and label {label!r}" if label is not None else "")
            )
        delta = items - span.items
        span.items = items
        if delta > 0:
            self.metrics.counter("driver_items_total", label=span.label).inc(
                delta
            )

    def task_by_index(
        self, index: int, label: Optional[str] = None
    ) -> Optional[TaskSpan]:
        """The task span with this ``parallel_map`` index, or ``None``.

        ``label`` narrows the match to one ``parallel_map`` call's spans
        when the recorder collected several (indices restart at zero per
        call).
        """
        for span in self.tasks:
            if span.index == index and (label is None or span.label == label):
                return span
        return None

    # ------------------------------------------------------------------ #
    # derived statistics                                                 #
    # ------------------------------------------------------------------ #

    def pool_window(self) -> Tuple[float, float]:
        """(first task start, last task end) across all workers; (0, 0) bare."""
        if not self.tasks:
            return (0.0, 0.0)
        return (
            min(t.started for t in self.tasks),
            max(t.ended for t in self.tasks),
        )

    def worker_stats(self) -> List[WorkerStats]:
        """Per-worker utilization over the pool window, sorted by pid."""
        start, end = self.pool_window()
        window = end - start
        by_pid: Dict[int, List[TaskSpan]] = {}
        for span in self.tasks:
            by_pid.setdefault(span.worker_pid, []).append(span)
        out = []
        for pid in sorted(by_pid):
            spans = by_pid[pid]
            busy = sum(s.duration for s in spans)
            out.append(WorkerStats(
                pid=pid,
                tasks=len(spans),
                busy=busy,
                items=sum(s.items for s in spans),
                busy_fraction=busy / window if window > 0 else 1.0,
            ))
        return out

    def straggler_skew(self) -> RankSkew:
        """Pool-straggler detection: skew of per-worker busy seconds.

        The analogue of the machine's per-rank ``sent_words`` skew
        (:class:`~repro.obs.metrics.RankSkew`): the "straggler" index is
        the position of the busiest worker in pid order, and
        ``ratio = max / mean`` quantifies how unevenly the task load
        landed (1.0 = a perfectly balanced pool).
        """
        return rank_skew([w.busy for w in self.worker_stats()])

    def stragglers(self, threshold: float = 1.5) -> List[WorkerStats]:
        """Workers whose busy time exceeds ``threshold`` x the mean."""
        stats = self.worker_stats()
        if not stats:
            return []
        mean = sum(w.busy for w in stats) / len(stats)
        if mean == 0:
            return []
        return [w for w in stats if w.busy / mean > threshold]

    def summary(self) -> dict:
        """Compact JSON-serializable digest for ledger/BENCH records.

        Everything here is derived exactly from the recorded spans — the
        zero-drift contract extends to the summary: ``busy`` values are
        sums of task durations, never re-measured.
        """
        stats = self.worker_stats()
        start, end = self.pool_window()
        window = end - start
        items = sum(t.items for t in self.tasks)
        skew = self.straggler_skew()
        return {
            "driver": self.driver,
            "stages": {s.name: s.duration for s in self.stages},
            "tasks": len(self.tasks),
            "workers": len(stats),
            "items": items,
            "pool_window": window,
            "busy_total": sum(w.busy for w in stats),
            "queue_wait_total": sum(t.queue_wait for t in self.tasks),
            "items_per_sec": items / window if window > 0 else 0.0,
            "worker_busy_fraction": {
                str(w.pid): w.busy_fraction for w in stats
            },
            "straggler_skew": skew.to_dict(),
        }

    def render(self) -> str:
        """Human-readable multi-line digest (the CLI ``--telemetry`` report)."""
        lines = [f"telemetry: driver={self.driver}"]
        for span in self.stages:
            indent = "  " * (span.depth + 1)
            lines.append(
                f"{indent}{span.name:<16} {span.duration * 1e3:9.2f} ms"
            )
        stats = self.worker_stats()
        if stats:
            start, end = self.pool_window()
            lines.append(
                f"  pool: {len(self.tasks)} task(s) over {len(stats)} "
                f"worker(s), window {(end - start) * 1e3:.2f} ms"
            )
            for w in stats:
                lines.append(
                    f"    worker {w.pid}: {w.tasks} task(s), "
                    f"busy {w.busy * 1e3:.2f} ms "
                    f"({w.busy_fraction * 100:.0f}%), {w.items} item(s)"
                )
            skew = self.straggler_skew()
            lines.append(
                f"  straggler skew: ratio {skew.ratio:.3f} "
                f"(busiest worker #{skew.straggler})"
            )
            summary = self.summary()
            lines.append(
                f"  throughput: {summary['items_per_sec']:.1f} items/s, "
                f"queue wait total {summary['queue_wait_total'] * 1e3:.2f} ms"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.stages) + len(self.tasks)


class ProgressReporter:
    """Throttled heartbeat for long driver loops: progress, rate, ETA.

    Prints at most once per ``interval`` seconds (plus a final line when
    the last item completes), so a million-task sweep costs a handful of
    writes.  ``interval=0`` reports on every update — useful in tests.

    The completion line is guaranteed exactly once: reaching ``total``
    bypasses the throttle, further updates past ``total`` throttle
    normally (ETA and percentage are clamped rather than going negative
    or past 100), and :meth:`finish` forces a last heartbeat for drivers
    whose item count was unknown up front (``total=0``) or that stop
    early.

    The reporter measures with the same monotonic clock as
    :class:`Telemetry` but is independent of it: drivers can heartbeat
    without recording spans and vice versa.
    """

    def __init__(
        self,
        total: int,
        label: str = "",
        interval: float = 5.0,
        stream: Optional[TextIO] = None,
    ) -> None:
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self.total = total
        self.label = label
        self.interval = interval
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self._t0 = time.perf_counter()
        self._last_report = -math.inf
        self._final_reported = False

    def update(self, done: Optional[int] = None) -> None:
        """Advance progress (default: by one item) and maybe heartbeat."""
        self.done = self.done + 1 if done is None else done
        now = time.perf_counter()
        # The first arrival at total bypasses the throttle (the final
        # 100% line is guaranteed); past-total updates throttle normally.
        finished = self.total > 0 and self.done >= self.total
        force = finished and not self._final_reported
        if not force and now - self._last_report < self.interval:
            return
        self._emit(now, final=finished)

    def finish(self) -> None:
        """Force the final heartbeat unless completion already printed.

        For drivers with a known ``total`` this is a no-op after the last
        :meth:`update`; for ``total=0`` (item count unknown up front) and
        early-stopping loops it is the only way a final line appears.
        """
        if not self._final_reported:
            self._emit(time.perf_counter(), final=True)

    def _emit(self, now: float, final: bool = False) -> None:
        self._last_report = now
        self._final_reported = self._final_reported or final
        elapsed = now - self._t0
        rate = self.done / elapsed if elapsed > 0 else 0.0
        if self.total > 0 and rate > 0 and self.done < self.total:
            eta = max(0.0, (self.total - self.done) / rate)
            eta_text = f", ETA {eta:.1f}s"
        else:
            eta_text = ""
        prefix = f"{self.label}: " if self.label else ""
        if self.total == 0:
            print(f"{prefix}{self.done} done, {rate:.1f}/s",
                  file=self.stream)
            return
        pct = min(100.0, 100.0 * self.done / self.total)
        print(
            f"{prefix}{self.done}/{self.total} ({pct:.0f}%), "
            f"{rate:.1f}/s{eta_text}",
            file=self.stream,
        )


def maybe_stage(telemetry: Optional[Telemetry], name: str, **meta):
    """``telemetry.stage(name)`` or an inert context when telemetry is off.

    The one-liner that keeps drivers on their uninstrumented code path
    under ``telemetry=None``: no recorder, no span, no timing calls.
    """
    if telemetry is None:
        return contextlib.nullcontext()
    return telemetry.stage(name, **meta)


def _worker_pid() -> int:
    """The reporting pid for task spans (module-level for test patching)."""
    return os.getpid()

