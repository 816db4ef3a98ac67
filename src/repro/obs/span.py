"""Span-based tracing: the machine's record of where cost was incurred.

A :class:`Span` is one timed region of a simulated execution — a collective,
a compute phase, or a user-defined block opened with
``machine.span("allgather-A", kind="collective")``.  Spans nest: Algorithm 1
produces a tree like ::

    alg1
    ├── allgather-A
    │   └── allgather "A blocks"        (event, 48 words)
    ├── allgather-B
    │   └── allgather "B blocks"        (event, 36 words)
    ├── compute
    │   └── compute "local GEMM ..."    (event, 0 words)
    └── reduce-scatter-C
        └── reduce-scatter "C blocks"   (event, 40 words)

Each span carries the *inclusive* cost delta it incurred (rounds, words,
flops along the critical path) plus per-rank attribution: words and
messages sent/received and flops performed by every processor while the
span was open.  When the recorder is attached to a
:class:`~repro.machine.machine.Machine` these are measured automatically
from counter snapshots, so attribution is exact by construction — the same
words the network counted are the words the spans report (the "zero drift"
invariant tested in ``tests/obs/test_exporters.py``).

Spans marked ``event=True`` are the unit-of-accounting leaves;
:meth:`SpanRecorder.events` lists exactly those, in execution order, and
callers filter that list by ``kind`` or :meth:`Span.involves`.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.cost import Cost

__all__ = ["Span", "SpanRecorder"]


def _zero_cost():
    # Imported lazily: obs.span sits below the machine layer in the import
    # graph (machine.machine imports it), so a module-level import of
    # machine.cost would be circular for some import entry points.
    from ..machine.cost import Cost

    return Cost()


def _as_list(per_rank) -> list:
    """A per-rank vector (array or tuple) as a list of Python numbers."""
    return np.asarray(per_rank).tolist()


@dataclasses.dataclass
class Span:
    """One node of the span tree.

    Attributes
    ----------
    index:
        Creation sequence number (unique within a recorder, depth-first
        creation order).
    name:
        Free-form label (e.g. ``"A blocks"`` or ``"allgather-A"``).
    kind:
        Category: ``"allgather"``, ``"reduce-scatter"``, ``"compute"``,
        ``"phase"``, ...  Event spans name the operation
        (``"allgather"``, ``"compute"``, ``"distribute"``, ...).
    groups:
        Processor groups involved (tuple of rank tuples); empty for purely
        local or structural spans.
    event:
        True for unit-of-accounting leaf spans — the spans
        :meth:`SpanRecorder.events` lists and whose per-rank counters
        must sum to the machine's cumulative counters.  Structural
        (``event=False``) spans carry *inclusive* costs and exist for
        grouping/timeline purposes only.
    start_time, end_time:
        Modelled machine time (``CostModel.time`` of the cumulative cost)
        at open and close; zero when the recorder has no machine attached.
    cost:
        Inclusive :class:`~repro.machine.cost.Cost` delta.
    sent_words, recv_words, sent_messages, recv_messages, flops:
        Per-rank deltas over the span's lifetime: numpy arrays (float64
        words and flops, int64 message counts) when measured, empty tuples
        otherwise.  Records convert them with ``.tolist()``.
    faults_injected, retries, words_resent:
        Fault-layer deltas over the span's lifetime (always zero without a
        fault injector attached; see :mod:`repro.machine.faults`).
    recoveries, words_recovered:
        Rank-failure recovery deltas over the span's lifetime (nonzero
        only when a survivability layer completed a reconstruction while
        the span was open; see :mod:`repro.machine.recovery`).  Exported
        only when nonzero, so fault-free span records keep their
        historical bytes.
    """

    index: int
    name: str
    kind: str
    groups: Tuple[Tuple[int, ...], ...] = ()
    event: bool = False
    depth: int = 0
    parent: Optional["Span"] = dataclasses.field(default=None, repr=False)
    children: List["Span"] = dataclasses.field(default_factory=list, repr=False)
    start_time: float = 0.0
    end_time: float = 0.0
    cost: "Cost" = dataclasses.field(default_factory=_zero_cost)
    sent_words: Union[np.ndarray, Tuple[float, ...]] = ()
    recv_words: Union[np.ndarray, Tuple[float, ...]] = ()
    sent_messages: Union[np.ndarray, Tuple[int, ...]] = ()
    recv_messages: Union[np.ndarray, Tuple[int, ...]] = ()
    flops: Union[np.ndarray, Tuple[float, ...]] = ()
    faults_injected: int = 0
    retries: int = 0
    words_resent: float = 0.0
    recoveries: int = 0
    words_recovered: float = 0.0

    @property
    def duration(self) -> float:
        """Modelled duration (end minus start time)."""
        return self.end_time - self.start_time

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def involves(self, rank: int) -> bool:
        """Does any of this span's processor groups include ``rank``?"""
        return any(rank in group for group in self.groups)

    def to_record(self) -> dict:
        """A JSON-serializable flat record (used by the exporters)."""
        record = {
            "type": "span",
            "id": self.index,
            "parent": None if self.parent is None else self.parent.index,
            "name": self.name,
            "kind": self.kind,
            "event": self.event,
            "depth": self.depth,
            "groups": [list(g) for g in self.groups],
            "start": self.start_time,
            "end": self.end_time,
            "rounds": self.cost.rounds,
            "words": self.cost.words,
            "flops": self.cost.flops,
            "sent_words": _as_list(self.sent_words),
            "recv_words": _as_list(self.recv_words),
            "sent_messages": _as_list(self.sent_messages),
            "recv_messages": _as_list(self.recv_messages),
            "rank_flops": _as_list(self.flops),
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "words_resent": self.words_resent,
        }
        # Additive: recovery keys appear only on spans that actually saw a
        # reconstruction, so fault-free exports stay byte-identical.
        if self.recoveries or self.words_recovered:
            record["recoveries"] = self.recoveries
            record["words_recovered"] = self.words_recovered
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "event" if self.event else "span"
        return (
            f"Span({tag} #{self.index} {self.kind}:{self.name!r}, "
            f"{self.cost.words:g}w, {len(self.children)} children)"
        )


#: The :class:`~repro.machine.machine.CounterSnapshot` deltas a measured
#: span carries, under the same names.
_MEASURED = (
    "cost", "sent_words", "recv_words", "sent_messages", "recv_messages",
    "flops", "faults_injected", "retries", "words_resent", "recoveries",
    "words_recovered",
)


class SpanRecorder:
    """Records a tree of :class:`Span` objects for one machine execution.

    Parameters
    ----------
    machine:
        The :class:`~repro.machine.machine.Machine` to measure, or ``None``
        for a standalone recorder (explicit costs only, zero timestamps).

    The recorder owns the open-span stack; :meth:`span` nests, and both
    :meth:`measure` (auto-measured event) and :meth:`record_event`
    (explicit-cost event) attach leaves under the innermost open span.
    """

    def __init__(self, machine=None) -> None:
        self.machine = machine
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._counter = 0

    # ------------------------------------------------------------------ #
    # construction                                                       #
    # ------------------------------------------------------------------ #

    def _now(self) -> float:
        return 0.0 if self.machine is None else self.machine.time

    def _open(self, name: str, kind: str, groups, event: bool) -> Span:
        span = Span(
            index=self._counter,
            name=name,
            kind=kind,
            groups=tuple(tuple(g) for g in groups),
            event=event,
            depth=len(self._stack),
            parent=self._stack[-1] if self._stack else None,
        )
        self._counter += 1
        if span.parent is not None:
            span.parent.children.append(span)
        else:
            self.roots.append(span)
        return span

    @staticmethod
    def _attach_measurement(span: Span, before, after) -> None:
        delta = before.delta(after)
        for field in _MEASURED:
            setattr(span, field, getattr(delta, field))

    @contextlib.contextmanager
    def span(self, name: str, kind: str = "phase", groups=(), event: bool = False):
        """Open a nested span; measures cost and per-rank deltas on close.

        When the machine carries a fault injector, every *successful* span
        close additionally enforces the conservation invariant
        ``sum(sent_words) == sum(recv_words)`` (fault-free machines skip
        the check entirely; an exception already unwinding is left alone so
        the original fault error is the one that propagates).
        """
        span = self._open(name, kind, groups, event)
        span.start_time = self._now()
        before = None if self.machine is None else self.machine.snapshot()
        self._stack.append(span)
        ok = False
        try:
            yield span
            ok = True
        finally:
            self._stack.pop()
            span.end_time = self._now()
            if before is not None:
                self._attach_measurement(span, before, self.machine.snapshot())
            self._finalize(span)
            if (
                ok
                and self.machine is not None
                and getattr(self.machine, "fault_injector", None) is not None
            ):
                self.machine.check_conservation()

    def measure(self, name: str, kind: str, groups=()):
        """An auto-measured *event* span (the unit of cost accounting).

        Collectives use this: ``with recorder.measure("A blocks",
        "allgather", groups): run_schedule(...)``.
        """
        return self.span(name, kind=kind, groups=groups, event=True)

    def record_event(
        self,
        kind: str,
        label: str,
        groups=(),
        cost: Optional[Cost] = None,
    ) -> Span:
        """Record an instantaneous event span with an explicit cost.

        Algorithms mark their distribution and compute phases this way.
        With a machine attached the event is placed on the timeline ending
        *now* and spanning the modelled time of ``cost``; per-rank
        attribution is not available (the cost was measured by the
        caller).
        """
        span = self._open(label, kind, groups, event=True)
        span.cost = _zero_cost() if cost is None else cost
        span.end_time = self._now()
        if self.machine is not None:
            span.start_time = max(
                0.0, span.end_time - self.machine.cost_model.time(span.cost)
            )
        self._finalize(span)
        return span

    def _finalize(self, span: Span) -> None:
        """Post-close hook: feed the machine's metrics registry."""
        if self.machine is None or not span.event:
            return
        metrics = getattr(self.machine, "metrics", None)
        if metrics is None:
            return
        metrics.counter("events_total", kind=span.kind).inc()
        metrics.counter("words_total", kind=span.kind).inc(span.cost.words)
        metrics.counter("rounds_total", kind=span.kind).inc(span.cost.rounds)
        metrics.histogram("event_words", kind=span.kind).observe(span.cost.words)
        # Fault counters appear only when faults actually happened, so
        # fault-free runs export byte-identical metric sets.
        if span.faults_injected or span.retries or span.words_resent:
            metrics.counter("faults_injected_total", kind=span.kind).inc(
                span.faults_injected
            )
            metrics.counter("retries_total", kind=span.kind).inc(span.retries)
            metrics.counter("words_resent_total", kind=span.kind).inc(
                span.words_resent
            )
        # Same gating for recovery: only reconstructing runs export these.
        if span.recoveries or span.words_recovered:
            metrics.counter("recoveries_total", kind=span.kind).inc(
                span.recoveries
            )
            metrics.counter("words_recovered_total", kind=span.kind).inc(
                span.words_recovered
            )

    # ------------------------------------------------------------------ #
    # queries                                                            #
    # ------------------------------------------------------------------ #

    def iter_spans(self) -> Iterator[Span]:
        """All spans, depth-first pre-order (creation order)."""
        for root in self.roots:
            yield from root.walk()

    def events(self) -> List[Span]:
        """Event spans only, in creation order."""
        return [s for s in self.iter_spans() if s.event]

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` at top level."""
        return self._stack[-1] if self._stack else None

    def clear(self) -> None:
        """Drop all recorded spans (open spans are not allowed)."""
        if self._stack:
            raise RuntimeError(
                f"cannot clear with {len(self._stack)} span(s) still open"
            )
        self.roots.clear()
        self._counter = 0

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_spans())
