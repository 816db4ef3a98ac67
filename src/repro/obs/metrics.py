"""Counters, gauges, histograms and the registry that owns them.

A deliberately small, dependency-free metrics layer in the Prometheus
style.  Instruments are identified by a name plus optional key=value
labels; get-or-create access makes call sites one-liners::

    registry.counter("words_total", kind="allgather").inc(48)
    registry.gauge("attainment_ratio", bound="theorem3").set(1.0)
    registry.histogram("event_words", kind="allgather").observe(48)

Every :class:`~repro.machine.machine.Machine` owns a registry
(``machine.metrics``); the span recorder feeds it automatically whenever an
event span closes, and :func:`update_machine_gauges` derives the per-rank
load-imbalance gauges from the machine's cumulative counters.  Exporters
(see :mod:`repro.obs.exporters`) serialize :meth:`MetricsRegistry.collect`.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RankSkew",
    "rank_skew",
    "update_machine_gauges",
    "load_imbalance",
]

#: Default histogram buckets: powers of two up to 2^30 words.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(float(2 ** e) for e in range(31))


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that can go up and down (load imbalance, attainment ratio)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"type": "gauge", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max.

    Buckets are upper-bound inclusive (``value <= le``), with an implicit
    final +Inf bucket; the default buckets are powers of two, matching the
    message-size structure of the bandwidth-optimal collectives.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets: Tuple[float, ...] = tuple(buckets) if buckets else DEFAULT_BUCKETS
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError(f"histogram buckets must be sorted, got {self.buckets}")
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": [
                {"le": le, "count": c}
                for le, c in zip(list(self.buckets) + [math.inf], self.counts)
                if c
            ],
        }


def _key(name: str, labels: Dict[str, str]) -> Tuple:
    return (name,) + tuple(sorted(labels.items()))


class MetricsRegistry:
    """Owns all instruments of one machine run; get-or-create access."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple, object] = {}

    def _get(self, cls, name: str, labels: Dict[str, str], **kwargs):
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} {labels} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Optional[Tuple[float, ...]] = None, **labels: str
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def collect(self) -> List[dict]:
        """JSON-serializable snapshots of every instrument, sorted by key."""
        return [
            self._metrics[key].snapshot() for key in sorted(self._metrics.keys())
        ]

    def reset(self) -> None:
        """Drop every instrument (machine reset)."""
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._metrics)


def load_imbalance(values) -> float:
    """``max / mean`` of a per-rank counter vector (1.0 = perfectly even).

    Returns 1.0 for an empty or all-zero vector, so the gauge is neutral
    on machines that have not communicated/computed yet.
    """
    values = np.asarray(values, dtype=np.float64)
    if not values.size:
        return 1.0
    mean = sum(values.tolist()) / values.size
    if mean == 0:
        return 1.0
    return float(values.max()) / mean


@dataclasses.dataclass(frozen=True)
class RankSkew:
    """Load-imbalance summary of one per-rank counter vector.

    The critical-path view of a counter: the straggler (the rank with the
    largest value) sets the pace, ``ratio = max / mean`` quantifies how far
    the machine is from perfect balance (1.0 exactly for the shard-even
    executions where Algorithm 1 attains the Theorem 3 constant).
    """

    max_value: float
    mean_value: float
    straggler: int
    ratio: float

    def to_dict(self) -> dict:
        return {
            "max": self.max_value,
            "mean": self.mean_value,
            "straggler": self.straggler,
            "ratio": self.ratio,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RankSkew":
        return cls(
            max_value=float(data["max"]),
            mean_value=float(data["mean"]),
            straggler=int(data["straggler"]),
            ratio=float(data["ratio"]),
        )


def rank_skew(values: Sequence[float]) -> RankSkew:
    """Skew statistics of a per-rank counter vector.

    Mirrors :func:`load_imbalance`'s conventions: an empty or all-zero
    vector is reported as perfectly balanced (ratio 1.0, straggler rank 0)
    so the gauge stays neutral before any communication happens.
    """
    values = np.asarray(values, dtype=np.float64)
    if not values.size:
        return RankSkew(0.0, 0.0, 0, 1.0)
    # A left-to-right sum, as before, so non-integral vectors (worker busy
    # times) keep their exact mean.
    mean = sum(values.tolist()) / values.size
    straggler = int(values.argmax())
    peak = values[straggler]
    ratio = 1.0 if mean == 0 else peak / mean
    return RankSkew(
        max_value=float(peak), mean_value=float(mean),
        straggler=straggler, ratio=float(ratio),
    )


def update_machine_gauges(machine) -> None:
    """Refresh the derived per-rank gauges from the machine's counters.

    Sets ``load_imbalance{counter=...}`` for flops and sent/received words,
    plus ``peak_memory_words``.  Called by the exporters before writing and
    usable any time in between.
    """
    net = machine.network
    metrics = machine.metrics
    metrics.gauge("load_imbalance", counter="flops").set(
        load_imbalance(machine.flops)
    )
    metrics.gauge("load_imbalance", counter="sent_words").set(
        load_imbalance(net.sent_words)
    )
    metrics.gauge("load_imbalance", counter="recv_words").set(
        load_imbalance(net.recv_words)
    )
    skew = rank_skew(net.sent_words)
    metrics.gauge("words_sent_skew", stat="max").set(skew.max_value)
    metrics.gauge("words_sent_skew", stat="mean").set(skew.mean_value)
    metrics.gauge("words_sent_skew", stat="ratio").set(skew.ratio)
    metrics.gauge("words_sent_skew", stat="straggler_rank").set(float(skew.straggler))
    metrics.gauge("peak_memory_words").set(machine.peak_memory_words())
    injector = getattr(net, "fault_injector", None)
    if injector is None:
        return
    # Cumulative fault-layer gauges; absent on clean machines AND on
    # machines whose injector never materialized anything, so an attached
    # all-zero-probability model exports byte-identically to no injector.
    materialized = (
        injector.faults_injected or injector.retries or injector.words_resent
    )
    if materialized:
        metrics.gauge("faults_injected").set(float(injector.faults_injected))
        metrics.gauge("fault_retries").set(float(injector.retries))
        metrics.gauge("words_resent").set(float(injector.words_resent))
    # Recovery gauges appear only once a reconstruction actually happened.
    if getattr(injector, "recoveries", 0):
        metrics.gauge("recoveries").set(float(injector.recoveries))
        metrics.gauge("words_recovered").set(float(injector.words_recovered))
