"""Trajectory analytics: trend detection over the ledger and BENCH files.

Every run *emits* rich artifacts — schema-versioned ledger records,
committed ``BENCH_<label>.json`` reports, driver telemetry, merged
profiles.  This module is the read side.  It folds every artifact into
per-metric **time series** and runs a rolling-median regression detector
over them, the same trajectory-analytics pass a training or serving
stack runs over its own perf counters:

* :class:`BenchReport` / :func:`load_bench_report` — the reader of the
  BENCH file schema (one :class:`BenchEntry` per measured row: model
  costs, Theorem 3 bound, attainment, skew and wall-clock), refusing a
  missing, corrupt or wrong-schema file with a typed
  :class:`~repro.exceptions.BaselineError`.
* :class:`SeriesKey` — the aggregation key ``(algorithm, backend,
  Theorem-3 case, shape fingerprint)``.  The case comes from
  :func:`repro.core.cases.classify`, so a 1D probe and a 3D probe of the
  same algorithm never share a trend line (their bounds, constants and
  cost regimes differ by theorem, not by noise).
* :class:`TrajectoryStore` — collects :class:`TrajectoryPoint` samples
  for the four tracked metrics (:data:`METRICS`: wall-clock, total
  words, bound attainment, per-rank ``words_sent`` skew ratio) from any
  number of ledgers (via :meth:`~repro.obs.ledger.Ledger.records`) and
  BENCH reports.  Within a series, points are sub-grouped into *streams*
  (one per entry/record name) so a module-harness timing never trends
  against a sweep-point timing that happens to share its configuration.
* :func:`detect_trend` — the changepoint detector.  It compares the
  median of the trailing ``window`` samples against the median of the
  preceding history, so a single noisy sample can neither trip nor mask
  a verdict; the typed verdict is one of :data:`IMPROVED` /
  :data:`FLAT` / :data:`REGRESSED`.  Model-level metrics (words,
  attainment, skew) are exact — any drift beyond float representation
  noise is a verdict — while wall-clock gets a relative tolerance plus
  an absolute floor, and is only ever compared between samples whose
  environment fingerprints match (the ledger's own comparability rule).
* :func:`analyze` — runs the detector over every (series, metric,
  stream) triple in a store and returns a :class:`TrendReport`, the
  backend of ``repro trend`` (exit contract under ``--check``: 0 = no
  regression, 1 = regression detected, 2 = usage error).

The dashboard (:mod:`repro.obs.dashboard`) renders the same store and
report as HTML, so the CLI gate and the visual trajectory can never
disagree about what regressed.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.cases import classify
from ..core.shapes import ProblemShape
from ..exceptions import BaselineError
from .ledger import Ledger, RunRecord, repo_root
from .metrics import RankSkew

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchEntry",
    "BenchReport",
    "load_bench_report",
    "METRICS",
    "IMPROVED",
    "FLAT",
    "REGRESSED",
    "SeriesKey",
    "TrajectoryPoint",
    "TrajectoryStore",
    "TrendVerdict",
    "TrendReport",
    "discover_bench_files",
    "detect_trend",
    "rolling_median",
    "analyze",
    "record_metric_value",
    "shape_fingerprint",
    "theorem3_case",
]

#: The BENCH file layout version this build reads.
BENCH_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class BenchEntry:
    """One row of a BENCH file: one measured (algorithm, shape, P) point."""

    name: str
    kind: str  # "module" | "sweep" | "symbolic" | "oracle" | "plan"
    wall_clock: float
    algorithm: str
    config: str
    shape: Tuple[int, ...]
    P: int
    words: float
    rounds: int
    flops: float
    bound: float
    attainment: float
    backend: str = "data"
    skew: Optional[RankSkew] = None

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["shape"] = list(self.shape)
        out["skew"] = None if self.skew is None else self.skew.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "BenchEntry":
        try:
            return cls(
                name=data["name"],
                kind=data["kind"],
                wall_clock=float(data["wall_clock"]),
                algorithm=data["algorithm"],
                config=data.get("config", ""),
                shape=tuple(data["shape"]),
                P=int(data["P"]),
                words=float(data["words"]),
                rounds=int(data["rounds"]),
                flops=float(data["flops"]),
                bound=float(data["bound"]),
                attainment=float(data["attainment"]),
                backend=data.get("backend", "data"),
                skew=(
                    None if data.get("skew") is None
                    else RankSkew.from_dict(data["skew"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BaselineError(f"malformed bench entry: {exc}") from exc


@dataclasses.dataclass
class BenchReport:
    """One BENCH file: provenance metadata plus one entry per row."""

    label: str
    entries: List[BenchEntry]
    timestamp: float = 0.0
    git_sha: Optional[str] = None
    env: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "schema": "repro-bench",
            "schema_version": BENCH_SCHEMA_VERSION,
            "label": self.label,
            "timestamp": self.timestamp,
            "git_sha": self.git_sha,
            "env": self.env,
            "entries": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchReport":
        version = data.get("schema_version")
        if version != BENCH_SCHEMA_VERSION:
            raise BaselineError(
                f"unsupported bench schema_version {version!r} "
                f"(this build reads version {BENCH_SCHEMA_VERSION})"
            )
        try:
            entries = [BenchEntry.from_dict(e) for e in data["entries"]]
            return cls(
                label=data.get("label", ""),
                entries=entries,
                timestamp=float(data.get("timestamp", 0.0)),
                git_sha=data.get("git_sha"),
                env=data.get("env"),
            )
        except (KeyError, TypeError) as exc:
            raise BaselineError(f"malformed bench report: {exc}") from exc


def load_bench_report(path: str) -> BenchReport:
    """Load a ``BENCH_*.json`` file.

    Raises
    ------
    BaselineError
        If the file is missing, not JSON, or not a supported bench schema —
        with a message suitable for direct CLI display.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise BaselineError(f"BENCH file not found: {path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"cannot read BENCH file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BaselineError(
            f"BENCH file {path} is not a bench report object "
            f"(got {type(data).__name__})"
        )
    return BenchReport.from_dict(data)


#: The tracked per-series metrics, in report order.
METRICS: Tuple[str, ...] = ("wall_clock", "words", "attainment", "skew_ratio")

#: Typed trend verdicts.  Every metric is oriented so *lower is better*
#: (attainment is ``words / bound`` >= 1; skew ratio is ``max / mean`` >= 1).
IMPROVED = "improved"
FLAT = "flat"
REGRESSED = "regressed"

#: Relative change a metric must exceed before it is a verdict.  Model
#: metrics are exact (the tolerance only absorbs float representation
#: noise across serialization round-trips); wall-clock allows 20%.
TREND_TOLERANCES: Dict[str, float] = {
    "wall_clock": 0.20,
    "words": 1e-9,
    "attainment": 1e-9,
    "skew_ratio": 1e-9,
}

#: Absolute floors: wall-clock micro-entries cannot trip the detector
#: on scheduler jitter.
TREND_FLOORS: Dict[str, float] = {
    "wall_clock": 0.25,
    "words": 0.0,
    "attainment": 0.0,
    "skew_ratio": 0.0,
}

#: Default trailing-window width for the rolling median.
DEFAULT_WINDOW = 3


def shape_fingerprint(shape: Sequence[int], P: int) -> str:
    """The canonical ``"n1xn2xn3:P<p>"`` key for one configuration."""
    return "x".join(str(d) for d in shape) + f":P{P}"


def theorem3_case(shape: Sequence[int], P: int) -> str:
    """The Theorem 3 case (``"1D"``/``"2D"``/``"3D"``) of a configuration."""
    return str(classify(ProblemShape(*shape), P))


@dataclasses.dataclass(frozen=True, order=True)
class SeriesKey:
    """What one trend line is *about*: who ran, how, and in which regime."""

    algorithm: str
    backend: str
    case: str
    shape: str

    def label(self) -> str:
        return f"{self.algorithm}/{self.backend} case {self.case} {self.shape}"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class TrajectoryPoint:
    """One metric sample: when it was measured and where it came from.

    ``stream`` is the sub-series discriminator (the ledger record's
    ``kind:config`` or the BENCH entry's name): two streams under one
    :class:`SeriesKey` describe the same configuration measured by
    different harnesses, whose wall-clocks are not mutually comparable.
    ``env_key`` is a flattened environment fingerprint; wall-clock trends
    never cross it.
    """

    timestamp: float
    value: float
    stream: str
    env_key: str
    source: str  # "ledger" | "bench"
    label: str = ""
    git_sha: Optional[str] = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _env_key(env: Optional[dict]) -> str:
    if not env:
        return "unknown"
    return "|".join(f"{k}={env[k]}" for k in sorted(env))


def record_metric_value(record, metric: str) -> Optional[float]:
    """Pull one :data:`METRICS` value off a ledger record or bench entry.

    Returns ``None`` when the record did not measure it (e.g. a
    skew-less oracle evaluation), so callers can skip the sample instead
    of inventing a zero.
    """
    if metric == "skew_ratio":
        return None if record.skew is None else float(record.skew.ratio)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; tracked: {METRICS}")
    return float(getattr(record, metric))


def discover_bench_files(directory: Optional[str] = None) -> List[str]:
    """Sorted ``BENCH_*.json`` paths at the repo root (or ``directory``)."""
    directory = repo_root() if directory is None else directory
    return sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))


class TrajectoryStore:
    """Per-metric time series aggregated from ledgers and BENCH reports.

    Fault-injected ledger records are excluded by default: their model
    costs include recovery resends (see ``repro ledger diff``'s warning),
    so trending them against fault-free history would report phantom
    regressions.
    """

    def __init__(self, include_faulty: bool = False) -> None:
        self.include_faulty = include_faulty
        self._series: Dict[SeriesKey, Dict[str, List[TrajectoryPoint]]] = {}
        self.sources: List[str] = []

    # ------------------------------------------------------------------ #
    # ingestion                                                          #
    # ------------------------------------------------------------------ #

    def add_point(
        self, key: SeriesKey, metric: str, point: TrajectoryPoint
    ) -> None:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; tracked: {METRICS}")
        self._series.setdefault(key, {m: [] for m in METRICS})
        self._series[key][metric].append(point)

    def add_record(self, record: RunRecord, source: str = "ledger") -> bool:
        """Ingest one ledger record; returns whether it was kept."""
        if record.fault_injected and not self.include_faulty:
            return False
        # A reconstructed run's words include its recovery traffic; like
        # fault-degraded runs, it must not pollute the clean trajectories.
        if getattr(record, "recovery", None) is not None and not self.include_faulty:
            return False
        key = SeriesKey(
            algorithm=record.algorithm,
            backend=record.backend,
            case=theorem3_case(record.shape, record.P),
            shape=shape_fingerprint(record.shape, record.P),
        )
        stream = f"{record.kind}:{record.config}" if record.config else record.kind
        env = _env_key(record.env)
        for metric in METRICS:
            value = record_metric_value(record, metric)
            if value is None:
                continue
            self.add_point(key, metric, TrajectoryPoint(
                timestamp=record.timestamp,
                value=value,
                stream=stream,
                env_key=env,
                source=source,
                label=record.label,
                git_sha=record.git_sha,
            ))
        return True

    def add_ledger(self, ledger: Ledger) -> int:
        """Ingest every record of a ledger; returns how many were kept."""
        kept = 0
        for record in ledger.records():
            kept += bool(self.add_record(record))
        self.sources.append(ledger.path)
        return kept

    def add_bench_report(self, report: BenchReport, path: str = "") -> int:
        """Ingest every entry of one BENCH report (all share its timestamp)."""
        env = _env_key(report.env)
        for entry in report.entries:
            key = SeriesKey(
                algorithm=entry.algorithm,
                backend=entry.backend,
                case=theorem3_case(entry.shape, entry.P),
                shape=shape_fingerprint(entry.shape, entry.P),
            )
            for metric in METRICS:
                value = record_metric_value(entry, metric)
                if value is None:
                    continue
                self.add_point(key, metric, TrajectoryPoint(
                    timestamp=report.timestamp,
                    value=value,
                    stream=entry.name,
                    env_key=env,
                    source="bench",
                    label=report.label,
                    git_sha=report.git_sha,
                ))
        self.sources.append(path or f"BENCH_{report.label}.json")
        return len(report.entries)

    @classmethod
    def collect(
        cls,
        ledger_path: Optional[str] = None,
        bench_paths: Iterable[str] = (),
        include_faulty: bool = False,
    ) -> "TrajectoryStore":
        """Build a store from artifact paths.

        Raises
        ------
        LedgerError
            On a malformed ledger file (missing files are fine: an empty
            history is a valid, empty store).
        BaselineError
            On a malformed BENCH file.
        """
        store = cls(include_faulty=include_faulty)
        if ledger_path is not None:
            store.add_ledger(Ledger(ledger_path))
        for path in bench_paths:
            store.add_bench_report(load_bench_report(path), path=path)
        return store

    # ------------------------------------------------------------------ #
    # access                                                             #
    # ------------------------------------------------------------------ #

    def keys(self) -> List[SeriesKey]:
        return sorted(self._series)

    def series(self, key: SeriesKey, metric: str) -> List[TrajectoryPoint]:
        """Time-ordered samples of one metric under one key."""
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; tracked: {METRICS}")
        points = self._series.get(key, {}).get(metric, [])
        return sorted(points, key=lambda p: p.timestamp)

    def streams(
        self, key: SeriesKey, metric: str, split_env: bool = False
    ) -> Dict[Tuple[str, str], List[TrajectoryPoint]]:
        """Samples grouped by stream (and env fingerprint when asked).

        ``split_env=True`` is the wall-clock mode: timings from different
        environment fingerprints land in different groups, so a machine
        change restarts the trend instead of faking a regression.  The
        group key is ``(stream, env_key)`` either way (env collapses to
        ``""`` when not splitting).
        """
        out: Dict[Tuple[str, str], List[TrajectoryPoint]] = {}
        for point in self.series(key, metric):
            group = (point.stream, point.env_key if split_env else "")
            out.setdefault(group, []).append(point)
        return out

    def __len__(self) -> int:
        return sum(
            len(points)
            for metrics in self._series.values()
            for points in metrics.values()
        )


def rolling_median(values: Sequence[float], window: int) -> List[float]:
    """Trailing-window medians: element i covers ``values[max(0,i-w+1):i+1]``."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return [
        statistics.median(values[max(0, i - window + 1):i + 1])
        for i in range(len(values))
    ]


def detect_trend(
    values: Sequence[float],
    tolerance: float,
    floor: float = 0.0,
    window: int = DEFAULT_WINDOW,
) -> Tuple[str, Optional[float], Optional[float], float, Optional[int]]:
    """Classify one time-ordered sample vector.

    Returns ``(verdict, baseline, recent, change, changepoint)`` where
    ``baseline`` is the median of everything before the trailing window,
    ``recent`` the median of the trailing window, ``change`` the signed
    relative drift ``(recent - baseline) / baseline``, and
    ``changepoint`` the index where the rolling median first crossed the
    tolerance in the verdict's direction (``None`` when flat).

    With fewer than ``window + 1`` samples there is no history to trend
    against and the verdict is :data:`FLAT` with ``baseline=None``.
    Medians on both sides make the detector robust to single-sample
    noise: one straggler run neither trips nor masks a verdict.
    """
    values = [float(v) for v in values]
    n = len(values)
    window = max(1, window)
    if n < window + 1:
        return (FLAT, None, None, 0.0, None)
    baseline = statistics.median(values[:-window])
    recent = statistics.median(values[-window:])
    delta = recent - baseline
    scale = abs(baseline) if baseline != 0 else 1.0
    change = delta / scale
    verdict = FLAT
    if change > tolerance and delta > floor:
        verdict = REGRESSED
    elif -change > tolerance and -delta > floor:
        verdict = IMPROVED
    if verdict == FLAT:
        return (FLAT, baseline, recent, change, None)
    medians = rolling_median(values, window)
    changepoint = None
    for i in range(1, n):
        drift = (medians[i] - baseline) / scale
        if (verdict == REGRESSED and drift > tolerance) or (
            verdict == IMPROVED and -drift > tolerance
        ):
            changepoint = i
            break
    return (verdict, baseline, recent, change, changepoint)


@dataclasses.dataclass(frozen=True)
class TrendVerdict:
    """One detector decision: a (series, metric, stream) triple classified."""

    key: SeriesKey
    metric: str
    stream: str
    env_key: str
    verdict: str
    points: int
    baseline: Optional[float] = None
    recent: Optional[float] = None
    change: float = 0.0
    changepoint: Optional[float] = None  # timestamp of the detected shift
    detail: str = ""

    def render(self) -> str:
        head = (f"[{self.verdict.upper():9s}] {self.metric:<10s} "
                f"{self.key.label()} [{self.stream}]")
        if self.baseline is None:
            return f"{head}: {self.detail or 'insufficient history'}"
        body = (f"median {self.baseline:g} -> {self.recent:g} "
                f"({self.change:+.1%}, n={self.points})")
        return f"{head}: {body}" + (f"; {self.detail}" if self.detail else "")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["key"] = self.key.to_dict()
        return out


@dataclasses.dataclass
class TrendReport:
    """Every verdict from one :func:`analyze` pass."""

    verdicts: List[TrendVerdict]
    window: int = DEFAULT_WINDOW

    @property
    def regressions(self) -> List[TrendVerdict]:
        return [v for v in self.verdicts if v.verdict == REGRESSED]

    @property
    def improvements(self) -> List[TrendVerdict]:
        return [v for v in self.verdicts if v.verdict == IMPROVED]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def counts(self) -> Dict[str, int]:
        out = {IMPROVED: 0, FLAT: 0, REGRESSED: 0}
        for v in self.verdicts:
            out[v.verdict] += 1
        return out

    def render(self, verbose: bool = False) -> str:
        counts = self.counts()
        lines = [
            f"trend: {len(self.verdicts)} trajectories "
            f"(window {self.window}): "
            f"{counts[REGRESSED]} regressed, {counts[IMPROVED]} improved, "
            f"{counts[FLAT]} flat"
        ]
        shown = [
            v for v in self.verdicts
            if verbose or v.verdict != FLAT
        ]
        lines.extend(v.render() for v in shown)
        if not shown and self.verdicts:
            lines.append("(every trajectory is flat; --all lists them)")
        lines.append("TREND " + ("OK" if self.ok else "REGRESSED"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "counts": self.counts(),
            "ok": self.ok,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def analyze(
    store: TrajectoryStore,
    metrics: Sequence[str] = METRICS,
    window: int = DEFAULT_WINDOW,
    tolerances: Optional[Dict[str, float]] = None,
    algorithm: Optional[str] = None,
    case: Optional[str] = None,
) -> TrendReport:
    """Run :func:`detect_trend` over every (series, metric, stream) triple.

    Wall-clock streams are additionally split per environment
    fingerprint; model-metric streams trend across environments (they
    are environment-independent by construction).  ``algorithm`` and
    ``case`` filter the serieses considered.
    """
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; tracked: {METRICS}")
    tolerances = {**TREND_TOLERANCES, **(tolerances or {})}
    verdicts: List[TrendVerdict] = []
    for key in store.keys():
        if algorithm is not None and key.algorithm != algorithm:
            continue
        if case is not None and key.case != case:
            continue
        for metric in metrics:
            grouped = store.streams(
                key, metric, split_env=(metric == "wall_clock")
            )
            for (stream, env), points in sorted(grouped.items()):
                values = [p.value for p in points]
                verdict, baseline, recent, change, cp_index = detect_trend(
                    values,
                    tolerance=tolerances[metric],
                    floor=TREND_FLOORS[metric],
                    window=window,
                )
                verdicts.append(TrendVerdict(
                    key=key,
                    metric=metric,
                    stream=stream,
                    env_key=env,
                    verdict=verdict,
                    points=len(values),
                    baseline=baseline,
                    recent=recent,
                    change=change,
                    changepoint=(
                        None if cp_index is None
                        else points[cp_index].timestamp
                    ),
                    detail=(
                        f"insufficient history ({len(values)} sample(s), "
                        f"window {window})"
                        if baseline is None else ""
                    ),
                ))
    return TrendReport(verdicts=verdicts, window=window)
