"""Trajectory analytics: verdicts over the ledger and the committed harness runs.

Two histories are committed at the repository root, and this module is
their read side (the backend of ``repro trend`` and ``repro dashboard``):

* **The experiment ledger** (``repro_ledger.jsonl``, :mod:`repro.obs.ledger`).
  :class:`TrajectoryStore` folds its records into per-metric series keyed
  by :class:`SeriesKey` ``(algorithm, backend, Theorem-3 case, shape)`` for
  the exact model metrics in :data:`METRICS` (total words, bound
  attainment, per-rank ``words_sent`` skew ratio).  The case comes from
  :func:`repro.core.cases.classify`, so a 1D probe and a 3D probe of the
  same algorithm never share a series.  Within a series, samples form
  *streams* (one per record ``kind:config``).  The newest sample of a
  stream is judged against the one before it, with no window and no
  tolerance: these counts are exact, so any worse value is
  :data:`REGRESSED`, and ``repro trend --check`` fails on it.
* **The end-to-end harness runs** (``BENCH_pr<N>.jsonl``): the verbatim
  JSON lines that ``benchmarks/e2e/run.py --seed 0`` and ``--seed 0
  --trace 1`` print, one file per performance PR.
  :func:`load_bench_file` pairs each describe line (the one naming its
  ``workload``) with the result line after it and skips the all-workload
  summary lines; a malformed file raises
  :class:`~repro.exceptions.BaselineError`.  Each :class:`HarnessRun`
  carries the env fingerprint, every metric's value, unit, direction and
  bound, and ``correct``.  A PR's point is judged against the previous
  PR's point for the same workload, seed and env fingerprint, with the
  metric's own ``better`` and ``bound``.  These verdicts are reported
  but do not gate: one committed run cannot tell a regression from host
  noise.  A run recorded with ``correct: false`` (a failed op or a
  seed-0 digest mismatch) does fail ``--check``.

:func:`analyze` produces both kinds of verdict as one :class:`TrendReport`,
which the dashboard renders too, so the CLI gate and the HTML view never
disagree.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.cases import classify
from ..core.shapes import ProblemShape
from ..exceptions import BaselineError
from .ledger import Ledger, RunRecord, repo_root

__all__ = [
    "METRICS",
    "IMPROVED",
    "FLAT",
    "REGRESSED",
    "SeriesKey",
    "TrajectoryPoint",
    "TrajectoryStore",
    "HarnessRun",
    "TrendVerdict",
    "TrendReport",
    "discover_bench_files",
    "load_bench_file",
    "judge",
    "analyze",
    "record_metric_value",
    "shape_fingerprint",
    "theorem3_case",
]

#: The exact model metrics tracked per ledger series, in report order.
#: All are oriented so *lower is better* (attainment is ``words / bound``
#: >= 1; skew ratio is ``max / mean`` >= 1).
METRICS: Tuple[str, ...] = ("words", "attainment", "skew_ratio")

#: Typed trend verdicts.
IMPROVED = "improved"
FLAT = "flat"
REGRESSED = "regressed"

_BENCH_NAME = re.compile(r"BENCH_pr(\d+)\.jsonl$")


def shape_fingerprint(shape: Sequence[int], P: int) -> str:
    """The canonical ``"n1xn2xn3:P<p>"`` key for one configuration."""
    return "x".join(str(d) for d in shape) + f":P{P}"


def theorem3_case(shape: Sequence[int], P: int) -> str:
    """The Theorem 3 case (``"1D"``/``"2D"``/``"3D"``) of a configuration."""
    return str(classify(ProblemShape(*shape), P))


def judge(
    previous: float, latest: float, better: str = "lower", bound: float = 0.0
) -> Tuple[str, float]:
    """``(verdict, change)`` of ``latest`` against ``previous``.

    ``change`` is the signed relative drift ``(latest - previous) /
    |previous|`` (absolute when ``previous`` is 0).  A drift beyond
    ``bound`` in the ``better`` direction is :data:`IMPROVED`, in the
    other :data:`REGRESSED`; ``bound=0`` makes every change a verdict.
    """
    change = (latest - previous) / (abs(previous) or 1.0)
    gain = -change if better == "lower" else change
    if gain < -bound:
        return REGRESSED, change
    if gain > bound:
        return IMPROVED, change
    return FLAT, change


# ---------------------------------------------------------------------- #
# the ledger side                                                        #
# ---------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True, order=True)
class SeriesKey:
    """What one ledger series is *about*: who ran, how, and in which regime."""

    algorithm: str
    backend: str
    case: str
    shape: str

    def label(self) -> str:
        return f"{self.algorithm}/{self.backend} case {self.case} {self.shape}"


@dataclasses.dataclass(frozen=True)
class TrajectoryPoint:
    """One metric sample of a ledger record.

    ``stream`` is the record's ``kind:config``: two streams under one
    :class:`SeriesKey` are the same configuration recorded by different
    drivers, and each is judged on its own.
    """

    timestamp: float
    value: float
    stream: str
    label: str = ""
    git_sha: Optional[str] = None

    def name(self) -> str:
        """How the sample is listed: its label, else its commit, else its time."""
        return self.label or (self.git_sha or "")[:10] or f"t={self.timestamp:g}"


def record_metric_value(record: RunRecord, metric: str) -> Optional[float]:
    """Pull one :data:`METRICS` value off a ledger record.

    Returns ``None`` when the record did not measure it (a skew-less
    oracle evaluation), so callers skip the sample instead of inventing
    a zero.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; tracked: {METRICS}")
    if metric == "skew_ratio":
        return None if record.skew is None else float(record.skew.ratio)
    return float(getattr(record, metric))


class TrajectoryStore:
    """Per-metric series of the ledger's exact model metrics.

    Fault-injected and reconstructed records are excluded by default:
    their words include recovery resends (see ``repro ledger diff``'s
    warning), so judging them against fault-free history would report
    phantom regressions.
    """

    def __init__(self, include_faulty: bool = False) -> None:
        self.include_faulty = include_faulty
        self._series: Dict[SeriesKey, Dict[str, List[TrajectoryPoint]]] = {}

    def add_record(self, record: RunRecord) -> bool:
        """Ingest one ledger record; returns whether it was kept."""
        faulty = record.fault_injected or record.recovery is not None
        if faulty and not self.include_faulty:
            return False
        key = SeriesKey(
            algorithm=record.algorithm,
            backend=record.backend,
            case=theorem3_case(record.shape, record.P),
            shape=shape_fingerprint(record.shape, record.P),
        )
        stream = f"{record.kind}:{record.config}" if record.config else record.kind
        series = self._series.setdefault(key, {m: [] for m in METRICS})
        for metric in METRICS:
            value = record_metric_value(record, metric)
            if value is not None:
                series[metric].append(TrajectoryPoint(
                    timestamp=record.timestamp, value=value, stream=stream,
                    label=record.label, git_sha=record.git_sha,
                ))
        return True

    @classmethod
    def collect(
        cls, ledger_path: Optional[str] = None, include_faulty: bool = False
    ) -> "TrajectoryStore":
        """A store over one ledger file (a missing file is an empty store).

        Raises
        ------
        LedgerError
            On a malformed ledger file.
        """
        store = cls(include_faulty=include_faulty)
        if ledger_path is not None:
            for record in Ledger(ledger_path).records():
                store.add_record(record)
        return store

    def keys(self) -> List[SeriesKey]:
        return sorted(self._series)

    def series(self, key: SeriesKey, metric: str) -> List[TrajectoryPoint]:
        """Time-ordered samples of one metric under one key."""
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; tracked: {METRICS}")
        points = self._series.get(key, {}).get(metric, [])
        return sorted(points, key=lambda p: p.timestamp)

    def streams(
        self, key: SeriesKey, metric: str
    ) -> Dict[str, List[TrajectoryPoint]]:
        """Time-ordered samples of one metric under one key, per stream."""
        out: Dict[str, List[TrajectoryPoint]] = {}
        for point in self.series(key, metric):
            out.setdefault(point.stream, []).append(point)
        return out

    def __len__(self) -> int:
        return sum(
            len(points)
            for metrics in self._series.values()
            for points in metrics.values()
        )


# ---------------------------------------------------------------------- #
# the harness side                                                       #
# ---------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class HarnessRun:
    """One workload's run of ``benchmarks/e2e/run.py`` as committed.

    ``metrics`` maps each metric name to its ``value`` and ``unit`` (from
    the result line) merged with its ``better`` and, for end-to-end
    metrics, its relative ``bound`` (from the describe line).
    """

    source: str
    pr: int
    workload: str
    seed: int
    trace: int
    env: Dict[str, str]
    correct: bool
    attempted: int
    failed: int
    pinned: str
    metrics: Dict[str, dict]

    @property
    def env_key(self) -> str:
        return "|".join(f"{k}={self.env[k]}" for k in sorted(self.env))


def discover_bench_files(directory: Optional[str] = None) -> List[str]:
    """``BENCH_pr<N>.jsonl`` paths at the repo root (or ``directory``), by N."""
    directory = repo_root() if directory is None else directory
    paths = glob.glob(os.path.join(directory, "BENCH_pr*.jsonl"))
    return sorted(
        (p for p in paths if _BENCH_NAME.search(p)),
        key=lambda p: int(_BENCH_NAME.search(p).group(1)),
    )


def _harness_run(source: str, pr: int, describe: dict, result: dict) -> HarnessRun:
    try:
        metrics = {}
        for name, spec in describe["metrics"].items():
            better = spec["better"]
            if better not in ("lower", "higher"):
                raise ValueError(f"metric {name!r} has better={better!r}")
            metrics[name] = {**spec, **result["metrics"][name]}
            metrics[name]["value"] = float(metrics[name]["value"])
        return HarnessRun(
            source=source, pr=pr, workload=str(describe["workload"]),
            seed=int(describe["seed"]), trace=int(describe["trace"]),
            env=dict(describe["env"]), correct=result["correct"] is True,
            attempted=int(result["attempted"]), failed=int(result["failed"]),
            pinned=str(describe.get("pinned", "")), metrics=metrics,
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BaselineError(
            f"{source}: malformed {describe.get('workload')!r} run: {exc!r}"
        ) from exc


def load_bench_file(path: str) -> List[HarnessRun]:
    """The harness runs recorded in one ``BENCH_pr<N>.jsonl`` file.

    Raises
    ------
    BaselineError
        If the file is missing or unreadable, is not named
        ``BENCH_pr<N>.jsonl``, holds a line that is not a JSON object, or
        holds a describe line with no result line after it.
    """
    source = os.path.basename(path)
    match = _BENCH_NAME.search(source)
    if match is None:
        raise BaselineError(f"{path} is not named BENCH_pr<N>.jsonl")
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise BaselineError(f"cannot read BENCH file {path}: {exc}") from exc

    def orphan(number: int, describe: dict) -> BaselineError:
        return BaselineError(
            f"{source}:{number}: describe line for workload "
            f"{describe['workload']!r} has no result line after it")

    runs: List[HarnessRun] = []
    pending: Optional[Tuple[int, dict]] = None
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BaselineError(f"{source}:{number}: not JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise BaselineError(f"{source}:{number}: not a JSON object")
        if "workload" in obj:
            if pending is not None:
                raise orphan(*pending)
            pending = (number, obj)
        elif "correct" not in obj:
            raise BaselineError(
                f"{source}:{number}: neither a describe nor a result line")
        elif pending is not None:
            runs.append(_harness_run(source, int(match.group(1)),
                                     pending[1], obj))
            pending = None
        # else: the all-workload summary line, which repeats the results
    if pending is not None:
        raise orphan(*pending)
    return runs


# ---------------------------------------------------------------------- #
# verdicts                                                               #
# ---------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class TrendVerdict:
    """The newest sample of one (series, metric, stream) judged.

    ``samples`` lists the stream oldest first as ``(name, value)`` pairs;
    the verdict compares the last two.
    """

    source: str  # "ledger" | "bench"
    series: str
    metric: str
    stream: str
    verdict: str
    samples: Tuple[Tuple[str, float], ...]
    change: float = 0.0
    bound: float = 0.0

    @property
    def gating(self) -> bool:
        """Only ledger verdicts fail ``--check``; harness ones are reported."""
        return self.source == "ledger"

    def render(self, samples: bool = False) -> str:
        head = (f"[{self.verdict.upper():9s}] {self.metric:<10s} "
                f"{self.series} [{self.stream}]")
        if len(self.samples) < 2:
            body = "one sample, nothing to compare"
        else:
            (a, prev), (b, last) = self.samples[-2:]
            body = (f"{a} {prev:g} -> {b} {last:g} ({self.change:+.1%}"
                    + ("" if self.gating else
                       f", bound {self.bound:.0%}, not gated") + ")")
        lines = [f"{head}: {body}"]
        if samples:
            lines.extend(f"    {name:<12s} {value:g}"
                         for name, value in self.samples)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["samples"] = [list(s) for s in self.samples]
        return out


@dataclasses.dataclass
class TrendReport:
    """Every verdict from one :func:`analyze` pass, plus failed harness runs."""

    verdicts: List[TrendVerdict]
    failures: List[str] = dataclasses.field(default_factory=list)

    @property
    def regressions(self) -> List[TrendVerdict]:
        """Gating regressions: the ledger's exact model metrics."""
        return [v for v in self.verdicts
                if v.gating and v.verdict == REGRESSED]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.failures

    def counts(self, source: str) -> Dict[str, int]:
        out = {IMPROVED: 0, FLAT: 0, REGRESSED: 0}
        for v in self.verdicts:
            if v.source == source:
                out[v.verdict] += 1
        return out

    def render(self, verbose: bool = False) -> str:
        lines = []
        for source, what in (("ledger", "ledger trajectories"),
                             ("bench", "harness metrics (reported, not gated)")):
            counts = self.counts(source)
            lines.append(
                f"trend: {sum(counts.values())} {what}: "
                f"{counts[REGRESSED]} regressed, {counts[IMPROVED]} improved, "
                f"{counts[FLAT]} flat")
        shown = [v for v in self.verdicts if verbose or v.verdict != FLAT]
        lines.extend(v.render(samples=verbose) for v in shown)
        if not shown and self.verdicts:
            lines.append("(every trajectory is flat; --all lists them)")
        lines.extend(f"FAILED RUN {f}" for f in self.failures)
        lines.append("TREND " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "counts": {s: self.counts(s) for s in ("ledger", "bench")},
            "failures": list(self.failures),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def _ledger_verdicts(store, metrics, algorithm, case) -> List[TrendVerdict]:
    out = []
    for key in store.keys():
        if algorithm is not None and key.algorithm != algorithm:
            continue
        if case is not None and key.case != case:
            continue
        for metric in METRICS:
            if metric not in metrics:
                continue
            for stream, points in sorted(store.streams(key, metric).items()):
                verdict, change = FLAT, 0.0
                if len(points) > 1:
                    verdict, change = judge(points[-2].value, points[-1].value)
                out.append(TrendVerdict(
                    source="ledger", series=key.label(), metric=metric,
                    stream=stream, verdict=verdict, change=change,
                    samples=tuple((p.name(), p.value) for p in points),
                ))
    return out


def _bench_verdicts(runs, metrics) -> List[TrendVerdict]:
    grouped: Dict[Tuple[str, int, str], Dict[str, list]] = {}
    for run in sorted(runs, key=lambda r: r.pr):
        by_metric = grouped.setdefault((run.workload, run.seed, run.env_key), {})
        for name, spec in run.metrics.items():
            if "bound" in spec and (metrics is None or name in metrics):
                by_metric.setdefault(name, []).append((f"pr{run.pr}", spec))
    out = []
    for (workload, seed, env_key), by_metric in sorted(grouped.items()):
        for name, points in by_metric.items():
            spec = points[-1][1]
            verdict, change = FLAT, 0.0
            if len(points) > 1:
                verdict, change = judge(points[-2][1]["value"], spec["value"],
                                        spec["better"], float(spec["bound"]))
            out.append(TrendVerdict(
                source="bench", series=workload, metric=name,
                stream=f"seed {seed}, {env_key}", verdict=verdict,
                change=change, bound=float(spec["bound"]),
                samples=tuple((pr, s["value"]) for pr, s in points),
            ))
    return out


def analyze(
    store: TrajectoryStore,
    runs: Iterable[HarnessRun] = (),
    metrics: Optional[Sequence[str]] = None,
    algorithm: Optional[str] = None,
    case: Optional[str] = None,
) -> TrendReport:
    """Judge every ledger stream and every bounded harness metric.

    ``metrics`` limits both kinds of verdict to the named metrics;
    ``algorithm`` and ``case`` filter the ledger series only.  Every
    harness run recorded with ``correct: false`` becomes a failure.
    """
    runs = list(runs)
    report = TrendReport(
        verdicts=_ledger_verdicts(store, metrics or METRICS, algorithm, case)
        + _bench_verdicts(runs, metrics),
    )
    report.failures = [
        f"{r.source}: {r.workload} seed {r.seed} trace {r.trace}: "
        f"{r.failed}/{r.attempted} ops failed (pinned digests: {r.pinned})"
        for r in runs if not r.correct
    ]
    return report
