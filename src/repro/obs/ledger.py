"""The experiment ledger: persistent, append-only run records.

PR 1 made a single execution observable (spans, metrics, attainment
gauges); this module makes *sequences of executions* observable.  A
:class:`Ledger` is a schema-versioned JSON-lines file to which every
recorded run appends one :class:`RunRecord` — algorithm, configuration,
model-level costs (words / rounds / flops), the Theorem 3 bound and
attainment ratio, the per-rank ``sent_words`` skew, wall-clock time, the
git revision, and an environment fingerprint.  Because records are
append-only and self-describing, the file doubles as the repository's
measured-performance trajectory: ``repro ledger list`` reads it back,
``repro ledger diff`` compares any two records, and ``repro trend``
(:mod:`repro.obs.analytics`) flags drift along a record series.

The design follows how the COSMA/CTF codebases and the Demmel et al. '13
strong-scaling study track measured-versus-model numbers per configuration:
the *model* quantities in a record are exact (the paper's constants are
1/2/3, attainment 1.0 — drift there is a correctness bug), while wall-clock
is environment-dependent and only meaningful against records with a
matching fingerprint.

File format: one JSON object per line.  Line order is append order; the
first field of every record is ``schema_version`` so future schema changes
can coexist in one file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from typing import Iterator, List, Optional, Sequence

from ..exceptions import LedgerError
from .metrics import RankSkew

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "RunRecord",
    "Ledger",
    "environment_fingerprint",
    "git_revision",
    "merge_ledgers",
    "repo_root",
]

#: Bump when the record layout changes incompatibly.
LEDGER_SCHEMA_VERSION = 1


def repo_root() -> str:
    """The source-checkout root: home of the ledger and the BENCH files."""
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )


def environment_fingerprint() -> dict:
    """A small, stable description of the executing environment.

    Wall-clock entries in the ledger are only comparable between records
    whose fingerprints match; model-level costs are environment-independent
    by construction (the simulator counts words, it does not time them).
    """
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": numpy.__version__,
    }


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One persisted experiment: a single algorithm execution.

    Attributes
    ----------
    label:
        Free-form grouping tag (``"pr2"``, ``"nightly"``, a PR number...).
    kind:
        Record provenance: ``"sweep"`` (from :func:`repro.analysis.sweep`),
        ``"plan"`` (``repro plan``), ``"chaos"`` (``repro chaos``),
        ``"run"`` (ad hoc).  Not validated, so older ledgers still read:
        their ``"bench"`` records came from the deleted ``repro bench``
        command's Algorithm 1 probes, their ``"pytest"`` ones from a
        deleted benchmark-test timing hook.
    algorithm, config, shape, P:
        What ran and on which (shape, processor-count) point.
    words, rounds, flops:
        Model-level measured costs — exact, environment-independent.
    bound, attainment:
        The Theorem 3 memory-independent bound and ``words / bound``.
    backend:
        Execution backend the run used (``"data"`` or ``"symbolic"``).
        Model costs are identical across backends by construction, but
        wall-clock is not, and only data-backend records carry numerical
        verification — so cross-backend comparisons must be explicit
        (``repro ledger diff --allow-mixed``).
    skew:
        Per-rank ``sent_words`` imbalance (:class:`~repro.obs.metrics.RankSkew`),
        or ``None`` when the run exposed no per-rank counters.
    wall_clock:
        Driver-measured seconds (``time.perf_counter``); environment-bound.
    timestamp:
        Unix time at record creation.
    git_sha, env:
        Provenance: the repository revision and environment fingerprint.
    faults:
        Fault-injection provenance, or ``None`` (the default) for a
        fault-free run.  Additive schema field: legacy records read back
        with ``faults=None``.  When present it carries at least the
        injector summary (``injected``, ``retries``, ``words_resent`` and
        the fault model) — a record with ``injected > 0`` measured a
        degraded execution, and ``repro ledger diff`` warns before
        comparing it against a fault-free one.
    task_index:
        Index of the ``parallel_map`` task that produced this record, or
        ``None`` (the default) for runs recorded without driver
        telemetry.  Additive schema field, serialized only when present,
        so telemetry-off ledger files stay byte-identical to
        pre-telemetry ones; when set it joins the record to its
        :class:`~repro.obs.telemetry.TaskSpan` in a merged timeline
        without positional guessing.
    telemetry:
        Driver-telemetry summary for the task that produced this record
        (worker pid, queue wait, task duration, items), or ``None``.
        Additive and serialized only when present, like ``task_index``.
        Wall-clock-derived and environment-bound like ``wall_clock`` —
        never part of model-cost comparisons.
    semiring:
        Name of the semiring the run's scalar multiply-add pair came from
        (``"plus_times"`` / ``"min_plus"``).  Additive schema field,
        serialized only when not the classical default, so pre-semiring
        ledger files read back unchanged and default-semiring lines stay
        byte-identical.  Model costs are semiring-independent, but the
        *products* are not comparable across semirings, so ``repro ledger
        diff`` refuses mixed-semiring comparisons without
        ``--allow-mixed``.
    recovery:
        Rank-failure recovery provenance, or ``None`` (the default) for a
        run that needed none.  Additive schema field, serialized only
        when present, so fault-free (and recovery-free) records stay
        byte-identical to the pre-recovery schema and legacy lines read
        back with ``recovery=None``.  When present it carries the
        mechanism (``"abft"`` or ``"checkpoint"``), the recovery count
        and ``words_recovered`` — the extra words the run paid to survive.
    plan:
        Capacity-planner provenance (``repro plan --ledger``), or ``None``
        (the default) for records not produced by a planner query.
        Additive schema field, serialized only when present, so
        non-planner records keep their historical bytes.  When present it
        carries the query fingerprint
        (:func:`repro.analysis.plan.query_fingerprint` — the cache key,
        so a ledger line joins to its cached answer exactly), the memory
        budget ``M`` (or ``None``), the admissible-candidate count, the
        Section 6.2 ``binding`` bound name when ``M`` was given, and
        whether the answer was a cache hit.  The model-cost columns of a
        planner record describe the *chosen* algorithm, so the standard
        exact-comparison tooling applies to them unchanged.
    """

    algorithm: str
    shape: Sequence[int]
    P: int
    words: float
    rounds: int
    flops: float
    bound: float
    attainment: float
    wall_clock: float
    config: str = ""
    label: str = ""
    kind: str = "run"
    backend: str = "data"
    skew: Optional[RankSkew] = None
    timestamp: float = 0.0
    git_sha: Optional[str] = None
    env: Optional[dict] = None
    faults: Optional[dict] = None
    task_index: Optional[int] = None
    telemetry: Optional[dict] = None
    semiring: str = "plus_times"
    recovery: Optional[dict] = None
    plan: Optional[dict] = None

    @property
    def fault_injected(self) -> bool:
        """Did this run execute with materialized faults?"""
        return bool(self.faults) and bool(self.faults.get("injected", 0))

    def to_dict(self) -> dict:
        out = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "timestamp": self.timestamp,
            "label": self.label,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "config": self.config,
            "shape": list(self.shape),
            "P": self.P,
            "words": self.words,
            "rounds": self.rounds,
            "flops": self.flops,
            "bound": self.bound,
            "attainment": self.attainment,
            "backend": self.backend,
            "skew": None if self.skew is None else self.skew.to_dict(),
            "wall_clock": self.wall_clock,
            "git_sha": self.git_sha,
            "env": self.env,
            "faults": self.faults,
        }
        # Telemetry fields are written only when measured: a telemetry-off
        # run's ledger line is byte-identical to pre-telemetry output.
        if self.task_index is not None:
            out["task_index"] = self.task_index
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        # Additive like the telemetry fields: written only for non-default
        # semirings, so classical runs' lines keep their historical bytes.
        if self.semiring != "plus_times":
            out["semiring"] = self.semiring
        # Additive: only runs that actually survived a rank failure carry
        # recovery provenance; everything else keeps its historical bytes.
        if self.recovery is not None:
            out["recovery"] = self.recovery
        # Additive: only planner-query records carry plan provenance.
        if self.plan is not None:
            out["plan"] = self.plan
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        version = data.get("schema_version")
        if version != LEDGER_SCHEMA_VERSION:
            raise LedgerError(
                f"unsupported ledger record schema_version {version!r} "
                f"(this build reads version {LEDGER_SCHEMA_VERSION})"
            )
        try:
            return cls(
                algorithm=data["algorithm"],
                config=data.get("config", ""),
                shape=tuple(data["shape"]),
                P=int(data["P"]),
                words=float(data["words"]),
                rounds=int(data["rounds"]),
                flops=float(data["flops"]),
                bound=float(data["bound"]),
                attainment=float(data["attainment"]),
                skew=(
                    None if data.get("skew") is None
                    else RankSkew.from_dict(data["skew"])
                ),
                wall_clock=float(data["wall_clock"]),
                label=data.get("label", ""),
                kind=data.get("kind", "run"),
                backend=data.get("backend", "data"),
                timestamp=float(data.get("timestamp", 0.0)),
                git_sha=data.get("git_sha"),
                env=data.get("env"),
                faults=data.get("faults"),
                task_index=data.get("task_index"),
                telemetry=data.get("telemetry"),
                semiring=data.get("semiring", "plus_times"),
                recovery=data.get("recovery"),
                plan=data.get("plan"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(f"malformed ledger record: {exc}") from exc

    @classmethod
    def from_sweep(
        cls,
        record,
        label: str = "",
        kind: str = "sweep",
        telemetry: Optional[dict] = None,
    ) -> "RunRecord":
        """Build a ledger record from an :class:`~repro.analysis.sweep.SweepRecord`.

        ``telemetry`` attaches the per-task driver-telemetry summary
        (additive field; omit for the byte-stable telemetry-off layout).
        """
        return cls(
            algorithm=record.algorithm,
            config=record.config,
            shape=tuple(record.shape.dims),
            P=record.P,
            words=record.words,
            rounds=record.rounds,
            flops=record.flops,
            bound=record.bound,
            attainment=record.gap_ratio,
            skew=record.skew,
            wall_clock=record.wall_clock,
            label=label,
            kind=kind,
            backend=getattr(record, "backend", "data"),
            timestamp=time.time(),
            git_sha=git_revision(),
            env=environment_fingerprint(),
            task_index=getattr(record, "task_index", None),
            telemetry=telemetry,
            semiring=getattr(record, "semiring", "plus_times"),
        )


class Ledger:
    """An append-only JSON-lines file of :class:`RunRecord` objects.

    The file is opened per operation (append-then-close), so concurrent
    writers on one POSIX filesystem interleave whole lines and a crash can
    lose at most the record being written — never corrupt earlier history.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "ledger.jsonl")
    >>> ledger = Ledger(path)
    >>> ledger.append(RunRecord(
    ...     algorithm="alg1", shape=(4, 4, 4), P=2, words=16.0, rounds=2,
    ...     flops=32.0, bound=16.0, attainment=1.0, wall_clock=0.01))
    >>> len(ledger.records())
    1
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def append(self, record: RunRecord) -> None:
        """Write one record as a new line at the end of the file."""
        line = json.dumps(record.to_dict())
        with open(self.path, "a") as fh:
            fh.write(line + "\n")

    def records(self) -> List[RunRecord]:
        """All records in append order; ``[]`` for a missing file.

        Raises
        ------
        LedgerError
            If the file exists but any line is not a valid versioned record.
        """
        if not os.path.exists(self.path):
            return []
        out: List[RunRecord] = []
        with open(self.path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LedgerError(
                        f"{self.path}:{lineno}: not JSON ({exc})"
                    ) from exc
                if not isinstance(data, dict):
                    raise LedgerError(
                        f"{self.path}:{lineno}: expected an object, "
                        f"got {type(data).__name__}"
                    )
                out.append(RunRecord.from_dict(data))
        return out

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records())

    def __len__(self) -> int:
        return len(self.records())

    def query(
        self,
        algorithm: Optional[str] = None,
        label: Optional[str] = None,
        kind: Optional[str] = None,
        shape: Optional[Sequence[int]] = None,
        P: Optional[int] = None,
    ) -> List[RunRecord]:
        """Records matching every given filter (None = match all)."""
        out = []
        for rec in self.records():
            if algorithm is not None and rec.algorithm != algorithm:
                continue
            if label is not None and rec.label != label:
                continue
            if kind is not None and rec.kind != kind:
                continue
            if shape is not None and tuple(rec.shape) != tuple(shape):
                continue
            if P is not None and rec.P != P:
                continue
            out.append(rec)
        return out

    def trajectory(
        self, algorithm: str, shape: Sequence[int], P: int
    ) -> List[RunRecord]:
        """The time-ordered history of one configuration.

        This is the per-configuration measured-vs-model trajectory: every
        record should agree on ``words``/``bound``/``attainment`` (model
        quantities), while ``wall_clock`` tracks implementation speed over
        the repository's history.
        """
        records = self.query(algorithm=algorithm, shape=shape, P=P)
        return sorted(records, key=lambda r: r.timestamp)


def merge_ledgers(paths: Sequence[str], out_path: str) -> int:
    """Merge several ledger files into one, time-ordered and deduplicated.

    Records are deduplicated on their full serialized content (two
    byte-identical records are one experiment reported twice, e.g. after
    copying a ledger between machines and appending to both).  Returns the
    number of records written.
    """
    seen = set()
    merged: List[RunRecord] = []
    for path in paths:
        for rec in Ledger(path).records():
            key = json.dumps(rec.to_dict(), sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            merged.append(rec)
    merged.sort(key=lambda r: r.timestamp)
    target = Ledger(out_path)
    with open(out_path, "w"):
        pass
    for rec in merged:
        target.append(rec)
    return len(merged)
