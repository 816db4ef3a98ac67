"""Observability: span tracing, metrics, bound-attainment gauges, exporters.

This subpackage makes the simulator's cost claims *inspectable*.  The
reproduction's whole point is exact accounting — Theorem 3's tight
constants (1/2/3 across the 1D/2D/3D regimes) only show up if every word
moved by every collective is attributed to the right phase — so the
instrumentation layer is structured around that invariant:

* :mod:`repro.obs.span` — nested, auto-measured spans with per-rank
  send/recv word counts, message counts and flop deltas, recorded on
  each machine's ``spans``.
* :mod:`repro.obs.metrics` — counters, gauges and histograms in a
  per-machine :class:`~repro.obs.metrics.MetricsRegistry`, fed
  automatically as event spans close.
* :mod:`repro.obs.attainment` — ``measured cost / lower bound`` gauges,
  published after every algorithm run: "Algorithm 1 attains the bound
  exactly" becomes a first-class observable rather than a test assertion.
* :mod:`repro.obs.exporters` — pluggable exporters: JSON-lines (with a
  zero-drift guarantee against the machine counters) and Chrome
  ``chrome://tracing`` timeline JSON.
* :mod:`repro.obs.inspect` — the ``repro inspect`` pretty-printer (phase
  tree, per-rank table, attainment summary).

Cross-run observability (this layer's second half) persists what the
in-run layer measures:

* :mod:`repro.obs.ledger` — the experiment ledger: schema-versioned,
  append-only JSONL run records (model costs, attainment, skew,
  wall-clock, git SHA, environment fingerprint) with query/trajectory/
  merge helpers; the backend of ``repro ledger``.
* :mod:`repro.obs.analytics` — the ``BENCH_*.json`` reader and
  trajectory analytics over the ledger and the committed BENCH files:
  per-metric time series keyed by (algorithm, backend, Theorem-3 case,
  shape) with a rolling-median trend detector
  (typed improved/flat/regressed verdicts); the backend of
  ``repro trend`` and ``repro ledger trajectory``.
* :mod:`repro.obs.dashboard` — the ``repro dashboard`` renderer: one
  self-contained static HTML file (inline JSON + vanilla JS/SVG, zero
  external requests) with trend verdicts, trajectory sparklines, the
  Theorem-3 attainment heatmap, words-sent skew bars, the
  worker-utilization timeline and the profile hotspot table.

Driver-level observability (this layer's third half — the host process
that orchestrates simulations, rather than the simulated machine):

* :mod:`repro.obs.telemetry` — wall-clock stage spans for every driver
  phase, per-task :class:`~repro.obs.telemetry.TaskSpan` records
  propagated across the :func:`repro.parallel.parallel_map` process
  boundary, worker-utilization/straggler statistics, and a throttled
  progress heartbeat.  Strictly opt-in; a telemetry-off run executes the
  pre-telemetry code path and produces byte-identical output.
* :mod:`repro.obs.profile` — cProfile capture inside pool workers, raw
  stats merged across processes into one hotspot table and a
  collapsed-stack (flamegraph-ready) export; the backend of the
  ``--profile`` / ``--profile-out`` driver flags.

See ``docs/OBSERVABILITY.md`` for a guided tour.
"""

from .span import Span, SpanRecorder
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RankSkew,
    load_imbalance,
    rank_skew,
    update_machine_gauges,
)
from .attainment import Attainment, bound_attainment, record_attainment
from .exporters import (
    EXPORTERS,
    ChromeTraceExporter,
    JSONLinesExporter,
    export_telemetry_chrome,
    export_telemetry_jsonl,
    get_exporter,
    read_jsonl,
    telemetry_jsonl_records,
    telemetry_trace_events,
)
from .telemetry import (
    ProgressReporter,
    StageSpan,
    TaskSpan,
    Telemetry,
    WorkerStats,
    maybe_stage,
)
from .profile import (
    ProfileCollector,
    capture_stats,
    collapsed_stacks,
    hotspot_table,
    merge_stats,
    write_collapsed,
)
from .inspect import inspect_report, render_rank_table, render_span_tree
from .ledger import (
    LEDGER_SCHEMA_VERSION,
    Ledger,
    RunRecord,
    environment_fingerprint,
    git_revision,
    merge_ledgers,
)
from .analytics import (
    BENCH_SCHEMA_VERSION,
    BenchEntry,
    BenchReport,
    METRICS,
    SeriesKey,
    TrajectoryPoint,
    TrajectoryStore,
    TrendReport,
    TrendVerdict,
    analyze,
    detect_trend,
    discover_bench_files,
    load_bench_report,
)
from .dashboard import (
    collect_payload,
    render_html,
    write_dashboard,
)

__all__ = [
    "Attainment",
    "BENCH_SCHEMA_VERSION",
    "BenchEntry",
    "BenchReport",
    "ChromeTraceExporter",
    "Counter",
    "EXPORTERS",
    "Gauge",
    "Histogram",
    "JSONLinesExporter",
    "LEDGER_SCHEMA_VERSION",
    "Ledger",
    "METRICS",
    "MetricsRegistry",
    "ProfileCollector",
    "ProgressReporter",
    "RankSkew",
    "RunRecord",
    "SeriesKey",
    "Span",
    "SpanRecorder",
    "StageSpan",
    "TaskSpan",
    "Telemetry",
    "TrajectoryPoint",
    "TrajectoryStore",
    "TrendReport",
    "TrendVerdict",
    "WorkerStats",
    "analyze",
    "bound_attainment",
    "capture_stats",
    "collapsed_stacks",
    "collect_payload",
    "detect_trend",
    "discover_bench_files",
    "environment_fingerprint",
    "export_telemetry_chrome",
    "export_telemetry_jsonl",
    "get_exporter",
    "git_revision",
    "hotspot_table",
    "inspect_report",
    "load_bench_report",
    "load_imbalance",
    "maybe_stage",
    "merge_ledgers",
    "merge_stats",
    "rank_skew",
    "read_jsonl",
    "record_attainment",
    "render_html",
    "render_rank_table",
    "render_span_tree",
    "telemetry_jsonl_records",
    "telemetry_trace_events",
    "update_machine_gauges",
    "write_collapsed",
    "write_dashboard",
]
