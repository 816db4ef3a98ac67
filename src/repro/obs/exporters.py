"""Trace/metrics exporters: JSON-lines and Chrome-trace timeline formats.

Two built-in exporters, both pluggable through :data:`EXPORTERS`:

``jsonl`` — :class:`JSONLinesExporter`
    One JSON object per line, self-describing via a ``type`` field:

    * ``meta``     — machine parameters (P, cost model, modelled time);
    * ``span``     — one line per span (tree encoded by ``id``/``parent``),
      with cost deltas and per-rank sent/recv words, message counts and
      flops (events carry the exact per-rank attribution);
    * ``metric``   — one line per registry instrument
      (counter/gauge/histogram snapshot);
    * ``per_rank`` — one line per processor with its cumulative counters;
    * ``summary``  — machine totals, written last.

    The format satisfies a *zero-drift invariant*: summing ``sent_words``
    / ``recv_words`` over the event spans reproduces the per-rank and
    global machine counters exactly (tested in
    ``tests/obs/test_exporters.py``).  :func:`read_jsonl` loads a file
    back into records; ``repro inspect`` pretty-prints it.

``chrome`` — :class:`ChromeTraceExporter`
    The Chrome trace-event JSON object format (load in ``chrome://tracing``
    or https://ui.perfetto.dev).  Spans become complete (``"ph": "X"``)
    events on the modelled timeline: structural spans on a "span tree"
    track per nesting depth, event spans additionally fanned out to one
    lane per participating rank — the per-processor fiber view of the
    paper's Figure 1, as a timeline.

Modelled time (``CostModel.time`` of the cumulative cost, in abstract
seconds) is exported as microseconds, the unit Chrome expects.

The same two formats also render **driver telemetry**
(:class:`repro.obs.telemetry.Telemetry` — real wall-clock spans of the
host process and its pool workers, not modelled time):
:func:`export_telemetry_chrome` writes one merged Chrome trace with the
parent's stage spans and every worker's task spans on per-pid lanes, and
:func:`export_telemetry_jsonl` writes the flat record stream.  Both obey
the zero-drift invariant — every exported duration equals the measured
span duration exactly (same floats, scaled once).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .attainment import Attainment
from .metrics import update_machine_gauges

__all__ = [
    "JSONLinesExporter",
    "ChromeTraceExporter",
    "EXPORTERS",
    "get_exporter",
    "read_jsonl",
    "telemetry_trace_events",
    "export_telemetry_chrome",
    "telemetry_jsonl_records",
    "export_telemetry_jsonl",
]


def _meta_record(machine) -> dict:
    cm = machine.cost_model
    return {
        "type": "meta",
        "format": "repro-obs-v1",
        "n_procs": machine.n_procs,
        "cost_model": {"alpha": cm.alpha, "beta": cm.beta, "gamma": cm.gamma},
        "memory_limit": machine.memory_limit,
        "time": machine.time,
    }


def _per_rank_records(machine) -> List[dict]:
    net = machine.network
    columns = zip(
        net.sent_words.tolist(), net.recv_words.tolist(),
        net.sent_messages.tolist(), net.recv_messages.tolist(),
        machine.flops.tolist(),
    )
    return [
        {
            "type": "per_rank",
            "rank": rank,
            "sent_words": sent,
            "recv_words": recv,
            "sent_messages": sent_msgs,
            "recv_messages": recv_msgs,
            "flops": flops,
        }
        for rank, (sent, recv, sent_msgs, recv_msgs, flops) in enumerate(columns)
    ]


def _summary_record(machine) -> dict:
    net = machine.network
    return {
        "type": "summary",
        "rounds": net.rounds,
        "critical_words": net.critical_words,
        "total_words": net.total_words,
        "sent_words": net.sent_words.tolist(),
        "recv_words": net.recv_words.tolist(),
        "sent_messages": net.sent_messages.tolist(),
        "recv_messages": net.recv_messages.tolist(),
        "max_flops": float(machine.flops.max()),
        "time": machine.time,
        "peak_memory_words": machine.peak_memory_words(),
    }


class JSONLinesExporter:
    """Write a machine's spans, metrics and counters as JSON lines."""

    name = "jsonl"

    def records(
        self, machine, attainment: Optional[Attainment] = None
    ) -> List[dict]:
        """All records in file order (meta, spans, metrics, ranks, summary)."""
        update_machine_gauges(machine)
        out: List[dict] = [_meta_record(machine)]
        out.extend(s.to_record() for s in machine.spans.iter_spans())
        if attainment is not None:
            out.append(attainment_record(attainment))
        out.extend(
            {**m, "type": "metric", "metric_type": m["type"]}
            for m in machine.metrics.collect()
        )
        out.extend(_per_rank_records(machine))
        out.append(_summary_record(machine))
        return out

    def export(
        self, machine, path: str, attainment: Optional[Attainment] = None
    ) -> int:
        """Write one JSON object per line to ``path``; returns line count."""
        records = self.records(machine, attainment)
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return len(records)


def attainment_record(attainment: Attainment) -> dict:
    """Flatten an :class:`~repro.obs.attainment.Attainment` to a record."""
    return {
        "type": "attainment",
        "shape": list(attainment.shape.dims),
        "P": attainment.P,
        "regime": attainment.regime.name,
        "measured_words": attainment.measured_words,
        "bound": attainment.bound,
        "ratio": attainment.ratio,
        "attains": attainment.attains,
        "memory": attainment.memory,
        "memory_bound": attainment.memory_bound,
        "memory_ratio": attainment.memory_ratio,
    }


def read_jsonl(path: str) -> List[dict]:
    """Load a JSON-lines export back into a list of record dicts."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class ChromeTraceExporter:
    """Write the span tree in Chrome's trace-event JSON object format."""

    name = "chrome"

    #: Microseconds per modelled time unit.
    SCALE = 1e6

    def trace_events(self, machine) -> List[dict]:
        """The ``traceEvents`` array (metadata + complete events)."""
        events: List[dict] = []
        pid = 0
        rank_tids: Dict[int, int] = {
            rank: rank + 1 for rank in range(machine.n_procs)
        }
        tree_tid_base = machine.n_procs + 1

        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": f"repro machine (P={machine.n_procs})"},
        })
        for rank, tid in rank_tids.items():
            events.append({
                "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": f"rank {rank}"},
            })

        max_depth = 0
        for span in machine.spans.iter_spans():
            max_depth = max(max_depth, span.depth)
            args = {
                "kind": span.kind,
                "rounds": span.cost.rounds,
                "words": span.cost.words,
                "flops": span.cost.flops,
                "groups": [list(g) for g in span.groups],
            }
            common = {
                "ph": "X",
                "pid": pid,
                "cat": span.kind,
                "name": span.name or span.kind,
                "ts": span.start_time * self.SCALE,
                "dur": span.duration * self.SCALE,
            }
            # One lane per nesting depth for the span tree itself.
            events.append({**common, "tid": tree_tid_base + span.depth, "args": args})
            if span.event:
                # Fan event spans out to every participating rank's lane —
                # the per-processor fiber view of Figure 1 as a timeline.
                for rank in sorted({r for g in span.groups for r in g}):
                    rank_args = dict(args)
                    if len(span.sent_words) == machine.n_procs:
                        rank_args["sent_words"] = float(span.sent_words[rank])
                        rank_args["recv_words"] = float(span.recv_words[rank])
                    events.append({**common, "tid": rank_tids[rank], "args": rank_args})

        for depth in range(max_depth + 1):
            events.append({
                "ph": "M", "pid": pid, "tid": tree_tid_base + depth,
                "name": "thread_name", "args": {"name": f"span tree depth {depth}"},
            })
        return events

    def export(
        self, machine, path: str, attainment: Optional[Attainment] = None
    ) -> int:
        """Write the Chrome trace JSON to ``path``; returns event count."""
        events = self.trace_events(machine)
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "format": "repro-obs-v1",
                "n_procs": machine.n_procs,
                "modelled_time": machine.time,
            },
        }
        if attainment is not None:
            payload["otherData"]["attainment"] = attainment_record(attainment)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
        return len(events)


# --------------------------------------------------------------------- #
# driver telemetry (real wall-clock, host process + pool workers)        #
# --------------------------------------------------------------------- #

#: Chrome pid for the host-process stage lanes in telemetry traces.  Task
#: spans use their real worker pid, which the pool guarantees differs
#: from 0.
_DRIVER_PID = 0


def telemetry_trace_events(telemetry) -> List[dict]:
    """Chrome ``traceEvents`` for one :class:`~repro.obs.telemetry.Telemetry`.

    One merged timeline: the driver's stage spans occupy per-depth lanes
    under pid 0 ("driver" process), and every pool worker appears as its
    own Chrome process (pid = real worker pid) whose lane carries that
    worker's task spans.  Each task span's queue wait is exported as its
    own event on the same lane (category ``"queue"``), ending exactly
    where the task event starts, so pool pressure is visible as a bar.

    Zero-drift: ``dur`` of every event is the span's measured duration
    scaled by :attr:`ChromeTraceExporter.SCALE` — the exact floats the
    recorder holds, no re-measuring or rounding.
    """
    scale = ChromeTraceExporter.SCALE
    events: List[dict] = [{
        "ph": "M", "pid": _DRIVER_PID, "tid": 0, "name": "process_name",
        "args": {"name": f"repro driver ({telemetry.driver})"},
    }]
    max_depth = -1
    for span in telemetry.stages:
        max_depth = max(max_depth, span.depth)
        events.append({
            "ph": "X",
            "pid": _DRIVER_PID,
            "tid": span.depth + 1,
            "cat": span.kind,
            "name": span.name,
            "ts": span.start * scale,
            "dur": span.duration * scale,
            "args": {"id": span.index, "parent": span.parent, **span.meta},
        })
    for depth in range(max_depth + 1):
        events.append({
            "ph": "M", "pid": _DRIVER_PID, "tid": depth + 1,
            "name": "thread_name", "args": {"name": f"driver stage depth {depth}"},
        })

    for pid in sorted({t.worker_pid for t in telemetry.tasks}):
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": f"worker {pid}"},
        })
        events.append({
            "ph": "M", "pid": pid, "tid": 1, "name": "thread_name",
            "args": {"name": "tasks"},
        })
    for span in telemetry.tasks:
        args = {
            "index": span.index,
            "queue_wait": span.queue_wait,
            "items": span.items,
            "items_per_sec": span.items_per_sec,
        }
        if span.queue_wait > 0:
            events.append({
                "ph": "X",
                "pid": span.worker_pid,
                "tid": 1,
                "cat": "queue",
                "name": f"{span.label}[{span.index}] wait",
                "ts": span.submitted * scale,
                "dur": span.queue_wait * scale,
                "args": {"index": span.index},
            })
        events.append({
            "ph": "X",
            "pid": span.worker_pid,
            "tid": 1,
            "cat": "task",
            "name": f"{span.label}[{span.index}]",
            "ts": span.started * scale,
            "dur": span.duration * scale,
            "args": args,
        })
    return events


def export_telemetry_chrome(telemetry, path: str) -> int:
    """Write a telemetry Chrome trace to ``path``; returns event count.

    The file loads in ``chrome://tracing`` / https://ui.perfetto.dev and
    shows the driver and each worker as side-by-side processes on one
    wall-clock axis.  ``otherData`` carries the full telemetry summary.
    """
    events = telemetry_trace_events(telemetry)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": "repro-telemetry-v1",
            "driver": telemetry.driver,
            "summary": telemetry.summary(),
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return len(events)


def telemetry_jsonl_records(telemetry) -> List[dict]:
    """Flat JSON-lines records for one telemetry recorder.

    File order mirrors the machine exporter: ``meta``, stage spans, task
    spans, metric snapshots, per-worker utilization, then a ``summary``
    record — every number taken verbatim from the recorder (zero drift).
    """
    out: List[dict] = [{
        "type": "meta",
        "format": "repro-telemetry-v1",
        "driver": telemetry.driver,
    }]
    out.extend(s.to_record() for s in telemetry.stages)
    out.extend(t.to_record() for t in telemetry.tasks)
    out.extend(
        {**m, "type": "metric", "metric_type": m["type"]}
        for m in telemetry.metrics.collect()
    )
    out.extend(
        {"type": "worker", **w.to_dict()} for w in telemetry.worker_stats()
    )
    out.append({"type": "summary", **telemetry.summary()})
    return out


def export_telemetry_jsonl(telemetry, path: str) -> int:
    """Write telemetry as one JSON object per line; returns line count."""
    records = telemetry_jsonl_records(telemetry)
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return len(records)


#: Pluggable exporter registry: name -> exporter factory.
EXPORTERS = {
    JSONLinesExporter.name: JSONLinesExporter,
    ChromeTraceExporter.name: ChromeTraceExporter,
}


def get_exporter(name: str):
    """Instantiate a registered exporter by name."""
    try:
        return EXPORTERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown exporter {name!r}; registered: {sorted(EXPORTERS)}"
        ) from None
