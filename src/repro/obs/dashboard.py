"""Self-contained HTML dashboard over the repo's observability artifacts.

``repro dashboard`` folds the same artifacts the CLI gates read — the
experiment ledger, every ``BENCH_pr<N>.jsonl`` end-to-end harness run, a
driver-telemetry JSONL and a collapsed-stack profile — into **one static
HTML file**: data inline as JSON, rendering in vanilla JS + SVG, zero
external requests, so the file opens from ``file://`` (or a CI artifact
download) with no server and no network.  Panels:

* stat tiles + trend verdicts — the :mod:`repro.obs.analytics` report,
  so the dashboard and ``repro trend --check`` can never disagree;
* one sparkline per workload and end-to-end harness metric across PRs,
  and the per-layer self times of each workload's latest traced run;
* attainment heatmap per Theorem-3 case (latest attainment of every
  configuration, sequential ramp — darker is further from the bound);
* per-configuration ``words_sent`` skew bars (``max/mean`` ratio with
  the straggler rank), from the ledger's :class:`RankSkew` summaries;
* worker-utilization timeline (driver stage spans + per-worker task
  spans on one wall-clock axis) from a telemetry JSONL export;
* top-N hotspot table from a collapsed-stack (folded) profile.

The Python side only *collects* (:func:`collect_payload`) and
*templates* (:func:`render_html`); every mark is drawn client-side from
the embedded JSON, so the payload stays inspectable and the HTML stays
free of generated geometry.  Missing artifacts degrade to an explicit
"not collected" note per panel — a partial dashboard is valid, a silent
gap is not.
"""

from __future__ import annotations

import html as _html
import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from .analytics import (
    HarnessRun,
    TrajectoryStore,
    analyze,
    load_bench_file,
    shape_fingerprint,
    theorem3_case,
)

__all__ = [
    "collect_payload",
    "render_html",
    "write_dashboard",
    "load_telemetry_jsonl",
    "parse_folded",
    "hotspot_rows",
    "DEFAULT_DASHBOARD",
]

#: Default output filename, in the directory the artifacts are read from.
DEFAULT_DASHBOARD = "dashboard.html"


# ---------------------------------------------------------------------- #
# artifact readers                                                       #
# ---------------------------------------------------------------------- #

def load_telemetry_jsonl(path: str) -> Dict[str, list]:
    """Group a telemetry JSONL export's records by their ``type`` field.

    Returns ``{"meta": [...], "stage_span": [...], "task_span": [...],
    "metric": [...], "worker": [...], "summary": [...]}`` (absent types
    map to empty lists, unknown types are kept under their own name so
    future record kinds survive a round-trip).
    """
    out: Dict[str, list] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            out.setdefault(record.get("type", "unknown"), []).append(record)
    return out


def parse_folded(text: str) -> List[Tuple[List[str], int]]:
    """Parse Brendan Gregg folded stacks: ``caller;callee value`` lines."""
    stacks: List[Tuple[List[str], int]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        if not stack:
            continue
        try:
            stacks.append((stack.split(";"), int(value)))
        except ValueError:
            continue
    return stacks


def hotspot_rows(
    stacks: List[Tuple[List[str], int]], top: int = 15
) -> List[dict]:
    """Top-``top`` functions by self time from folded stacks.

    ``self_us`` sums the samples where the function is the leaf;
    ``total_us`` sums every stack it appears in (each stack counted
    once, so recursion does not double-bill).
    """
    self_us: Dict[str, int] = {}
    total_us: Dict[str, int] = {}
    for frames, value in stacks:
        if not frames:
            continue
        leaf = frames[-1]
        self_us[leaf] = self_us.get(leaf, 0) + value
        for name in set(frames):
            total_us[name] = total_us.get(name, 0) + value
    rows = [
        {"name": name, "self_us": us, "total_us": total_us[name]}
        for name, us in self_us.items()
    ]
    rows.sort(key=lambda r: (-r["self_us"], r["name"]))
    return rows[:top]


# ---------------------------------------------------------------------- #
# payload assembly                                                       #
# ---------------------------------------------------------------------- #

def _bench_payload(runs: List[HarnessRun]) -> dict:
    """Harness series and per-layer self times, as plain JSON.

    ``series`` has one entry per (workload, end-to-end metric, env
    fingerprint) with a point per PR; ``layers`` has each workload's
    latest traced run split by layer, with each layer's share of the
    run's total self time.
    """
    series: Dict[tuple, dict] = {}
    layers: Dict[str, dict] = {}
    for run in sorted(runs, key=lambda r: r.pr):
        for name, spec in run.metrics.items():
            if "bound" not in spec:
                continue
            entry = series.setdefault((run.workload, name, run.env_key), {
                "workload": run.workload, "metric": name,
                "unit": spec["unit"], "better": spec["better"],
                "bound": spec["bound"], "env": run.env_key, "points": [],
            })
            entry["points"].append({"pr": run.pr, "v": spec["value"]})
        self_s = {
            name[:-len(".self_s")]: spec["value"]
            for name, spec in run.metrics.items() if name.endswith(".self_s")
        }
        if not self_s:
            continue
        total = sum(self_s.values()) or 1.0
        layers[run.workload] = {
            "workload": run.workload, "pr": run.pr, "env": run.env_key,
            "rows": [
                {
                    "layer": layer,
                    "calls": run.metrics.get(f"{layer}.calls", {}).get("value"),
                    "self_s": value,
                    "share": value / total,
                }
                for layer, value in self_s.items()
            ],
        }
    return {"series": list(series.values()), "layers": list(layers.values())}


def _attainment_payload(store: TrajectoryStore) -> dict:
    """Latest attainment per configuration, gridded by Theorem-3 case."""
    cells: List[dict] = []
    for key in store.keys():
        points = store.series(key, "attainment")
        if not points:
            continue
        latest = points[-1]
        cells.append({
            "algorithm": key.algorithm,
            "backend": key.backend,
            "case": key.case,
            "shape": key.shape,
            "value": latest.value,
            "label": latest.label,
        })
    cases = sorted({c["case"] for c in cells})
    rows = sorted({f"{c['algorithm']}/{c['backend']}" for c in cells})
    return {"cases": cases, "rows": rows, "cells": cells}


def _skew_payload(store: TrajectoryStore) -> List[dict]:
    """Latest words_sent skew ratio per configuration (where measured)."""
    bars: List[dict] = []
    for key in store.keys():
        points = store.series(key, "skew_ratio")
        if not points:
            continue
        latest = points[-1]
        bars.append({
            "label": key.label(),
            "case": key.case,
            "ratio": latest.value,
            "stream": latest.stream,
        })
    bars.sort(key=lambda b: (-b["ratio"], b["label"]))
    return bars


def _recovery_payload(ledger_path: Optional[str]) -> List[dict]:
    """Rank-failure recovery provenance: one row per reconstructed record.

    Reconstructed runs carry a ``recovery`` dict (mechanism, count,
    ``words_recovered``); their inflated words are kept *out* of the
    clean trajectories, so the dashboard surfaces them here instead —
    the survivability story next to the fault-free one.
    """
    if ledger_path is None:
        return []
    from .ledger import Ledger

    rows: List[dict] = []
    for record in Ledger(ledger_path).records():
        if record.recovery is None:
            continue
        rows.append({
            "algorithm": record.algorithm,
            "case": theorem3_case(record.shape, record.P),
            "shape": shape_fingerprint(record.shape, record.P),
            "mechanism": record.recovery.get("mechanism", ""),
            "recoveries": record.recovery.get("recoveries", 0),
            "words_recovered": record.recovery.get("words_recovered", 0.0),
            "words": record.words,
            "bound": record.bound,
            "overhead": (
                record.recovery.get("words_recovered", 0.0) / record.bound
                if record.bound else None
            ),
        })
    return rows


def collect_payload(
    ledger_path: Optional[str] = None,
    bench_paths: Iterable[str] = (),
    telemetry_path: Optional[str] = None,
    profile_path: Optional[str] = None,
    include_faulty: bool = False,
    top: int = 15,
) -> dict:
    """Aggregate every artifact into the dashboard's embedded JSON.

    Missing *optional* paths (``None``, or a file that does not exist
    yet) produce explicit empty or ``null`` sections; a path that exists
    but is malformed raises, same as the CLI gates.
    """
    sources: List[str] = []
    if ledger_path is not None and os.path.exists(ledger_path):
        sources.append(ledger_path)
    else:
        ledger_path = None
    bench_paths = [p for p in bench_paths if os.path.exists(p)]
    sources.extend(bench_paths)

    store = TrajectoryStore.collect(ledger_path, include_faulty=include_faulty)
    runs = [run for path in bench_paths for run in load_bench_file(path)]
    report = analyze(store, runs)

    telemetry = None
    if telemetry_path is not None and os.path.exists(telemetry_path):
        groups = load_telemetry_jsonl(telemetry_path)
        telemetry = {
            "meta": (groups.get("meta") or [{}])[0],
            "stages": groups.get("stage_span", []),
            "tasks": groups.get("task_span", []),
            "workers": groups.get("worker", []),
            "summary": (groups.get("summary") or [{}])[0],
        }
        sources.append(telemetry_path)

    hotspots = None
    if profile_path is not None and os.path.exists(profile_path):
        with open(profile_path) as fh:
            hotspots = hotspot_rows(parse_folded(fh.read()), top=top)
        sources.append(profile_path)

    return {
        "meta": {
            "title": "repro observability dashboard",
            "sources": sources,
            "points": len(store),
            "runs": len(runs),
        },
        "trend": report.to_dict(),
        "bench": _bench_payload(runs),
        "attainment": _attainment_payload(store),
        "skew": _skew_payload(store),
        "recovery": _recovery_payload(ledger_path),
        "telemetry": telemetry,
        "hotspots": hotspots,
    }


# ---------------------------------------------------------------------- #
# rendering                                                              #
# ---------------------------------------------------------------------- #

def render_html(payload: dict) -> str:
    """The complete single-file dashboard for one collected payload.

    The JSON is embedded in an inert ``<script type="application/json">``
    block (``</`` escaped so record contents cannot terminate the tag);
    all drawing happens in the inline script.  No URL of any scheme
    appears in the output — SVG elements are created via markup strings,
    which the HTML parser namespaces automatically.
    """
    data = json.dumps(payload, sort_keys=True).replace("</", "<\\/")
    title = _html.escape(payload.get("meta", {}).get("title", "dashboard"))
    return (
        _TEMPLATE
        .replace("__TITLE__", title)
        .replace("__REPRO_DATA__", data)
    )


def write_dashboard(out_path: str, payload: dict) -> str:
    """Render ``payload`` and write it to ``out_path``; returns the path."""
    text = render_html(payload)
    parent = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(parent, exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(text)
    return out_path


# The template is plain text (no f-string) so the JS braces stay
# literal; the two __TOKENS__ above are the only substitution points.
_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>__TITLE__</title>
<style>
  .viz-root {
    color-scheme: light;
    --surface-1: #fcfcfb;
    --page: #f9f9f7;
    --ink: #0b0b0b;
    --ink-2: #52514e;
    --muted: #898781;
    --grid: #e1e0d9;
    --baseline: #c3c2b7;
    --ring: rgba(11,11,11,0.10);
    --series-1: #2a78d6;
    --series-2: #eb6834;
    --series-3: #1baf7a;
    --good: #0ca30c;
    --warning: #fab219;
    --critical: #d03b3b;
    --good-text: #006300;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --surface-1: #1a1a19;
      --page: #0d0d0d;
      --ink: #ffffff;
      --ink-2: #c3c2b7;
      --muted: #898781;
      --grid: #2c2c2a;
      --baseline: #383835;
      --ring: rgba(255,255,255,0.10);
      --series-1: #3987e5;
      --series-2: #d95926;
      --series-3: #199e70;
      --good-text: #0ca30c;
    }
  }
  :root[data-theme="dark"] .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --ink: #ffffff;
    --ink-2: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --ring: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --good-text: #0ca30c;
  }
  * { box-sizing: border-box; }
  body.viz-root {
    margin: 0; padding: 24px;
    background: var(--page); color: var(--ink);
    font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
    font-size: 14px; line-height: 1.45;
  }
  h1 { font-size: 20px; margin: 0 0 4px; }
  h3 { font-size: 14px; margin: 0; font-weight: 600; }
  .sub { color: var(--ink-2); margin: 0 0 20px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
  .tile {
    background: var(--surface-1); border: 1px solid var(--ring);
    border-radius: 8px; padding: 12px 16px; min-width: 150px;
  }
  .tile .v { font-size: 28px; font-weight: 650; }
  .tile .k { color: var(--ink-2); font-size: 12px; }
  .grid { display: grid; grid-template-columns: repeat(auto-fit, minmax(420px, 1fr)); gap: 16px; }
  .card {
    background: var(--surface-1); border: 1px solid var(--ring);
    border-radius: 8px; padding: 16px; margin-bottom: 16px;
  }
  .card-head { display: flex; align-items: baseline; justify-content: space-between; margin-bottom: 10px; }
  .card-note { color: var(--muted); font-size: 12px; }
  .toggle { display: inline-flex; border: 1px solid var(--ring); border-radius: 6px; overflow: hidden; }
  .toggle button {
    border: 0; background: transparent; color: var(--ink-2);
    font: inherit; font-size: 12px; padding: 2px 10px; cursor: pointer;
  }
  .toggle button[aria-pressed="true"] { background: var(--grid); color: var(--ink); }
  table { border-collapse: collapse; width: 100%; font-size: 13px; }
  th { text-align: left; color: var(--ink-2); font-weight: 600; }
  th, td { padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid); }
  td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
  .hidden { display: none; }
  .spark-grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(240px, 1fr)); gap: 10px; }
  .spark {
    border: 1px solid var(--grid); border-radius: 6px; padding: 8px 10px;
  }
  .spark .name { font-size: 11px; color: var(--ink-2); overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
  .spark .val { font-size: 16px; font-weight: 650; }
  .heat { display: grid; gap: 2px; }
  .heat .cell {
    min-height: 26px; border-radius: 3px; display: flex;
    align-items: center; justify-content: center; font-size: 11px;
    cursor: default;
  }
  .heat .hdr { background: transparent; color: var(--ink-2); font-weight: 600; justify-content: flex-start; }
  .bars .row { display: flex; align-items: center; gap: 8px; margin: 2px 0; }
  .bars .lbl { flex: 0 0 46%; font-size: 12px; color: var(--ink-2);
    overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
  .bars .track { flex: 1; }
  .bars .bar {
    height: 16px; background: var(--series-1);
    border-radius: 0 4px 4px 0;
  }
  .bars .bv { font-size: 12px; font-variant-numeric: tabular-nums; }
  svg { display: block; }
  .legend { display: flex; gap: 16px; font-size: 12px; color: var(--ink-2); margin-top: 6px; }
  .legend .key { display: inline-block; width: 14px; height: 3px; border-radius: 2px; vertical-align: middle; margin-right: 5px; }
  .legend .key.rect { height: 10px; border-radius: 2px; }
  #tooltip {
    position: fixed; pointer-events: none; z-index: 10;
    background: var(--surface-1); color: var(--ink);
    border: 1px solid var(--ring); border-radius: 6px;
    padding: 6px 10px; font-size: 12px; display: none;
    box-shadow: 0 2px 8px rgba(0,0,0,0.15);
  }
  #tooltip .tv { font-weight: 650; }
  #tooltip .tk { color: var(--ink-2); }
</style>
</head>
<body class="viz-root">
<h1>__TITLE__</h1>
<p class="sub" id="subtitle"></p>
<div class="tiles" id="tiles"></div>
<div id="panels"></div>
<div id="tooltip" role="status"></div>
<script type="application/json" id="repro-data">__REPRO_DATA__</script>
<script>
"use strict";
const DATA = JSON.parse(document.getElementById("repro-data").textContent);
const RAMP = ["#cde2fb","#b7d3f6","#9ec5f4","#86b6ef","#6da7ec","#5598e7",
              "#3987e5","#2a78d6","#256abf","#1c5cab","#184f95","#104281",
              "#0d366b"];
const css = (name) =>
  getComputedStyle(document.body).getPropertyValue(name).trim();
const fmt = (v) => {
  if (v === null || v === undefined) return "-";
  const a = Math.abs(v);
  if (a >= 1e6 || (a > 0 && a < 1e-3)) return v.toExponential(2);
  return (Math.round(v * 1000) / 1000).toLocaleString("en-US");
};

// --- tooltip (shared; textContent only — labels are untrusted data) ---
const tip = document.getElementById("tooltip");
function showTip(evt, rows) {
  tip.replaceChildren();
  for (const [k, v] of rows) {
    const line = document.createElement("div");
    const vs = document.createElement("span");
    vs.className = "tv"; vs.textContent = v;
    const ks = document.createElement("span");
    ks.className = "tk"; ks.textContent = k ? " " + k : "";
    line.append(vs, ks);
    tip.append(line);
  }
  tip.style.display = "block";
  const pad = 12;
  const w = tip.offsetWidth, h = tip.offsetHeight;
  let x = evt.clientX + pad, y = evt.clientY + pad;
  if (x + w > innerWidth - 4) x = evt.clientX - w - pad;
  if (y + h > innerHeight - 4) y = evt.clientY - h - pad;
  tip.style.left = x + "px"; tip.style.top = y + "px";
}
function hideTip() { tip.style.display = "none"; }
function hover(el, rows) {
  el.tabIndex = 0;
  el.addEventListener("pointermove", (e) => showTip(e, rows()));
  el.addEventListener("pointerleave", hideTip);
  el.addEventListener("focus", () => {
    const r = el.getBoundingClientRect();
    showTip({clientX: r.right, clientY: r.top}, rows());
  });
  el.addEventListener("blur", hideTip);
}

// --- card scaffolding: every chart ships its table-view twin ----------
function card(title, note) {
  const root = document.createElement("div");
  root.className = "card";
  const head = document.createElement("div");
  head.className = "card-head";
  const h = document.createElement("h3");
  h.textContent = title;
  const right = document.createElement("div");
  if (note) {
    const n = document.createElement("span");
    n.className = "card-note"; n.textContent = note + "  ";
    right.append(n);
  }
  const toggle = document.createElement("span");
  toggle.className = "toggle";
  const chart = document.createElement("div");
  const table = document.createElement("div");
  table.className = "hidden";
  for (const [label, el, other] of [["Chart", chart, table],
                                    ["Table", table, chart]]) {
    const b = document.createElement("button");
    b.type = "button"; b.textContent = label;
    b.setAttribute("aria-pressed", label === "Chart" ? "true" : "false");
    b.addEventListener("click", () => {
      el.classList.remove("hidden"); other.classList.add("hidden");
      for (const bb of toggle.querySelectorAll("button"))
        bb.setAttribute("aria-pressed", bb === b ? "true" : "false");
    });
    toggle.append(b);
  }
  right.append(toggle);
  head.append(h, right);
  root.append(head, chart, table);
  document.getElementById("panels").append(root);
  return {root, chart, table};
}
function buildTable(host, headers, rows, numeric) {
  const t = document.createElement("table");
  const tr = document.createElement("tr");
  headers.forEach((hd, i) => {
    const th = document.createElement("th");
    if (numeric.includes(i)) th.className = "num";
    th.textContent = hd; tr.append(th);
  });
  t.append(tr);
  for (const row of rows) {
    const r = document.createElement("tr");
    row.forEach((cell, i) => {
      const td = document.createElement("td");
      if (numeric.includes(i)) td.className = "num";
      td.textContent = cell; r.append(td);
    });
    t.append(r);
  }
  host.replaceChildren(t);
}
function emptyNote(host, text) {
  const p = document.createElement("p");
  p.className = "card-note"; p.textContent = text;
  host.append(p);
}

// --- stat tiles -------------------------------------------------------
function tiles() {
  const meta = DATA.meta, counts = DATA.trend.counts.ledger;
  const sub = document.getElementById("subtitle");
  sub.textContent = "sources: " + (meta.sources.join(", ") || "none") +
    " - " + meta.points + " ledger samples, " + meta.runs + " harness runs";
  const host = document.getElementById("tiles");
  const items = [
    [String(meta.points), "ledger samples"],
    [String(meta.runs), "harness runs"],
    [(DATA.trend.ok ? "\\u2713 OK" : "\\u2717 FAILED"), "trend verdict",
     DATA.trend.ok ? "var(--good-text)" : "var(--critical)"],
    [String(counts.regressed), "regressed"],
    [String(counts.improved), "improved"],
    [String(counts.flat), "flat"],
  ];
  for (const [v, k, color] of items) {
    const tile = document.createElement("div");
    tile.className = "tile";
    const vd = document.createElement("div");
    vd.className = "v"; vd.textContent = v;
    if (color) vd.style.color = color;
    const kd = document.createElement("div");
    kd.className = "k"; kd.textContent = k;
    tile.append(vd, kd);
    host.append(tile);
  }
}

// --- trend verdicts ---------------------------------------------------
function trendPanel() {
  const verdicts = DATA.trend.verdicts;
  const notable = verdicts.filter((v) => v.verdict !== "flat");
  const c = card("Trend verdicts",
    notable.length ? notable.length + " non-flat of " + verdicts.length
                   : "all " + verdicts.length + " trajectories flat");
  if (!notable.length) {
    emptyNote(c.chart,
      "\\u2713 no regressions or improvements detected; " +
      "the table lists every trajectory.");
  } else {
    buildTable(c.chart, ["verdict", "metric", "series", "stream", "change"],
      notable.map((v) => [
        (v.verdict === "regressed" ? "\\u2717 " : "\\u2713 ") + v.verdict +
          (v.source === "ledger" ? "" : " (not gated)"),
        v.metric, v.series, v.stream,
        (v.change >= 0 ? "+" : "") + (100 * v.change).toFixed(1) + "%"]),
      [4]);
  }
  for (const f of DATA.trend.failures)
    emptyNote(c.chart, "\\u2717 failed run: " + f);
  const prev = (v) => v.samples.length > 1
    ? fmt(v.samples[v.samples.length - 2][1]) : "-";
  buildTable(c.table,
    ["verdict", "source", "metric", "series", "stream", "n", "previous",
     "latest"],
    verdicts.map((v) => [v.verdict, v.source, v.metric, v.series, v.stream,
      String(v.samples.length), prev(v),
      fmt(v.samples[v.samples.length - 1][1])]),
    [5, 6, 7]);
}

// --- harness sparklines: one per workload x end-to-end metric ---------
function sparkSvg(points, w, h) {
  const vs = points.map((p) => p.v);
  const lo = Math.min(...vs), hi = Math.max(...vs);
  const span = hi - lo || 1;
  const x = (i) => points.length === 1
    ? w / 2 : 2 + (w - 4) * i / (points.length - 1);
  const y = (v) => h - 3 - (h - 6) * (v - lo) / span;
  const pts = points.map((p, i) => x(i) + "," + y(p.v)).join(" ");
  const last = points[points.length - 1];
  // Markup string (not createElementNS) keeps URL-shaped namespace
  // identifiers out of the document entirely.
  const holder = document.createElement("div");
  holder.innerHTML =
    '<svg width="' + w + '" height="' + h + '" role="img">' +
    (points.length > 1
      ? '<polyline fill="none" stroke="' + css("--series-1") +
        '" stroke-width="2" stroke-linejoin="round" points="' + pts + '"/>'
      : "") +
    '<circle cx="' + x(points.length - 1) + '" cy="' + y(last.v) +
    '" r="3" fill="' + css("--series-1") + '"/></svg>';
  return holder.firstChild;
}
function benchPanel() {
  const series = DATA.bench.series;
  const c = card("End-to-end harness metrics across PRs",
    series.length ? "one point per BENCH_pr<N>.jsonl" : "");
  if (!series.length) {
    emptyNote(c.chart, "no BENCH_pr<N>.jsonl collected");
    emptyNote(c.table, "no BENCH_pr<N>.jsonl collected");
    return;
  }
  const grid = document.createElement("div");
  grid.className = "spark-grid";
  for (const s of series) {
    const last = s.points[s.points.length - 1];
    const box = document.createElement("div");
    box.className = "spark";
    const name = document.createElement("div");
    name.className = "name";
    name.textContent = s.workload + " " + s.metric;
    const val = document.createElement("div");
    val.className = "val";
    val.textContent = fmt(last.v) + " " + s.unit;
    box.append(name, val, sparkSvg(s.points, 220, 36));
    hover(box, () => [
      [fmt(last.v) + " " + s.unit, s.metric + " at pr" + last.pr],
      ["PRs", s.points.map((p) => "pr" + p.pr).join(", ")],
      ["", s.better + " is better, bound " + (100 * s.bound).toFixed(0) + "%"],
      ["", s.env],
    ]);
    grid.append(box);
  }
  c.chart.append(grid);
  buildTable(c.table,
    ["workload", "metric", "unit", "n", "first", "latest"],
    series.map((s) => [s.workload, s.metric, s.unit,
      String(s.points.length), fmt(s.points[0].v),
      fmt(s.points[s.points.length - 1].v)]),
    [3, 4, 5]);
}
function layerPanel() {
  const runs = DATA.bench.layers;
  const c = card("Per-layer self time (latest traced run per workload)",
    runs.length ? "share = layer self time / the run's total self time" : "");
  if (!runs.length) {
    emptyNote(c.chart, "no traced harness run collected");
    emptyNote(c.table, "no traced harness run collected");
    return;
  }
  const rows = (keep) => runs.flatMap((run) => run.rows
    .filter(keep)
    .slice().sort((a, b) => b.self_s - a.self_s)
    .map((r) => [run.workload, "pr" + run.pr, r.layer,
      r.calls == null ? "-" : fmt(r.calls), fmt(r.self_s),
      (100 * r.share).toFixed(1) + "%"]));
  const headers = ["workload", "PR", "layer", "calls", "self (s)", "share"];
  buildTable(c.chart, headers, rows((r) => r.share >= 0.01), [3, 4, 5]);
  buildTable(c.table, headers, rows(() => true), [3, 4, 5]);
}

// --- attainment heatmap ----------------------------------------------
function heatPanel() {
  const att = DATA.attainment;
  const c = card("Bound attainment by Theorem-3 case",
    "words / lower bound; darker = further above the bound");
  if (!att.cells.length) {
    emptyNote(c.chart, "no attainment samples collected");
    emptyNote(c.table, "no attainment samples collected");
    return;
  }
  const cols = [];
  for (const cs of att.cases)
    for (const shape of [...new Set(att.cells
        .filter((x) => x.case === cs).map((x) => x.shape))].sort())
      cols.push({case: cs, shape});
  const vals = att.cells.map((x) => x.value);
  const lo = Math.min(...vals), hi = Math.max(...vals);
  const ramp = (v) => {
    const t = hi === lo ? 0.5 : (v - lo) / (hi - lo);
    return RAMP[Math.round(t * (RAMP.length - 1))];
  };
  const grid = document.createElement("div");
  grid.className = "heat";
  grid.style.gridTemplateColumns =
    "minmax(120px, auto) repeat(" + cols.length + ", minmax(46px, 1fr))";
  const corner = document.createElement("div");
  corner.className = "cell hdr";
  grid.append(corner);
  for (const col of cols) {
    const hd = document.createElement("div");
    hd.className = "cell hdr";
    hd.style.justifyContent = "center";
    hd.textContent = col.case;
    hover(hd, () => [[col.case, "case"], ["", col.shape]]);
    grid.append(hd);
  }
  for (const row of att.rows) {
    const hd = document.createElement("div");
    hd.className = "cell hdr";
    hd.textContent = row;
    grid.append(hd);
    for (const col of cols) {
      const cell = document.createElement("div");
      cell.className = "cell";
      const hit = att.cells.find((x) =>
        x.algorithm + "/" + x.backend === row &&
        x.case === col.case && x.shape === col.shape);
      if (hit) {
        const bg = ramp(hit.value);
        cell.style.background = bg;
        cell.style.color =
          RAMP.indexOf(bg) >= 6 ? "#ffffff" : "#0b0b0b";
        cell.textContent = hit.value.toFixed(2);
        hover(cell, () => [
          [fmt(hit.value), "x lower bound"],
          ["", row + " - case " + hit.case],
          ["", hit.shape],
        ]);
      } else {
        cell.style.background = "var(--grid)";
        cell.textContent = "\\u00b7";
        cell.style.color = "var(--muted)";
      }
      grid.append(cell);
    }
  }
  c.chart.append(grid);
  buildTable(c.table,
    ["algorithm", "case", "shape", "attainment"],
    att.cells.slice().sort((a, b) => a.value - b.value).map((x) => [
      x.algorithm + "/" + x.backend, x.case, x.shape, fmt(x.value)]),
    [3]);
}

// --- skew bars --------------------------------------------------------
function skewPanel() {
  const bars = DATA.skew;
  const c = card("words_sent skew (max / mean per rank)",
    "1.00 = perfectly balanced");
  if (!bars.length) {
    emptyNote(c.chart, "no per-rank skew recorded");
    emptyNote(c.table, "no per-rank skew recorded");
    return;
  }
  const cap = 14;
  const shown = bars.slice(0, cap);
  if (bars.length > cap)
    emptyNote(c.chart, "showing the " + cap + " most-skewed of " +
      bars.length + "; all in table");
  const host = document.createElement("div");
  host.className = "bars";
  const hi = Math.max(...bars.map((b) => b.ratio));
  for (const b of shown) {
    const row = document.createElement("div");
    row.className = "row";
    const lbl = document.createElement("div");
    lbl.className = "lbl"; lbl.textContent = b.label;
    const track = document.createElement("div");
    track.className = "track";
    const bar = document.createElement("div");
    bar.className = "bar";
    bar.style.width = Math.max(2, 100 * b.ratio / hi) + "%";
    track.append(bar);
    const bv = document.createElement("div");
    bv.className = "bv"; bv.textContent = b.ratio.toFixed(3);
    hover(row, () => [
      [b.ratio.toFixed(4), "max / mean"],
      ["", b.label],
      ["", b.stream],
    ]);
    row.append(lbl, track, bv);
    host.append(row);
  }
  c.chart.append(host);
  buildTable(c.table, ["series", "stream", "skew ratio"],
    bars.map((b) => [b.label, b.stream, b.ratio.toFixed(4)]), [2]);
}

// --- rank-failure recovery provenance ---------------------------------
function recoveryPanel() {
  const rows = DATA.recovery || [];
  const c = card("Rank-failure recovery (survived runs)",
    "overhead = words_recovered / Theorem 3 bound");
  if (!rows.length) {
    emptyNote(c.chart, "no reconstructed runs recorded " +
      "(run repro chaos --recover with --ledger)");
    emptyNote(c.table, "no reconstructed runs recorded");
    return;
  }
  const host = document.createElement("div");
  host.className = "bars";
  const hi = Math.max(...rows.map((r) => r.words_recovered));
  const cap = 14;
  for (const r of rows.slice(0, cap)) {
    const row = document.createElement("div");
    row.className = "row";
    const lbl = document.createElement("div");
    lbl.className = "lbl";
    lbl.textContent = r.algorithm + "/" + r.shape + " (" + r.mechanism + ")";
    const track = document.createElement("div");
    track.className = "track";
    const bar = document.createElement("div");
    bar.className = "bar";
    bar.style.width = Math.max(2, 100 * r.words_recovered / hi) + "%";
    track.append(bar);
    const bv = document.createElement("div");
    bv.className = "bv";
    bv.textContent = r.words_recovered.toFixed(0);
    hover(row, () => [
      [r.words_recovered.toFixed(0), "words recovered"],
      [r.overhead == null ? "n/a" : r.overhead.toFixed(3), "x bound"],
      ["", r.mechanism + ", " + r.case],
    ]);
    row.append(lbl, track, bv);
    host.append(row);
  }
  c.chart.append(host);
  buildTable(c.table,
    ["algorithm", "case", "shape", "mechanism", "recovered", "overhead"],
    rows.map((r) => [r.algorithm, r.case, r.shape, r.mechanism,
      r.words_recovered.toFixed(0),
      r.overhead == null ? "n/a" : r.overhead.toFixed(3)]), [4, 5]);
}

// --- worker-utilization timeline -------------------------------------
function timelinePanel() {
  const t = DATA.telemetry;
  const c = card("Worker utilization timeline",
    t ? "driver stage spans + per-worker task spans, one wall-clock axis"
      : "");
  if (!t || (!t.stages.length && !t.tasks.length)) {
    emptyNote(c.chart, "no telemetry JSONL collected " +
      "(pass --telemetry to repro dashboard)");
    emptyNote(c.table, "no telemetry JSONL collected");
    return;
  }
  const spans = t.stages.map((s) => ({
    lane: "driver", name: s.name, start: s.start, end: s.end,
    kind: "stage", extra: "depth " + s.depth,
  })).concat(t.tasks.map((k) => ({
    lane: "worker " + k.worker_pid, name: k.label || ("task " + k.index),
    start: k.started, end: k.ended, kind: "task",
    extra: "queue wait " + fmt(k.queue_wait) + "s, " + k.items + " item(s)",
  })));
  const t0 = Math.min(...spans.map((s) => s.start));
  const t1 = Math.max(...spans.map((s) => s.end));
  const span = t1 - t0 || 1;
  const lanes = [...new Set(spans.map((s) => s.lane))];
  lanes.sort((a, b) => (a === "driver" ? -1 : b === "driver" ? 1
    : a.localeCompare(b, "en", {numeric: true})));
  const W = 860, LANE_H = 26, LEFT = 110;
  const H = lanes.length * LANE_H + 26;
  const holder = document.createElement("div");
  holder.style.overflowX = "auto";
  let svg = '<svg width="' + W + '" height="' + H + '" role="img">';
  lanes.forEach((_, i) => {
    const y = (i + 1) * LANE_H;
    svg += '<line x1="' + LEFT + '" y1="' + y + '" x2="' + W + '" y2="' +
      y + '" stroke="' + css("--grid") + '" stroke-width="1"/>';
  });
  for (let g = 0; g <= 4; g++) {
    const x = LEFT + (W - LEFT - 8) * g / 4;
    svg += '<line x1="' + x + '" y1="4" x2="' + x + '" y2="' +
      (H - 22) + '" stroke="' + css("--grid") + '" stroke-width="1"/>' +
      '<text x="' + x + '" y="' + (H - 8) + '" fill="' + css("--muted") +
      '" font-size="11" text-anchor="middle">' +
      (span * g / 4).toFixed(2) + 's</text>';
  }
  svg += "</svg>";
  holder.innerHTML = svg;
  const root = holder.firstChild;
  const mk = document.createElement("div");
  lanes.forEach((lane, i) => {
    mk.innerHTML = '<svg><text x="0" y="' + (i * LANE_H + 18) +
      '" fill="' + css("--ink-2") + '" font-size="12">' + "</text></svg>";
    const label = mk.firstChild.firstChild;
    label.textContent = lane;   // lane names are data: textContent
    root.append(label);
  });
  const x = (v) => LEFT + (W - LEFT - 8) * (v - t0) / span;
  for (const s of spans) {
    const i = lanes.indexOf(s.lane);
    const y = i * LANE_H + 5;
    const w = Math.max(2, x(s.end) - x(s.start));
    mk.innerHTML = '<svg><rect x="' + x(s.start) + '" y="' + y +
      '" width="' + w + '" height="' + (LANE_H - 10) + '" rx="2" fill="' +
      css(s.kind === "stage" ? "--series-1" : "--series-2") + '"/></svg>';
    const rect = mk.firstChild.firstChild;
    hover(rect, () => [
      [fmt(s.end - s.start) + "s", s.name],
      ["", s.lane + (s.extra ? " - " + s.extra : "")],
    ]);
    root.append(rect);
  }
  holder.replaceChildren(root);
  c.chart.append(holder);
  const legend = document.createElement("div");
  legend.className = "legend";
  for (const [name, varName] of [["stage span", "--series-1"],
                                 ["task span", "--series-2"]]) {
    const item = document.createElement("span");
    const key = document.createElement("span");
    key.className = "key rect";
    key.style.background = css(varName);
    item.append(key, document.createTextNode(name));
    legend.append(item);
  }
  c.chart.append(legend);
  const wrows = (t.workers || []).map((w) => [
    "worker " + w.pid, String(w.tasks), fmt(w.busy),
    (100 * w.busy_fraction).toFixed(1) + "%"]);
  buildTable(c.table,
    ["lane", "tasks", "busy (s)", "busy fraction"],
    wrows.length ? wrows
      : spans.map((s) => [s.lane, "1", fmt(s.end - s.start), "-"]),
    [1, 2, 3]);
}

// --- hotspot table ----------------------------------------------------
function hotspotPanel() {
  const rows = DATA.hotspots;
  const c = card("Profile hotspots", rows ? "top functions by self time" : "");
  if (!rows || !rows.length) {
    emptyNote(c.chart, "no collapsed-stack profile collected " +
      "(pass --profile to repro dashboard)");
    emptyNote(c.table, "no collapsed-stack profile collected");
    return;
  }
  const hi = Math.max(...rows.map((r) => r.self_us));
  const t = document.createElement("table");
  const hr = document.createElement("tr");
  for (const hd of ["function", "self (\\u00b5s)", "total (\\u00b5s)", ""]) {
    const th = document.createElement("th");
    if (hd && hd !== "function") th.className = "num";
    th.textContent = hd; hr.append(th);
  }
  t.append(hr);
  for (const r of rows) {
    const tr = document.createElement("tr");
    const name = document.createElement("td");
    name.textContent = r.name;
    const self = document.createElement("td");
    self.className = "num";
    self.textContent = r.self_us.toLocaleString("en-US");
    const total = document.createElement("td");
    total.className = "num";
    total.textContent = r.total_us.toLocaleString("en-US");
    const barTd = document.createElement("td");
    barTd.style.width = "30%";
    const track = document.createElement("div");
    track.className = "bars";
    const bar = document.createElement("div");
    bar.className = "bar";
    bar.style.height = "10px";
    bar.style.background = css("--series-1");
    bar.style.borderRadius = "0 4px 4px 0";
    bar.style.width = Math.max(1, 100 * r.self_us / hi) + "%";
    track.append(bar);
    barTd.append(track);
    hover(tr, () => [
      [r.self_us.toLocaleString("en-US") + " \\u00b5s self", r.name],
      [r.total_us.toLocaleString("en-US") + " \\u00b5s total", ""],
    ]);
    tr.append(name, self, total, barTd);
    t.append(tr);
  }
  c.chart.append(t);
  buildTable(c.table, ["function", "self (\\u00b5s)", "total (\\u00b5s)"],
    rows.map((r) => [r.name, String(r.self_us), String(r.total_us)]),
    [1, 2]);
}

tiles();
trendPanel();
benchPanel();
layerPanel();
heatPanel();
skewPanel();
recoveryPanel();
timelinePanel();
hotspotPanel();
</script>
</body>
</html>
"""
