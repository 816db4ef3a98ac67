"""Driver profiling: cProfile in every worker, one merged hotspot view.

The vectorized-sweep roadmap item needs to know *where driver wall-clock
goes* before anything can be rewritten — and a multiprocess sweep hides
most of it inside pool workers, where ``python -m cProfile`` cannot
follow.  This module closes that gap with three pieces:

* **Capture** — :func:`capture_stats` runs a callable under
  :class:`cProfile.Profile` and returns the profiler's raw stats mapping
  ``{(file, line, func): (cc, nc, tt, ct, callers)}``.  That mapping is
  plain picklable data, so pool workers can profile themselves and ship
  the result back through :func:`repro.parallel.parallel_map` (enabled
  by passing a :class:`ProfileCollector`).
* **Aggregation** — :class:`ProfileCollector` merges any number of stats
  mappings (parent stages plus every worker task) into one, summing call
  counts and times and unioning caller edges — the cross-process
  equivalent of ``pstats.Stats.add``, without temp files.
* **Rendering** — :func:`hotspot_table` formats the merged profile as a
  top-N table (sorted by internal time, the "where is the hot loop"
  question), and :func:`collapsed_stacks` emits folded ``caller;callee
  value`` lines in the Brendan Gregg flamegraph format, ready for
  ``flamegraph.pl`` or speedscope.  cProfile records caller *pairs*, not
  full stacks, so the collapse is two-deep — wide enough to see which
  driver stage feeds which hot function, which is the question the
  table answers in text form.

Profiling perturbs wall-clock (cProfile's tracing overhead is real), so
it is opt-in exactly like telemetry: ``profile=None`` leaves every
driver on the uninstrumented path, and model costs are independent of it
either way (asserted in ``tests/obs/test_profile.py``).

The CLI front-end is the ``--profile`` / ``--profile-out`` flag pair on
``repro sweep / chaos / large-p``.
"""

from __future__ import annotations

import cProfile
import os
from typing import Callable, Dict, List, Tuple, TypeVar

__all__ = [
    "FuncKey",
    "ProfileCollector",
    "capture_stats",
    "merge_stats",
    "hotspot_table",
    "collapsed_stacks",
    "write_collapsed",
]

_R = TypeVar("_R")

#: A cProfile function key: (filename, line number, function name).
FuncKey = Tuple[str, int, str]

#: A cProfile stats value: (primitive calls, total calls, internal time,
#: cumulative time, {caller key: 4-tuple}).
_StatValue = Tuple[int, int, float, float, dict]


def capture_stats(fn: Callable[[], _R]) -> Tuple[_R, Dict[FuncKey, _StatValue]]:
    """Run ``fn()`` under cProfile; return ``(result, raw stats mapping)``.

    The mapping is ``profiler.stats`` after ``create_stats()`` — plain
    tuples and dicts, picklable across process boundaries, mergeable with
    :func:`merge_stats`.  Exceptions from ``fn`` propagate unprofiled
    side effects intact (the profiler is disabled first).
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    profiler.create_stats()
    return result, dict(profiler.stats)


def merge_stats(
    parts: List[Dict[FuncKey, _StatValue]],
) -> Dict[FuncKey, _StatValue]:
    """Merge raw cProfile stats mappings by summing counts and times.

    The cross-process analogue of ``pstats.Stats.add``: primitive/total
    call counts, internal (``tt``) and cumulative (``ct``) times sum per
    function; caller edges union, summing their per-edge 4-tuples.
    """
    merged: Dict[FuncKey, list] = {}
    for part in parts:
        for key, (cc, nc, tt, ct, callers) in part.items():
            if key not in merged:
                merged[key] = [cc, nc, tt, ct, dict(callers)]
                continue
            entry = merged[key]
            entry[0] += cc
            entry[1] += nc
            entry[2] += tt
            entry[3] += ct
            for caller, value in callers.items():
                if caller in entry[4]:
                    entry[4][caller] = tuple(
                        a + b for a, b in zip(entry[4][caller], value)
                    )
                else:
                    entry[4][caller] = value
    return {
        key: (cc, nc, tt, ct, callers)
        for key, (cc, nc, tt, ct, callers) in merged.items()
    }


class ProfileCollector:
    """Accumulates cProfile stats from the parent and every pool worker.

    Pass an instance as ``profile=`` to :func:`repro.parallel.parallel_map`
    (or to any driver that threads it through): each task runs under its
    own profiler and the collector merges the returned stats here in the
    parent.  ``sources`` counts merged contributions — for a 4-worker
    sweep over 8 shapes, 8 task profiles (plus any :meth:`profiled`
    parent sections).
    """

    def __init__(self) -> None:
        self._parts: List[Dict[FuncKey, _StatValue]] = []

    def add(self, stats: Dict[FuncKey, _StatValue]) -> None:
        """Merge one raw stats mapping (typically shipped from a worker)."""
        self._parts.append(stats)

    def profiled(self, fn: Callable[[], _R]) -> _R:
        """Run ``fn()`` under cProfile in this process and collect it."""
        result, stats = capture_stats(fn)
        self.add(stats)
        return result

    @property
    def sources(self) -> int:
        """How many stats mappings have been merged in."""
        return len(self._parts)

    def stats(self) -> Dict[FuncKey, _StatValue]:
        """The merged profile across every collected source."""
        return merge_stats(self._parts)

    def render(self, top: int = 15) -> str:
        """The top-N hotspot table for the merged profile."""
        return hotspot_table(self.stats(), top=top)


def _func_label(key: FuncKey) -> str:
    """Human-readable ``file:line(func)`` with a shortened path."""
    filename, line, name = key
    if filename == "~":  # C / built-in functions have no file
        return f"<built-in>({name})"
    return f"{os.path.basename(filename)}:{line}({name})"


def hotspot_table(
    stats: Dict[FuncKey, _StatValue], top: int = 15
) -> str:
    """Render the top-N functions by internal time as an aligned table.

    Columns mirror ``pstats`` (ncalls as ``total/primitive`` when they
    differ, tottime, percall, cumtime) so the output reads like the
    familiar profiler report, summed across every profiled process.
    """
    rows = []
    ranked = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)
    for key, (cc, nc, tt, ct, _callers) in ranked[:max(0, top)]:
        ncalls = str(nc) if nc == cc else f"{nc}/{cc}"
        percall = tt / nc if nc else 0.0
        rows.append([
            ncalls, f"{tt:.4f}", f"{percall:.6f}", f"{ct:.4f}",
            _func_label(key),
        ])
    headers = ["ncalls", "tottime", "percall", "cumtime", "function"]
    total_tt = sum(v[2] for v in stats.values())
    total_calls = sum(v[1] for v in stats.values())
    if not rows:
        return "profile: no calls recorded"
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in rows))
        for c in range(len(headers))
    ]
    lines = [
        f"profile: {total_calls} calls, {total_tt:.4f}s internal time, "
        f"top {len(rows)} by tottime",
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
    ]
    lines.extend(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows
    )
    return "\n".join(lines)


def collapsed_stacks(
    stats: Dict[FuncKey, _StatValue], scale: float = 1e6
) -> List[str]:
    """Folded-stack lines (``caller;callee value``) for flamegraph tools.

    ``value`` is the callee's internal time attributed to that caller
    edge, in microseconds (``scale=1e6``) rounded to an integer as the
    flamegraph format expects.  Root functions (no recorded caller)
    collapse to a single frame.  cProfile keeps caller *pairs* rather
    than full stacks, so frames are at most two deep; the totals still
    sum to the profile's internal time (modulo integer rounding), which
    keeps relative widths honest.
    """
    lines = []
    for key, (_cc, _nc, tt, _ct, callers) in sorted(stats.items()):
        label = _func_label(key)
        if not callers:
            value = int(round(tt * scale))
            if value > 0:
                lines.append(f"{label} {value}")
            continue
        # Attribute internal time across caller edges proportionally to
        # each edge's cumulative time, falling back to an even split when
        # cProfile recorded zero-duration edges.
        edge_ct = {c: v[3] for c, v in callers.items()}
        total_ct = sum(edge_ct.values())
        for caller in sorted(edge_ct):
            if total_ct > 0:
                share = tt * (edge_ct[caller] / total_ct)
            else:
                share = tt / len(edge_ct)
            value = int(round(share * scale))
            if value > 0:
                lines.append(f"{_func_label(caller)};{label} {value}")
    return lines


def write_collapsed(
    stats: Dict[FuncKey, _StatValue], path: str, scale: float = 1e6
) -> int:
    """Write the folded-stack export to ``path``; returns the line count."""
    lines = collapsed_stacks(stats, scale=scale)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)
