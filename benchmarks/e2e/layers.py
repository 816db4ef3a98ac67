"""Per-layer call counts and self time, measured from outside the program.

:meth:`Tracer.installed` replaces each wrapped callable with a timing
wrapper: methods on their class, module functions in every ``repro.*``
module that holds them by name (callers import functions by name), and
restores every original on exit, also when the traced code raised.
Nothing under ``src/`` changes.

Only calls made inside :meth:`Tracer.op` are timed, so the benchmark's own
checks never count against a layer.  A span's self time is its duration
minus the durations of the wrapped spans directly inside it; the root span
of each op is the ``op`` layer, whose self time is the public call's time
outside every wrapped layer.  Self times therefore add up to the ops'
total duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "ROOT", "Tracer"]

ROOT = "op"

#: layer -> (wrapped callables as ``module:function`` or
#: ``module:Class.method``, the end-to-end metric and workload it should
#: move).  Written down before any measurement, as the comparison
#: protocol in README.md requires.
LAYERS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "machine.message": (
        ("repro.machine.message:Message.__init__",),
        "largep-symbolic op_p50_s and peak_rss_mb"),
    "machine.network": (
        ("repro.machine.network:FullyConnectedNetwork.execute_round",),
        "largep-symbolic op_p50_s; must not move chaos-recover ops_per_s"),
    "machine.backend": (
        tuple(f"repro.machine.backend:SymbolicBlock.{m}" for m in
              ("reshape", "__getitem__", "__matmul__", "__array_function__")),
        "largep-symbolic op_p50_s"),
    "collectives.schedules": (
        ("repro.collectives.schedules:run_schedules",),
        "largep-symbolic op_p50_s and sweep-data op_p90_s"),
    "algorithms.registry": (
        ("repro.algorithms.registry:run_algorithm",),
        "sweep-data op_p50_s"),
    "obs": (
        ("repro.machine.machine:Machine.snapshot",
         "repro.obs.attainment:record_attainment",
         "repro.machine.machine:Machine.rank_skew"),
        "sweep-data op_p50_s and largep-symbolic op_p50_s"),
    "analysis.verification": (
        ("repro.analysis.verification:check_cost_against_bound",),
        "sweep-data op_p50_s"),
    "algorithms.grid_selection": (
        ("repro.algorithms.grid_selection:select_grid",),
        "plan-cold op_p50_s"),
    "analysis.oracle_vec": (
        ("repro.analysis.oracle_vec:predict_batch",),
        "plan-cold op_p50_s"),
    "analysis.oracle": (
        ("repro.analysis.oracle:predict_cost",
         "repro.analysis.oracle:_carma_replay"),
        "plan-cold op_p90_s"),
    "analysis.plan": (
        ("repro.analysis.plan:plan",),
        "plan-cold ops_per_s"),
    "machine.faults": (
        ("repro.machine.faults:FaultInjector.decide",),
        "chaos-recover ops_per_s"),
    "machine.recovery": (
        tuple(f"repro.machine.recovery:RecoveryManager.{m}" for m in
              ("begin_attempt", "on_failure", "revive")),
        "chaos-recover ops_per_s"),
    "machine.checkpoint": (
        ("repro.machine.checkpoint:CheckpointManager.checkpoint",
         "repro.machine.checkpoint:CheckpointManager.restore"),
        "chaos-recover ops_per_s"),
}

#: The layer whose wrapper also counts the messages of each network round.
_ROUND_LAYER = "machine.network"
#: Spans kept in memory with ``keep_spans`` (about 200 bytes each); an op
#: that starts past this many keeps none, so every kept op is whole.
SPAN_LIMIT = 200_000


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Span bookkeeping for one traced pass.

    ``calls`` and ``self_s`` are keyed by layer.  ``messages`` and
    ``rounds`` count what :class:`FullyConnectedNetwork` executed.  With
    ``keep_spans`` the spans of the first ops, up to :data:`SPAN_LIMIT`,
    are also kept in memory as ``(id, layer, name, start, end, parent,
    op)`` for :meth:`write_spans`.
    """

    def __init__(self, keep_spans: bool = False) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.messages = 0
        self.rounds = 0
        self.spans: Optional[List[tuple]] = [] if keep_spans else None
        self._stack: List[list] = []  # [start, child seconds, span id]
        self._next_id = 0
        self._op_id = ""
        self._keeping = False
        self._patches: List[Tuple[Any, str, Any]] = []
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}  # id -> (wrapper, original)

    # -- spans ----------------------------------------------------------- #

    def _enter(self) -> list:
        frame = [0.0, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _exit(self, frame: list, layer: str, name: str) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        self.self_s[layer] += duration - frame[1]
        self.calls[layer] += 1
        parent = None
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][2]
        if self._keeping:
            self.spans.append((frame[2], layer, name, frame[0], end, parent,
                               self._op_id))
        return duration

    def op(self, op_id: str, fn: Callable[..., Any], *args: Any):
        """Run ``fn(*args)`` as the root span of op ``op_id``.

        Returns ``(result, seconds)``; an exception propagates after the
        span is closed.
        """
        self._op_id = op_id
        self._keeping = self.spans is not None and len(self.spans) < SPAN_LIMIT
        frame = self._enter()
        try:
            result = fn(*args)
        finally:
            seconds = self._exit(frame, ROOT, op_id)
        return result, seconds

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        stack = self._stack
        enter, exit_ = self._enter, self._exit
        if layer == _ROUND_LAYER:
            def wrapper(network, messages):
                if not stack:
                    return fn(network, messages)
                msgs = list(messages)
                self.messages += len(msgs)
                self.rounds += bool(msgs)
                frame = enter()
                try:
                    return fn(network, msgs)
                finally:
                    exit_(frame, layer, name)
        else:
            def wrapper(*args, **kwargs):
                if not stack:
                    return fn(*args, **kwargs)
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame, layer, name)
        functools.update_wrapper(wrapper, fn)
        self._wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    # -- patching -------------------------------------------------------- #

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self) -> None:
        for layer, (targets, _moves) in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, attr,
                                self._wrap(layer, qualname, owner.__dict__[attr]))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, qualname, original)
                for mod in _repro_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # A module first imported while patched bound a wrapper by name.
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                wrapper, original = self._wrappers.get(id(value), (None, None))
                if value is wrapper:
                    setattr(mod, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    # -- output ---------------------------------------------------------- #

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines, one span per line."""
        keys = ("id", "layer", "name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            for span in self.spans or ():
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
