"""Checks of the benchmark harness itself.  Run with ``pytest benchmarks/e2e``.

Every test uses a handful of small ops, so the suite takes seconds.
"""

import json
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

from layers import LAYERS, ROOT, Tracer, _repro_modules  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


#: One cheap op per workload, different from its warm-up op.
TINY = {
    "largep-symbolic": Op("tiny", ((64, 32, 16), 16)),
    "sweep-data": Op("tiny", ((16, 12, 8), 4, "summa", 3)),
    "plan-cold": Op("tiny", ((96, 24, 6), 16)),
    "chaos-recover": Op("tiny", ("TWO_D", (32, 32, 4), 16, "alg1_abft", 1, 2)),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    workload = WORKLOADS[name]
    first = workload.inputs(7, 1)
    assert first == workload.inputs(7, 1)
    assert first != workload.inputs(8, 1)
    assert workload.warmup() not in first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_prefix_stable(name):
    workload = WORKLOADS[name]
    short = workload.inputs(3, 1)
    assert workload.inputs(3, 2)[:len(short)] == short


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_op_passes(name):
    workload = WORKLOADS[name]
    for op in (workload.warmup(), TINY[name]):
        outcome = workload.check(op, workload.run(op))
        assert outcome.problems == [], outcome.problems


def test_largep_points_land_in_their_case_on_their_grid():
    from repro.algorithms.grid_selection import select_grid
    from repro.core.cases import classify
    from repro.core.shapes import ProblemShape
    from workloads import _LARGEP_STRATA

    for op in WORKLOADS["largep-symbolic"].inputs(5, 1):
        dims, P = op.args
        case = int(op.id[1])
        shape = ProblemShape(*dims)
        assert classify(shape, P).value == case, op
        assert select_grid(shape, P).grid.dims == dict(_LARGEP_STRATA[case])[P], op


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_the_counts_unchanged(name):
    workload = WORKLOADS[name]
    op = TINY[name]
    plain = workload.check(op, workload.run(op))
    tracer = Tracer()
    with tracer.installed():
        result, _seconds = tracer.op(op.id, workload.run, op)
    assert workload.check(op, result).counts == plain.counts
    assert tracer.calls[ROOT] == 1


def test_self_times_add_up_to_the_root_spans():
    tracer = Tracer(keep_spans=True)
    with tracer.installed():
        for name in ("largep-symbolic", "chaos-recover"):
            tracer.op(name, WORKLOADS[name].run, TINY[name])
    roots = [s for s in tracer.spans if s[1] == ROOT]
    total = sum(end - start for _id, _l, _n, start, end, _p, _op in roots)
    assert len(roots) == 2
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=0.01)
    ids = {s[0] for s in tracer.spans}
    assert all(s[5] in ids for s in tracer.spans if s[1] != ROOT)
    for layer in ("machine.message", "machine.network", "collectives.schedules",
                  "algorithms.registry", "machine.faults", "machine.recovery"):
        assert tracer.calls[layer] > 0, layer


def _bindings():
    classes = set()
    for targets, _moves in LAYERS.values():
        for target in targets:
            module_name, qualname = target.split(":")
            if "." in qualname:
                classes.add((module_name, qualname.split(".")[0]))
    state = {}
    for mod in _repro_modules():
        for attr, value in vars(mod).items():
            state[(mod.__name__, attr)] = value
    for module_name, cls_name in classes:
        cls = getattr(sys.modules[module_name], cls_name)
        for attr, value in vars(cls).items():
            state[(module_name, cls_name, attr)] = value
    return state


def test_every_binding_is_restored_even_when_the_op_raises():
    import importlib

    import numpy as np
    from repro.exceptions import InvalidProblemError

    # ``repro.analysis.sweep`` the attribute is the function; fetch the module.
    sweep_module = importlib.import_module("repro.analysis.sweep")

    original = sweep_module.run_algorithm
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(InvalidProblemError):
        with tracer.installed():
            assert sweep_module.run_algorithm is not original
            # Inner dimensions disagree: raises inside the wrapped call.
            tracer.op("bad", sweep_module.run_algorithm, "alg1",
                      np.ones((4, 4)), np.ones((5, 4)), 4)
    assert tracer.calls["algorithms.registry"] == 1
    after = _bindings()
    assert sweep_module.run_algorithm is original
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed0_opening_ops_match_the_pinned_digests(name):
    with open(run.EXPECTED / f"{name}.json") as fh:
        pinned = json.load(fh)["op_sha256"]
    workload = WORKLOADS[name]
    for i, op in enumerate(workload.inputs(0, 1)[:2]):
        counts = workload.check(op, workload.run(op)).counts
        assert run._hash(counts)[:16] == pinned[i], op


def test_missing_sources_exit_2_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "plan-cold", "--seed", "0"]) == 2
    assert capsys.readouterr().out == ""
