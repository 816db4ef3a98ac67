"""Cross-backend equality: the symbolic backend's accounting is exact.

The backend seam's core claim is that a symbolic run charges *identical*
costs to a data run — total words/rounds/flops, every per-rank counter,
peak memory, attainment — with only the numerics dropped.  These tests
check that claim for every registry algorithm over a randomized set of
(shape, P) points spanning all three Theorem 3 cases, then exercise the
production-scale sweep the seam exists to enable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.large_p import LargePPoint, run_large_p_sweep
from repro.analysis.sweep import sweep
from repro.analysis.verification import cross_check_backends, machine_accounting
from repro.algorithms.alg1 import run_alg1
from repro.algorithms.grid import ProcessorGrid
from repro.algorithms.registry import REGISTRY, applicable_algorithms
from repro.collectives.schedules import is_power_of_two
from repro.core.cases import Regime, classify
from repro.core.shapes import ProblemShape
from repro.exceptions import BoundViolationError
from repro.machine.backend import SymbolicBlock
from repro.machine.faults import FaultModel
from repro.machine.machine import Machine

_REGIME_CASE = {Regime.ONE_D: 1, Regime.TWO_D: 2, Regime.THREE_D: 3}

#: Candidate dimension/P pools per Theorem 3 case; actual points are drawn
#: with a fixed-seed RNG and rejected unless they classify into their case.
_CASE_POOLS = {
    1: dict(n1=(48, 64, 96, 128), n2=(2, 4), n3=(2, 4), P=(2, 4)),
    2: dict(n1=(32, 48, 64), n2=(32, 48, 64), n3=(2, 4), P=(16,)),
    3: dict(n1=(16, 24, 32), n2=(16, 24, 32), n3=(16, 24, 32), P=(16, 64)),
}


def _randomized_points(seed=20220722, per_case=4):
    """>= per_case randomized (case, shape, P) points per Theorem 3 case."""
    rng = np.random.default_rng(seed)
    points = []
    seen = set()
    for case, pool in sorted(_CASE_POOLS.items()):
        got = 0
        while got < per_case:
            shape = ProblemShape(
                int(rng.choice(pool["n1"])),
                int(rng.choice(pool["n2"])),
                int(rng.choice(pool["n3"])),
            )
            P = int(rng.choice(pool["P"]))
            key = (shape.dims, P)
            if key in seen or _REGIME_CASE[classify(shape, P)] != case:
                continue
            seen.add(key)
            points.append((case, shape, P))
            got += 1
    return points


POINTS = _randomized_points()

PAIRS = [
    pytest.param(
        algorithm, shape, P,
        id=f"case{case}-{algorithm}-{shape.n1}x{shape.n2}x{shape.n3}-P{P}",
    )
    for case, shape, P in POINTS
    for algorithm in applicable_algorithms(shape, P)
]


def test_point_set_spans_every_case_and_algorithm():
    assert len(POINTS) >= 12
    assert {case for case, _, _ in POINTS} == {1, 2, 3}
    covered = set()
    for _, shape, P in POINTS:
        covered.update(applicable_algorithms(shape, P))
    assert covered == set(REGISTRY)


@pytest.mark.parametrize("algorithm, shape, P", PAIRS)
def test_symbolic_accounting_equals_data_accounting(algorithm, shape, P):
    check = cross_check_backends(algorithm, shape, P, seed=0)
    assert check.verified_numerics
    assert check.cost.words >= 0


def test_cross_check_covers_collective_variants():
    shape = ProblemShape(32, 32, 32)
    for collective in ("ring", "recursive_doubling", "bruck"):
        check = cross_check_backends(
            "alg1", shape, 64, collective_algorithm=collective
        )
        assert check.verified_numerics


class TestSymbolicSweep:
    def test_records_tagged_and_unverified(self):
        shape = ProblemShape(48, 48, 48)
        sym = sweep([shape], [64], algorithms=["alg1"], backend="symbolic")
        dat = sweep([shape], [64], algorithms=["alg1"], backend="data")
        assert sym[0].backend == "symbolic"
        assert sym[0].correct is None
        assert dat[0].backend == "data"
        assert dat[0].correct is True
        for field in ("words", "rounds", "flops", "bound", "gap_ratio"):
            assert getattr(sym[0], field) == getattr(dat[0], field)


class TestLargeP:
    # Scaled-down stand-ins for LARGE_P_POINTS: same exact-divisibility
    # construction (attainment lands on the bound), tier-1-friendly runtime.
    FAST_POINTS = (
        LargePPoint(case=1, shape=ProblemShape(4096, 16, 16), P=256),
        LargePPoint(case=2, shape=ProblemShape(512, 512, 2), P=256),
        LargePPoint(case=3, shape=ProblemShape(2000, 800, 500), P=800),
    )

    def test_attains_bound_in_every_case(self):
        results = run_large_p_sweep(points=self.FAST_POINTS)
        assert [r.point.case for r in results] == [1, 2, 3]
        for r in results:
            assert r.tight
            assert r.constant == float(r.point.case)
            assert r.record.backend == "symbolic"

    def test_misdeclared_case_rejected(self):
        bad = LargePPoint(case=3, shape=ProblemShape(4096, 16, 16), P=256)
        with pytest.raises(BoundViolationError):
            run_large_p_sweep(points=(bad,))


# ---------------------------------------------------------------------- #
# Algorithm 1 on explicit grids: data == symbolic, every fallback too    #
# ---------------------------------------------------------------------- #

#: Settings that force the symbolic run off the rank-array replay and
#: through the stores; none of them may change a count.
_FALLBACKS = (None, "alltoall", "memory_limit", "faults")


@st.composite
def _alg1_configs(draw):
    dims = tuple(draw(st.integers(1, 48)) for _ in range(3))
    p1 = draw(st.integers(1, min(dims[0], 64)))
    p2 = draw(st.integers(1, min(dims[1], 64 // p1)))
    p3 = draw(st.integers(1, min(dims[2], 64 // (p1 * p2))))
    collectives = ["auto", "ring", "bruck"]
    if all(is_power_of_two(p) for p in (p1, p2, p3)):
        collectives.append("recursive_doubling")
    return (
        dims,
        ProcessorGrid(p1, p2, p3),
        draw(st.sampled_from(collectives)),
        draw(st.booleans()),
        draw(st.sampled_from(_FALLBACKS)),
    )


def _alg1_run(A, B, grid, collective, keep_blocks, fallback, backend):
    machine = Machine(
        grid.size,
        backend=backend,
        memory_limit=10**9 if fallback == "memory_limit" else None,
        faults=FaultModel() if fallback == "faults" else None,
    )
    return run_alg1(
        A, B, grid, machine=machine, collective_algorithm=collective,
        keep_blocks=keep_blocks,
        final_phase="alltoall" if fallback == "alltoall" else "reduce_scatter",
    )


def _span_tree(result):
    return [
        (s.name, s.kind, s.event, s.depth, s.cost)
        for s in result.machine.spans.iter_spans()
    ]


@settings(max_examples=200)
@given(config=_alg1_configs())
def test_alg1_data_equals_symbolic_on_explicit_grids(config):
    dims, grid, collective, keep_blocks, fallback = config
    rng = np.random.default_rng(sum(dims))
    A, B = rng.random(dims[:2]), rng.random(dims[1:])
    args = (grid, collective, keep_blocks, fallback)
    data = _alg1_run(A, B, *args, backend="data")
    assert np.allclose(data.C, A @ B)
    symbolic = _alg1_run(
        SymbolicBlock(dims[:2]), SymbolicBlock(dims[1:]), *args, backend="symbolic"
    )
    assert symbolic.C.shape == data.C.shape
    assert symbolic.attainment == data.attainment
    assert symbolic.phase_words == data.phase_words
    assert _span_tree(symbolic) == _span_tree(data)
    assert machine_accounting(symbolic.machine) == machine_accounting(data.machine)
    if fallback in ("memory_limit", "faults"):
        # A limit no run reaches and a model that injects nothing leave
        # every count as the rank-array replay charges it.
        replay = _alg1_run(
            SymbolicBlock(dims[:2]), SymbolicBlock(dims[1:]), grid, collective,
            keep_blocks, None, backend="symbolic",
        )
        assert machine_accounting(replay.machine) == machine_accounting(symbolic.machine)
