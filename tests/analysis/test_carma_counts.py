"""CARMA's per-level counts: pinned values, one predicate, and the simulator.

:func:`repro.algorithms.carma_counts.carma_counts` computes CARMA's
``(rounds, words, flops, splits)`` from slab-overlap arithmetic per rank
and level, without replaying any geometry.  The contract under test:

* the counts equal values pinned from the earlier rectangle-list replay,
  ragged slabs included, and both typed refusals keep their text;
* the registry's ``carma`` applicability and the oracle's refusal are the
  same predicate, and every point the registry lists runs to completion;
* on random ragged shapes, registry-applicable, oracle-accepted and
  run-finishes coincide, a refused point fails in the simulator with the
  error its reason names, the oracle matches the simulator exactly, and
  the measured words never beat the Theorem-3 bound;
* for every registry algorithm on random ragged shapes: every applicable
  run finishes, it matches the oracle exactly wherever the oracle accepts
  (the known ``alg1_abft`` ragged-C points are strict xfails), and its
  most-loaded rank accesses at least the Theorem-3 ``D``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.abft import alg1_abft_grid
from repro.algorithms.carma import run_carma
from repro.algorithms.carma_counts import carma_counts
from repro.algorithms.registry import applicable_algorithms, run_algorithm
from repro.analysis.oracle import _carma_replay, oracle_supported, predict_cost
from repro.analysis.verification import cross_check_oracle
from repro.core.lower_bounds import communication_lower_bound, memory_independent_bound
from repro.core.shapes import ProblemShape
from repro.exceptions import GridError, InvalidMessageError, OracleUnsupportedError
from repro.machine.backend import SymbolicBlock

#: ``(dims, P) -> (rounds, words, flops, splits)`` as the rectangle-list
#: replay computed them.
PINNED = [
    ((3072, 1024, 5), 1024, (14, 13486, 15585, 1023)),
    ((1000, 1000, 1000), 256, (10, 141895, 3918125, 255)),
    ((2048, 2048, 2048), 512, (12, 369364, 16834560, 511)),
    ((96, 80, 40), 32, (7, 2156, 9960, 31)),
    ((4096, 512, 64), 64, (7, 57000, 2101248, 63)),
    ((72, 72, 288), 8, (3, 8472, 186624, 7)),
    ((48, 40, 80), 16, (5, 1744, 9840, 15)),
]

REFUSED = [
    ((160, 160, 4), 64, "empty message"),
    ((200, 136, 24), 64, "empty message"),
    ((100, 68, 12), 32, "odd dimension"),
]


@pytest.mark.parametrize("dims, P, expected", PINNED)
def test_counts_match_pinned_replay(dims, P, expected):
    assert _carma_replay(ProblemShape(*dims), P) == expected


@pytest.mark.parametrize("dims, P, reason", REFUSED)
def test_refusals_keep_their_reason(dims, P, reason):
    with pytest.raises(OracleUnsupportedError, match=reason):
        _carma_replay(ProblemShape(*dims), P)


@pytest.mark.parametrize("dims, P", [(d, P) for d, P, r in REFUSED if r == "empty message"])
def test_registry_drops_empty_message_points(dims, P):
    shape = ProblemShape(*dims)
    names = applicable_algorithms(shape, P)
    assert "carma" not in names
    for name in names:
        run = run_algorithm(name, SymbolicBlock((shape.n1, shape.n2)),
                            SymbolicBlock((shape.n2, shape.n3)), P)
        assert run.cost.words > 0
    # The simulator itself rejects the schedule the registry now skips.
    with pytest.raises(InvalidMessageError):
        run_carma(SymbolicBlock((shape.n1, shape.n2)),
                  SymbolicBlock((shape.n2, shape.n3)), P)


def _smooth(odd: int, e: int) -> int:
    return odd << e


_dims = st.builds(_smooth, st.sampled_from([1, 1, 3, 5, 7, 9, 15]),
                  st.integers(0, 8)).filter(lambda n: n <= 256)


@settings(max_examples=200)
@given(n1=_dims, n2=_dims, n3=_dims, P=st.sampled_from([2, 4, 8, 16, 32, 64]))
def test_registry_oracle_and_simulator_agree(n1, n2, n3, P):
    shape = ProblemShape(n1, n2, n3)
    applicable = "carma" in applicable_algorithms(shape, P)
    assert applicable == oracle_supported("carma", shape, P)
    if not applicable:
        # The refusal names the failure the simulator meets: an empty
        # message is rejected by the network, every other reason by the
        # grid checks.
        reason = carma_counts(shape.dims, P)
        error = InvalidMessageError if "empty message" in reason else GridError
        with pytest.raises(error):
            run_carma(SymbolicBlock((n1, n2)), SymbolicBlock((n2, n3)), P)
        return
    check = cross_check_oracle("carma", shape, P, backend="symbolic")
    assert check.cost.words >= communication_lower_bound(shape, P) * (1 - 1e-12)


# --------------------------------------------------------------------- #
# every registry algorithm: finishes, matches the oracle, respects D    #
# --------------------------------------------------------------------- #


def _ragged_c_reduce_scatter(name, shape, P):
    """``alg1_abft``'s C block does not split evenly over its ``p2`` fiber:
    the oracle prices the ring with the floor shard, the simulator moves
    the largest one (ROADMAP.md, first open item)."""
    if name != "alg1_abft":
        return False
    p1, p2, p3 = alg1_abft_grid(shape, P).dims
    return p2 > 1 and ((shape.n1 // p1) * (shape.n3 // p3)) % p2 != 0


def _run_within_d(name, shape, P):
    """Run ``name`` symbolically; its most-loaded rank must access ``D``.

    Theorem 3: some processor accesses at least ``D`` words.  A rank
    accesses its ``(mn + mk + nk) / P`` share of the data plus what it
    receives.
    """
    run = run_algorithm(name, SymbolicBlock((shape.n1, shape.n2)),
                        SymbolicBlock((shape.n2, shape.n3)), P)
    bound = memory_independent_bound(shape, P)
    accessed = bound.owned + float(run.machine.network.recv_words.max())
    assert accessed >= bound.accessed * (1 - 1e-12), (name, accessed, bound.accessed)
    return run


def _counts(cost, config):
    return cost.words, cost.rounds, cost.flops, config


@settings(max_examples=40)
@given(n1=st.integers(1, 48), n2=st.integers(1, 48), n3=st.integers(1, 48),
       P=st.integers(1, 32))
def test_every_registry_algorithm_is_sound(n1, n2, n3, P):
    shape = ProblemShape(n1, n2, n3)
    for name in applicable_algorithms(shape, P):
        run = _run_within_d(name, shape, P)
        # The known alg1_abft mismatches are pinned below as strict xfails.
        if oracle_supported(name, shape, P) and not _ragged_c_reduce_scatter(name, shape, P):
            predicted = predict_cost(name, shape, P)
            assert _counts(run.cost, run.config) == _counts(predicted.cost, predicted.config), name


#: ``alg1_abft`` points where the oracle undercounts the ragged C
#: reduce-scatter; a fix must delete the xfail mark.
_ALG1_ABFT_RAGGED_C = [((1, 39, 13), 3), ((10, 29, 7), 29), ((9, 32, 2), 4),
                       ((17, 60, 17), 3), ((16, 24, 7), 6)]


@pytest.mark.parametrize("dims, P", _ALG1_ABFT_RAGGED_C)
def test_alg1_abft_ragged_c_points_run_within_d(dims, P):
    shape = ProblemShape(*dims)
    assert "alg1_abft" in applicable_algorithms(shape, P)
    assert oracle_supported("alg1_abft", shape, P)
    assert _ragged_c_reduce_scatter("alg1_abft", shape, P)
    _run_within_d("alg1_abft", shape, P)


@pytest.mark.parametrize("dims, P", _ALG1_ABFT_RAGGED_C)
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="alg1_abft ragged C reduce-scatter (ROADMAP.md)")
def test_alg1_abft_ragged_c_points_match_the_oracle(dims, P):
    shape = ProblemShape(*dims)
    run = run_algorithm("alg1_abft", SymbolicBlock(dims[:2]), SymbolicBlock(dims[1:]), P)
    predicted = predict_cost("alg1_abft", shape, P)
    assert _counts(run.cost, run.config) == _counts(predicted.cost, predicted.config)
