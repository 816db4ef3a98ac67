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
  the measured words never beat the Theorem-3 bound.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.carma import run_carma
from repro.algorithms.carma_counts import carma_counts
from repro.algorithms.registry import applicable_algorithms, run_algorithm
from repro.analysis.oracle import _carma_replay, oracle_supported
from repro.analysis.verification import cross_check_oracle
from repro.core.lower_bounds import communication_lower_bound
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
