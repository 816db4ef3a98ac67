"""An attached all-zero-probability fault model is observably absent.

The fault layer's first invariant: attaching an injector whose model can
never materialize a fault must not perturb *anything* — costs, numerics,
span traces, or metrics exports are byte-identical to a machine with no
injector at all.  Hypothesis drives random shapes across all three
Theorem 3 cases, random algorithms, and random model seeds (the decision
stream is drawn but every draw lands on "none").
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import REGISTRY, run_algorithm
from repro.core.cases import Regime, classify
from repro.core.shapes import ProblemShape
from repro.machine.faults import FaultModel, inject
from repro.obs.metrics import update_machine_gauges

#: Divisibility-safe shape templates per Theorem 3 case, scaled by a
#: Hypothesis-drawn multiplier.  Every template classifies into its case
#: for every multiplier (pinned by test_templates_classify).
TEMPLATES = {
    Regime.ONE_D: lambda m: (ProblemShape(64 * m, 4, 4), 4),
    Regime.TWO_D: lambda m: (ProblemShape(32 * m, 32 * m, 4), 16),
    Regime.THREE_D: lambda m: (ProblemShape(16 * m, 16 * m, 16 * m), 4),
}

#: A cross-section of the registry: the universal algorithm, grid and
#: recursive families, and both ABFT variants.
CANDIDATES = ("alg1", "summa", "cannon", "carma", "alg1_abft", "summa_abft")


def test_templates_classify():
    for regime, template in TEMPLATES.items():
        for m in (1, 2):
            shape, P = template(m)
            assert classify(shape, P) is regime


def _span_records(machine):
    return [span.to_record() for span in machine.spans.iter_spans()]


def _metrics_export(machine):
    update_machine_gauges(machine)
    return machine.metrics.collect()


@settings(max_examples=24, deadline=None)
@given(data=st.data())
def test_zero_probability_model_is_byte_identical_to_no_injector(data):
    regime = data.draw(st.sampled_from(sorted(Regime, key=lambda r: r.value)),
                       label="regime")
    m = data.draw(st.integers(min_value=1, max_value=2), label="multiplier")
    shape, P = TEMPLATES[regime](m)
    name = data.draw(st.sampled_from(CANDIDATES), label="algorithm")
    assume(REGISTRY[name].applicable(shape, P))
    model_seed = data.draw(st.integers(min_value=0, max_value=2**16),
                           label="model_seed")

    rng = np.random.default_rng(11)
    A = rng.random((shape.n1, shape.n2))
    B = rng.random((shape.n2, shape.n3))

    clean = run_algorithm(name, A, B, P)
    model = FaultModel(seed=model_seed, drop=0.0, corrupt=0.0,
                       duplicate=0.0, stall=0.0)
    with inject(model) as injector:
        zeroed = run_algorithm(name, A, B, P)

    # The injector was attached and drawing, but nothing materialized.
    assert zeroed.machine.fault_injector is injector
    assert injector.faults_injected == 0
    assert injector.retries == 0
    assert injector.words_resent == 0.0
    assert injector.recoveries == 0

    # Costs, numerics, traces and metrics exports: byte-identical.
    assert zeroed.cost == clean.cost
    assert zeroed.config == clean.config
    assert np.array_equal(np.asarray(zeroed.C), np.asarray(clean.C))
    assert _span_records(zeroed.machine) == _span_records(clean.machine)
    assert _metrics_export(zeroed.machine) == _metrics_export(clean.machine)
