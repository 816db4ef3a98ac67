"""Accounting consistency: traces, counters, and cost invariants.

The machine exposes the same information through several views (critical
path cost, per-processor counters, event spans, edge words).  These tests
pin the invariants tying them together on real algorithm runs — if any
accounting path drifted, the reproduction's exactness claims would be
untrustworthy.
"""

import numpy as np
import pytest

from repro.algorithms import ProcessorGrid, run_alg1, run_cannon, run_summa
from repro.core import ProblemShape
from repro.machine import Cost
from repro.workloads import random_pair


@pytest.fixture
def alg1_run(rng):
    shape = ProblemShape(12, 12, 12)
    A, B = random_pair(shape, seed=11)
    return run_alg1(A, B, ProcessorGrid(2, 3, 2))


class TestTraceConsistency:
    def test_trace_cost_sums_to_machine_cost(self, alg1_run):
        m = alg1_run.machine
        total = sum((e.cost for e in m.spans.events()), Cost())
        assert total.words == pytest.approx(m.cost.words)
        assert total.rounds == m.cost.rounds

    def test_collective_events_cover_all_phases(self, alg1_run):
        kinds = [e.kind for e in alg1_run.machine.spans.events()]
        assert kinds.count("allgather") == 2
        assert kinds.count("reduce-scatter") == 1
        assert "distribute" in kinds
        assert "compute" in kinds

    def test_phase_words_sum_to_total(self, alg1_run):
        assert sum(alg1_run.phase_words.values()) == pytest.approx(
            alg1_run.cost.words
        )

    def test_edge_words_sum_to_total_words(self, alg1_run):
        m = alg1_run.machine
        assert sum(m.network.edge_words.values()) == pytest.approx(
            m.network.total_words
        )

    def test_sent_equals_received_globally(self, alg1_run):
        m = alg1_run.machine
        assert sum(m.network.sent_words) == pytest.approx(sum(m.network.recv_words))
        assert sum(m.network.sent_messages) == sum(m.network.recv_messages)

    def test_round_log_matches_counters(self, alg1_run):
        m = alg1_run.machine
        assert len(m.network.round_log) == m.network.rounds
        assert sum(r.max_words for r in m.network.round_log) == pytest.approx(
            m.network.critical_words
        )
        assert sum(r.total_words for r in m.network.round_log) == pytest.approx(
            m.network.total_words
        )

    def test_critical_words_at_most_total(self, alg1_run):
        m = alg1_run.machine
        assert m.network.critical_words <= m.network.total_words + 1e-9


class TestAcrossAlgorithms:
    @pytest.mark.parametrize("runner", ["alg1", "cannon", "summa"])
    def test_invariants_hold(self, rng, runner):
        A, B = rng.random((8, 8)), rng.random((8, 8))
        if runner == "alg1":
            m = run_alg1(A, B, ProcessorGrid(2, 2, 2)).machine
        elif runner == "cannon":
            m = run_cannon(A, B, 2).machine
        else:
            m = run_summa(A, B, 2, 2).machine
        net = m.network
        assert sum(net.sent_words) == pytest.approx(sum(net.recv_words))
        assert sum(net.edge_words.values()) == pytest.approx(net.total_words)
        assert len(net.round_log) == net.rounds
        # Max single-processor send volume never exceeds total.
        assert max(net.sent_words) <= net.total_words + 1e-9
