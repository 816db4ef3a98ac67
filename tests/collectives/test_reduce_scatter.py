"""Tests for Reduce-Scatter schedules: numerics, costs, flop charging."""

import numpy as np
import pytest

from repro.collectives import (
    reduce_scatter_cost,
    reduce_scatter_ring,
    reduce_scatter_schedule,
    run_schedule,
)
from repro.exceptions import CommunicatorError
from repro.machine import Machine


def make_blocks(group, block_words, seed=3):
    rng = np.random.default_rng(seed)
    return {r: [rng.random(block_words) for _ in group] for r in group}


def run_rs(P, block_words, algorithm, charge_flops=True):
    m = Machine(P)
    group = tuple(range(P))
    blocks = make_blocks(group, block_words)
    sched = reduce_scatter_schedule(
        group, blocks, machine=m if charge_flops else None, algorithm=algorithm
    )
    result = run_schedule(m, sched)
    return m, group, blocks, result


class TestNumerics:
    @pytest.mark.parametrize("P", [1, 2, 3, 4, 5, 7, 8])
    def test_ring_sums_each_block_to_its_owner(self, P):
        _, group, blocks, result = run_rs(P, 3, "ring")
        for j, r in enumerate(group):
            expected = sum(blocks[s][j] for s in group)
            assert np.allclose(result[r], expected)

    @pytest.mark.parametrize("P", [1, 2, 4, 8, 16])
    def test_recursive_halving_matches_ring(self, P):
        _, group, blocks, res_rh = run_rs(P, 3, "recursive_halving")
        for j, r in enumerate(group):
            expected = sum(blocks[s][j] for s in group)
            assert np.allclose(res_rh[r], expected)

    def test_ragged_blocks_within_rank(self):
        # Block j may have a different size from block j', as long as every
        # rank agrees — this is what Alg 1 uses for non-divisible shards.
        m = Machine(3)
        group = (0, 1, 2)
        sizes = [4, 2, 1]
        rng = np.random.default_rng(0)
        blocks = {r: [rng.random(s) for s in sizes] for r in group}
        result = run_schedule(m, reduce_scatter_ring(group, blocks))
        for j, r in enumerate(group):
            assert result[r].size == sizes[j]
            assert np.allclose(result[r], sum(blocks[s][j] for s in group))


class TestCosts:
    @pytest.mark.parametrize("P", [2, 3, 5, 8, 12])
    def test_ring_cost_exact(self, P):
        m, _, _, _ = run_rs(P, 4, "ring")
        expected = reduce_scatter_cost(P, 4 * P, algorithm="ring")
        assert m.cost.words == expected.words
        assert m.cost.rounds == expected.rounds == P - 1

    @pytest.mark.parametrize("P", [2, 4, 8, 16])
    def test_recursive_halving_cost_exact(self, P):
        m, _, _, _ = run_rs(P, 4, "recursive_halving")
        expected = reduce_scatter_cost(P, 4 * P, algorithm="recursive_halving")
        assert m.cost.words == expected.words
        assert m.cost.rounds == expected.rounds

    @pytest.mark.parametrize("P,alg", [(5, "ring"), (8, "recursive_halving")])
    def test_reduction_flops_charged(self, P, alg):
        m, _, _, _ = run_rs(P, 4, alg)
        # Every received partial is added once: (1 - 1/P) * W per processor,
        # and all processors do it in parallel, so the critical path matches.
        expected = reduce_scatter_cost(P, 4 * P, algorithm=alg)
        assert m.cost.flops == expected.flops

    def test_no_machine_no_flops(self):
        m, _, _, _ = run_rs(5, 4, "ring", charge_flops=False)
        assert m.cost.flops == 0.0

    def test_singleton_group_is_free(self):
        m, _, blocks, result = run_rs(1, 4, "ring")
        assert m.cost.is_zero()
        assert np.allclose(result[0], blocks[0][0])


class TestValidation:
    def test_wrong_block_count_rejected(self):
        group = (0, 1, 2)
        blocks = {r: [np.zeros(2)] * 2 for r in group}  # should be 3 each
        with pytest.raises(CommunicatorError, match="expected one per group member"):
            run_schedule(Machine(3), reduce_scatter_ring(group, blocks))

    def test_shape_mismatch_across_ranks_rejected(self):
        group = (0, 1)
        blocks = {0: [np.zeros(2), np.zeros(2)], 1: [np.zeros(3), np.zeros(2)]}
        with pytest.raises(CommunicatorError, match="shapes differ"):
            run_schedule(Machine(2), reduce_scatter_ring(group, blocks))

    def test_recursive_halving_rejects_non_power_of_two(self):
        with pytest.raises(CommunicatorError, match="power-of-two"):
            run_rs(6, 2, "recursive_halving")

    def test_missing_rank_rejected(self):
        with pytest.raises(CommunicatorError, match="no input blocks"):
            run_schedule(
                Machine(2), reduce_scatter_ring((0, 1), {0: [np.zeros(1)] * 2})
            )
