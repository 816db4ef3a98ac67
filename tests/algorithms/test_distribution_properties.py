"""Property-based tests for distribution and grid invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms import ProcessorGrid, block_bounds, shard_bounds
from repro.algorithms.distributions import distribute_inputs
from repro.machine import Machine

extents = st.integers(min_value=1, max_value=40)
parts_strategy = st.integers(min_value=1, max_value=12)


@settings(max_examples=100, deadline=None)
@given(extent=extents, parts=parts_strategy)
def test_block_bounds_tile_exactly(extent, parts):
    """Blocks partition [0, extent) with sizes differing by at most one."""
    if parts > extent:
        return
    covered = []
    sizes = []
    for i in range(parts):
        lo, hi = block_bounds(extent, parts, i)
        covered.extend(range(lo, hi))
        sizes.append(hi - lo)
    assert covered == list(range(extent))
    assert max(sizes) - min(sizes) <= 1


@settings(max_examples=100, deadline=None)
@given(words=st.integers(0, 60), parts=parts_strategy)
def test_shard_bounds_tile_exactly(words, parts):
    covered = []
    for i in range(parts):
        lo, hi = shard_bounds(words, parts, i)
        covered.extend(range(lo, hi))
    assert covered == list(range(words))


grid_dims = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(dims=grid_dims)
def test_fibers_partition_ranks(dims):
    grid = ProcessorGrid(*dims)
    for axis in (1, 2, 3):
        seen = sorted(r for g in grid.fibers(axis) for r in g)
        assert seen == list(range(grid.size))


@settings(max_examples=60, deadline=None)
@given(dims=grid_dims)
def test_rank_coordinate_bijection(dims):
    grid = ProcessorGrid(*dims)
    coords = {grid.coord(r) for r in range(grid.size)}
    assert len(coords) == grid.size
    for c in coords:
        assert grid.coord(grid.rank(c)) == c


@settings(max_examples=40, deadline=None)
@given(dims=grid_dims, seed=st.integers(0, 2**31 - 1))
def test_distribution_conserves_every_word(dims, seed):
    """One copy in, one copy distributed: total shard words == matrix words,
    and reassembling all shards recovers the exact operand values."""
    p1, p2, p3 = dims
    n1, n2, n3 = p1 * 2, p2 * 2, p3 * 2
    rng = np.random.default_rng(seed)
    A, B = rng.random((n1, n2)), rng.random((n2, n3))
    grid = ProcessorGrid(*dims)
    m = Machine(grid.size)
    distribute_inputs(m, grid, A, B)

    total_a = np.concatenate(
        [m.proc(r).store["A_shard"] for r in range(grid.size)]
    )
    total_b = np.concatenate(
        [m.proc(r).store["B_shard"] for r in range(grid.size)]
    )
    assert total_a.size == A.size
    assert total_b.size == B.size
    # Value conservation (multiset equality via sorting).
    assert np.allclose(np.sort(total_a), np.sort(A.reshape(-1)))
    assert np.allclose(np.sort(total_b), np.sort(B.reshape(-1)))
