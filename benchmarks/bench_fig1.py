"""Experiment F1 — regenerate Figure 1.

Figure 1 visualizes Algorithm 1 on a 3x3x3 grid, highlighting processor
(1, 3, 1) (0-based coordinate (0, 2, 0)): the input/output data it owns
(dark), the blocks it gathers from its three fibers (light), and the three
collectives it participates in.

This harness executes Algorithm 1 on a 27 x 27 x 27 problem with the
3x3x3 grid and reconstructs exactly that information from the machine
spans and stores: ownership sizes (1/27th of each matrix), the gathered
9x9 blocks A_{1,3} and B_{3,1}, the three fiber groups, and the words each
collective moved for this processor.
"""

import numpy as np
import pytest

from repro.algorithms import ProcessorGrid, run_alg1
from repro.analysis import format_table
from repro.core import ProblemShape
from repro.workloads import random_pair

GRID = ProcessorGrid(3, 3, 3)
SHAPE = ProblemShape(27, 27, 27)
COORD = (0, 2, 0)  # the paper's processor (1, 3, 1), 0-based


def run_figure1():
    A, B = random_pair(SHAPE, seed=131)
    res = run_alg1(A, B, GRID, keep_blocks=True)
    return A, B, res


def build_report(res):
    rank = GRID.rank(COORD)
    store = res.machine.proc(rank).store
    rows = [
        ["owns A shard (dark)", store["A_shard"].size],
        ["owns B shard (dark)", store["B_shard"].size],
        ["owns C shard (dark)", store["C_shard"].size],
        ["gathers A block A_{1,3} (light)", store["A_block"].size],
        ["gathers B block B_{3,1} (light)", store["B_block"].size],
        ["computes D contribution to C_{1,1}", 9 * 9],
    ]
    fiber_rows = [
        ["All-Gather A", "fiber (1, 3, :)", str(GRID.fiber(3, COORD))],
        ["All-Gather B", "fiber (:, 3, 1)", str(GRID.fiber(1, COORD))],
        ["Reduce-Scatter C", "fiber (1, :, 1)", str(GRID.fiber(2, COORD))],
    ]
    return rows, fiber_rows


def test_figure1_reproduction(benchmark, show):
    A, B, res = benchmark.pedantic(run_figure1, rounds=1, iterations=1)
    assert np.allclose(res.C, A @ B)
    rank = GRID.rank(COORD)
    store = res.machine.proc(rank).store

    # Dark highlighting: 1/27th of each matrix owned.
    assert store["A_shard"].size == SHAPE.n1 * SHAPE.n2 // 27
    assert store["B_shard"].size == 27
    assert store["C_shard"].size == 27

    # Light highlighting: the full 9x9 blocks it computes with.
    assert np.array_equal(store["A_block"], A[0:9, 18:27])
    assert np.array_equal(store["B_block"], B[18:27, 0:9])

    # The three collectives run over exactly the three fibers.
    events = [e for e in res.machine.spans.events() if e.involves(rank)]
    kinds = [e.kind for e in events if e.kind in ("allgather", "reduce-scatter")]
    assert sorted(kinds) == ["allgather", "allgather", "reduce-scatter"]

    rows, fiber_rows = build_report(res)
    show(
        format_table(["data", "words"], rows,
                     title="Figure 1 — processor (1,3,1) on the 3x3x3 grid")
        + "\n\n"
        + format_table(["collective", "paper's fiber", "global ranks"], fiber_rows)
    )


def main() -> None:
    _, _, res = run_figure1()
    rows, fiber_rows = build_report(res)
    print(format_table(["data", "words"], rows,
                       title="Figure 1 — processor (1,3,1) on the 3x3x3 grid"))
    print()
    print(format_table(["collective", "paper's fiber", "global ranks"], fiber_rows))


if __name__ == "__main__":
    main()
