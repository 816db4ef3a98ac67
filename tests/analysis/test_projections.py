"""Tests for the projection/footprint analysis."""

from repro.analysis import (
    assignment_projection_sizes,
    grid_assignment_brick,
    grid_projection_sizes,
    is_computation_balanced,
    total_projection_words,
)
from repro.algorithms import ProcessorGrid
from repro.core import ProblemShape, brick


class TestGridBricks:
    def test_brick_ranges(self):
        shape = ProblemShape(8, 6, 4)
        grid = ProcessorGrid(2, 3, 2)
        ranges = grid_assignment_brick(shape, grid, (1, 2, 0))
        assert ranges == ((4, 8), (4, 6), (0, 2))

    def test_projection_sizes_are_faces(self):
        shape = ProblemShape(8, 6, 4)
        grid = ProcessorGrid(2, 3, 2)
        proj = grid_projection_sizes(shape, grid, (0, 0, 0))
        assert proj == {"A": 4 * 2, "B": 2 * 2, "C": 4 * 2}

    def test_consistent_with_enumeration(self):
        shape = ProblemShape(6, 6, 6)
        grid = ProcessorGrid(2, 3, 1)
        for coord in [(0, 0, 0), (1, 2, 0)]:
            ranges = grid_assignment_brick(shape, grid, coord)
            pts = brick(*ranges)
            assert grid_projection_sizes(shape, grid, coord) == (
                assignment_projection_sizes(pts)
            )

    def test_total(self):
        assert total_projection_words({"A": 3, "B": 4, "C": 5}) == 12


class TestLoadBalance:
    def test_grid_assignment_balanced(self):
        shape = ProblemShape(4, 4, 4)
        grid = ProcessorGrid(2, 2, 1)
        assignment = {}
        for r in range(grid.size):
            ranges = grid_assignment_brick(shape, grid, grid.coord(r))
            assignment[r] = list(brick(*ranges))
        assert is_computation_balanced(shape, assignment, grid.size)

    def test_missing_processor_unbalanced(self):
        shape = ProblemShape(4, 4, 4)
        assignment = {0: [(0, 0, 0)] * 64}
        assert not is_computation_balanced(shape, assignment, 2)

    def test_skewed_assignment_unbalanced(self):
        shape = ProblemShape(2, 2, 2)
        pts = list(brick((0, 2), (0, 2), (0, 2)))
        assignment = {0: pts[:7], 1: pts[7:]}
        assert not is_computation_balanced(shape, assignment, 2)

    def test_slack(self):
        shape = ProblemShape(2, 2, 2)
        pts = list(brick((0, 2), (0, 2), (0, 2)))
        assignment = {0: pts[:3], 1: pts[3:]}
        assert not is_computation_balanced(shape, assignment, 2)
        assert is_computation_balanced(shape, assignment, 2, slack=0.3)
