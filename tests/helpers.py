"""Shared test helpers."""
import numpy as np

from twoqubit.canonical import ClassData
from twoqubit.edges import edge


def edge_columns(name, n_points):
    """An edge's endpoint-inclusive grid of ``n_points`` and the ClassData
    columns of its points, evaluated whole, row i belonging to grid[i]: the
    rows that ``edges.sweep`` writes a chunk at a time."""
    spec = edge(name)
    grid = np.linspace(*spec.param_range, n_points)
    return grid, ClassData.from_points(spec.point_fn(grid))
