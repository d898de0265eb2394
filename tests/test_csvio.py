"""Byte equality of the three block-formatted CSV writers with ``csv.writer``,
around the block boundaries and on cells ``repr`` writes in every form."""

import math

import numpy as np
import pytest

from conftest import csv_writer_bytes, in_order_norm_oracle
from cyclex import Trajectory
from cyclex.csvio import _BLOCK_CELLS
from cyclex.impossibility import write_spiral_csv
from cyclex.product import write_iteration_csv
from cyclex.sweep import default_order, write_trajectory_csv

SPECIAL = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    1e16,
    1e-5,
    5e-324,
    1.7976931348623157e308,
    -2.5,
    0.1,
]


def cells(n_rows, width, seed):
    """An (n_rows, width) float array of magnitudes 1e-4..1e4 with every
    7th cell one of the special values."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n_rows * width) * 10.0 ** rng.integers(-4, 5, n_rows * width)
    values[::7] = np.resize(SPECIAL, len(values[::7]))
    return values.reshape(n_rows, width)


def around_boundaries(width):
    """Row counts just below, at and just past the first two block boundaries."""
    step = _BLOCK_CELLS // width
    return [1, step - 1, step, step + 1, 2 * step - 1, 2 * step, 2 * step + 1]


@pytest.mark.parametrize("d", [1, 3])
def test_spiral_csv_blocks(tmp_path, d):
    for n in around_boundaries(d + 2):
        points = cells(n, d, seed=n)
        path = tmp_path / f"spiral{n}.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            write_spiral_csv(points, path)
            rows = [[k, *row, in_order_norm_oracle(row)] for k, row in enumerate(points)]
        header = ["k", *(f"x_{j}" for j in range(d)), "norm"]
        assert path.read_bytes() == csv_writer_bytes(header, rows), n


@pytest.mark.parametrize("m,d", [(1, 2), (3, 2), (4, 5)])
def test_trajectory_csv_blocks(tmp_path, m, d):
    order = default_order(m)
    for n in around_boundaries(3 + d):
        sweeps = -(-n // m)  # whole sweeps, at least n rows
        iterates = cells(sweeps * m, d, seed=n)
        trajectory = Trajectory(np.zeros(d), iterates, "converged", sweeps)
        path = tmp_path / f"traj{n}.csv"
        write_trajectory_csv(trajectory, path)
        rows = [[k // m, k % m, order[k % m], *row] for k, row in enumerate(iterates)]
        header = ["sweep", "n_inner", "set_index", *(f"x_{j}" for j in range(d))]
        assert path.read_bytes() == csv_writer_bytes(header, rows), n


def iteration_log(n, m, d):
    """An n-row iteration log in the layout of ``ProductSolution.log``."""
    values = cells(n, 3 + m * d, seed=n)
    fields = [("objective", float), ("displacement", float), ("stationarity", float), ("blocks", float, (m, d))]
    log = np.recarray(n, dtype=fields)
    log.objective, log.displacement, log.stationarity = values[:, :3].T
    log.blocks = values[:, 3:].reshape(n, m, d)
    return log


@pytest.mark.parametrize("m,d", [(2, 2), (50, 4)])
def test_iteration_csv_blocks(tmp_path, m, d):
    header = ["iter", "objective_value", "displacement", "stationarity_residual"]
    header += [f"block{i}_x{j}" for i in range(m) for j in range(d)]
    for n in around_boundaries(4 + m * d):
        log = iteration_log(n, m, d)
        path = tmp_path / f"log{n}.csv"
        write_iteration_csv(log, path)
        rows = [[i, r.objective, r.displacement, r.stationarity, *r.blocks.ravel()] for i, r in enumerate(log)]
        assert path.read_bytes() == csv_writer_bytes(header, rows), n
