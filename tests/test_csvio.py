"""Byte equality of the three block-formatted CSV writers with ``csv.writer``,
around the block and kernel boundaries and on cells ``repr`` writes in every
form; and of the vectorized float kernel with ``repr``, cell by cell."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_writer_bytes, in_order_norm_oracle, traced_peak
from cyclex import Trajectory
from cyclex.csvio import _BLOCK_CELLS, _KERNEL_CELLS, _block_text
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


def around_boundaries(width, n_ints):
    """Row counts just below, at and just past the first two block boundaries,
    and those whose block has just fewer float cells than the kernel takes, and
    just as many or more."""
    step = _BLOCK_CELLS // width
    first = -(-_KERNEL_CELLS // (width - n_ints))  # rows of the first block the kernel takes
    return [1, step - 1, step, step + 1, 2 * step - 1, 2 * step, 2 * step + 1, first - 1, first, first + 1]


@pytest.mark.parametrize("d", [1, 3])
def test_spiral_csv_blocks(tmp_path, d):
    for n in around_boundaries(d + 2, 1):
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
    for n in around_boundaries(3 + d, 3):
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
    for n in around_boundaries(4 + m * d, 1):
        log = iteration_log(n, m, d)
        path = tmp_path / f"log{n}.csv"
        write_iteration_csv(log, path)
        rows = [[i, r.objective, r.displacement, r.stationarity, *r.blocks.ravel()] for i, r in enumerate(log)]
        assert path.read_bytes() == csv_writer_bytes(header, rows), n


def kernel_texts(values, ints=()):
    """The cells the kernel writes for one row of floats, after ``ints``."""
    values = np.asarray(values, dtype=float)
    text = _block_text([np.array([i]) for i in ints], values.reshape(1, -1))
    assert text.endswith("\n") and text.count("\n") == 1
    return text[:-1].split(",")


def neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def edge_values():
    """Cells where a shortest-digit search goes wrong first: around the powers
    of ten and two, the range ends and 2^53, at exact ties and interval ends,
    signed zeros, subnormals and the largest finite value."""
    values = []
    for k in range(-5, 18):
        values += neighbours(10.0**k)
    for k in range(-20, 61):
        values += neighbours(2.0**k)
    # integers whose interval ends are integers too (10^15 <= x < 10^16, x >= 2^52)
    values += [float(2**53 + i) for i in range(-40, 41)] + [1e16 - 2 * i for i in range(1, 41)]
    values += [float(2**51 + i) + 0.5 for i in range(-20, 21)]  # X ends in exactly 5: a tie
    values += [0.5 + k / 2**10 for k in range(64)]  # short binary fractions, exact in decimal
    values += neighbours(1e-4) + neighbours(1e16)
    values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [math.nan, math.inf, -math.inf, 0.1, 0.3, 2.5, 9999999999999998.0, 0.30000000000000004]
    return values + [-x for x in values]


def test_kernel_edge_table_is_repr():
    # Two cases the kernel never tests for.  An end X +- h of the scaled
    # interval rounds to x only for an even mantissa, but no candidate is
    # one: an end (2m +- 1) 5^s 2^(E-54+s) is an integer only where s = 1
    # and X = 10 m or 20 m for the 53-bit mantissa m, with h = 5 or 10, and
    # then it is an odd multiple of h, where X and the multiples of 100 are
    # even ones.  And at a power of two the gap below is half as wide, but
    # each power of two in range (all of them are below) is X itself, a
    # decimal of at most 17 digits with no shorter one within h.
    values = edge_values()
    assert kernel_texts(values) == [repr(x) for x in values]
    ints = (0, 12345, 10**18, 2**63 - 1)
    assert kernel_texts(values, ints) == [str(i) for i in ints] + [repr(x) for x in values]


@pytest.mark.parametrize("seed", range(4))
def test_kernel_random_doubles_are_repr(seed):
    # every magnitude from 1e-6 to 1e18, random and short decimals, and random bit patterns
    rng = np.random.default_rng(seed)
    n = 20000
    values = np.concatenate([
        rng.standard_normal(n) * 10.0 ** rng.integers(-6, 19, n),
        np.round(rng.uniform(-1000, 1000, n), rng.integers(0, 8)),
        rng.integers(-(10**15), 10**15, n) / 10.0 ** rng.integers(0, 21, n),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
    ])
    assert kernel_texts(values) == [repr(x) for x in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_kernel_is_repr(values):
    assert kernel_texts(values) == [repr(x) for x in values]


def test_trajectory_csv_traced_peak():
    # one block at a time, each kernel array under 128 KB: writing a 10^5-row,
    # d = 3 trajectory to a file peaked at 0.133x its iterates (0.088x with
    # one repr per cell)
    iterates = np.random.default_rng(0).standard_normal((100000, 3))
    trajectory = Trajectory(np.zeros(3), iterates, "converged", 50000)
    _, peak = traced_peak(lambda: write_trajectory_csv(trajectory, os.devnull))
    assert peak <= 1.25 * 0.133 * iterates.nbytes
