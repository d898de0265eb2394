"""Span tracing of cyclex from the outside.

``installed(tracer)`` wraps the public functions each layer exposes, on
every name its callers resolve (``cyclex.cli.run_periodic`` as well as
``cyclex.sweep.run_periodic``, methods on their classes), and restores
the originals on exit.  Nothing inside ``src/`` changes.

Each call becomes one span: (id, name, parent id, experiment id, start
ns, end ns), kept in typed arrays and written out by ``save``.  Per span
name the tracer also sums calls, busy time (the span's duration) and
self time (duration minus the time its direct child spans cover).
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

_COLUMNS = ("id", "name", "parent", "experiment", "start_ns", "end_ns")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.columns = {c: array("q") for c in _COLUMNS}
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)  # work reported by results: rows, iterations
        self.experiment = -1
        self._stack = []  # [span id, ns covered by children]
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        span, self._next_id = self._next_id, self._next_id + 1
        frame = [span, 0]
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.busy_ns[name] += duration
            self.self_ns[name] += duration - frame[1]
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            for column, value in zip(
                self.columns.values(), (span, name_id, parent, self.experiment, start, end)
            ):
                column.append(value)

    def save(self, path):
        """Write every span as int64 columns plus the name table (.npz)."""
        np.savez(
            path,
            names=np.array(self.names),
            **{c: np.frombuffer(a, dtype=np.int64) for c, a in self.columns.items()},
        )


def _wrap(tracer, name, fn, count=None):
    """``fn`` recorded as span ``name``; ``count(counts, args, result)`` may
    add work counts taken from the arguments or the result."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if count is not None:
            count(tracer.counts, args, result)
        return result

    return traced


def _rows(key, rows=lambda data: data):
    def count(counts, args, result):
        counts[key] += len(rows(args[0]))

    return count


def _iterations(counts, args, result):
    counts["product.iterations"] += result.iterations


def _project(tracer, fn):
    names = {}

    @functools.wraps(fn)
    def traced(self, x):
        cls = type(self)
        name = names.get(cls)
        if name is None:
            name = names[cls] = "geometry.project." + cls.__name__.lower()
        return tracer.call(name, fn, self, x)

    return traced


def _objective(tracer, fn, label):
    @functools.wraps(fn)
    def traced(self, y):
        return tracer.call(f"product.objective.{label}.m{self.m}", fn, self, y)

    return traced


@contextlib.contextmanager
def installed(tracer):
    """Install the span wrappers on cyclex for the duration of the block."""
    from cyclex import cli, geometry, impossibility, product, sweep

    def functions(name, modules, attr, count=None):
        original = getattr(modules[0], attr)
        traced = _wrap(tracer, name, original, count)
        return [(m, attr, traced) for m in modules]

    patches = [
        (geometry.ConvexSet, "project", _project(tracer, geometry.ConvexSet.project)),
        *functions("sweep.run_periodic", (sweep, cli, impossibility), "run_periodic"),
        *functions("sweep.sweep_once", (sweep,), "sweep_once"),
        *functions("sweep.certify", (sweep,), "cycle_residual"),
        *functions(
            "sweep.csv", (sweep, cli), "write_trajectory_csv",
            _rows("sweep.csv_rows", lambda trajectory: trajectory.iterates),
        ),
        *functions(
            "product.solve", (product, cli, impossibility), "solve_projected_gradient", _iterations
        ),
        *functions("product.solve", (product, cli), "solve_parallel", _iterations),
        *functions("product.project_blocks", (product,), "project_blocks"),
        (product.PairwiseSquared, "value", _objective(tracer, product.PairwiseSquared.value, "pairwise")),
        (product.CyclicSquared, "value", _objective(tracer, product.CyclicSquared.value, "cyclic")),
        *functions("product.csv", (product, cli), "write_iteration_csv", _rows("product.csv_rows")),
        (
            impossibility.CandidateFunctional,
            "__call__",
            _wrap(tracer, "impossibility.candidate", impossibility.CandidateFunctional.__call__),
        ),
        *functions("impossibility.falsify", (impossibility, cli), "falsify_candidate"),
        *functions("impossibility.spiral", (impossibility, cli), "spiral"),
        *functions("impossibility.gap", (impossibility, cli), "candidate_gap"),
        *functions(
            "impossibility.csv", (impossibility, cli), "write_spiral_csv", _rows("impossibility.csv_rows")
        ),
        *functions("cli.validate", (cli,), "validate_config"),
        *functions("cli.dispatch", (cli,), "run_experiment"),
        *functions("cli.main", (cli,), "main"),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, traced in patches:
            setattr(owner, attr, traced)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
