"""Config-driven command line front end.

Subcommands: ``run`` (dispatch a JSON experiment config), ``project``
(one projection), ``spiral`` (polygonal spiral CSV), ``falsify``
(candidate-functional report).  Exit codes: 0 success, 1 a validation,
parse, input or write error, 2 a solver failed to converge (diagnostic
artifacts are still written) or a candidate survived the falsifier.
Every input, even one too large to allocate, ends in one of these codes,
with one line on stderr for 1; ``main`` turns each failure into its code,
and a warning into one ``warning:`` line (1 where the filters make it an error).

``_KINDS`` is the one place an experiment kind is defined: its config
keys (each with a typed parser and either a default or required), the
check that puts its parsed inputs to the library's cross-field rules, its
runner, and whether it writes a CSV.  Every rule a value must meet is the
library's own (``cyclex.config`` for scalars and solver settings, and the
constructors and checks of geometry, product and impossibility for the
rest); the CLI only turns each refusal into one error line.  The
``spiral`` and ``falsify`` subcommands build a config from their
arguments, so every entry point validates through the same table.

The argument parser is built once, on the first ``main`` call, and
reused; argparse gives every call a fresh namespace, so no call sees
another's arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import SOLVER_RULES, SolverConfig, choice, count, real
from .errors import ConfigValidation, CyclexError, NotConverged
from .geometry import Family, as_floats, as_vector, from_descriptor, project
from .impossibility import (
    BUILTIN_CANDIDATES,
    SpiralSpec,
    VERDICT_FALSIFIED,
    _check_rho,
    _check_unit,
    candidate_gap,
    falsify_candidate,
    spiral,
    write_spiral_csv,
)
from .product import (
    OBJECTIVES,
    PARALLEL_VARIANTS,
    QuadraticToTarget,
    as_product_point,
    parallel_variant,
    solve_parallel,
    solve_projected_gradient,
    write_iteration_csv,
)
from .sums import distance_kernel, norm
from .sweep import run_periodic, write_trajectory_csv

# what constructing a value from outside input may raise (RecursionError: JSON nested too deep)
_PARSE_ERRORS = (CyclexError, ValueError, TypeError, OverflowError, RecursionError)
# what a command may raise besides: an array too large to allocate, an artifact it cannot write
_ERRORS = (*_PARSE_ERRORS, MemoryError, OSError)


@dataclass
class ExperimentConfig:
    """A fully validated experiment: common settings plus the kind's inputs.

    ``inputs`` maps each config key of the kind to its parsed value (the
    product kinds add ``start_blocks``, the spiral kind its ``spec``);
    inputs also read as attributes, e.g. ``config.family``.
    """

    kind: str
    solver: SolverConfig
    seed: int = 0
    out_csv: Optional[str] = None
    out_json: Optional[str] = None
    inputs: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.__dict__["inputs"][name]
        except KeyError:
            raise AttributeError(name) from None


def _checked(errors, prefix, call, *args):
    """``call(*args)``, a rule of the library; None after appending its refusal,
    after ``prefix``, to ``errors``."""
    try:
        return call(*args)
    except _PARSE_ERRORS as exc:
        errors.append(f"{prefix}{exc}")
        return None


# Parsers: parse(value, errors, name) returns the typed value, or appends
# to ``errors`` and returns None.


def _numbers(value, name):
    """``value`` if it is an int or float (never a bool) or nested lists of
    them; numpy alone would read JSON ``true`` as 1.0 and ``"5"`` as 5.0."""
    if type(value) is list and {*map(type, value)} <= {int, float}:  # a flat point
        return value
    pending = [value]
    while pending:  # a loop, not recursion: JSON nests as deep as its parser allows
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif type(item) not in (int, float):
            raise TypeError(f"{name} must hold only numbers, got {item!r}")
    return value


def _build_set(desc):
    """The set a descriptor builds, once every field holds only numbers."""
    built = from_descriptor(desc)
    for key, value in desc.items():
        if key != "type":
            _numbers(value, key)
    return built


def _converted(convert):
    """The parser of a converter of numbers that raises on a bad value."""

    def parse(value, errors, name):
        return _checked(errors, f"{name}: ", lambda: convert(_numbers(value, "coordinates")))

    return parse


_as_point = _converted(as_vector)
_as_blocks = _converted(as_product_point)  # a flat point is one block
# product starts: one point (the cross-check gives every set a copy) or one row per set
_as_start = _converted(lambda v: as_vector(v) if np.ndim(v) == 1 else as_product_point(v))


def _rule(check, *args):
    """The parser of a value that ``check(value, name, *args)``, a rule of the library, accepts."""
    return lambda value, errors, name: _checked(errors, "", check, value, name, *args)


def _unit_z(value, errors, name):
    """A point that is a unit vector with a plane through it, as the falsifier needs."""
    z = _as_point(value, errors, name)
    return None if z is None else _checked(errors, "", _check_unit, z, name, 2)


def _build_family(descs, errors, name):
    if not isinstance(descs, list) or not descs:
        errors.append("family must be a nonempty array of set descriptors")
        return None
    n_errors = len(errors)
    built = []  # (index, set) of the entries that construct
    for i, desc in enumerate(descs):
        try:
            built.append((i, _build_set(desc)))
        except _PARSE_ERRORS as exc:
            # a message that starts with a field name reads as family[i].field ...
            on_field = isinstance(desc, dict) and str(exc).split(" ")[0] in desc
            errors.append(f"family[{i}]{'.' if on_field else ': '}{exc}")
    for i, s in built:
        if s.dim != built[0][1].dim:
            errors.append(f"family[{i}] has dimension {s.dim}, expected {built[0][1].dim}")
    return None if len(errors) > n_errors else _checked(errors, "", Family, tuple(s for _, s in built))


def _build_solver(data, errors, name):
    """The SolverConfig of a ``solver`` object: each setting through its rule in
    SOLVER_RULES, so that every bad one is reported; ``lambda`` (>= 0) sets a
    constant relaxation schedule, which no rule covers."""
    if not isinstance(data, dict):
        errors.append("solver must be an object")
        return None
    n_errors, kwargs = len(errors), {}
    for key, value in data.items():
        if key == "lambda":
            lam = _rule(real)(value, errors, "solver.lambda")
            if lam is not None and lam < 0.0:
                errors.append("solver.lambda must be >= 0")
            kwargs["lambda_schedule"] = lambda n, _lam=lam: _lam
        elif key in SOLVER_RULES:
            kwargs[key] = _rule(SOLVER_RULES[key])(value, errors, f"solver.{key}")
        else:
            errors.append(f"solver.{key} is not a recognized setting")
    return None if len(errors) > n_errors else SolverConfig(**kwargs)


def _output(data, errors, name):
    if not isinstance(data, dict):
        errors.append("output must be an object with optional csv/json paths")
        return None
    for key in sorted(set(data) - {"csv", "json"}):
        errors.append(f"output.{key} is not recognized (use csv/json)")
    paths = (data.get("csv"), data.get("json"))
    for key, path in zip(("csv", "json"), paths):
        if path is not None and not isinstance(path, str):
            errors.append(f"output.{key} must be a path string")
    return paths


def _objective(data, errors, name):
    """(kind, target rows or None) of an objective object."""
    kinds = (*OBJECTIVES, "quadratic_to_target")
    if not isinstance(data, dict) or data.get("kind") not in kinds:
        errors.append(f"objective.kind must be one of {', '.join(kinds)}")
        return None
    for key in sorted(set(data) - {"kind", "target"}):
        errors.append(f"objective.{key} is not recognized")
    if data["kind"] != "quadratic_to_target":
        return data["kind"], None
    if "target" not in data:
        errors.append("objective.target is required for quadratic_to_target")
        return None
    target = _as_blocks(data["target"], errors, "objective.target")
    return None if target is None else (data["kind"], target)


# Cross-field checks: check(inputs, errors) on the parsed inputs, any of
# which may be None after a parse error.  Each asks the library's own rule.


def _check_start(inputs, errors):
    family, start = inputs["family"], inputs["start"]
    if family is not None and start is not None:
        _checked(errors, "start: ", as_vector, start, family.dim)


def _check_pair(inputs, errors):
    if inputs["family"] is not None and inputs["family"].m != 2:
        errors.append(f"pair_distance needs exactly 2 sets, family has {inputs['family'].m}")
    _check_start(inputs, errors)


def _check_product(inputs, errors):
    """Set ``start_blocks``, the start rows or the start point once per set, and check
    them, the objective's target and the parallel variant against the family."""
    family, start, objective, variant = map(inputs.get, ("family", "start", "objective", "variant"))
    if family is None:
        return
    if start is not None:
        blocks = np.tile(start, (family.m, 1)) if start.ndim == 1 else start
        inputs["start_blocks"] = _checked(errors, "start: ", as_product_point, blocks, family.m, family.dim)
    if objective is not None and objective[1] is not None:
        _checked(errors, "objective.target: ", as_product_point, objective[1], family.m, family.dim)
    if variant is not None:
        _checked(errors, "", parallel_variant, variant, family.m)


def _spiral_spec(inputs, errors):
    """Set ``spec``, the SpiralSpec of the parsed inputs, which the run reuses; a
    refused ``n``, already reported, is 1 here, so the points are still checked."""
    x, y, n, plane = map(inputs.get, ("x", "y", "n", "plane"))
    if x is not None and y is not None:
        inputs["spec"] = _checked(errors, "", SpiralSpec, x, y, 1 if n is None else n, plane)


# Runners: run(config) returns (exit code, JSON payload, CSV writer taking
# a path or an open file, or None).  They look the solvers and writers up
# by module name when called, so a wrapper installed on this module sees
# every call.


def _periodic_result(trajectory, cycle):
    payload = cycle.to_dict(trajectory.sweeps_used, trajectory.stop_reason)
    return 0, payload, lambda out: write_trajectory_csv(trajectory, out)


def _product_result(solution):
    return 0, solution.to_dict(), lambda out: write_iteration_csv(solution.log, out)


def _not_converged(exc: NotConverged):
    """Exit code 2 with the payload and CSV writer of the failed run's last state."""
    diag = exc.diagnostics
    if "solution" in diag:
        _, payload, write_csv = _product_result(diag["solution"])
    else:
        _, payload, write_csv = _periodic_result(diag["trajectory"], diag["cycle"])
    payload["error"] = str(exc)
    return 2, payload, write_csv


def _run_periodic(config):
    trajectory, cycle = run_periodic(config.family, config.start, config.solver)
    return _periodic_result(trajectory, cycle)


def _run_pair_distance(config):
    code, payload, write_csv = _run_periodic(config)
    payload["distance"] = distance_kernel(config.family.dim)(*payload["points"])
    return code, payload, write_csv


def _run_projected_gradient(config):
    kind, target = config.objective
    if kind == "quadratic_to_target":
        objective = QuadraticToTarget(target)
    else:
        objective = OBJECTIVES[kind](config.family.m)
    return _product_result(
        solve_projected_gradient(config.family, objective, config.start_blocks, config.solver)
    )


def _run_parallel(config):
    return _product_result(
        solve_parallel(config.family, config.start_blocks, config.solver, variant=config.variant)
    )


def _run_spiral(config):
    spec = config.spec
    points, final_norm = spiral(spec)
    payload = {
        "alpha": float(spec.alpha),
        "n": spec.n,
        "start_norm": norm(points[0].tolist()),
        "final_norm": final_norm,
    }
    return 0, payload, lambda out: write_spiral_csv(points, out)


def _run_falsify(config):
    report = falsify_candidate(
        BUILTIN_CANDIDATES[config.candidate],
        config.m,
        config.z,
        config.rho,
        config.sphere_samples,
        rng=np.random.default_rng(config.seed),
    )
    return (0 if report.verdict == VERDICT_FALSIFIED else 2), report.to_dict(), None


def _run_gap(config):
    exhibit = candidate_gap(config.family, config.candidate_kind, config.start, config.solver)
    return 0, exhibit.to_dict(), None


@dataclass(frozen=True)
class _Kind:
    keys: dict  # config key -> (parser, default), or (parser, _REQUIRED)
    run: Callable
    check: Callable = lambda inputs, errors: None
    csv: bool = True


_REQUIRED = object()
_POINT = (_as_point, _REQUIRED)
_FAMILY_START = {"family": (_build_family, _REQUIRED), "start": _POINT}
_FAMILY_BLOCKS = {"family": (_build_family, _REQUIRED), "start": (_as_start, _REQUIRED)}

_COMMON_KEYS = {
    "solver": (_build_solver, SolverConfig()),
    "output": (_output, (None, None)),
    "seed": (_rule(count, 0), 0),
}

_KINDS = {
    "periodic": _Kind(_FAMILY_START, _run_periodic, _check_start),
    "pair_distance": _Kind(_FAMILY_START, _run_pair_distance, _check_pair),
    "projected_gradient": _Kind(
        {**_FAMILY_BLOCKS, "objective": (_objective, _REQUIRED)}, _run_projected_gradient, _check_product
    ),
    "parallel": _Kind(
        {**_FAMILY_BLOCKS, "variant": (_rule(choice, PARALLEL_VARIANTS), "others_mean")},
        _run_parallel,
        _check_product,
    ),
    "spiral": _Kind(
        {"x": _POINT, "y": _POINT, "n": (_rule(count, 1), _REQUIRED), "plane": (_as_point, None)},
        _run_spiral,
        _spiral_spec,
    ),
    "falsify": _Kind(
        {
            "candidate": (_rule(choice, sorted(BUILTIN_CANDIDATES)), _REQUIRED),
            "m": (_rule(count, 3), _REQUIRED),
            "rho": (_rule(_check_rho), _REQUIRED),
            "z": (_unit_z, (1.0, 0.0)),
            "sphere_samples": (_rule(count, 2), 16),
        },
        _run_falsify,
        csv=False,
    ),
    "gap": _Kind(
        {**_FAMILY_START, "candidate_kind": (_rule(choice, OBJECTIVES), _REQUIRED)},
        _run_gap,
        _check_start,
        csv=False,
    ),
}
KINDS = tuple(_KINDS)


def validate_config(raw) -> ExperimentConfig:
    """Parse and validate a config, collecting every error before raising.

    ``raw`` is JSON text or an already-parsed object.  Raises
    json.JSONDecodeError on malformed text and ConfigValidation (with the
    full error list) on semantic problems.
    """
    data = json.loads(raw) if isinstance(raw, str) else raw
    if not isinstance(data, dict):
        raise ConfigValidation(["config must be a JSON object"])
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigValidation([f"kind must be one of {', '.join(KINDS)} (got {kind!r})"])

    keys = {**_COMMON_KEYS, **_KINDS[kind].keys}
    errors = [f"{key} is not used by kind {kind}" for key in sorted(set(data) - set(keys) - {"kind"})]
    inputs = {}
    for key, (parse, default) in keys.items():
        if key in data:
            inputs[key] = parse(data[key], errors, key)
        elif default is _REQUIRED:
            errors.append(f"{key} is required for kind {kind}")
            inputs[key] = None
        else:
            inputs[key] = default
    _KINDS[kind].check(inputs, errors)
    if errors:
        raise ConfigValidation(errors)
    out_csv, out_json = inputs.pop("output")
    return ExperimentConfig(kind, inputs.pop("solver"), inputs.pop("seed"), out_csv, out_json, inputs)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _out_paths(config: ExperimentConfig, out_dir):
    base = out_dir or ""  # the current directory

    def resolve(explicit, suffix):  # an absolute path replaces base
        return os.path.join(base, f"{config.kind}.{suffix}" if explicit is None else explicit)

    return resolve(config.out_csv, "csv"), resolve(config.out_json, "json")


def run_experiment(config: ExperimentConfig, out_dir=None) -> int:
    """Run a validated config, write its artifacts, return the exit code.

    A run that does not converge still writes its last state, with exit
    code 2; one that fails, or an artifact that cannot be written, is 1,
    as is a CSV and a JSON path that name one file, before anything runs.
    """
    kind = _KINDS[config.kind]
    try:
        csv_path, json_path = _out_paths(config, out_dir)
        if kind.csv and os.path.abspath(csv_path) == os.path.abspath(json_path):
            print(f"config error: output.csv and output.json both name {json_path}", file=sys.stderr)
            return 1
        try:
            code, payload, write_csv = kind.run(config)
        except NotConverged as exc:
            print(f"not converged: {exc}", file=sys.stderr)
            code, payload, write_csv = _not_converged(exc)
        if out_dir and not os.path.isdir(out_dir):
            os.makedirs(out_dir, exist_ok=True)
        if kind.csv:
            write_csv(csv_path)
        try:
            with open(json_path, "w") as fh:
                fh.write(_json_text(payload))
        except OSError as exc:  # a failed write or close names no file
            exc.filename = json_path if exc.filename is None else exc.filename
            raise
    except _ERRORS as exc:
        return _report(exc)
    return code


def _report(exc: Exception) -> int:
    """Exit code 1, after one stderr line saying what ``exc`` rejected."""
    if isinstance(exc, OSError):
        print(f"cannot write {exc.filename or 'standard output'}: {exc.strerror}", file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return 1


def _parse_point(text: str) -> list:
    try:
        return as_floats([float(tok) for tok in text.split(",") if tok.strip() != ""])[1]
    except ValueError as exc:
        raise ConfigValidation([f"could not parse point {text!r}: {exc}"]) from exc


def _cmd_run(args) -> int:
    try:
        with open(args.config or ".") as fh:  # "" names the current directory
            data = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        print(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: undecodable bytes
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None and isinstance(data, dict):
        data["seed"] = args.seed
    try:
        config = validate_config(data)
    except ConfigValidation as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    return run_experiment(config, out_dir=args.out_dir)


def _cmd_project(args) -> int:
    try:
        desc = json.loads(args.set)
    except json.JSONDecodeError as exc:
        print(f"set descriptor parse error: {exc.msg}", file=sys.stderr)
        return 1
    result = project(_build_set(desc), _parse_point(args.point))
    print(",".join(repr(float(c)) for c in result))
    return 0


def _cmd_spiral(args) -> int:
    data = {"kind": "spiral", "x": _parse_point(args.x), "y": _parse_point(args.y), "n": args.n}
    if args.plane:
        data["plane"] = _parse_point(args.plane)
    code, payload, write_csv = _KINDS["spiral"].run(validate_config(data))
    write_csv(args.out or sys.stdout)
    print(f"final_norm={payload['final_norm']!r}", file=sys.stderr)
    return code


def _cmd_falsify(args) -> int:
    data = {
        "kind": "falsify",
        "candidate": args.candidate,
        "m": args.m,
        "rho": args.rho,
        "z": None if args.z is None else _parse_point(args.z),
        "sphere_samples": args.sphere_samples,
        "seed": args.seed,
    }
    # a flag not given stays out of the config, so the falsify kind's default applies
    config = validate_config({key: value for key, value in data.items() if value is not None})
    code, payload, _ = _KINDS["falsify"].run(config)
    text = _json_text(payload)
    print(text, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return code


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``cyclex`` argument parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog="cyclex",
        description="Projection-method experiments: periodic sweeps, product-space "
        "solvers, spiral and candidate-functional demonstrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON experiment config")
    p_run.add_argument("--config", required=True, help="path to the config file")
    p_run.add_argument("--out-dir", default=None, help="directory for emitted artifacts")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_proj = sub.add_parser("project", help="project a point onto one set")
    p_proj.add_argument("--set", required=True, help="JSON set descriptor")
    p_proj.add_argument("--point", required=True, help="comma-separated coordinates")
    p_proj.set_defaults(func=_cmd_project)

    p_spiral = sub.add_parser("spiral", help="emit a polygonal spiral as CSV")
    p_spiral.add_argument("--x", required=True, help="inner target point (comma list)")
    p_spiral.add_argument("--y", required=True, help="outer start point (comma list)")
    p_spiral.add_argument("--n", required=True, type=int, help="number of rays")
    p_spiral.add_argument("--plane", default=None, help="tie-break direction for antipodal x,y")
    p_spiral.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_spiral.set_defaults(func=_cmd_spiral)

    p_fals = sub.add_parser("falsify", help="drive a candidate functional around the loop")
    p_fals.add_argument(
        "--candidate", required=True, choices=sorted(BUILTIN_CANDIDATES), help="built-in candidate"
    )
    p_fals.add_argument("--m", required=True, type=int, help="tuple size (>= 3)")
    p_fals.add_argument("--rho", required=True, type=float, help="outer sphere radius (> 1)")
    p_fals.add_argument("--z", default=None, help="unit direction (comma list)")
    p_fals.add_argument("--sphere-samples", type=int, default=None, help="sphere probes (>= 2)")
    p_fals.add_argument("--seed", type=int, default=None, help="seed for the sphere probes")
    p_fals.add_argument("--out", default=None, help="also write the report JSON here")
    p_fals.set_defaults(func=_cmd_falsify)

    return parser


def _joined_values(argv) -> list:
    """``argv`` with ``--flag -3,1`` as ``--flag=-3,1``: argparse takes a value that starts
    with a minus sign and a digit for an option unless it is one plain number."""
    out = []
    for arg in argv:
        if re.match(r"-\.?\d", arg) and out and re.fullmatch(r"--\w[\w-]*", out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return exc.code
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (*_ERRORS, Warning) as exc:  # Warning: one the warning filters turn into an error
            return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
