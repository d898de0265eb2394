"""Config-driven command line front end.

Subcommands: ``run`` (dispatch a JSON experiment config), ``project``
(one projection), ``spiral`` (polygonal spiral CSV), ``falsify``
(candidate-functional report).  Exit codes: 0 success, 1 a validation,
parse, input or write error, 2 a solver failed to converge (diagnostic
artifacts are still written) or a candidate survived the falsifier.
Every input ends in one of these codes, with a message on stderr for 1.

``_KINDS`` is the one place an experiment kind is defined: its config
keys (each with a typed parser and either a default or required), its
cross-field checks, its runner, and whether it writes a CSV.  The
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
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .config import SolverConfig
from .errors import ConfigValidation, CyclexError, NotConverged
from .geometry import Family, as_vector, from_descriptor, project
from .impossibility import (
    BUILTIN_CANDIDATES,
    UNIT_NORM_TOL,
    SpiralSpec,
    VERDICT_FALSIFIED,
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
    solve_parallel,
    solve_projected_gradient,
    write_iteration_csv,
)
from .sweep import run_periodic, write_trajectory_csv

# what constructing a value from outside input may raise (RecursionError: JSON nested too deep)
_PARSE_ERRORS = (CyclexError, ValueError, TypeError, OverflowError, RecursionError)
# what the solvers raise on an input they reject
_RUN_ERRORS = (CyclexError, ValueError)


@dataclass
class ExperimentConfig:
    """A fully validated experiment: common settings plus the kind's inputs.

    ``inputs`` maps each config key of the kind to its parsed value (the
    product kinds add ``start_blocks``); inputs also read as attributes,
    e.g. ``config.family``.
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


# Parsers: parse(value, errors, name) returns the typed value, or appends
# to ``errors`` and returns None.


def _numbers(value, name):
    """``value`` if it is an int or float (never a bool) or nested lists of
    them; numpy alone would read JSON ``true`` as 1.0 and ``"5"`` as 5.0."""
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
        try:
            return convert(_numbers(value, "coordinates"))
        except _PARSE_ERRORS as exc:
            errors.append(f"{name}: {exc}")
            return None

    return parse


_as_point = _converted(as_vector)
_as_blocks = _converted(as_product_point)  # a flat point is one block
# product starts: one point (the cross-check gives every set a copy) or one row per set
_as_start = _converted(lambda v: as_vector(v) if np.ndim(v) == 1 else as_product_point(v))


def _real(value, errors, name):
    # bools are ints in Python and JSON gives NaN and Infinity as floats
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    errors.append(f"{name} must be a finite number")
    return None


def _integer(low):
    def parse(value, errors, name):
        if type(value) is int and value >= low:
            return value
        errors.append(f"{name} must be an integer >= {low}")
        return None

    return parse


def _choice(options):
    def parse(value, errors, name):
        if isinstance(value, str) and value in options:
            return value
        errors.append(f"{name} must be one of {', '.join(options)}")
        return None

    return parse


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
    if len(errors) > n_errors:
        return None
    if len(built) < 2:
        errors.append("family needs at least two sets")
        return None
    return Family(tuple(s for _, s in built))


_SOLVER_SETTINGS = {
    "gamma": _real,
    "lambda": _real,
    "sweep_tol": _real,
    "cycle_tol": _real,
    "fixpoint_tol": _real,
    "max_sweeps": _integer(1),
    "max_iters": _integer(1),
}


def _build_solver(data, errors, name):
    if not isinstance(data, dict):
        errors.append("solver must be an object")
        return None
    kwargs = {}
    for key, value in data.items():
        if key not in _SOLVER_SETTINGS:
            errors.append(f"solver.{key} is not a recognized setting")
        else:
            kwargs[key] = _SOLVER_SETTINGS[key](value, errors, f"solver.{key}")
    if None in kwargs.values():
        return None
    lam = kwargs.pop("lambda", None)
    if lam is not None:
        if lam < 0.0:
            errors.append("solver.lambda must be >= 0")
            return None
        kwargs["lambda_schedule"] = lambda n, _lam=lam: _lam
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        errors.append(f"solver: {exc}")
        return None


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
# which may be None after a parse error.


def _check_start(inputs, errors):
    family, start = inputs["family"], inputs["start"]
    if family is not None and start is not None and start.shape[0] != family.dim:
        errors.append(f"start has dimension {start.shape[0]}, family expects {family.dim}")


def _check_pair(inputs, errors):
    if inputs["family"] is not None and inputs["family"].m != 2:
        errors.append(f"pair_distance needs exactly 2 sets, family has {inputs['family'].m}")
    _check_start(inputs, errors)


def _check_block_shape(name, blocks, family, errors):
    if blocks.shape[0] != family.m:
        errors.append(f"{name} has {blocks.shape[0]} blocks, family has {family.m} sets")
    elif blocks.shape[1] != family.dim:
        errors.append(f"{name} blocks have dimension {blocks.shape[1]}, family expects {family.dim}")


def _check_blocks(inputs, errors):
    """Set ``start_blocks``: the start rows, or one start point per set."""
    family, start = inputs["family"], inputs["start"]
    if family is not None and start is not None:
        blocks = np.tile(start, (family.m, 1)) if start.ndim == 1 else start
        _check_block_shape("start", blocks, family, errors)
        inputs["start_blocks"] = blocks


def _check_objective(inputs, errors):
    _check_blocks(inputs, errors)
    family, objective = inputs["family"], inputs["objective"]
    if family is not None and objective is not None and objective[1] is not None:
        _check_block_shape("objective.target", objective[1], family, errors)


def _check_variant(inputs, errors):
    _check_blocks(inputs, errors)
    family = inputs["family"]
    if inputs["variant"] == "others_mean" and family is not None and family.m < 3:
        errors.append("variant others_mean needs at least three sets")


def _check_spiral(inputs, errors):
    x, y = inputs["x"], inputs["y"]
    if x is not None and y is not None and x.shape[0] != y.shape[0]:
        errors.append("x and y must share dimension")


def _check_falsify(inputs, errors):
    rho, z = inputs["rho"], inputs["z"]
    if rho is not None and not rho > 1.0:
        errors.append("rho must exceed 1")
    if z is not None and abs(float(np.linalg.norm(z)) - 1.0) > UNIT_NORM_TOL:
        errors.append("z must be a unit vector")


# Runners: run(config) returns (exit code, JSON payload, CSV writer taking
# a path or an open file, or None).  They look the solvers and writers up
# by module name when called, so a wrapper installed on this module sees
# every call.


def _periodic_result(trajectory, cycle, dim):
    payload = cycle.to_dict(trajectory.sweeps_used, trajectory.stop_reason)
    return 0, payload, lambda out: write_trajectory_csv(trajectory, dim, out)


def _product_result(solution):
    return 0, solution.to_dict(), lambda out: write_iteration_csv(solution.log, out)


def _not_converged(exc: NotConverged, config):
    """Exit code 2 with the payload and CSV writer of the failed run's last state."""
    diag = exc.diagnostics
    if "solution" in diag:
        _, payload, write_csv = _product_result(diag["solution"])
    else:
        _, payload, write_csv = _periodic_result(diag["trajectory"], diag["cycle"], config.family.dim)
    payload["error"] = str(exc)
    return 2, payload, write_csv


def _run_periodic(config):
    trajectory, cycle = run_periodic(config.family, config.start, config.solver)
    return _periodic_result(trajectory, cycle, config.family.dim)


def _run_pair_distance(config):
    code, payload, write_csv = _run_periodic(config)
    payload["distance"] = float(np.linalg.norm(np.subtract(*payload["points"])))
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
    spec = SpiralSpec(target=config.x, start=config.y, n=config.n, plane=config.plane)
    points, final_norm = spiral(spec)
    payload = {
        "alpha": float(spec.alpha),
        "n": spec.n,
        "start_norm": float(np.linalg.norm(points[0])),
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
    check: Callable
    run: Callable
    csv: bool = True


_REQUIRED = object()
_POINT = (_as_point, _REQUIRED)
_FAMILY_START = {"family": (_build_family, _REQUIRED), "start": _POINT}
_FAMILY_BLOCKS = {"family": (_build_family, _REQUIRED), "start": (_as_start, _REQUIRED)}

_COMMON_KEYS = {
    "solver": (_build_solver, SolverConfig()),
    "output": (_output, (None, None)),
    "seed": (_integer(0), 0),
}

_KINDS = {
    "periodic": _Kind(_FAMILY_START, _check_start, _run_periodic),
    "pair_distance": _Kind(_FAMILY_START, _check_pair, _run_pair_distance),
    "projected_gradient": _Kind(
        {**_FAMILY_BLOCKS, "objective": (_objective, _REQUIRED)},
        _check_objective,
        _run_projected_gradient,
    ),
    "parallel": _Kind(
        {**_FAMILY_BLOCKS, "variant": (_choice(PARALLEL_VARIANTS), "others_mean")},
        _check_variant,
        _run_parallel,
    ),
    "spiral": _Kind(
        {"x": _POINT, "y": _POINT, "n": (_integer(1), _REQUIRED), "plane": (_as_point, None)},
        _check_spiral,
        _run_spiral,
    ),
    "falsify": _Kind(
        {
            "candidate": (_choice(sorted(BUILTIN_CANDIDATES)), _REQUIRED),
            "m": (_integer(3), _REQUIRED),
            "rho": (_real, _REQUIRED),
            "z": (_as_point, (1.0, 0.0)),
            "sphere_samples": (_integer(2), 16),
        },
        _check_falsify,
        _run_falsify,
        csv=False,
    ),
    "gap": _Kind(
        {**_FAMILY_START, "candidate_kind": (_choice(OBJECTIVES), _REQUIRED)},
        _check_start,
        _run_gap,
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


def _json_dump(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_paths(config: ExperimentConfig, out_dir):
    base = Path(out_dir) if out_dir is not None else Path(".")
    base.mkdir(parents=True, exist_ok=True)

    def resolve(explicit, suffix):
        if explicit is None:
            return base / f"{config.kind}.{suffix}"
        p = Path(explicit)
        return p if p.is_absolute() else base / p

    return resolve(config.out_csv, "csv"), resolve(config.out_json, "json")


def run_experiment(config: ExperimentConfig, out_dir=None) -> int:
    """Run a validated config, write its artifacts, return the exit code.

    A run that does not converge still writes its last state, with exit
    code 2.
    """
    kind = _KINDS[config.kind]
    try:
        code, payload, write_csv = kind.run(config)
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        code, payload, write_csv = _not_converged(exc, config)
    except _RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        csv_path, json_path = _out_paths(config, out_dir)
        if kind.csv:
            write_csv(csv_path)
        _json_dump(payload, json_path)
    except OSError as exc:
        return _cannot_write(exc)
    return code


def _cannot_write(exc: OSError) -> int:
    print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
    return 1


def _parse_point(text: str) -> list:
    try:
        return as_vector([float(tok) for tok in text.split(",") if tok.strip() != ""]).tolist()
    except ValueError as exc:
        raise ConfigValidation([f"could not parse point {text!r}: {exc}"]) from exc


def _cmd_run(args) -> int:
    try:
        data = json.loads(Path(args.config).read_text())
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
        target = _build_set(json.loads(args.set))
        point = _parse_point(args.point)
        result = project(target, point)
    except json.JSONDecodeError as exc:
        print(f"set descriptor parse error: {exc.msg}", file=sys.stderr)
        return 1
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(",".join(repr(float(c)) for c in result))
    return 0


def _cmd_spiral(args) -> int:
    try:
        data = {"kind": "spiral", "x": _parse_point(args.x), "y": _parse_point(args.y), "n": args.n}
        if args.plane:
            data["plane"] = _parse_point(args.plane)
        code, payload, write_csv = _KINDS["spiral"].run(validate_config(data))
        write_csv(args.out or sys.stdout)
    except _RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        return _cannot_write(exc)
    print(f"final_norm={payload['final_norm']!r}", file=sys.stderr)
    return code


def _cmd_falsify(args) -> int:
    try:
        data = {
            "kind": "falsify",
            "candidate": args.candidate,
            "m": args.m,
            "rho": args.rho,
            "z": _parse_point(args.z),
            "sphere_samples": args.sphere_samples,
            "seed": args.seed,
        }
        code, payload, _ = _KINDS["falsify"].run(validate_config(data))
    except _RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            return _cannot_write(exc)
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
    p_fals.add_argument("--z", default="1,0", help="unit direction (comma list)")
    p_fals.add_argument("--sphere-samples", type=int, default=16, help="sphere probes (>= 2)")
    p_fals.add_argument("--seed", type=int, default=0, help="seed for the sphere probes")
    p_fals.add_argument("--out", default=None, help="also write the report JSON here")
    p_fals.set_defaults(func=_cmd_falsify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return exc.code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
