"""Config-driven command line front end.

Subcommands: ``run`` (dispatch a JSON experiment config), ``project``
(one projection), ``spiral`` (polygonal spiral CSV), ``falsify``
(candidate-functional report).  Exit codes: 0 success, 1 validation or
parse error, 2 a solver failed to converge (diagnostic artifacts are
still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import SolverConfig
from .errors import ConfigValidation, CyclexError, NotConverged
from .geometry import Family, as_vector, from_descriptor, project
from .impossibility import (
    BUILTIN_CANDIDATES,
    SpiralSpec,
    VERDICT_FALSIFIED,
    candidate_gap,
    falsify_candidate,
    spiral,
    write_spiral_csv,
)
from .product import (
    CyclicSquared,
    PairwiseSquared,
    QuadraticToTarget,
    solve_parallel,
    solve_projected_gradient,
    write_iteration_csv,
)
from .sweep import run_periodic, write_trajectory_csv

KINDS = ("periodic", "pair_distance", "projected_gradient", "parallel", "spiral", "falsify", "gap")

_COMMON_KEYS = {"kind", "solver", "output", "seed"}
_KIND_KEYS = {
    "periodic": {"family", "start"},
    "pair_distance": {"family", "start"},
    "projected_gradient": {"family", "start", "objective"},
    "parallel": {"family", "start", "variant"},
    "spiral": {"x", "y", "n", "plane"},
    "falsify": {"candidate", "m", "z", "rho", "sphere_samples"},
    "gap": {"family", "start", "candidate_kind"},
}

_OBJECTIVE_KINDS = ("pairwise2", "cyclic2", "quadratic_to_target")


@dataclass
class ExperimentConfig:
    """A fully validated experiment: typed inputs plus output locations."""

    kind: str
    solver: SolverConfig
    seed: int = 0
    out_csv: Optional[str] = None
    out_json: Optional[str] = None
    family: Optional[Family] = None
    start: Optional[np.ndarray] = None
    start_blocks: Optional[np.ndarray] = None
    objective_kind: Optional[str] = None
    objective_target: Optional[np.ndarray] = None
    variant: str = "others_mean"
    candidate: Optional[str] = None
    candidate_kind: Optional[str] = None
    tuple_size: Optional[int] = None
    unit_direction: Optional[np.ndarray] = None
    rho: Optional[float] = None
    sphere_samples: int = 16
    spiral_target: Optional[np.ndarray] = None
    spiral_start: Optional[np.ndarray] = None
    spiral_n: Optional[int] = None
    spiral_plane: Optional[np.ndarray] = None


def _as_point(value, errors, name):
    try:
        return as_vector(value)
    except (CyclexError, ValueError, TypeError) as exc:
        errors.append(f"{name}: {exc}")
        return None


def _build_family(descs, errors):
    if not isinstance(descs, list) or not descs:
        errors.append("family must be a nonempty array of set descriptors")
        return None
    sets = []
    for i, desc in enumerate(descs):
        try:
            sets.append(from_descriptor(desc))
        except (CyclexError, ValueError, TypeError) as exc:
            msg = str(exc)
            fields = set(desc.keys()) if isinstance(desc, dict) else set()
            first = msg.split(" ")[0] if msg else ""
            if first in fields:
                errors.append(f"family[{i}].{msg}")
            else:
                errors.append(f"family[{i}]: {msg}")
            sets.append(None)
    built = [s for s in sets if s is not None]
    if built:
        dim = built[0].dim
        bad = False
        for i, s in enumerate(sets):
            if s is not None and s.dim != dim:
                errors.append(f"family[{i}] has dimension {s.dim}, expected {dim}")
                bad = True
        if bad:
            return None
    if any(s is None for s in sets):
        return None
    if len(sets) < 2:
        errors.append("family needs at least two sets")
        return None
    return Family(tuple(sets))


def _build_solver(data, errors):
    known = {
        "gamma": float,
        "lambda": float,
        "sweep_tol": float,
        "cycle_tol": float,
        "fixpoint_tol": float,
        "max_sweeps": int,
        "max_iters": int,
    }
    kwargs = {}
    if not isinstance(data, dict):
        errors.append("solver must be an object")
        return SolverConfig()
    for key, value in data.items():
        if key not in known:
            errors.append(f"solver.{key} is not a recognized setting")
            continue
        try:
            kwargs[key] = known[key](value)
        except (TypeError, ValueError):
            errors.append(f"solver.{key} must be a {known[key].__name__}")
    lam = kwargs.pop("lambda", None)
    if lam is not None:
        if lam < 0.0:
            errors.append("solver.lambda must be >= 0")
        else:
            kwargs["lambda_schedule"] = lambda n, _lam=lam: _lam
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        errors.append(f"solver: {exc}")
        return SolverConfig()


def validate_config(raw) -> ExperimentConfig:
    """Parse and validate a config, collecting every error before raising.

    ``raw`` is JSON text or an already-parsed object.  Raises
    json.JSONDecodeError on malformed text and ConfigValidation (with the
    full error list) on semantic problems.
    """
    if isinstance(raw, str):
        data = json.loads(raw)
    else:
        data = raw
    if not isinstance(data, dict):
        raise ConfigValidation(["config must be a JSON object"])

    errors: list[str] = []
    kind = data.get("kind")
    if kind not in KINDS:
        raise ConfigValidation([f"kind must be one of {', '.join(KINDS)} (got {kind!r})"])

    allowed = _COMMON_KEYS | _KIND_KEYS[kind]
    for key in sorted(set(data) - allowed):
        errors.append(f"{key} is not used by kind {kind}")

    solver = _build_solver(data.get("solver", {}), errors)
    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        errors.append("seed must be an integer")
        seed = 0

    out_csv = out_json = None
    output = data.get("output", {})
    if output and not isinstance(output, dict):
        errors.append("output must be an object with optional csv/json paths")
    elif isinstance(output, dict):
        for key in sorted(set(output) - {"csv", "json"}):
            errors.append(f"output.{key} is not recognized (use csv/json)")
        out_csv = output.get("csv")
        out_json = output.get("json")

    cfg = ExperimentConfig(kind=kind, solver=solver, seed=seed, out_csv=out_csv, out_json=out_json)

    def require(key):
        if key not in data:
            errors.append(f"{key} is required for kind {kind}")
            return False
        return True

    if kind in ("periodic", "pair_distance", "parallel", "projected_gradient", "gap"):
        if require("family"):
            cfg.family = _build_family(data["family"], errors)
        if kind == "pair_distance" and cfg.family is not None and cfg.family.m != 2:
            errors.append(f"pair_distance needs exactly 2 sets, family has {cfg.family.m}")

    if kind in ("periodic", "pair_distance", "gap"):
        if require("start"):
            cfg.start = _as_point(data["start"], errors, "start")
        if cfg.start is not None and cfg.family is not None and cfg.start.shape[0] != cfg.family.dim:
            errors.append(
                f"start has dimension {cfg.start.shape[0]}, family expects {cfg.family.dim}"
            )

    if kind in ("projected_gradient", "parallel"):
        if require("start"):
            start = data["start"]
            blocks = None
            if isinstance(start, list) and start and isinstance(start[0], list):
                rows = [_as_point(row, errors, f"start[{i}]") for i, row in enumerate(start)]
                if all(r is not None for r in rows):
                    if len({r.shape[0] for r in rows}) > 1:
                        errors.append("start blocks must share dimension")
                    else:
                        blocks = np.stack(rows)
            else:
                point = _as_point(start, errors, "start")
                if point is not None and cfg.family is not None:
                    blocks = np.tile(point, (cfg.family.m, 1))
            if blocks is not None and cfg.family is not None:
                if blocks.shape[0] != cfg.family.m:
                    errors.append(
                        f"start has {blocks.shape[0]} blocks, family has {cfg.family.m} sets"
                    )
                elif blocks.shape[1] != cfg.family.dim:
                    errors.append(
                        f"start blocks have dimension {blocks.shape[1]}, "
                        f"family expects {cfg.family.dim}"
                    )
            cfg.start_blocks = blocks

    if kind == "projected_gradient":
        obj = data.get("objective")
        if not require("objective"):
            pass
        elif not isinstance(obj, dict) or obj.get("kind") not in _OBJECTIVE_KINDS:
            errors.append(f"objective.kind must be one of {', '.join(_OBJECTIVE_KINDS)}")
        else:
            cfg.objective_kind = obj["kind"]
            if obj["kind"] == "quadratic_to_target":
                target = obj.get("target")
                if target is None:
                    errors.append("objective.target is required for quadratic_to_target")
                else:
                    rows = [
                        _as_point(row, errors, f"objective.target[{i}]")
                        for i, row in enumerate(target)
                    ]
                    if all(r is not None for r in rows):
                        cfg.objective_target = np.stack(rows)
            extra = set(obj) - {"kind", "target"}
            for key in sorted(extra):
                errors.append(f"objective.{key} is not recognized")

    if kind == "parallel":
        cfg.variant = data.get("variant", "others_mean")
        if cfg.variant not in ("others_mean", "full_mean"):
            errors.append("variant must be others_mean or full_mean")
        elif cfg.variant == "others_mean" and cfg.family is not None and cfg.family.m < 3:
            errors.append("variant others_mean needs at least three sets")

    if kind == "spiral":
        if require("x"):
            cfg.spiral_target = _as_point(data["x"], errors, "x")
        if require("y"):
            cfg.spiral_start = _as_point(data["y"], errors, "y")
        if require("n"):
            n = data["n"]
            if not isinstance(n, int) or n < 1:
                errors.append("n must be an integer >= 1")
            else:
                cfg.spiral_n = n
        if "plane" in data:
            cfg.spiral_plane = _as_point(data["plane"], errors, "plane")
        if (
            cfg.spiral_target is not None
            and cfg.spiral_start is not None
            and cfg.spiral_target.shape[0] != cfg.spiral_start.shape[0]
        ):
            errors.append("x and y must share dimension")

    if kind == "falsify":
        if require("candidate"):
            cfg.candidate = data["candidate"]
            if cfg.candidate not in BUILTIN_CANDIDATES:
                errors.append(
                    f"candidate must be one of {', '.join(sorted(BUILTIN_CANDIDATES))}"
                )
        if require("m"):
            m = data["m"]
            if not isinstance(m, int) or m < 3:
                errors.append("m must be an integer >= 3")
            else:
                cfg.tuple_size = m
        if require("rho"):
            rho = data["rho"]
            if not isinstance(rho, (int, float)) or not rho > 1.0:
                errors.append("rho must exceed 1")
            else:
                cfg.rho = float(rho)
        z = data.get("z", [1.0, 0.0])
        cfg.unit_direction = _as_point(z, errors, "z")
        if cfg.unit_direction is not None and abs(
            float(np.linalg.norm(cfg.unit_direction)) - 1.0
        ) > 1e-12:
            errors.append("z must be a unit vector")
        samples = data.get("sphere_samples", 16)
        if not isinstance(samples, int) or samples < 2:
            errors.append("sphere_samples must be an integer >= 2")
        else:
            cfg.sphere_samples = samples

    if kind == "gap":
        if require("candidate_kind"):
            cfg.candidate_kind = data["candidate_kind"]
            if cfg.candidate_kind not in ("pairwise2", "cyclic2"):
                errors.append("candidate_kind must be pairwise2 or cyclic2")

    if errors:
        raise ConfigValidation(errors)
    return cfg


def _json_dump(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_paths(config: ExperimentConfig, out_dir, want_csv=True, want_json=True):
    base = Path(out_dir) if out_dir is not None else Path(".")
    base.mkdir(parents=True, exist_ok=True)

    def resolve(explicit, default):
        if explicit is None:
            return base / default
        p = Path(explicit)
        return p if p.is_absolute() else base / p

    csv_path = resolve(config.out_csv, f"{config.kind}.csv") if want_csv else None
    json_path = resolve(config.out_json, f"{config.kind}.json") if want_json else None
    return csv_path, json_path


def run_experiment(config: ExperimentConfig, out_dir=None) -> int:
    """Dispatch a validated config, write its artifacts, return the exit code."""
    kind = config.kind
    want_csv = kind not in ("falsify", "gap")
    csv_path, json_path = _out_paths(config, out_dir, want_csv=want_csv)

    try:
        if kind == "periodic":
            trajectory, cycle = run_periodic(config.family, config.start, config.solver)
            write_trajectory_csv(trajectory, config.family.dim, csv_path)
            _json_dump(cycle.to_dict(trajectory.sweeps_used, trajectory.stop_reason), json_path)

        elif kind == "pair_distance":
            trajectory, cycle = run_periodic(config.family, config.start, config.solver)
            y1, y2 = cycle.points
            distance = float(np.linalg.norm(y1 - y2))
            write_trajectory_csv(trajectory, config.family.dim, csv_path)
            payload = cycle.to_dict(trajectory.sweeps_used, trajectory.stop_reason)
            payload["distance"] = distance
            _json_dump(payload, json_path)

        elif kind == "projected_gradient":
            obj = _make_objective(config)
            solution = solve_projected_gradient(
                config.family, obj, config.start_blocks, config.solver
            )
            write_iteration_csv(solution.log, csv_path)
            _json_dump(solution.to_dict(), json_path)

        elif kind == "parallel":
            solution = solve_parallel(
                config.family, config.start_blocks, config.solver, variant=config.variant
            )
            write_iteration_csv(solution.log, csv_path)
            _json_dump(solution.to_dict(), json_path)

        elif kind == "spiral":
            spec = SpiralSpec(
                target=config.spiral_target,
                start=config.spiral_start,
                n=config.spiral_n,
                plane=config.spiral_plane,
            )
            points, final_norm = spiral(spec)
            write_spiral_csv(points, csv_path)
            _json_dump(
                {
                    "alpha": float(spec.alpha),
                    "n": spec.n,
                    "start_norm": float(np.linalg.norm(points[0])),
                    "final_norm": final_norm,
                },
                json_path,
            )

        elif kind == "falsify":
            rng = np.random.default_rng(config.seed)
            report = falsify_candidate(
                BUILTIN_CANDIDATES[config.candidate],
                config.tuple_size,
                config.unit_direction,
                config.rho,
                config.sphere_samples,
                rng=rng,
            )
            _json_dump(report.to_dict(), json_path)
            if report.verdict != VERDICT_FALSIFIED:
                return 2

        else:  # gap
            exhibit = candidate_gap(
                config.family, config.candidate_kind, config.start, config.solver
            )
            _json_dump(exhibit.to_dict(), json_path)

    except NotConverged as exc:
        _emit_diagnostics(exc, config, csv_path, json_path)
        print(f"not converged: {exc}", file=sys.stderr)
        return 2
    return 0


def _make_objective(config: ExperimentConfig):
    if config.objective_kind == "pairwise2":
        return PairwiseSquared(config.family.m)
    if config.objective_kind == "cyclic2":
        return CyclicSquared(config.family.m)
    return QuadraticToTarget(config.objective_target)


def _emit_diagnostics(exc: NotConverged, config, csv_path, json_path) -> None:
    payload = {"error": str(exc), "stop_reason": "max_iterations"}
    diag = exc.diagnostics
    if "trajectory" in diag and csv_path is not None:
        write_trajectory_csv(diag["trajectory"], config.family.dim, csv_path)
    if "cycle" in diag and "trajectory" in diag:
        payload.update(
            diag["cycle"].to_dict(diag["trajectory"].sweeps_used, diag["trajectory"].stop_reason)
        )
        payload["error"] = str(exc)
    if "solution" in diag:
        solution = diag["solution"]
        if csv_path is not None:
            write_iteration_csv(solution.log, csv_path)
        payload.update(solution.to_dict())
        payload["error"] = str(exc)
    if json_path is not None:
        _json_dump(payload, json_path)


def _parse_point(text: str) -> np.ndarray:
    try:
        return as_vector([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise ConfigValidation([f"could not parse point {text!r}: {exc}"]) from exc


def _format_point(p) -> str:
    return ",".join(repr(float(c)) for c in p)


def _cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = validate_config(text)
    except json.JSONDecodeError as exc:
        print(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    except ConfigValidation as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    if args.seed is not None:
        config.seed = args.seed
    return run_experiment(config, out_dir=args.out_dir)


def _cmd_project(args) -> int:
    try:
        target = from_descriptor(json.loads(args.set))
        point = _parse_point(args.point)
        result = project(target, point)
    except json.JSONDecodeError as exc:
        print(f"set descriptor parse error: {exc.msg}", file=sys.stderr)
        return 1
    except (CyclexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_format_point(result))
    return 0


def _cmd_spiral(args) -> int:
    try:
        spec = SpiralSpec(
            target=_parse_point(args.x),
            start=_parse_point(args.y),
            n=args.n,
            plane=_parse_point(args.plane) if args.plane else None,
        )
        points, final_norm = spiral(spec)
    except (CyclexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_spiral_csv(points, args.out or sys.stdout)
    print(f"final_norm={final_norm!r}", file=sys.stderr)
    return 0


def _cmd_falsify(args) -> int:
    try:
        report = falsify_candidate(
            BUILTIN_CANDIDATES[args.candidate],
            args.m,
            _parse_point(args.z),
            args.rho,
            args.sphere_samples,
            rng=np.random.default_rng(args.seed),
        )
    except (CyclexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0 if report.verdict == VERDICT_FALSIFIED else 2


def build_parser() -> argparse.ArgumentParser:
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
