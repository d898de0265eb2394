"""Output checks for one `cyclex run`, against oracles that do not use cyclex.

Each check takes the config the run was given, its exit code and the
artifacts it wrote ({file name: bytes}), and returns None when every
check passes, else a one-line reason.
"""

from __future__ import annotations

import json
import math

import numpy as np

SPIRAL_RTOL = 1e-10
BALL_DISTANCE_TOL = 1e-8
FAIR_POINT_RTOL = 1e-12


def _csv_rows(artifacts, name):
    data = artifacts.get(name)
    return None if data is None else data.count(b"\n") - 1


def _check_periodic(cfg, result, artifacts):
    if result.get("stop_reason") != "converged":
        return f"stop_reason {result.get('stop_reason')!r}"
    if not result["residual"] <= cfg["solver"]["cycle_tol"]:
        return f"residual {result['residual']:.3e} above cycle_tol"
    expected = result["sweeps"] * len(cfg["family"])
    if _csv_rows(artifacts, f"{cfg['kind']}.csv") != expected:
        return f"trajectory CSV does not have sweeps*m = {expected} rows"
    sets = cfg["family"]
    if cfg["kind"] == "pair_distance" and all(s["type"] == "ball" for s in sets):
        c1, c2 = (np.asarray(s["center"]) for s in sets)
        exact = float(np.linalg.norm(c2 - c1)) - sets[0]["radius"] - sets[1]["radius"]
        if not abs(result["distance"] - exact) <= BALL_DISTANCE_TOL:
            return f"ball-pair distance off by {abs(result['distance'] - exact):.3e}"
    return None


def _check_product(cfg, result, artifacts):
    if not result["residual"] <= cfg["solver"]["fixpoint_tol"]:
        return f"residual {result['residual']:.3e} above fixpoint_tol"
    points = np.asarray(result["points"])
    fair = np.asarray(result["fair_point"])
    mean = points.mean(axis=0)
    if not np.all(np.abs(fair - mean) <= FAIR_POINT_RTOL * (1.0 + np.abs(mean))):
        return "fair_point is not the mean of points"
    expected = result["sweeps"] + 1
    if _csv_rows(artifacts, f"{cfg['kind']}.csv") != expected:
        return f"iteration CSV does not have iterations+1 = {expected} rows"
    return None


def _check_spiral(cfg, result, artifacts):
    x, y, n = np.asarray(cfg["x"]), np.asarray(cfg["y"]), cfg["n"]
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    alpha = math.acos(max(-1.0, min(1.0, float(x @ y) / (nx * ny))))
    exact = ny * math.cos(alpha / n) ** n
    if not abs(result["final_norm"] - exact) <= SPIRAL_RTOL * exact:
        return f"final_norm off by {abs(result['final_norm'] - exact) / exact:.3e} relative"
    if _csv_rows(artifacts, "spiral.csv") != n + 1:
        return f"spiral CSV does not have n+1 = {n + 1} rows"
    return None


def _check_falsify(cfg, result, artifacts):
    if result.get("verdict") != "candidate falsified":
        return f"verdict {result.get('verdict')!r}"
    return None


def _check_gap(cfg, result, artifacts):
    if not result["cycle_residual"] <= cfg["solver"]["cycle_tol"]:
        return f"cycle_residual {result['cycle_residual']:.3e} above cycle_tol"
    return None


_CHECKS = {
    "periodic": _check_periodic,
    "pair_distance": _check_periodic,
    "projected_gradient": _check_product,
    "parallel": _check_product,
    "spiral": _check_spiral,
    "falsify": _check_falsify,
    "gap": _check_gap,
}


def check(cfg: dict, exit_code, artifacts: dict):
    """None if the run passed every check, else the first problem found."""
    kind = cfg["kind"]
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        result = json.loads(artifacts[f"{kind}.json"])
        return _CHECKS[kind](cfg, result, artifacts)
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable result: {exc!r}"
