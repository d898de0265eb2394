"""One rule per scalar input: the library entry points and the config
validator accept the same counts, reals and names, and refuse the rest
with the rule's ValueError."""

import json
import math

import numpy as np
import pytest

from cyclex import (
    BUILTIN_CANDIDATES,
    Ball,
    ConfigValidation,
    Family,
    SolverConfig,
    SpiralSpec,
    candidate_gap,
    degenerate_families,
    falsify_candidate,
    solve_parallel,
    validate_config,
)
from cyclex.product import OBJECTIVES, PARALLEL_VARIANTS

# id: (probe, accepted as a count (every lower bound here is <= 5), accepted as a real)
PROBES = {
    "true": (True, False, False),
    "false": (False, False, False),
    "float": (2.7, False, True),
    "string": ("3", False, False),
    "none": (None, False, False),
    "huge_int": (10**400, True, False),
    "nan": (math.nan, False, False),
    "inf": (math.inf, False, False),
    "numpy_int": (np.int64(5), True, True),
    "numpy_float": (np.float64(0.5), False, True),
}

BALLS = [{"type": "ball", "center": c, "radius": 1} for c in ([0, 0], [4, 0], [0, 4])]
FAMILY = Family(tuple(Ball(d["center"], d["radius"]) for d in BALLS))
PERIODIC = {"kind": "periodic", "family": BALLS, "start": [1, 1]}
PARALLEL = {"kind": "parallel", "family": BALLS, "start": [1, 1]}
GAP = {"kind": "gap", "family": BALLS, "start": [1, 1], "candidate_kind": "cyclic2"}
SPIRAL = {"kind": "spiral", "x": [0, 0.1], "y": [1, 0], "n": 3}
FALSIFY = {"kind": "falsify", "candidate": "perimeter", "m": 3, "rho": 2.0}
PERIMETER = BUILTIN_CANDIDATES["perimeter"]


COUNT_1 = ("count", "must be an integer >= 1")
COUNT_2 = ("count", "must be an integer >= 2")
COUNT_3 = ("count", "must be an integer >= 3")
REAL = ("real", "must be a finite number")


def name(options):
    return "name", f"must be one of {', '.join(options)}"


def solver_entry(key, rule):
    return key, rule, lambda v: SolverConfig(**{key: v}), PERIODIC, ["solver", key]


# id: (key, (rule, the message after the key), library call taking the value,
#      config and path of the same key, or None where no config key has it)
ENTRY_POINTS = {
    **{key: solver_entry(key, COUNT_1) for key in ("max_sweeps", "max_iters")},
    **{key: solver_entry(key, REAL) for key in ("sweep_tol", "cycle_tol", "fixpoint_tol", "gamma")},
    "spiral_n": ("n", COUNT_1, lambda v: SpiralSpec([0, 0.1], [1, 0], v), SPIRAL, ["n"]),
    "falsify_m": ("m", COUNT_3, lambda v: falsify_candidate(PERIMETER, v, [1, 0], 2.0, 4), FALSIFY, ["m"]),
    "falsify_rho": ("rho", REAL, lambda v: falsify_candidate(PERIMETER, 3, [1, 0], v, 4), FALSIFY, ["rho"]),
    "sphere_samples": (
        "sphere_samples", COUNT_2,
        lambda v: falsify_candidate(PERIMETER, 3, [1, 0], 2.0, v), FALSIFY, ["sphere_samples"],
    ),
    "degenerate_m": ("m", COUNT_3, lambda v: degenerate_families(v, [1, 0], 2.0, verify=False), None, None),
    "degenerate_rho": ("rho", REAL, lambda v: degenerate_families(3, [1, 0], v, verify=False), None, None),
    "candidate_kind": (
        "candidate_kind", name(OBJECTIVES), lambda v: candidate_gap(FAMILY, v, [1, 1]), GAP, ["candidate_kind"]
    ),
    "variant": (
        "variant", name(PARALLEL_VARIANTS),
        lambda v: solve_parallel(FAMILY, [1, 1], variant=v), PARALLEL, ["variant"],
    ),
}


def refusal(call, value):
    """The exception ``call(value)`` raises, or None."""
    try:
        call(value)
    except Exception as exc:
        return exc
    return None


def with_value(config, path, value):
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return config


# gamma=None is SolverConfig's default, with which the solver picks the step
CASES = [(entry, probe) for entry in ENTRY_POINTS for probe in PROBES if (entry, probe) != ("gamma", "none")]


@pytest.mark.parametrize("entry, probe_id", CASES, ids=[f"{entry}-{probe}" for entry, probe in CASES])
def test_library_and_config_share_one_rule(entry, probe_id):
    key, (rule, tail), call, config, path = ENTRY_POINTS[entry]
    probe, count_ok, real_ok = PROBES[probe_id]
    accepted = {"count": count_ok, "real": real_ok, "name": False}[rule]  # no probe is a name
    message = f"{key} {tail}"
    with np.errstate(all="ignore"):
        exc = refusal(call, probe)
    if accepted:
        assert exc is None or str(exc) != message
    else:
        assert type(exc) is ValueError and str(exc) == message

    if config is None or type(probe) not in (bool, int, float, str, type(None)):
        return  # not a JSON value
    try:
        validate_config(with_value(config, path, probe))
    except ConfigValidation as rejected:
        errors = rejected.errors
    else:
        errors = []
    assert errors == ([] if accepted else [f"{'.'.join(path)} {tail}"])


def test_solver_config_stores_the_converted_values():
    cfg = SolverConfig(max_sweeps=np.int64(5), max_iters=np.int32(7), gamma=np.float64(0.5), sweep_tol=1)
    assert (type(cfg.max_sweeps), cfg.max_sweeps) == (int, 5)
    assert (type(cfg.max_iters), cfg.max_iters) == (int, 7)
    assert (type(cfg.gamma), type(cfg.sweep_tol)) == (float, float)
    with pytest.raises(ValueError, match="^max_sweeps must be an integer >= 1$"):
        SolverConfig(max_sweeps=True)
    with pytest.raises(ValueError, match="^sweep_tol must be positive and finite$"):
        SolverConfig(sweep_tol=0)


# id: (library call, the config that breaks the same rule, the prefix its config error adds)
CROSS_FIELD = {
    "others_mean": (lambda: solve_parallel(Family(FAMILY.sets[:2]), [1, 1]), {**PARALLEL, "family": BALLS[:2]}, ""),
    "plane": (lambda: SpiralSpec([0, 0.1], [1, 0], 3, plane=[0, 1, 0]), {**SPIRAL, "plane": [0, 1, 0]}, ""),
    "rho": (lambda: falsify_candidate(PERIMETER, 3, [1, 0], 0.5, 4), {**FALSIFY, "rho": 0.5}, ""),
    "unit_z": (lambda: falsify_candidate(PERIMETER, 3, [2, 0], 2.0, 4), {**FALSIFY, "z": [2, 0]}, ""),
    "start_dimension": (lambda: candidate_gap(FAMILY, "cyclic2", [1, 1, 1]), {**GAP, "start": [1, 1, 1]}, "start: "),
    "start_blocks": (
        lambda: solve_parallel(FAMILY, [[1, 1], [1, 1]]), {**PARALLEL, "start": [[1, 1], [1, 1]]}, "start: "
    ),
    "positive_tol": (lambda: SolverConfig(sweep_tol=0), with_value(PERIODIC, ["solver", "sweep_tol"], 0), "solver."),
}


@pytest.mark.parametrize("entry", list(CROSS_FIELD))
def test_library_and_config_share_one_cross_field_rule(entry):
    call, config, prefix = CROSS_FIELD[entry]
    exc = refusal(lambda _: call(), None)
    assert exc is not None
    with pytest.raises(ConfigValidation) as rejected:
        validate_config(config)
    assert rejected.value.errors == [f"{prefix}{exc}"]
