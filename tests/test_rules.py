"""One rule per input: the library entry points and the config validator
accept the same counts, reals, names and arrays (points, product tuples,
set fields), and refuse the rest with the rule's error."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclex import (
    BUILTIN_CANDIDATES,
    AffineSubspace,
    Ball,
    Box,
    ConfigValidation,
    Family,
    Halfspace,
    SolverConfig,
    SpiralSpec,
    as_product_point,
    as_vector,
    candidate_gap,
    degenerate_families,
    falsify_candidate,
    run_periodic,
    solve_parallel,
    validate_config,
)
from cyclex.config import reals
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


# id: (point probe, accepted by the array rule)
POINT_PROBES = {
    "true": ([True, 0], False),
    "string": (["1", 0], False),
    "numpy_float": ([np.float64(1), 2], True),
    "int_ndarray": (np.array([1, 2]), True),
    "bool_ndarray": (np.array([True, False]), False),
    "bool_in_2d_tuple": (((1.0, 2.0), (0.0, True), (2.0, 1.0)), False),
    "empty": ([], False),
    "nan": ([math.nan, 0], False),
    "inf": ([math.inf, 0], False),
    "huge_int": ([10**400, 0], False),
}
QUADRATIC = {**PERIODIC, "kind": "projected_gradient", "objective": {"kind": "quadratic_to_target"}}


def rows(probe):
    """The probe as a tuple of one block per set: a 2-D probe as it is, a point three times."""
    return probe if isinstance(probe, tuple) else [probe] * 3


def first_set(desc):
    return {**PERIODIC, "family": [desc, *BALLS[1:]]}


# id: (library call taking the value, config holding the same value, whether a good probe is accepted)
POINT_ENTRIES = {
    "as_vector": (as_vector, lambda v: {**PERIODIC, "start": v}, True),
    "as_product_point": (
        lambda v: as_product_point(rows(v)),
        lambda v: {**QUADRATIC, "objective": {**QUADRATIC["objective"], "target": rows(v)}},
        True,
    ),
    "ball": (lambda v: Ball(v, 1), lambda v: first_set({"type": "ball", "center": v, "radius": 1}), True),
    "box": (lambda v: Box(v, [5, 5]), lambda v: first_set({"type": "box", "lower": v, "upper": [5, 5]}), True),
    "affine": (
        lambda v: AffineSubspace(v, [[1, 0]]), lambda v: first_set({"type": "affine", "anchor": v, "basis": [[1, 0]]}),
        True,
    ),
    "project": (FAMILY.sets[0].project, lambda v: {**PERIODIC, "start": v}, True),
    "spiral_spec": (lambda v: SpiralSpec([0, 0.1], v, 3).alpha, lambda v: {**SPIRAL, "y": v}, True),
    "run_periodic_start": (lambda v: run_periodic(FAMILY, v), lambda v: {**PERIODIC, "start": v}, True),
    "solve_parallel_start": (lambda v: solve_parallel(FAMILY, rows(v)), lambda v: {**PARALLEL, "start": rows(v)}, True),
    # no probe is a unit vector: the falsifier refuses each, as its config does
    "falsify_z": (lambda v: falsify_candidate(PERIMETER, 3, v, 2.0, 4), lambda v: {**FALSIFY, "z": v}, False),
}
POINT_CASES = [(entry, probe) for entry in POINT_ENTRIES for probe in POINT_PROBES]


@pytest.mark.parametrize("entry, probe_id", POINT_CASES, ids=[f"{entry}-{probe}" for entry, probe in POINT_CASES])
def test_library_and_config_share_one_array_rule(entry, probe_id):
    call, config, good_accepted = POINT_ENTRIES[entry]
    probe, probe_ok = POINT_PROBES[probe_id]
    exc = refusal(call, probe)
    assert (exc is None) == (probe_ok and good_accepted), exc
    if not probe_ok:
        assert isinstance(exc, ValueError)  # never numpy's TypeError or OverflowError
    try:
        validate_config(config(probe))
    except ConfigValidation as rejected:
        errors = rejected.errors
    else:
        errors = []
    assert (errors == []) == (exc is None), errors


@pytest.mark.parametrize("value", [True, "2", None, [1.0], math.inf])
def test_a_set_scalar_field_takes_the_real_rule(value):
    for build, key in ((lambda v: Ball([0, 0], v), "radius"), (lambda v: Halfspace([1, 0], v), "offset")):
        exc = refusal(build, value)
        assert type(exc) is ValueError and str(exc) == f"{key} must be a finite number"
    with pytest.raises(ConfigValidation) as rejected:
        validate_config(with_value(PERIODIC, ["family"], [BALLS[0], {**BALLS[1], "radius": value}, BALLS[2]]))
    assert rejected.value.errors == ["family[1].radius must be a finite number"]


def test_the_array_rule_names_the_key_and_walks_without_recursion():
    nested = [True]
    for _ in range(10_000):
        nested = [nested]
    with pytest.raises(ValueError, match="^x must hold only numbers, got True$"):
        reals(nested, "x")
    with pytest.raises(ValueError, match="^center must hold only numbers, got True$"):
        Ball([True, 0], 1)
    with pytest.raises(ValueError, match="^point must hold only numbers, got True$"):
        as_vector(np.array([True, False]))
    with pytest.raises(ValueError, match="^x has non-finite coordinates$"):
        reals([10**400, 0], "x")


NUMBER = st.one_of(st.integers(-(10**308), 10**308), st.floats(allow_nan=False, allow_infinity=False))
NESTED = st.one_of(
    st.lists(NUMBER, min_size=1, max_size=6).map(lambda x: (x, 1)),
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(NUMBER, min_size=d, max_size=d), min_size=1, max_size=5).map(lambda x: (x, 2))
    ),
)


@settings(max_examples=300, deadline=None)
@given(NESTED)
def test_the_array_rule_converts_as_numpy_does(case):
    x, ndim = case
    got, want = reals(x, "x", ndim), np.asarray(x, dtype=float)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
