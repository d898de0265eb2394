import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    VARIANTS,
    central_difference_gradient,
    csv_writer_bytes,
    cyclic_squared_formula,
    equilateral_ball_family_oracle,
    make_set,
    pairwise_squared_loop,
    project_rows_loop,
)
from cyclex import (
    Ball,
    BlockCountMismatch,
    Box,
    CyclicSquared,
    DimensionMismatch,
    Ellipsoid,
    Family,
    InvalidStepSize,
    NotConverged,
    PairwiseSquared,
    QuadraticToTarget,
    Singleton,
    SolverConfig,
    TooFewSets,
    diagonal_project,
    fair_point_residual,
    fixpoint_check,
    project_blocks,
    solve_parallel,
    solve_projected_gradient,
)
from cyclex.product import write_iteration_csv

EQUILATERAL_CENTERS = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 3.0 * math.sqrt(3.0)]])


def equilateral_family():
    return Family(tuple(Ball(c, 1.0) for c in EQUILATERAL_CENTERS))


# each solver on a family and a start, minimizing the pairwise objective
SOLVERS = {
    "projected_gradient": lambda fam, x0: solve_projected_gradient(fam, PairwiseSquared(fam.m), x0),
    "parallel": lambda fam, x0: solve_parallel(fam, x0),
}


class TestObjectives:
    Y = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_pairwise_value(self):
        # (1/4) * (1 + 1 + 2)
        assert PairwiseSquared(3).value(self.Y) == pytest.approx(1.0, abs=1e-15)

    def test_pairwise_gradient(self):
        g = PairwiseSquared(3).gradient(self.Y)
        assert np.allclose(g, [[-0.5, -0.5], [1.0, -0.5], [-0.5, 1.0]], atol=1e-15)

    def test_constant_tuple_is_minimizer(self):
        y = np.tile([2.0, -3.0], (4, 1))
        for obj in (PairwiseSquared(4), CyclicSquared(4)):
            assert obj.value(y) == 0.0
            assert np.allclose(obj.gradient(y), 0.0)

    def test_quadratic_at_target(self):
        target = np.array([[1.0, 2.0], [3.0, 4.0]])
        obj = QuadraticToTarget(target)
        assert obj.value(target) == 0.0
        assert np.allclose(obj.gradient(target), 0.0)

    def test_block_count_mismatch(self):
        fam = Family((Ball([0, 0], 1.0), Ball([4, 0], 1.0)))
        with pytest.raises(BlockCountMismatch):
            solve_projected_gradient(fam, PairwiseSquared(3), np.zeros((2, 2)))

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(2, 12),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, 1.0, -3e4, 1e8, -1e12]),
        scale=st.sampled_from([1.0, 1e-150, 1e-8, 1e6, 1e100]),
    )
    def test_pairwise_value_equals_double_loop(self, m, d, seed, offset, scale):
        # exact equality: artifacts built from the objective must not move a bit
        rng = np.random.default_rng(seed)
        y = offset + scale * rng.standard_normal((m, d))
        assert PairwiseSquared(m).value(y) == pairwise_squared_loop(y)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(2, 6).flatmap(
            lambda m: st.lists(
                st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=3),
                min_size=m,
                max_size=m,
            )
        )
    )
    def test_pairwise_value_equals_double_loop_on_raw_floats(self, rows):
        y = np.array(rows)
        assert PairwiseSquared(len(rows)).value(y) == pairwise_squared_loop(y)

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(2, 8), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_cyclic_equals_its_np_roll_formulas(self, m, d, seed):
        y = np.random.default_rng(seed).standard_normal((m, d))
        obj = CyclicSquared(m)
        assert obj.value(y) == cyclic_squared_formula(y)
        want = 2.0 * (2.0 * y - np.roll(y, 1, axis=0) - np.roll(y, -1, axis=0))
        assert obj.gradient(y).tobytes() == want.tobytes()

    @pytest.mark.parametrize("make", [
        lambda m: PairwiseSquared(m),
        lambda m: CyclicSquared(m),
        lambda m: QuadraticToTarget(np.arange(2 * m, dtype=float).reshape(m, 2)),
    ])
    def test_gradient_matches_finite_differences(self, make):
        rng = np.random.default_rng(7)
        for m in (2, 3, 5):
            obj = make(m)
            for _ in range(30):
                y = rng.uniform(-4, 4, (m, 2))
                g = obj.gradient(y)
                fd = central_difference_gradient(obj, y)
                assert np.linalg.norm(fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))

    @pytest.mark.parametrize("make,bound", [
        (lambda m: PairwiseSquared(m), lambda m: m / (m - 1.0)),
        (lambda m: CyclicSquared(m), lambda m: 8.0),
        (lambda m: QuadraticToTarget(np.zeros((m, 3))), lambda m: 1.0),
    ])
    def test_lipschitz_bound_holds(self, make, bound):
        rng = np.random.default_rng(13)
        for m in (2, 3, 4):
            obj = make(m)
            assert obj.lipschitz_inverse_beta == pytest.approx(bound(m))
            for _ in range(100):
                u = rng.uniform(-6, 6, (m, 3))
                v = rng.uniform(-6, 6, (m, 3))
                lhs = np.linalg.norm(obj.gradient(u) - obj.gradient(v))
                assert lhs <= obj.lipschitz_inverse_beta * np.linalg.norm(u - v) + 1e-10


class TestProjectedGradient:
    def test_one_step_projection_of_target(self):
        # x - gamma*grad equals the target after one step, so block 1 lands on P_C1(a)
        a = np.array([3.0, 0.0])
        fam = Family((Ball([0, 0], 1.0), Box([-50, -50], [50, 50])))
        obj = QuadraticToTarget(np.stack([a, a]))
        sol = solve_projected_gradient(fam, obj, np.zeros((2, 2)), SolverConfig(gamma=1.0))
        assert np.allclose(sol.blocks[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(sol.blocks[1], a, atol=1e-12)

    def test_three_singletons_reach_only_feasible_tuple(self):
        pts = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, -4.0]])
        fam = Family(tuple(Singleton(p) for p in pts))
        sol = solve_projected_gradient(fam, PairwiseSquared(3), np.zeros((3, 2)), SolverConfig(gamma=1.0))
        assert np.allclose(sol.blocks, pts, atol=1e-12)

    def test_matches_parallel_on_spread_balls(self):
        fam = Family((Ball([0, 0], 1.0), Ball([6, 0], 1.0), Ball([0, 6], 1.0)))
        x0 = np.tile([1.0, 1.0], (3, 1))
        cfg = SolverConfig(gamma=1.0)
        s1 = solve_projected_gradient(fam, PairwiseSquared(3), x0, cfg)
        s2 = solve_parallel(fam, x0, cfg, variant="others_mean")
        assert np.max(np.abs(s1.blocks - s2.blocks)) <= 1e-6

    def test_invalid_gamma(self):
        fam = Family((Ball([0, 0], 1.0), Ball([4, 0], 1.0)))
        obj = QuadraticToTarget(np.zeros((2, 2)))
        with pytest.raises(InvalidStepSize):
            solve_projected_gradient(fam, obj, np.zeros((2, 2)), SolverConfig(gamma=2.0))

    def test_lambda_schedule_validated(self):
        fam = Family((Ball([0, 0], 1.0), Ball([4, 0], 1.0)))
        obj = QuadraticToTarget(np.zeros((2, 2)))
        cfg = SolverConfig(gamma=1.0, lambda_schedule=lambda n: 99.0)
        with pytest.raises(InvalidStepSize):
            solve_projected_gradient(fam, obj, np.zeros((2, 2)), cfg)

    def test_under_relaxation_still_converges(self):
        fam = equilateral_family()
        cfg = SolverConfig(gamma=1.0, lambda_schedule=lambda n: 0.5)
        sol = solve_projected_gradient(fam, PairwiseSquared(3), EQUILATERAL_CENTERS, cfg)
        oracle, _ = equilateral_ball_family_oracle(EQUILATERAL_CENTERS, 1.0)
        assert np.max(np.abs(sol.blocks - oracle)) <= 1e-6

    def test_not_converged_attaches_solution(self):
        fam = Family((Ball([0, 0], 1.0), Ball([9, 0], 1.0), Ball([5, 7], 1.0)))
        cfg = SolverConfig(gamma=1.0, max_iters=2)
        with pytest.raises(NotConverged) as exc_info:
            solve_projected_gradient(fam, PairwiseSquared(3), np.zeros((3, 2)), cfg)
        sol = exc_info.value.diagnostics["solution"]
        assert sol.stop_reason == "max_iterations"
        assert len(sol.log) == 3


@pytest.mark.parametrize("solver", ["projected_gradient", "parallel"])
def test_failed_certificate_is_its_own_stop_reason(solver):
    # a loose sweep_tol stops after one iteration, far from the limit
    fam = Family((Ball([0, 0], 1.0), Ball([9, 0], 1.0), Ball([5, 7], 1.0)))
    cfg = SolverConfig(sweep_tol=1e3)
    with pytest.raises(NotConverged, match="stop_reason=certificate_failed") as exc_info:
        if solver == "parallel":
            solve_parallel(fam, np.zeros((3, 2)), cfg)
        else:
            solve_projected_gradient(fam, PairwiseSquared(3), np.zeros((3, 2)), cfg)
    sol = exc_info.value.diagnostics["solution"]
    assert sol.stop_reason == "certificate_failed"
    assert sol.iterations == 1
    assert sol.stationarity > cfg.fixpoint_tol


class TestParallel:
    def test_three_singletons_one_iteration(self):
        pts = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, -4.0]])
        fam = Family(tuple(Singleton(p) for p in pts))
        sol = solve_parallel(fam, np.zeros((3, 2)))
        assert np.allclose(sol.blocks, pts, atol=1e-12)
        assert np.allclose(sol.fair_point, pts.mean(axis=0), atol=1e-12)

    def test_equilateral_matches_symmetry_oracle(self):
        sol = solve_parallel(equilateral_family(), EQUILATERAL_CENTERS)
        oracle, travel = equilateral_ball_family_oracle(EQUILATERAL_CENTERS, 1.0)
        assert travel == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(sol.blocks - oracle)) <= 1e-6
        assert sol.stationarity <= 1e-8

    def test_full_mean_variant_agrees_at_the_limit(self):
        fam = equilateral_family()
        s1 = solve_parallel(fam, EQUILATERAL_CENTERS, variant="others_mean")
        s2 = solve_parallel(fam, EQUILATERAL_CENTERS, variant="full_mean")
        assert np.max(np.abs(s1.blocks - s2.blocks)) <= 1e-6

    def test_common_point_collapses_to_diagonal(self):
        fam = Family((Ball([0, 0], 2.0), Box([-1, -1], [1, 1]), Ball([1, 1], 3.0)))
        cfg = SolverConfig()
        sol = solve_parallel(fam, np.tile([5.0, -5.0], (3, 1)), cfg)
        spread = np.max(np.linalg.norm(sol.blocks - sol.blocks.mean(axis=0), axis=1))
        assert spread <= 10 * cfg.cycle_tol
        assert sol.objective <= 1e-12

    def test_others_mean_needs_three_sets(self):
        fam = Family((Ball([0, 0], 1.0), Ball([4, 0], 1.0)))
        with pytest.raises(TooFewSets):
            solve_parallel(fam, np.zeros((2, 2)), variant="others_mean")

    def test_full_mean_allows_two_sets(self):
        fam = Family((Ball([0, 0], 1.0), Ball([4, 0], 1.0)))
        sol = solve_parallel(fam, np.zeros((2, 2)), variant="full_mean")
        assert np.allclose(sol.blocks[0], [1.0, 0.0], atol=1e-8)
        assert np.allclose(sol.blocks[1], [3.0, 0.0], atol=1e-8)

    def test_objective_descends_along_run(self):
        fam = Family((Ball([0, 0], 1.0), Ball([7, 1], 1.0), Ball([3, 6], 1.0)))
        sol = solve_parallel(fam, np.tile([10.0, -10.0], (3, 1)))
        values = [rec.objective for rec in sol.log[1:]]  # row 0 is the off-constraint start
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        sets = tuple(make_set("ball", 2, rng) for _ in range(4))
        x0 = rng.uniform(-3, 3, (4, 2))
        perm = np.array([2, 0, 3, 1])
        sol = solve_parallel(Family(sets), x0)
        sol_p = solve_parallel(Family(tuple(sets[i] for i in perm)), x0[perm])
        assert np.max(np.abs(sol.blocks[perm] - sol_p.blocks)) <= 1e-9


class TestResiduals:
    def test_fair_point_of_singletons_is_centroid(self):
        pts = np.array([[1.0, 0.0], [0.0, 3.0], [-2.0, 0.0]])
        fam = Family(tuple(Singleton(p) for p in pts))
        centroid = pts.mean(axis=0)
        assert fair_point_residual(fam, centroid) == pytest.approx(0.0, abs=1e-15)
        off = fair_point_residual(fam, pts[0])
        assert off == pytest.approx(np.linalg.norm(pts[0] - centroid), abs=1e-12)

    def test_fair_point_zero_in_common_intersection(self):
        fam = Family((Ball([0, 0], 2.0), Box([-1, -1], [1, 1])))
        assert fair_point_residual(fam, [0.3, -0.2]) == 0.0

    def test_fixpoint_check_on_converged_run(self):
        sol = solve_parallel(equilateral_family(), EQUILATERAL_CENTERS)
        r1, r2 = fixpoint_check(equilateral_family(), sol.blocks)
        assert r1 <= 1e-8
        assert r2 <= 1e-8

    def test_fixpoint_check_singletons_exact(self):
        pts = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, -4.0]])
        fam = Family(tuple(Singleton(p) for p in pts))
        r1, _ = fixpoint_check(fam, pts)
        assert r1 == 0.0

    def test_fixpoint_check_flags_perturbation(self):
        fam = equilateral_family()
        sol = solve_parallel(fam, EQUILATERAL_CENTERS)
        bumped = sol.blocks.copy()
        bumped[0, 0] += 0.1
        r1, _ = fixpoint_check(fam, bumped)
        assert r1 > 1e-3

    def test_diagonal_project_means_blocks(self):
        y = np.array([[1.0, 0.0], [3.0, 2.0]])
        assert np.allclose(diagonal_project(y), [[2.0, 1.0], [2.0, 1.0]])


def test_reduction_identity_iterate_for_iterate():
    rng = np.random.default_rng(101)
    for _ in range(4):
        centers = rng.uniform(-6, 6, (3, 2))
        fam = Family(tuple(Ball(c, r) for c, r in zip(centers, rng.uniform(0.3, 1.5, 3))))
        x0 = np.tile(rng.uniform(-5, 5, 2), (3, 1))
        cfg = SolverConfig(gamma=1.0)
        s1 = solve_projected_gradient(fam, PairwiseSquared(3), x0, cfg)
        s2 = solve_parallel(fam, x0, cfg, variant="others_mean")
        assert len(s1.log) == len(s2.log)
        for a, b in zip(s1.log, s2.log):
            assert np.max(np.abs(a.blocks - b.blocks)) <= 1e-12


class TestProjectBlocks:
    FAMILY = Family((Ball([0, 0], 1.0), Box([2, 2], [3, 3]), Ball([5, 0], 1.0)))

    def test_blockwise(self):
        y = np.array([[3.0, 0.0], [0.0, 0.0], [5.0, 0.5]])
        assert np.array_equal(project_blocks(self.FAMILY, y), [[1.0, 0.0], [2.0, 2.0], [5.0, 0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        y = np.zeros((3, 2))
        y[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            project_blocks(self.FAMILY, y)

    @pytest.mark.parametrize("shape,error", [
        ((2, 2), BlockCountMismatch),
        ((4, 2), BlockCountMismatch),
        ((3, 3), DimensionMismatch),
        ((3, 2, 1), ValueError),
    ])
    def test_rejects_mis_shaped(self, shape, error):
        with pytest.raises(error):
            project_blocks(self.FAMILY, np.zeros(shape))

    def test_family_pickles_after_use(self):
        # the grouping cached on first use stays out of the pickle
        fam = Family((Ball([0, 0], 1.0), Ball([4, 0], 1.0), Box([2, 2], [3, 3])))
        y = np.array([[3.0, 0.0], [4.0, 0.5], [0.0, 0.0]])
        want = project_blocks(fam, y)
        clone = pickle.loads(pickle.dumps(fam))
        assert np.array_equal(project_blocks(clone, y), want)


def oracle_set(kind, dim, rng):
    """A catalog set, a radius-0 ball or a box whose bounds are signed zeros."""
    if kind == "zero_ball":
        return Ball(rng.uniform(-5, 5, dim), 0.0)
    if kind == "zero_box":
        return Box(*np.where(rng.random((2, dim)) < 0.5, -0.0, 0.0))
    return make_set(kind, dim, rng)


def oracle_row(kind, targets, dim, rng):
    """A block to project onto each set of ``targets``: random, the center
    of the first if it is a ball, signed zeros, or so large that its squared
    distance to a ball overflows (unless an ellipsoid, whose interior test
    overflows too, is among the targets)."""
    if kind == "center" and isinstance(targets[0], Ball):
        return targets[0].center.copy()
    if kind == "zeros":
        return np.where(rng.random(dim) < 0.5, -0.0, 0.0)
    if kind == "huge" and not any(isinstance(s, Ellipsoid) for s in targets):
        return rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(155, 300, dim)
    return rng.uniform(-8, 8, dim)


def oracle_case(seed, dim, kinds, row_kinds, broadcast):
    """A family of the given set kinds and a point to project, stacked or
    (like the full_mean target) one row broadcast to every block."""
    rng = np.random.default_rng(seed)
    family = Family(tuple(oracle_set(kind, dim, rng) for kind in kinds))
    if broadcast:
        row = oracle_row(row_kinds[0], family.sets, dim, rng)
        return family, np.broadcast_to(row, (family.m, dim))
    return family, np.array([oracle_row(kind, (s,), dim, rng) for kind, s in zip(row_kinds, family.sets)])


ORACLE_CASES = st.integers(2, 12).flatmap(
    lambda m: st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.lists(st.sampled_from(VARIANTS + ("zero_ball", "zero_box")), min_size=m, max_size=m),
        st.lists(st.sampled_from(["random", "center", "zeros", "huge"]), min_size=m, max_size=m),
        st.booleans(),
    )
)


@settings(max_examples=300, deadline=None)
@given(case=ORACLE_CASES)
def test_project_blocks_equals_row_loop(case):
    # bit for bit, signs of zero included: every artifact is built from it
    family, y = oracle_case(*case)
    before = y.copy()
    want = project_rows_loop(family, y)
    for _ in range(2):  # grouping the rows, then from the cached groups
        got = project_blocks(family, y)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got.flags.c_contiguous
    assert np.array_equal(y, before)


@settings(max_examples=100, deadline=None)
@given(case=ORACLE_CASES)
def test_residuals_equal_row_loop_formulas(case):
    seed, dim, kinds, _, broadcast = case
    family, y = oracle_case(seed, dim, kinds, ["random"] * len(kinds), broadcast)
    v = y[0]
    mean = np.mean([s._project(v) for s in family.sets], axis=0)
    assert fair_point_residual(family, v) == float(np.linalg.norm(v - mean))
    z = diagonal_project(y)
    pcz = project_rows_loop(family, z)
    assert fixpoint_check(family, y) == (
        float(np.linalg.norm(y - pcz)),
        float(np.linalg.norm(z - diagonal_project(pcz))),
    )


@pytest.mark.parametrize("solver", SOLVERS)
def test_log_rows_are_the_iterates(solver):
    start = EQUILATERAL_CENTERS.copy()
    sol = SOLVERS[solver](equilateral_family(), start)
    log = sol.log
    assert sol.iterations > 1
    assert len(log) == sol.iterations + 1
    assert log[-1].blocks.tobytes() == sol.blocks.tobytes()
    assert log[-1].objective == sol.objective
    start[:] = 99.0  # the log keeps no view of the caller's start
    assert np.array_equal(log[0].blocks, EQUILATERAL_CENTERS)


@pytest.mark.parametrize("solver", SOLVERS)
def test_iteration_csv_matches_csv_writer(tmp_path, solver):
    # row 0 carries NaN displacement and stationarity
    sol = SOLVERS[solver](equilateral_family(), EQUILATERAL_CENTERS)
    path = tmp_path / "log.csv"
    write_iteration_csv(sol.log, path)
    header = ["iter", "objective_value", "displacement", "stationarity_residual"]
    header += [f"block{i}_x{j}" for i in range(3) for j in range(2)]
    rows = [
        [i, r.objective, r.displacement, r.stationarity, *r.blocks.ravel()]
        for i, r in enumerate(sol.log)
    ]
    assert math.isnan(rows[0][2]) and math.isnan(rows[0][3])
    assert path.read_bytes() == csv_writer_bytes(header, rows)


def test_iteration_csv_layout(tmp_path):
    fam = equilateral_family()
    sol = solve_parallel(fam, EQUILATERAL_CENTERS)
    path = tmp_path / "log.csv"
    write_iteration_csv(sol.log, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["iter", "objective_value", "displacement", "stationarity_residual"]
    assert len(header) == 4 + 6
    assert len(lines) == 1 + len(sol.log)
