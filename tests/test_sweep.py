import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_rows_replay_sweeps, csv_writer_bytes, make_set, traced_peak
from cyclex import (
    Ball,
    Box,
    ConvexSet,
    Cycle,
    Family,
    Halfspace,
    LengthMismatch,
    NotConverged,
    Segment,
    Singleton,
    SolverConfig,
    cycle_residual,
    min_distance_pair,
    run_periodic,
    sweep_once,
)
from cyclex.sums import distance_kernel
from cyclex.sweep import _CHUNK_FLOATS, write_trajectory_csv

Z = np.array([1.0, 0.0])


def degenerate_family(rho=2.0):
    return Family((Singleton([0, 0]), Segment(-Z, Z), Singleton(rho * Z)))


class TestSweepOnce:
    def test_applies_last_set_first(self):
        final, inter = sweep_once(degenerate_family(), [5, 5])
        assert np.allclose(inter[0], [2, 0])
        assert np.allclose(inter[1], [1, 0])
        assert np.allclose(inter[2], [0, 0])
        assert np.allclose(final, [0, 0])

    def test_identical_sets_one_projection_suffices(self):
        fam = Family((Ball([0, 0], 1.0), Ball([0, 0], 1.0)))
        final, _ = sweep_once(fam, [3, 0])
        assert np.allclose(final, [1, 0])

    def test_common_point_is_fixed(self):
        fam = Family((Ball([0, 0], 2.0), Box([-1, -1], [1, 1]), Halfspace([1, 0], 5.0)))
        x = np.array([0.5, -0.5])
        final, inter = sweep_once(fam, x)
        assert np.array_equal(final, x)
        for p in inter:
            assert np.array_equal(p, x)

    def test_custom_order(self):
        fam = degenerate_family()
        final, inter = sweep_once(fam, [5, 5], order=(0, 1, 2))
        assert np.allclose(inter[0], [0, 0])  # singleton {0} applied first
        assert np.allclose(final, [2, 0])

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            sweep_once(degenerate_family(), [5, 5], order=(0, 0, 1))


class TestCycleResidual:
    def test_exact_cycle_is_zero(self):
        assert cycle_residual(degenerate_family(), [[0, 0], [1, 0], [2, 0]]) == 0.0

    def test_single_defect(self):
        # y_2 = (0,0) but P_2(2z) = z, a unit gap
        assert cycle_residual(degenerate_family(), [[0, 0], [0, 0], [2, 0]]) == 1.0

    def test_common_point_repeated(self):
        fam = Family((Ball([0, 0], 2.0), Box([-1, -1], [1, 1])))
        p = [0.5, 0.5]
        assert cycle_residual(fam, [p, p]) == 0.0

    @pytest.mark.parametrize("gap", [1e200, 5e-170])
    def test_gap_whose_square_leaves_the_range(self, gap):
        # gap * gap overflows (underflows): the residual is still the gap, not inf (0.0)
        fam = Family((Singleton([0, 0]), Singleton([gap, 0])))
        assert cycle_residual(fam, [[0, 0], [0, 0]]) == gap

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cycle_residual(degenerate_family(), [[0, 0], [1, 0]])


class TestRunPeriodic:
    def test_degenerate_family_cycle(self):
        traj, cycle = run_periodic(degenerate_family(), [5, 5])
        assert np.allclose(cycle.points[0], [0, 0], atol=1e-12)
        assert np.allclose(cycle.points[1], [1, 0], atol=1e-12)
        assert np.allclose(cycle.points[2], [2, 0], atol=1e-12)
        assert cycle.residual <= 1e-12
        assert traj.stop_reason == "converged"

    def test_two_disjoint_balls(self):
        fam = Family((Ball([0, 0], 1.0), Ball([5, 0], 1.0)))
        _, cycle = run_periodic(fam, [0, 3])
        assert np.allclose(cycle.points[0], [1, 0], atol=1e-9)
        assert np.allclose(cycle.points[1], [4, 0], atol=1e-9)
        assert cycle.residual <= 1e-10

    def test_intersecting_halfspaces_share_point(self):
        fam = Family((Halfspace([1, 0], 1.0), Halfspace([0, 1], 1.0)))
        with pytest.warns(RuntimeWarning):
            _, cycle = run_periodic(fam, [9, 9])
        assert np.linalg.norm(cycle.points[0] - cycle.points[1]) <= 1e-10
        assert cycle.residual <= 1e-12

    def test_feasible_family_with_bounded_set_collapses(self):
        fam = Family((Ball([0, 0], 2.0), Box([-1, -1], [1, 1]), Halfspace([1, 1], 3.0)))
        cfg = SolverConfig()
        _, cycle = run_periodic(fam, [8, -6], cfg)
        pts = np.stack(cycle.points)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(pts[i] - pts[j]) <= 10 * cfg.cycle_tol

    def test_not_converged_carries_diagnostics(self):
        fam = Family((Ball([0, 0], 1.0), Ball([5, 0], 1.0)))
        with pytest.raises(NotConverged) as exc_info:
            run_periodic(fam, [0, 100], SolverConfig(max_sweeps=2))
        diag = exc_info.value.diagnostics
        assert diag["trajectory"].stop_reason == "max_iterations"
        assert diag["cycle"].residual > 0.0

    def test_sweep_distances_to_limit_never_increase(self):
        fam = Family((Ball([0, 0], 1.0), Ball([5, 0], 1.0), Ball([2, 4], 1.0)))
        traj, _ = run_periodic(fam, [7, -3])
        ends = traj.sweep_ends()
        f = ends[-1]
        dists = np.linalg.norm(ends - f, axis=1)
        assert np.all(np.diff(dists) <= 1e-10)

    def test_order_covariance_under_rotation(self):
        rng = np.random.default_rng(3)
        sets = tuple(make_set("ball", 2, rng) for _ in range(4))
        fam = Family(sets)
        pts = [rng.uniform(-5, 5, 2) for _ in range(4)]
        base = cycle_residual(fam, pts)
        for shift in range(1, 4):
            fam_rot = Family(sets[shift:] + sets[:shift])
            pts_rot = pts[shift:] + pts[:shift]
            assert abs(cycle_residual(fam_rot, pts_rot) - base) <= 1e-12


class TestMinDistancePair:
    def test_disjoint_balls_distance(self):
        (_, _), dist = min_distance_pair(Ball([0, 0], 1.0), Ball([5, 0], 1.0), [0, 3])
        assert abs(dist - 3.0) <= 1e-8

    def test_intersecting_sets_distance_zero(self):
        (y1, y2), dist = min_distance_pair(Ball([0, 0], 2.0), Ball([1, 0], 2.0), [0, 3])
        assert dist <= 1e-9

    def test_parallel_slabs(self):
        with pytest.warns(RuntimeWarning):
            (y1, y2), dist = min_distance_pair(
                Halfspace([1, 0], 0.0), Halfspace([-1, 0], -2.0), [7, 3]
            )
        assert abs(dist - 2.0) <= 1e-8
        assert abs(y1[0]) <= 1e-12
        assert abs(y2[0] - 2.0) <= 1e-12

    def test_distance_beats_random_feasible_pairs(self):
        c1, c2 = Ball([0, 0], 1.0), Ball([5, 0], 1.0)
        _, dist = min_distance_pair(c1, c2, [0, 3])
        rng = np.random.default_rng(17)
        for _ in range(100):
            p1, p2 = c1.sample(rng), c2.sample(rng)
            assert dist <= np.linalg.norm(p1 - p2) + 1e-8


@settings(max_examples=40, deadline=None)
@given(
    x=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2).map(np.array),
    rho=st.floats(1.1, 10.0),
)
def test_degenerate_family_converges_from_anywhere(x, rho):
    _, cycle = run_periodic(degenerate_family(rho), x)
    assert cycle.residual <= 1e-12
    assert np.allclose(cycle.points[-1], [rho, 0.0], atol=1e-12)


def test_cycle_recomputes_residual_on_construction():
    fam = degenerate_family()
    cycle = Cycle.from_points(fam, [[0, 0], [0.5, 0], [2, 0]])
    # P_2(2z) = z, so the stored second point is half a unit off
    assert abs(cycle.residual - 0.5) <= 1e-12


def test_trajectory_csv_layout(tmp_path):
    traj, _ = run_periodic(degenerate_family(), [5, 5])
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sweep,n_inner,set_index,x_0,x_1"
    assert lines[1] == "0,0,2,2.0,0.0"
    assert len(lines) == 1 + len(traj.iterates)


def test_trajectory_iterates_are_one_array():
    fam = degenerate_family()
    traj, _ = run_periodic(fam, [5, 5])
    assert isinstance(traj.iterates, np.ndarray)
    assert traj.iterates.shape == (traj.sweeps_used * fam.m, 2)
    assert_rows_replay_sweeps(fam, traj)


@settings(max_examples=40, deadline=None)
@given(
    variants=st.lists(st.sampled_from(["ball", "box", "ellipsoid"]), min_size=2, max_size=4),
    dim=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_periodic_rows_replay_sweep_once(variants, dim, seed):
    rng = np.random.default_rng(seed)
    fam = Family(tuple(make_set(v, dim, rng) for v in variants))
    try:
        traj, _ = run_periodic(fam, rng.uniform(-10, 10, dim), SolverConfig(max_sweeps=300))
    except NotConverged as exc:
        traj = exc.diagnostics["trajectory"]
    assert traj.iterates.shape == (traj.sweeps_used * fam.m, dim)
    assert_rows_replay_sweeps(fam, traj)


# unit balls that touch at one point: their sweeps keep moving for thousands
# of sweeps, each move shorter than the one before
TANGENT_BALLS = {
    2: (Family((Ball([0, 0], 1.0), Ball([2, 0], 1.0))), [0.0, 3.0]),
    3: (Family((Ball([0, 0, 0], 1.0), Ball([0, 2, 0], 1.0))), [3.0, 0.5, -1.0]),
}


def sweeps_per_flush(fam):
    """Sweeps whose coordinates the run gathers before it flushes them."""
    return _CHUNK_FLOATS // (fam.m * fam.dim)


@pytest.mark.parametrize("dim", TANGENT_BALLS)
@pytest.mark.parametrize("flushes, past_flush", [(1, -1), (1, 0), (1, 1), (3, 7)])
def test_budget_run_stops_around_a_flush_with_every_row(dim, flushes, past_flush):
    fam, x0 = TANGENT_BALLS[dim]
    sweeps = flushes * sweeps_per_flush(fam) + past_flush
    with pytest.raises(NotConverged, match="stop_reason=max_iterations") as exc_info:
        run_periodic(fam, x0, SolverConfig(max_sweeps=sweeps))
    traj = exc_info.value.diagnostics["trajectory"]
    assert traj.sweeps_used == sweeps
    assert traj.iterates.dtype == np.float64 and traj.iterates.shape == (sweeps * fam.m, dim)
    assert_rows_replay_sweeps(fam, traj)


@pytest.mark.parametrize("dim", TANGENT_BALLS)
@pytest.mark.parametrize("past_flush", [-1, 0, 1])
def test_converged_run_stops_around_a_flush_with_every_row(dim, past_flush):
    # the tolerance is the displacement of the chosen sweep, which is below
    # every earlier one: the run converges exactly there
    fam, x0 = TANGENT_BALLS[dim]
    sweeps = sweeps_per_flush(fam) + past_flush
    with pytest.raises(NotConverged) as exc_info:
        run_periodic(fam, x0, SolverConfig(max_sweeps=sweeps))
    ends = exc_info.value.diagnostics["trajectory"].sweep_ends().tolist()
    distance = distance_kernel(dim)
    moves = [distance(b, a) for a, b in zip(ends, ends[1:])]
    assert min(moves[:-1]) > moves[-1] > 0.0
    traj, _ = run_periodic(fam, x0, SolverConfig(sweep_tol=moves[-1], cycle_tol=1.0))
    assert traj.stop_reason == "converged"
    assert traj.sweeps_used == sweeps
    assert traj.iterates.shape == (sweeps * fam.m, dim)
    assert_rows_replay_sweeps(fam, traj)


def test_trajectory_costs_its_doubles_plus_one_chunk():
    # 50 000 sweeps of the tangent pair keep 1.6 MB of iterates; a run that
    # kept them as Python floats, 32 B each, peaked at 5x that
    fam, x0 = TANGENT_BALLS[2]

    def run_out_the_budget():
        with pytest.raises(NotConverged) as exc_info:
            run_periodic(fam, x0, SolverConfig(max_sweeps=50_000))
        return exc_info.value.diagnostics["trajectory"].iterates

    iterates, peak = traced_peak(run_out_the_budget)
    assert iterates.shape == (100_000, 2)
    assert peak <= 1.25 * iterates.nbytes


@settings(max_examples=40, deadline=None)
@given(
    variants=st.lists(st.sampled_from(["ball", "box", "ellipsoid", "segment"]), min_size=2, max_size=4),
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_periodic_certifies_the_cycle_it_returns(variants, dim, seed):
    # the engine's certificate is the public residual of the points it reports
    rng = np.random.default_rng(seed)
    fam = Family(tuple(make_set(v, dim, rng) for v in variants))
    try:
        _, cycle = run_periodic(fam, rng.uniform(-10, 10, dim), SolverConfig(max_sweeps=300))
    except NotConverged as exc:
        cycle = exc.diagnostics["cycle"]
    assert cycle.residual.hex() == cycle_residual(fam, cycle.points).hex()
    assert cycle.to_dict(1, "converged")["points"] == [[float(c) for c in p] for p in cycle.points]


def test_failed_certificate_is_its_own_stop_reason():
    # a loose sweep_tol stops after one sweep, far from the cycle
    fam = Family((Ball([0, 0], 1.0), Ball([5, 0], 1.0)))
    with pytest.raises(NotConverged, match="stop_reason=certificate_failed") as exc_info:
        run_periodic(fam, [0, 3], SolverConfig(sweep_tol=5.0))
    diag = exc_info.value.diagnostics
    assert diag["trajectory"].stop_reason == "certificate_failed"
    assert diag["trajectory"].sweeps_used == 1
    assert diag["cycle"].residual > SolverConfig().cycle_tol


def test_trajectory_csv_matches_csv_writer(tmp_path):
    # rows rebuilt by replaying the sweeps with the sets' own _project, last set first,
    # as assert_rows_replay_sweeps does
    fam = Family((Ball([0, 0], 1.0), Ball([3, 0.5], 1.0), Box([1, -2], [2, -1])))
    traj, _ = run_periodic(fam, [-4.0, 7.25])
    rows, x = [], traj.start.tolist()
    for n in range(traj.sweeps_used):
        for k, i in enumerate(reversed(range(fam.m))):
            x = fam.sets[i]._project(x)
            rows.append([n, k, i, *x])
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    header = ["sweep", "n_inner", "set_index", "x_0", "x_1"]
    assert path.read_bytes() == csv_writer_bytes(header, rows)


class NaNProjector(ConvexSet):
    """A faulty set whose projection of every point is NaN."""

    dim = 2
    bounded = False

    def _project(self, x):
        return np.full(2, np.nan)


def test_non_finite_iterate_stops_the_run():
    # the faulty set, applied first, turns the start into NaN
    with np.errstate(invalid="ignore"):
        fam = Family((Ball([0, 0], 1.0), NaNProjector()))
        with pytest.raises(ValueError, match="point has non-finite coordinates"):
            run_periodic(fam, [1e200, 0])
