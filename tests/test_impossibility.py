import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    CANDIDATE_FORMULAS,
    csv_writer_bytes,
    dot_in_order,
    falsify_candidate_loop,
    random_unit,
    traced_peak,
)
from cyclex import (
    BUILTIN_CANDIDATES,
    AntipodalAmbiguity,
    Ball,
    Box,
    CandidateFunctional,
    CyclicSquared,
    DegenerateInput,
    Family,
    InvalidRho,
    InvalidUnitVector,
    PairwiseSquared,
    Ray,
    Segment,
    SpiralSpec,
    candidate_gap,
    degenerate_families,
    falsify_candidate,
    min_norm_point,
    orthogonal_completion,
    project,
    run_periodic,
    spiral,
)
from cyclex import impossibility
from cyclex.impossibility import _WALK_ROWS, VERDICT_FALSIFIED, write_spiral_csv
from cyclex.sums import norm


def spiral_at_angle(alpha, n, start_norm=1.0, target_norm=0.05):
    target = target_norm * np.array([math.cos(alpha), math.sin(alpha)])
    spec = SpiralSpec(target=target, start=[start_norm, 0.0], n=n)
    return spec, *spiral(spec)


class TestSpiral:
    def test_two_step_right_angle(self):
        spec = SpiralSpec(target=[0.0, 0.1], start=[1.0, 0.0], n=2)
        pts, final_norm = spiral(spec)
        assert spec.alpha == pytest.approx(math.pi / 2, abs=1e-15)
        assert np.allclose(pts[0], [1.0, 0.0])
        assert np.allclose(pts[1], [0.5, 0.5], atol=1e-15)
        assert np.allclose(pts[2], [0.0, 0.5], atol=1e-15)
        assert final_norm == pytest.approx(0.5, abs=1e-15)  # cos(pi/4)^2

    def test_zero_angle_keeps_start(self):
        pts, final_norm = spiral(SpiralSpec(target=[0.5, 0.0], start=[1.0, 0.0], n=7))
        assert np.array_equal(pts, np.tile([1.0, 0.0], (8, 1)))
        assert final_norm == 1.0

    def test_norm_law(self):
        for alpha in (math.pi / 6, math.pi / 2, 3 * math.pi / 4):
            for n in (3, 10, 100):
                _, pts, _ = spiral_at_angle(alpha, n)
                norms = np.linalg.norm(pts, axis=1)
                law = np.cos(alpha / n) ** np.arange(n + 1)
                assert np.max(np.abs(norms - law) / law) <= 1e-12

    def test_large_n_norm_approaches_start(self):
        # closed-form bound: cos(a/n)^n >= exp(-a^2/(2n)) - o(1) >= 1 - a^2/(2n)
        alpha, n = math.pi / 2, 10**6
        _, _, final_norm = spiral_at_angle(alpha, n)
        assert final_norm >= 1.0 - alpha**2 / (2 * n) - 1e-9
        assert final_norm >= 1.0 - 1e-5

    def test_points_lie_on_their_rays(self):
        spec, pts, _ = spiral_at_angle(2.0, 50)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        alpha = spec.alpha
        for k in range(1, 51):
            theta = alpha * k / 50
            ray = Ray(math.cos(theta) * e1 + math.sin(theta) * e2)
            assert np.linalg.norm(pts[k] - project(ray, pts[k])) <= 1e-12

    def test_chords_have_min_norm_at_next_point(self):
        _, pts, _ = spiral_at_angle(2.4, 80)
        for k in range(1, 81):
            chord = Segment(pts[k - 1], pts[k])
            assert np.linalg.norm(min_norm_point(chord) - pts[k]) <= 1e-12

    def test_final_point_collinear_with_target(self):
        spec, pts, final_norm = spiral_at_angle(1.1, 9)
        target = spec.target
        cross = pts[-1][0] * target[1] - pts[-1][1] * target[0]
        assert abs(cross) <= 1e-12
        assert float(pts[-1] @ target) > 0.0

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateInput):
            spiral(SpiralSpec(target=[0.0, 0.0], start=[1.0, 0.0], n=3))
        with pytest.raises(DegenerateInput):
            spiral(SpiralSpec(target=[2.0, 0.0], start=[1.0, 0.0], n=3))

    def test_antipodal_needs_plane(self):
        with pytest.raises(AntipodalAmbiguity):
            spiral(SpiralSpec(target=[-0.5, 0.0], start=[1.0, 0.0], n=4))
        pts, final_norm = spiral(
            SpiralSpec(target=[-0.5, 0.0], start=[1.0, 0.0], n=4, plane=[0.0, 1.0])
        )
        law = math.cos(math.pi / 4) ** 4
        assert final_norm == pytest.approx(law, rel=1e-12)
        assert pts[-1][0] < 0.0 and abs(pts[-1][1]) <= 1e-12

    def test_plane_hint_must_leave_the_line(self):
        with pytest.raises(AntipodalAmbiguity):
            spiral(SpiralSpec(target=[-0.5, 0.0], start=[1.0, 0.0], n=4, plane=[2.0, 0.0]))

    @pytest.mark.parametrize("n", [2.5, True, False, "3", 0, -1, None])
    def test_n_must_be_an_integer_at_least_one(self, n):
        with pytest.raises(ValueError, match="^n must be an integer >= 1$"):
            SpiralSpec(target=[0.0, 0.1], start=[1.0, 0.0], n=n)

    def test_numpy_integer_n_is_an_int(self):
        spec = SpiralSpec(target=[0.0, 0.1], start=[1.0, 0.0], n=np.int64(3))
        assert type(spec.n) is int and spec.n == 3

    @pytest.mark.parametrize("n", [1, _WALK_ROWS - 1, _WALK_ROWS, _WALK_ROWS + 1, 2 * _WALK_ROWS + 5])
    def test_points_are_the_plane_walk_in_every_block(self, n):
        # the walk's plane coordinates (p, q) for every row at once, then
        # p e1 + q e2 as two outer products and one add
        spec = SpiralSpec(target=[0.2, -0.1, 0.3], start=[1.0, 0.5, -0.25], n=n)
        ny, e1, e2, alpha = spec._frame
        ps, qs = [ny], [0.0]
        for k in range(1, n + 1):
            theta = alpha * (k / n)
            ct, st = math.cos(theta), math.sin(theta)
            r = max(ps[-1] * ct + qs[-1] * st, 0.0)
            ps.append(r * ct)
            qs.append(r * st)
        want = np.outer(ps, e1) + np.outer(qs, e2)
        want[0] = spec.start
        points, final_norm = spiral(spec)
        assert points.tobytes() == want.tobytes()
        assert final_norm == norm(want[-1].tolist())

    def test_points_cost_their_doubles_plus_one_block(self):
        # 10^5 rays in the plane keep 1.6 MB of points; building them as two
        # outer products and their sum peaked at 3x that
        (points, _), peak = traced_peak(lambda: spiral(SpiralSpec(target=[0.0, 0.1], start=[1.0, 0.0], n=100_000)))
        assert points.shape == (100_001, 2)
        assert peak <= 1.25 * points.nbytes


class TestOrthogonalCompletion:
    def test_perpendicular_and_unit(self):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 5):
            for _ in range(50):
                z = rng.standard_normal(dim)
                w = orthogonal_completion(z)
                assert abs(float(w @ z)) <= 1e-12 * np.linalg.norm(z)
                assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned(self):
        assert np.allclose(orthogonal_completion(np.array([1.0, 0.0])), [0.0, 1.0])
        assert np.allclose(orthogonal_completion(np.array([0.0, 2.0])), [1.0, 0.0])


class TestDegenerateFamilies:
    def test_m3_exact_cycles(self):
        df = degenerate_families(3, [1.0, 0.0], 2.0)
        want_pos = np.array([[0, 0], [1, 0], [2, 0]], float)
        want_neg = np.array([[0, 0], [-1, 0], [-2, 0]], float)
        assert np.array_equal(np.stack(df.positive_cycle.points), want_pos)
        assert np.array_equal(np.stack(df.negative_cycle.points), want_neg)
        assert df.positive_cycle.residual == 0.0
        assert df.negative_cycle.residual == 0.0

    def test_m4_with_second_axis(self):
        df = degenerate_families(4, [0.0, 1.0], 1.5)
        want = np.array([[0, 0], [0, 0], [0, 1], [0, 1.5]], float)
        assert np.allclose(np.stack(df.positive_cycle.points), want)
        assert df.positive_cycle.residual == 0.0

    def test_periodic_run_recovers_cycle(self):
        df = degenerate_families(3, [1.0, 0.0], 2.0, verify=False)
        _, cycle = run_periodic(df.positive_family, [7.0, -7.0])
        drift = max(
            np.linalg.norm(a - b) for a, b in zip(cycle.points, df.positive_cycle.points)
        )
        assert drift <= 1e-10

    def test_input_validation(self):
        with pytest.raises(InvalidUnitVector):
            degenerate_families(3, [2.0, 0.0], 2.0)
        with pytest.raises(InvalidRho):
            degenerate_families(3, [1.0, 0.0], 0.5)
        with pytest.raises(ValueError):
            degenerate_families(2, [1.0, 0.0], 2.0)

    def test_a_one_coordinate_z_builds_the_families(self):
        # {0}, [-1, 1] and {2} on the line: only the falsifier's sphere probes need a plane
        df = degenerate_families(3, [1.0], 2.0)
        assert df.positive_cycle.points[-1].tolist() == [2.0]


class TestFalsifier:
    def test_a_one_coordinate_z_is_refused_before_any_probe(self):
        with pytest.raises(InvalidUnitVector, match="^z must have dimension >= 2$"):
            falsify_candidate(BUILTIN_CANDIDATES["perimeter"], 3, [1.0], 2.0, 4)

    def test_perimeter_chain(self):
        report = falsify_candidate(BUILTIN_CANDIDATES["perimeter"], 3, [1.0, 0.0], 2.0, 8)
        assert report.chain_values == (4.0, 6.0, 4.0, 6.0)
        assert report.violated_link == "equality-1"
        assert report.gap == pytest.approx(2.0, abs=1e-12)
        assert report.verdict == VERDICT_FALSIFIED

    def test_cyclic_squared_chain(self):
        report = falsify_candidate(BUILTIN_CANDIDATES["cyclic2"], 3, [1.0, 0.0], 2.0, 8)
        assert report.chain_values == (6.0, 14.0, 6.0, 14.0)
        assert report.violated_link == "equality-1"
        assert report.gap == pytest.approx(8.0, abs=1e-12)

    def test_constant_fails_strictness(self):
        report = falsify_candidate(BUILTIN_CANDIDATES["constant"], 3, [1.0, 0.0], 2.0, 8)
        assert report.violated_link == "strict-1"
        assert report.gap == 0.0
        assert report.verdict == VERDICT_FALSIFIED

    def test_every_builtin_is_falsified(self):
        rng = np.random.default_rng(31)
        for m in (3, 4, 5):
            for name, cand in BUILTIN_CANDIDATES.items():
                z = rng.standard_normal(2)
                z /= np.linalg.norm(z)
                rho = float(rng.uniform(1.2, 5.0))
                report = falsify_candidate(cand, m, z, rho, 6, rng=rng)
                assert report.verdict == VERDICT_FALSIFIED, (name, m)

    def test_negation_symmetry_of_builtins(self):
        rng = np.random.default_rng(37)
        for name, cand in BUILTIN_CANDIDATES.items():
            y = rng.uniform(-3, 3, (4, 2))
            assert cand(y) == pytest.approx(cand(-y), abs=1e-12), name

    def test_sphere_probe_catches_hidden_dependence(self):
        # equal at +-rho z but varying along the probe plane
        sneaky = CandidateFunctional(lambda y: abs(float(y[-1][1])), "sneaky")
        report = falsify_candidate(sneaky, 3, [1.0, 0.0], 2.0, 16)
        assert report.verdict == VERDICT_FALSIFIED

    def test_report_dict_shape(self):
        report = falsify_candidate(BUILTIN_CANDIDATES["perimeter"], 3, [1.0, 0.0], 2.0, 4)
        payload = report.to_dict()
        assert set(payload) == {"candidate", "chain", "violated_link", "gap", "verdict"}
        assert payload["chain"] == [4.0, 6.0, 4.0, 6.0]

    @pytest.mark.parametrize("name,objective", [
        ("pairwise2", PairwiseSquared),
        ("cyclic2", CyclicSquared),
    ])
    def test_smooth_candidates_are_the_product_objectives(self, name, objective):
        rng = np.random.default_rng(41)
        for m in (3, 4, 7):
            y = rng.uniform(-3, 3, (m, 2))
            assert BUILTIN_CANDIDATES[name](y) == objective(m).value(y)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            falsify_candidate(BUILTIN_CANDIDATES["perimeter"], 3, [1.0, 0.0], 2.0, 1)


class TestCandidateGap:
    def test_degenerate_family_has_no_gap(self):
        # the segment's interior optimum sits at the clamped endpoint here
        z = np.array([1.0, 0.0])
        df = degenerate_families(3, z, 2.0, verify=False)
        exhibit = candidate_gap(df.positive_family, "cyclic2", [5.0, 5.0])
        assert exhibit.gap <= 1e-10
        assert exhibit.displacement <= 1e-5

    def test_off_axis_balls_separate_cycle_from_minimizer(self):
        fam = Family((Ball([0, 0], 1.0), Ball([10, 0], 1.0), Ball([5, 1], 1.0)))
        exhibit = candidate_gap(fam, "cyclic2", [0.0, 3.0])
        assert exhibit.gap > 1e-3
        assert exhibit.displacement > 1e-3
        assert exhibit.gap >= -1e-10

    def test_common_point_family_collapses(self):
        fam = Family((Ball([0, 0], 2.0), Box([-1, -1], [1, 1]), Ball([0.5, 0.5], 2.0)))
        exhibit = candidate_gap(fam, "pairwise2", [4.0, 4.0])
        assert exhibit.gap <= 1e-10
        assert exhibit.cycle.residual <= 1e-10

    def test_unknown_candidate_kind(self):
        fam = Family((Ball([0, 0], 1.0), Ball([4, 0], 1.0)))
        with pytest.raises(ValueError):
            candidate_gap(fam, "perimeter", [0.0, 0.0])

    @pytest.mark.parametrize("kind", ["cyclic2", "pairwise2"])
    def test_far_balls_give_a_nan_gap_without_a_warning(self, kind):
        # both objective values overflow, so their difference is inf - inf
        fam = Family((Ball([0, 0], 1.0), Ball([1e200, 0], 1.0), Ball([0, 1e200], 1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exhibit = candidate_gap(fam, kind, [0.0, 5.0])
        assert math.isnan(exhibit.gap)
        assert math.isfinite(exhibit.displacement)


def spiral_csv_reference(points):
    d = points.shape[1]
    rows = [[k, *row, math.sqrt(dot_in_order(row, row))] for k, row in enumerate(points)]
    return csv_writer_bytes(["k", *(f"x_{j}" for j in range(d)), "norm"], rows)


def test_spiral_csv_matches_csv_writer(tmp_path):
    # 5000 rows span several write blocks
    _, pts, _ = spiral_at_angle(2.4, 4999)
    path = tmp_path / "spiral.csv"
    write_spiral_csv(pts, path)
    assert path.read_bytes() == spiral_csv_reference(pts)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 6),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-150, 1e-8, 1e6, 1e150]),
)
def test_spiral_csv_norms_match_the_in_order_norm(tmp_path_factory, d, n, seed, scale):
    points = scale * np.random.default_rng(seed).standard_normal((n, d))
    path = tmp_path_factory.mktemp("spiral") / "spiral.csv"
    write_spiral_csv(points, path)
    assert path.read_bytes() == spiral_csv_reference(points)


def _tilt(d):
    w = np.arange(1.0, d + 1.0)
    return 0.5 * w / np.linalg.norm(w)


def _coupled(y):
    # holds strict-1 and breaks equality-1 by a gap the sphere probes set
    return float(y[-1] @ _tilt(y.shape[1]) - y[-2] @ y[-1])


def _one_sided(y):
    # zero where the middle block points away from the tilt: holds the first
    # three links and breaks equality-2 when z points along the tilt
    w = _tilt(y.shape[1])
    return float(y[-2] @ w > 0.0) * float(y[-1] @ w - y[-2] @ y[-1])


CANDIDATES = {
    **BUILTIN_CANDIDATES,
    "coupled": CandidateFunctional(_coupled, "coupled"),
    "one_sided": CandidateFunctional(_one_sided, "one_sided"),
}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(CANDIDATES)),
    m=st.integers(3, 40),
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(1.0, 1e3, exclude_min=True),
    samples=st.integers(2, 256),
)
# probes in 29 stacks, the last one short, and in exactly 52 stacks of 4
@example(name="pairwise2", m=30, d=2, seed=3, rho=2.5, samples=254)
@example(name="one_sided", m=40, d=5, seed=5, rho=1.5, samples=102)
def test_falsifier_matches_the_per_probe_loop(name, m, d, seed, rho, samples):
    z = random_unit(np.random.default_rng(seed), d)
    got = falsify_candidate(CANDIDATES[name], m, z, rho, samples, rng=np.random.default_rng(seed))
    want = falsify_candidate_loop(CANDIDATES[name], m, z, rho, samples, np.random.default_rng(seed))
    assert got.to_dict() == want.to_dict()


def test_falsifier_rejects_probe_tuples_that_overflow():
    # |z| is 1 within tolerance, but rho z overflows: no probe may reach the
    # candidate, which would score the non-finite tuple 0.0
    z, rho = [1.0 + 5e-13, 0.0], 1.7976931348623157e308
    constant = BUILTIN_CANDIDATES["constant"]
    with np.errstate(over="ignore", invalid="ignore"):
        for falsify in (falsify_candidate, falsify_candidate_loop):
            with pytest.raises(ValueError, match="tuple has non-finite coordinates"):
                falsify(constant, 3, z, rho, 4, np.random.default_rng(0))


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(BUILTIN_CANDIDATES)),
    k=st.integers(1, 60),
    m=st.integers(3, 40),
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    scales=st.lists(st.sampled_from([0.0, 1e-300, 1e-8, 1.0, 1e6, 1e150, 1e200]), min_size=1, max_size=3),
)
def test_stacked_candidates_match_the_per_tuple_formulas(name, k, m, d, seed, scales):
    # each tuple takes one of the drawn scales, and about a fifth of the
    # coordinates become zeros of either sign; m * d reaches past numpy's
    # 128-term pairwise-summation block
    rng = np.random.default_rng(seed)
    ys = rng.standard_normal((k, m, d)) * rng.choice(scales, size=(k, 1, 1))
    ys[rng.random(ys.shape) < 0.2] *= 0.0
    candidate = BUILTIN_CANDIDATES[name]
    per_tuple = CandidateFunctional(CANDIDATE_FORMULAS[name], name)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array([float(CANDIDATE_FORMULAS[name](y)) for y in ys])
        if np.isfinite(want).all():
            assert candidate._values(ys).tobytes() == want.tobytes()
            assert candidate(ys[-1]) == want[-1]
            return
        message = f"^candidate '{name}' returned a non-finite value$"
        for evaluate in (candidate._values, per_tuple._values):
            with pytest.raises(ValueError, match=message):
                evaluate(ys)


def test_custom_candidate_sees_the_probes_in_the_per_probe_order():
    def recorder(seen):
        def evaluator(y):
            seen.append(y.copy())
            return float(y[-1] @ y[-2])

        return CandidateFunctional(evaluator, "recorder")

    # m = 40, d = 5 puts the 204 probes in 51 stacks
    z = random_unit(np.random.default_rng(2), 5)
    got, want = [], []
    falsify_candidate(recorder(got), 40, z, 3.0, 100, rng=np.random.default_rng(2))
    falsify_candidate_loop(recorder(want), 40, z, 3.0, 100, np.random.default_rng(2))
    assert len(got) == len(want) == 204
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_falsifier_memory_is_bounded_by_the_probe_stack():
    # all 4004 probe tuples of pairwise2 at m = 40 at once would take
    # several (4004, 780, 5) block-difference arrays of 125 MB each
    z = random_unit(np.random.default_rng(0), 5)
    pairwise = BUILTIN_CANDIDATES["pairwise2"]
    _, peak = traced_peak(lambda: falsify_candidate(pairwise, 40, z, 2.0, 2000))
    assert peak < 2 * 2**20


@pytest.mark.parametrize("name", ["cyclic2", "pairwise2"])
def test_builtin_candidate_called_directly_raises_only_its_error(name):
    # the single-tuple path runs under the same errstate as the stacked one
    tup = np.array([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^candidate '{name}' returned a non-finite value$"):
            BUILTIN_CANDIDATES[name](tup)


@pytest.mark.parametrize("name", ["perimeter", "tuple_norm"])
def test_norm_candidates_rescale_squares_past_the_float_range(name):
    # only the squares overflow: both paths give the finite value, with no warning
    tup = np.array([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]])
    candidate = BUILTIN_CANDIDATES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = candidate(tup)
        assert candidate._values(np.stack([tup, tup / 1e100])).tolist() == [got, candidate(tup / 1e100)]
    with np.errstate(over="ignore"):
        assert got == CANDIDATE_FORMULAS[name](tup)
    assert got == pytest.approx({"perimeter": 2.0 + math.sqrt(2.0), "tuple_norm": math.sqrt(2.0)}[name] * 1e200, rel=1e-15)


def test_perimeter_adds_each_edge_in_index_order_past_eight_coordinates():
    # numpy's pairwise sum, which np.linalg.norm(axis=-1) takes from 8 terms, rounds this one differently
    y = np.random.default_rng(0).standard_normal((4, 16))
    assert BUILTIN_CANDIDATES["perimeter"](y) == CANDIDATE_FORMULAS["perimeter"](y)


class RecordingMath:
    """The math module, recording every angle passed to ``cos``."""

    def __init__(self):
        self.angles = []

    def __getattr__(self, name):
        return getattr(math, name)

    def cos(self, theta):
        self.angles.append(theta)
        return math.cos(theta)


@st.composite
def spiral_specs(draw):
    """A start and a strictly shorter target in d = 2..4, at one scale of 2^-600..2^600:
    in general position, on the start's ray, or antipodal (with a plane)."""
    d = draw(st.integers(2, 4))
    coords = st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)
    scale = 2.0 ** draw(st.integers(-600, 600))
    start = np.array(draw(coords)) * scale
    assume(np.any(start != 0.0))
    shape = draw(st.sampled_from(["general", "same", "antipodal"]))
    if shape == "general":
        target = np.array(draw(coords)) * scale
    else:
        target = draw(st.floats(0.01, 0.99)) * (1.0 if shape == "same" else -1.0) * start
    nx, ny = math.hypot(*target), math.hypot(*start)
    assume(0.0 < nx < 0.99 * ny)
    plane = np.roll(start, 1) * np.arange(1.0, d + 1.0) + np.arange(d) * scale
    return SpiralSpec(target, start, draw(st.integers(1, 20)), plane)


@settings(max_examples=200, deadline=None)
@given(spiral_specs())
@example(SpiralSpec([1.0, 1e-9], [2.0, 0.0], 5))
@example(SpiralSpec([0.5, 0.0], [1.0, 0.0], 3))
@example(SpiralSpec([-0.5, 0.0], [1.0, 0.0], 4, plane=[0.0, 1.0]))
def test_spiral_alpha_is_the_angle_the_spiral_turns_through(spec):
    # the last ray is at alpha * (n / n) = alpha; a spiral along the start's ray turns through 0
    recording = RecordingMath()
    with mock.patch.object(impossibility, "math", recording):
        try:
            spiral(spec)
        except AntipodalAmbiguity:  # the drawn plane lies on the start's line
            return
    fresh = SpiralSpec(spec.target, spec.start, spec.n, spec.plane)
    assert fresh.alpha == (recording.angles[-1] if recording.angles else 0.0)
    assert spec.alpha == fresh.alpha
