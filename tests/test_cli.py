import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclex import (
    ConfigValidation,
    Family,
    fair_point_residual,
    fixpoint_check,
    cycle_residual,
    from_descriptor,
    run_experiment,
    validate_config,
)
from cyclex import cli
from cyclex.cli import main

DEGENERATE_FAMILY = [
    {"type": "singleton", "point": [0, 0]},
    {"type": "segment", "a": [-1, 0], "b": [1, 0]},
    {"type": "singleton", "point": [2, 0]},
]

THREE_BALLS = [
    {"type": "ball", "center": [0, 0], "radius": 1},
    {"type": "ball", "center": [6, 0], "radius": 1},
    {"type": "ball", "center": [0, 6], "radius": 1},
]


def periodic_config(**overrides):
    cfg = {"kind": "periodic", "family": DEGENERATE_FAMILY, "start": [5, 5]}
    cfg.update(overrides)
    return cfg


# a family with no bounded set: the periodic run warns, and still converges
UNBOUNDED_PAIR = periodic_config(
    family=[{"type": "ray", "direction": [1, 0]}, {"type": "halfspace", "normal": [0, 1], "offset": -1}],
    start=[0, 5],
)


class TestValidateConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = validate_config(json.dumps(periodic_config()))
        assert cfg.solver.sweep_tol == 1e-12
        assert cfg.solver.cycle_tol == 1e-9
        assert cfg.solver.max_sweeps == 100_000
        assert cfg.seed == 0
        assert cfg.family.m == 3

    def test_bad_radius_names_the_field(self):
        bad = periodic_config(family=[{"type": "ball", "center": [0, 0], "radius": -1}] + DEGENERATE_FAMILY[1:])
        with pytest.raises(ConfigValidation) as exc_info:
            validate_config(bad)
        assert any("family[0].radius" in e for e in exc_info.value.errors)

    def test_dimension_mismatch_names_the_entry(self):
        bad = periodic_config(
            family=DEGENERATE_FAMILY[:2] + [{"type": "singleton", "point": [2, 0, 0]}]
        )
        with pytest.raises(ConfigValidation) as exc_info:
            validate_config(bad)
        assert any("family[2]" in e for e in exc_info.value.errors)

    def test_length_mismatch_names_the_later_field(self):
        family = [{"type": "ellipsoid", "center": [0, 0], "axes": [1, 2, 3]}, *DEGENERATE_FAMILY[1:]]
        with pytest.raises(ConfigValidation) as exc_info:
            validate_config(periodic_config(family=family))
        assert exc_info.value.errors == ["family[0].axes must match the dimension of center"]

    def test_construction_and_dimension_errors_both_reported(self):
        bad = periodic_config(
            family=[
                {"type": "ball", "center": [0, 0], "radius": -1},
                {"type": "segment", "a": [-1, 0], "b": [1, 0]},
                {"type": "singleton", "point": [2, 0, 0]},
            ]
        )
        with pytest.raises(ConfigValidation) as exc_info:
            validate_config(bad)
        errors = exc_info.value.errors
        assert any("family[0].radius" in e for e in errors)
        assert any("family[2] has dimension 3" in e for e in errors)

    def test_rho_must_exceed_one(self):
        bad = {"kind": "falsify", "candidate": "perimeter", "m": 3, "rho": 0.5}
        with pytest.raises(ConfigValidation) as exc_info:
            validate_config(bad)
        assert any("rho must exceed 1" in e for e in exc_info.value.errors)

    def test_all_errors_reported_not_just_first(self):
        bad = {
            "kind": "falsify",
            "candidate": "nope",
            "m": 1,
            "rho": 0.5,
            "sphere_samples": 0,
        }
        with pytest.raises(ConfigValidation) as exc_info:
            validate_config(bad)
        errors = exc_info.value.errors
        assert len(errors) >= 4

    def test_unknown_keys_flagged(self):
        with pytest.raises(ConfigValidation) as exc_info:
            validate_config(periodic_config(rho=2.0))
        assert any("rho is not used by kind periodic" in e for e in exc_info.value.errors)

    def test_parse_error_has_position(self):
        with pytest.raises(json.JSONDecodeError) as exc_info:
            validate_config("{ not json }")
        assert exc_info.value.lineno == 1

    def test_start_blocks_for_product_kinds(self):
        cfg = validate_config(
            {
                "kind": "parallel",
                "family": THREE_BALLS,
                "start": [[0, 0], [1, 1], [2, 2]],
            }
        )
        assert cfg.start_blocks.shape == (3, 2)
        cfg2 = validate_config({"kind": "parallel", "family": THREE_BALLS, "start": [1, 1]})
        assert cfg2.start_blocks.shape == (3, 2)
        assert np.array_equal(cfg2.start_blocks[0], cfg2.start_blocks[1])

    def test_pair_distance_needs_two_sets(self):
        with pytest.raises(ConfigValidation) as exc_info:
            validate_config({"kind": "pair_distance", "family": THREE_BALLS, "start": [0, 0]})
        assert any("exactly 2 sets" in e for e in exc_info.value.errors)


class TestRunExperiment:
    def test_periodic_artifacts(self, tmp_path):
        cfg = validate_config(periodic_config())
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        payload = json.loads((tmp_path / "periodic.json").read_text())
        assert payload["stop_reason"] == "converged"
        assert payload["residual"] <= 1e-12
        assert payload["points"] == [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        header = (tmp_path / "periodic.csv").read_text().splitlines()[0]
        assert header == "sweep,n_inner,set_index,x_0,x_1"
        # round-trip: the emitted points re-validate under the residual checker
        fam = Family(tuple(from_descriptor(d) for d in DEGENERATE_FAMILY))
        assert cycle_residual(fam, payload["points"]) <= 1e-9

    def test_pair_distance_artifacts(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "pair_distance",
                "family": [
                    {"type": "ball", "center": [0, 0], "radius": 1},
                    {"type": "ball", "center": [5, 0], "radius": 1},
                ],
                "start": [0, 3],
            }
        )
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        payload = json.loads((tmp_path / "pair_distance.json").read_text())
        assert payload["distance"] == pytest.approx(3.0, abs=1e-8)

    def test_far_pair_distance_is_finite(self, tmp_path):
        # the distance's squares overflow; the distance itself is about 1e200
        family = [{"type": "ball", "center": [0, 0], "radius": 1}, {"type": "ball", "center": [1e200, 0], "radius": 1}]
        cfg = validate_config({"kind": "pair_distance", "family": family, "start": [0, 5]})
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        text = (tmp_path / "pair_distance.json").read_text()
        assert "Infinity" not in text
        assert json.loads(text)["distance"] == pytest.approx(1e200, rel=1e-15)

    def test_projected_gradient_artifacts(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "projected_gradient",
                "family": THREE_BALLS,
                "start": [1, 1],
                "objective": {"kind": "pairwise2"},
                "solver": {"gamma": 1.0},
            }
        )
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        payload = json.loads((tmp_path / "projected_gradient.json").read_text())
        assert payload["residual"] <= 1e-8
        assert len(payload["points"]) == 3
        fam = Family(tuple(from_descriptor(d) for d in THREE_BALLS))
        r1, r2 = fixpoint_check(fam, np.asarray(payload["points"]))
        assert r1 <= 1e-7

    def test_quadratic_to_target_objective(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "projected_gradient",
                "family": [
                    {"type": "ball", "center": [0, 0], "radius": 1},
                    {"type": "box", "lower": [-50, -50], "upper": [50, 50]},
                ],
                "start": [0, 0],
                "objective": {"kind": "quadratic_to_target", "target": [[3, 0], [3, 0]]},
                "solver": {"gamma": 1.0},
            }
        )
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        payload = json.loads((tmp_path / "projected_gradient.json").read_text())
        assert payload["points"][0] == [1.0, 0.0]
        assert payload["points"][1] == [3.0, 0.0]

    def test_parallel_artifacts_round_trip(self, tmp_path):
        cfg = validate_config(
            {"kind": "parallel", "family": THREE_BALLS, "start": [2, 2], "variant": "others_mean"}
        )
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        payload = json.loads((tmp_path / "parallel.json").read_text())
        fam = Family(tuple(from_descriptor(d) for d in THREE_BALLS))
        assert fair_point_residual(fam, payload["fair_point"]) <= 1e-7
        lines = (tmp_path / "parallel.csv").read_text().splitlines()
        assert lines[0].startswith("iter,objective_value,displacement,stationarity_residual")

    def test_spiral_artifacts(self, tmp_path):
        cfg = validate_config({"kind": "spiral", "x": [0, 0.1], "y": [1, 0], "n": 2})
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        payload = json.loads((tmp_path / "spiral.json").read_text())
        assert payload["final_norm"] == pytest.approx(0.5, abs=1e-15)
        rows = (tmp_path / "spiral.csv").read_text().splitlines()
        assert rows[0] == "k,x_0,x_1,norm"
        assert len(rows) == 4

    def test_falsify_artifacts(self, tmp_path):
        cfg = validate_config(
            {"kind": "falsify", "candidate": "perimeter", "m": 3, "rho": 2.0, "seed": 5}
        )
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        payload = json.loads((tmp_path / "falsify.json").read_text())
        assert payload["verdict"] == "candidate falsified"
        assert payload["chain"] == [4.0, 6.0, 4.0, 6.0]

    def test_gap_artifacts(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "gap",
                "family": [
                    {"type": "ball", "center": [0, 0], "radius": 1},
                    {"type": "ball", "center": [10, 0], "radius": 1},
                    {"type": "ball", "center": [5, 1], "radius": 1},
                ],
                "start": [0, 3],
                "candidate_kind": "cyclic2",
            }
        )
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        payload = json.loads((tmp_path / "gap.json").read_text())
        assert payload["displacement"] > 1e-3
        assert payload["gap"] > 0.0

    def test_not_converged_still_writes_artifacts(self, tmp_path):
        cfg = validate_config(periodic_config(solver={"max_sweeps": 1, "sweep_tol": 1e-300}))
        assert run_experiment(cfg, out_dir=tmp_path) == 2
        payload = json.loads((tmp_path / "periodic.json").read_text())
        assert payload["stop_reason"] == "max_iterations"
        assert "error" in payload
        assert (tmp_path / "periodic.csv").exists()

    @pytest.mark.parametrize(
        "kind, extra",
        [("periodic", {}), ("projected_gradient", {"objective": {"kind": "pairwise2"}})],
    )
    def test_failed_certificate_is_reported_as_such(self, tmp_path, kind, extra):
        # a loose sweep_tol stops after one step, far from the cycle or limit
        cfg = validate_config(
            {"kind": kind, "family": THREE_BALLS, "start": [2, 2], "solver": {"sweep_tol": 1e3}, **extra}
        )
        assert run_experiment(cfg, out_dir=tmp_path) == 2
        payload = json.loads((tmp_path / f"{kind}.json").read_text())
        assert payload["stop_reason"] == "certificate_failed"
        assert "stop_reason=certificate_failed" in payload["error"]
        assert payload["sweeps"] == 1
        assert (tmp_path / f"{kind}.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        config = {
            "kind": "falsify",
            "candidate": "cyclic2",
            "m": 4,
            "rho": 3.0,
            "sphere_samples": 12,
            "seed": 99,
        }
        for sub in ("a", "b"):
            run_experiment(validate_config(dict(config)), out_dir=tmp_path / sub)
        assert (tmp_path / "a/falsify.json").read_bytes() == (tmp_path / "b/falsify.json").read_bytes()


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(periodic_config()))
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out/periodic.json").exists()

    def test_run_reports_validation_errors(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"kind": "periodic", "start": [0, 0]}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "family is required" in err

    def test_run_reports_parse_errors(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{")
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_run_reports_json_nested_too_deep(self, tmp_path, capsys):
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text("[" * 100_000)
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cannot read config: maximum recursion depth")

    def test_project_subcommand(self, capsys):
        code = main(
            ["project", "--set", '{"type":"ball","center":[0,0],"radius":1}', "--point", "2,0"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.0,0.0"

    @pytest.mark.parametrize(
        "descriptor, point, nearest",
        [
            ('{"type":"segment","a":[-1e308,0],"b":[1e308,0]}', "0,1", "0.0,0.0"),
            ('{"type":"ray","direction":[1,1]}', "1e308,1e308", "1e+308,1e+308"),
            ('{"type":"halfspace","normal":[1,1],"offset":0}', "1e308,1e308", "0.0,0.0"),
            ('{"type":"affine","anchor":[1e308,0],"basis":[[1,0]]}', "-1e308,1", "-1e+308,0.0"),
        ],
        ids=["segment", "ray", "halfspace", "affine"],
    )
    def test_project_prints_the_nearest_point_of_badly_scaled_inputs(self, capsys, descriptor, point, nearest):
        assert main(["project", "--set", descriptor, f"--point={point}"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == nearest
        assert captured.err == ""

    def test_project_dimension_error(self, capsys):
        code = main(
            ["project", "--set", '{"type":"ball","center":[0,0],"radius":1}', "--point", "1,2,3"]
        )
        assert code == 1
        assert "dimension" in capsys.readouterr().err

    def test_spiral_subcommand(self, capsys):
        assert main(["spiral", "--x", "0,0.1", "--y", "1,0", "--n", "2"]) == 0
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()
        assert rows[0] == "k,x_0,x_1,norm"
        assert rows[-1].endswith(",0.5")

    def test_spiral_stdout_equals_out_file(self, tmp_path, capsys):
        args = ["spiral", "--x", "0.3,0.1,0", "--y", "1,-2,0.5", "--n", "7"]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "spiral.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert stdout.encode() == out.read_bytes()

    def test_run_seed_override(self, tmp_path):
        config = {
            "kind": "falsify",
            "candidate": "perimeter",
            "m": 3,
            "rho": 2.0,
            "sphere_samples": 6,
            "seed": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o1"), "--seed", "99"]) == 0
        config["seed"] = 99
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o2")]) == 0
        a = (tmp_path / "o1/falsify.json").read_bytes()
        b = (tmp_path / "o2/falsify.json").read_bytes()
        assert a == b

    def test_falsify_bad_point_is_one_line_error(self, capsys):
        code = main(["falsify", "--candidate", "pairwise2", "--m", "3", "--rho", "2", "--z", "1,abc"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "could not parse point '1,abc'" in err[0]
        assert "Traceback" not in err[0]

    @pytest.mark.parametrize("candidate", ["cyclic2", "pairwise2"])
    def test_falsify_overflow_is_one_line_error(self, candidate, capsys):
        # the probes' squares overflow; numpy warnings are errors under pytest
        assert main(["falsify", "--candidate", candidate, "--m", "3", "--rho", "1e200"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: candidate {candidate!r} returned a non-finite value"]

    @pytest.mark.parametrize("candidate, value", [("perimeter", 2e200), ("tuple_norm", 1e200)])
    def test_falsify_norms_whose_squares_overflow(self, candidate, value, capsys):
        # only the squares leave the float range: the values are finite
        assert main(["falsify", "--candidate", candidate, "--m", "3", "--rho", "1e200"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["chain"] == [value] * 4
        assert err == ""

    @pytest.mark.parametrize(
        "x, y, n, start, final",
        [
            ([1e200, 0.0], [0.0, 1e300], 3, 1e300, 6.49519052838329e299),
            ([1e-200, 0.0], [0.0, 1e-170], 2, 1e-170, 5e-171),
            ([1e150, 0.0], [0.0, 1e160], 2, 1e160, 5e159),
        ],
        ids=["overflow", "underflow", "start_overflow"],
    )
    def test_spiral_norms_whose_squares_leave_the_range(self, tmp_path, x, y, n, start, final, capsys):
        # every norm the spiral checks or reports rescales; numpy warnings are errors under pytest
        assert main(["spiral", "--x", ",".join(map(repr, x)), "--y", ",".join(map(repr, y)), "--n", str(n)]) == 0
        out, err = capsys.readouterr()
        rows = [list(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert len(rows) == n + 1 and all(math.isfinite(v) for row in rows for v in row)
        assert rows[0][-1] == start and rows[-1][-1] == final
        assert err.splitlines() == [f"final_norm={final!r}"]
        assert run_main(tmp_path, {"kind": "spiral", "x": x, "y": y, "n": n}) == 0
        payload = json.loads((tmp_path / "out" / "spiral.json").read_text())
        assert (payload["start_norm"], payload["final_norm"]) == (start, final)
        assert payload["alpha"] == math.pi / 2

    def test_falsify_defaults_are_the_config_defaults(self, tmp_path):
        # no --z, --sphere-samples or --seed: the falsify kind's defaults apply
        config = {"kind": "falsify", "candidate": "pairwise2", "m": 4, "rho": 2.5}
        cfg_path = tmp_path / "falsify.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == 0
        out = tmp_path / "report.json"
        argv = ["falsify", "--candidate", "pairwise2", "--m", "4", "--rho", "2.5", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (tmp_path / "run" / "falsify.json").read_bytes()

    def test_falsify_subcommand(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["falsify", "--candidate", "cyclic2", "--m", "3", "--rho", "2", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["chain"] == [6.0, 14.0, 6.0, 14.0]
        assert payload["verdict"] == "candidate falsified"


class TestSharedParser:
    """``main`` reuses one argument parser; no call may see another's arguments."""

    def test_seed_override_does_not_stick(self, tmp_path, monkeypatch):
        seeds = []
        monkeypatch.setattr(cli, "run_experiment", lambda config, out_dir=None: seeds.append(config.seed) or 0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(periodic_config(seed=3)))
        assert main(["run", "--config", str(cfg_path), "--seed", "5"]) == 0
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert seeds == [5, 3]

    def test_usage_error_then_valid_call(self, capsys):
        assert main(["run"]) == 2
        assert main(["falsify", "--candidate", "perimeter", "--m", "x", "--rho", "2"]) == 2
        assert main(["falsify", "--candidate", "perimeter", "--m", "3", "--rho", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "candidate falsified"

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["falsify", "--help"]])
    def test_help_twice_is_the_same(self, capsys, argv):
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == first
        assert "usage: cyclex" in first.out

    def test_built_on_first_call_not_at_import(self):
        code = (
            "import cyclex.cli as c; n = c.build_parser.cache_info().currsize; "
            "c.main(['falsify', '--candidate', 'constant', '--m', '3', '--rho', '2']); "
            "print(n, c.build_parser.cache_info().currsize, c.build_parser() is c.build_parser())"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines()[-1] == "0 1 True"

    def test_python_dash_m_runs_without_warnings(self):
        # the package imports cyclex.cli lazily, so runpy does not find it
        # already in sys.modules when it runs the module as __main__
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "cyclex.cli", "spiral", "--x", "1,0", "--y", "0,2", "--n", "3"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        # stderr carries the spiral's final-norm report and nothing else
        assert done.returncode == 0
        assert [line.partition("=")[0] for line in done.stderr.splitlines()] == ["final_norm"]
        assert done.stdout.startswith("k,x_0,x_1,norm")


UNBOUNDED_WARNING = "no set in the family is bounded; the periodic iteration may not settle"


class TestLibraryWarnings:
    """``main`` shows a library warning as one stderr line, and one made an error as exit code 1."""

    def run_unbounded(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(UNBOUNDED_PAIR))
        return main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])

    def test_a_warning_is_one_line_and_keeps_the_exit_code(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            assert self.run_unbounded(tmp_path) == 0
        assert capsys.readouterr().err == f"warning: {UNBOUNDED_WARNING}\n"
        assert json.loads((tmp_path / "out" / "periodic.json").read_text())["stop_reason"] == "converged"

    def test_a_warning_made_an_error_is_exit_code_1_with_one_line(self, tmp_path, capsys):
        # the tests run with every warning an error
        assert self.run_unbounded(tmp_path) == 1
        assert capsys.readouterr().err == f"error: {UNBOUNDED_WARNING}\n"

    def test_pythonwarnings_error_in_a_fresh_process(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(UNBOUNDED_PAIR))
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "cyclex.cli", "run", "--config", str(cfg_path), "--out-dir", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "error"}, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (1, f"error: {UNBOUNDED_WARNING}\n")


FALSIFY = {"kind": "falsify", "candidate": "perimeter", "m": 3, "rho": 2.0, "sphere_samples": 4}
SPIRAL = {"kind": "spiral", "x": [0, 0.1], "y": [1, 0], "n": 2}
PARALLEL = {"kind": "parallel", "family": THREE_BALLS, "start": [2, 2]}
QUADRATIC = {
    "kind": "projected_gradient",
    "family": THREE_BALLS,
    "start": [1, 1],
    "objective": {"kind": "quadratic_to_target", "target": [[0, 0], [1, 1], [2, 2]]},
}


def with_value(config, path, value):
    """A deep copy of ``config`` with the entry at ``path`` set to ``value``."""
    config = json.loads(json.dumps(config))
    *parents, last = path
    node = config
    for key in parents:
        node = node[key]
    node[last] = value
    return config


def run_main(tmp_path, config, *extra):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    return main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"), *extra])


PERIODIC = periodic_config()

# id: (base config, path of the entry, loosely typed value, expected message)
STRICT_TYPING_CASES = {
    "target_block_count": (
        QUADRATIC, ["objective", "target"], [[0, 0], [1, 1]], "objective.target: tuple has 2 blocks, expected 3"
    ),
    "scalar_target": (QUADRATIC, ["objective", "target"], 5, "objective.target"),
    "rho_infinity": (FALSIFY, ["rho"], math.inf, "rho must be a finite number"),
    "n_true": (SPIRAL, ["n"], True, "n must be an integer"),
    "n_float": (SPIRAL, ["n"], 2.7, "n must be an integer"),
    "m_true": (FALSIFY, ["m"], True, "m must be an integer"),
    "m_float": (FALSIFY, ["m"], 3.5, "m must be an integer"),
    "seed_true": (FALSIFY, ["seed"], True, "seed must be an integer"),
    "seed_float": (FALSIFY, ["seed"], 2.7, "seed must be an integer"),
    "seed_negative": (FALSIFY, ["seed"], -1, "seed must be an integer >= 0"),
    "sphere_samples_true": (FALSIFY, ["sphere_samples"], True, "sphere_samples must be an integer"),
    "sphere_samples_float": (FALSIFY, ["sphere_samples"], 4.5, "sphere_samples must be an integer"),
    "max_sweeps_true": (PERIODIC, ["solver"], {"max_sweeps": True}, "solver.max_sweeps must be an integer"),
    "max_sweeps_float": (PERIODIC, ["solver"], {"max_sweeps": 2.7}, "solver.max_sweeps must be an integer"),
    "max_iters_true": (PARALLEL, ["solver"], {"max_iters": True}, "solver.max_iters must be an integer"),
    "max_iters_float": (PARALLEL, ["solver"], {"max_iters": 2.7}, "solver.max_iters must be an integer"),
    "string_sweep_tol": (PERIODIC, ["solver"], {"sweep_tol": "1e-3"}, "solver.sweep_tol must be a finite"),
    "output_csv_number": (PERIODIC, ["output"], {"csv": 3}, "output.csv must be a path string"),
    "candidate_list": (FALSIFY, ["candidate"], ["perimeter"], "candidate must be one of"),
    "start_true": (PERIODIC, ["start"], [True, 5], "start: point must hold only numbers"),
    "start_blocks_string": (PARALLEL, ["start"], ["1", True], "start: tuple must hold only numbers"),
    "x_string": (SPIRAL, ["x"], ["0", 0.1], "x must hold only numbers"),
    "y_true": (SPIRAL, ["y"], [True, 0], "y must hold only numbers"),
    "plane_string": (SPIRAL, ["plane"], [0, "1"], "plane must hold only numbers"),
    "z_true": (FALSIFY, ["z"], [True, 0], "z must hold only numbers"),
    "target_true": (
        QUADRATIC, ["objective", "target"], [[0, 0], [1, True], [2, 2]],
        "objective.target: tuple must hold only numbers",
    ),
    "center_mixed": (PARALLEL, ["family", 0, "center"], [True, "5"], "family[0].center must hold only numbers"),
    "radius_true": (PARALLEL, ["family", 1, "radius"], True, "family[1].radius must be a finite number"),
    "point_string": (PERIODIC, ["family", 2, "point"], ["2", "0"], "family[2].point must hold only numbers"),
}


@pytest.mark.parametrize(
    "base, path, value, expected", list(STRICT_TYPING_CASES.values()), ids=list(STRICT_TYPING_CASES)
)
def test_loosely_typed_config_is_one_config_error(tmp_path, capsys, base, path, value, expected):
    assert run_main(tmp_path, with_value(base, path, value)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert expected in err[0]
    assert not (tmp_path / "out").exists()


# id: (config, expected message): rejections of whole objects and of cross-field rules
REJECTED_CONFIGS = {
    "negative_lambda": (with_value(PERIODIC, ["solver"], {"lambda": -1}), "solver.lambda must be >= 0"),
    "zero_sweep_tol": (
        with_value(PERIODIC, ["solver"], {"sweep_tol": 0}), "solver.sweep_tol must be positive and finite"
    ),
    "output_list": (with_value(PERIODIC, ["output"], ["a.csv"]), "output must be an object"),
    "output_unknown_key": (with_value(PERIODIC, ["output"], {"xml": "a.xml"}), "output.xml is not recognized"),
    "objective_unknown_kind": (
        with_value(QUADRATIC, ["objective"], {"kind": "huber"}), "objective.kind must be one of"
    ),
    "quadratic_without_target": (
        with_value(QUADRATIC, ["objective"], {"kind": "quadratic_to_target"}),
        "objective.target is required for quadratic_to_target",
    ),
    "others_mean_two_sets": (
        with_value(PARALLEL, ["family"], THREE_BALLS[:2]), "variant others_mean needs at least three sets"
    ),
    "not_an_object": ([PERIODIC], "config must be a JSON object"),
    "plane_dimension": (with_value(SPIRAL, ["plane"], [0, 1, 0]), "x and plane must share dimension"),
    "one_coordinate_z": (with_value(FALSIFY, ["z"], [1.0]), "z must have dimension >= 2"),
    "spiral_inner_outside": (
        with_value(SPIRAL, ["x"], [0, 2]), "inner target norm 2.0 must be strictly below start norm 1.0"
    ),
    "spiral_antipodal": (
        with_value(SPIRAL, ["x"], [-0.5, 0]),
        "start and target are antipodal; supply a plane direction to break the tie",
    ),
}


@pytest.mark.parametrize("config, expected", list(REJECTED_CONFIGS.values()), ids=list(REJECTED_CONFIGS))
def test_rejected_config_is_one_config_error(tmp_path, capsys, config, expected):
    assert run_main(tmp_path, config) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert expected in err[0]
    assert not (tmp_path / "out").exists()


# id: (config, every line it must print): each fault of a config is its own config error line
REPORTED_TOGETHER = {
    "two_bad_solver_keys": (
        with_value(PERIODIC, ["solver"], {"sweep_tol": 0, "max_sweeps": 0}),
        ["solver.sweep_tol must be positive and finite", "solver.max_sweeps must be an integer >= 1"],
    ),
    "falsify_rho_and_z": (
        with_value(with_value(FALSIFY, ["rho"], 0.5), ["z"], [2, 0]),
        ["rho must exceed 1", "z must have unit norm to 1e-12"],
    ),
    # antipodal points whose tie-break plane is refused: one fault, the plane
    "spiral_antipodal_refused_plane": (
        with_value(with_value(SPIRAL, ["x"], [-0.5, 0]), ["plane"], [0, "1"]),
        ["plane must hold only numbers, got '1'"],
    ),
}


@pytest.mark.parametrize("config, expected", list(REPORTED_TOGETHER.values()), ids=list(REPORTED_TOGETHER))
def test_every_fault_is_its_own_config_error(tmp_path, capsys, config, expected):
    assert run_main(tmp_path, config) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {line}" for line in expected]
    assert not (tmp_path / "out").exists()


def test_negative_seed_override_is_one_config_error(tmp_path, capsys):
    assert run_main(tmp_path, FALSIFY, "--seed", "-1") == 1
    assert capsys.readouterr().err.splitlines() == ["config error: seed must be an integer >= 0"]


def test_a_regular_file_as_out_dir_is_one_write_error(tmp_path, capsys):
    (tmp_path / "plain").write_text("")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FALSIFY))
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "plain" / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot write ")


def test_a_regular_file_named_as_out_dir_is_one_write_error(tmp_path, capsys):
    (tmp_path / "plain").write_text("")
    assert run_main(tmp_path, PERIODIC, "--out-dir", str(tmp_path / "plain")) == 1
    assert capsys.readouterr().err.splitlines() == [f"cannot write {tmp_path / 'plain'}: File exists"]


def test_a_missing_nested_out_dir_is_created(tmp_path):
    out = tmp_path / "a" / "b" / "c"
    assert run_main(tmp_path, PERIODIC, "--out-dir", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == ["periodic.csv", "periodic.json"]


def test_an_empty_out_dir_is_the_current_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(PERIODIC))
    assert main(["run", "--config", "cfg.json", "--out-dir", ""]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "periodic.csv", "periodic.json"]


def test_an_empty_config_path_names_the_current_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "", "--out-dir", "out"]) == 1
    assert capsys.readouterr().err.splitlines() == ["cannot read config: [Errno 21] Is a directory: '.'"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "output, path",
    [({"json": "periodic.csv"}, "periodic.csv"), ({"csv": "same.out", "json": "same.out"}, "same.out"),
     ({"csv": "./a/x", "json": "a/x"}, "a/x")],
    ids=["json_on_the_default_csv", "one_name", "one_name_after_normalizing"],
)
def test_one_path_for_both_artifacts_is_one_config_error(tmp_path, capsys, output, path):
    # the JSON would overwrite the CSV: nothing runs, and nothing is written
    assert run_main(tmp_path, periodic_config(output=output)) == 1
    expected = f"config error: output.csv and output.json both name {tmp_path / 'out' / path}"
    assert capsys.readouterr().err.splitlines() == [expected]
    assert not (tmp_path / "out").exists()


def test_an_absolute_and_a_relative_name_of_one_file_are_one_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    output = {"csv": str(tmp_path / "same.out"), "json": "same.out"}
    (tmp_path / "cfg.json").write_text(json.dumps(periodic_config(output=output)))
    assert main(["run", "--config", "cfg.json", "--out-dir", ""]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: output.csv and output.json both name same.out"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_a_kind_without_a_csv_may_name_its_json_as_the_csv(tmp_path):
    assert run_main(tmp_path, {**FALSIFY, "output": {"csv": "r.json", "json": "r.json"}}) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["r.json"]


@pytest.mark.parametrize("center", [[0, True], [True, 0.5], [1.5, False, 2]])
def test_a_bool_in_a_vector_field_is_one_config_error(tmp_path, capsys, center):
    family = [{"type": "ellipsoid", "center": center, "axes": [1.0] * len(center)}, THREE_BALLS[0]]
    assert run_main(tmp_path, with_value(PERIODIC, ["family"], family)) == 1
    bad = next(v for v in center if type(v) is bool)
    assert capsys.readouterr().err.splitlines() == [f"config error: family[0].center must hold only numbers, got {bad}"]


@pytest.mark.parametrize(
    "config, expected",
    [({**QUADRATIC, "objective": {"kind": "pairwise2"}, "solver": {"gamma": 100}}, "error: gamma = 100.0 outside")],
    ids=["gamma_out_of_range"],
)
def test_inputs_the_solvers_reject_are_one_error(tmp_path, capsys, config, expected):
    assert run_main(tmp_path, config) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(expected)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["project", "--set", '{"type":["ball"]}', "--point", "1,1"], "error: unknown set type ['ball']"),
        (["project", "--set", '{"type":"ball","center":{},"radius":1}', "--point", "1,1"], "error: "),
        (["spiral", "--x", "0,0.1", "--y", "1,0", "--n", "2", "--out", "{missing}/x.csv"], "cannot write "),
        (
            ["falsify", "--candidate", "perimeter", "--m", "3", "--rho", "2", "--out", "{missing}/x.json"],
            "cannot write ",
        ),
        (["falsify", "--candidate", "perimeter", "--m", "3", "--rho", "2", "--seed", "-1"], "error: seed"),
        (["spiral", "--x", "0,0.1", "--y", "1,0", "--n", "0"], "error: n must be an integer >= 1"),
        (
            ["project", "--set", '{"type":"ball","center":[0,0],"radius":"1"}', "--point", "2,0"],
            "error: radius must be a finite number",
        ),
        (
            ["project", "--set", '{"type":"box","lower":[false,0],"upper":[1,1]}', "--point", "2,0"],
            "error: lower must hold only numbers",
        ),
        (["project", "--set", "[" * 100_000, "--point", "1,0"], "error: maximum recursion depth"),
        (
            ["spiral", "--x", "0,0.1", "--y", "1,0", "--n", "3", "--plane", "0,1,0"],
            "error: x and plane must share dimension",
        ),
        (
            ["project", "--set", '{"type":"halfspace","normal":[1e-310,0],"offset":-1e300}', "--point", "1e308,5"],
            "error: offset is too far below zero for the normal",
        ),
        (
            ["falsify", "--candidate", "perimeter", "--m", "3", "--rho", "2", "--z", "1"],
            "error: z must have dimension >= 2",
        ),
    ],
    ids=[
        "project_type_list", "project_field_type", "spiral_out", "falsify_out", "falsify_seed", "spiral_n",
        "project_string_radius", "project_bool_bound", "project_deep_json", "spiral_plane_dimension",
        "project_halfspace_out_of_range", "falsify_one_coordinate_z",
    ],
)
def test_subcommand_faults_are_one_stderr_line(tmp_path, capsys, argv, expected):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(expected)


NO_MEMORY = "Unable to allocate 7.45 GiB for an array with shape (1000000001,) and data type float64"


def raise_memory_error(*args, **kwargs):
    raise MemoryError(NO_MEMORY)


@pytest.mark.parametrize(
    "library_call, argv",
    [
        # small sizes: the patched call fails as --n or --sphere-samples 1000000000 would
        ("spiral", ["spiral", "--x", "0,0.1", "--y", "1,0", "--n", "3"]),
        ("falsify_candidate", ["falsify", "--candidate", "perimeter", "--m", "3", "--rho", "2"]),
        ("run_periodic", None),
    ],
    ids=["spiral", "falsify", "run"],
)
def test_an_array_too_large_to_allocate_is_one_stderr_line(tmp_path, capsys, monkeypatch, library_call, argv):
    monkeypatch.setattr(cli, library_call, raise_memory_error)
    code = run_main(tmp_path, PERIODIC) if argv is None else main(argv)
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {NO_MEMORY}"]
    assert not (tmp_path / "out").exists()


class BrokenPipe(io.StringIO):
    """A standard output whose reader has gone away, as under ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_a_closed_standard_output_is_named(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    assert main(["spiral", "--x", "0,0.1", "--y", "1,0", "--n", "3"]) == 1
    assert capsys.readouterr().err.splitlines() == ["cannot write standard output: Broken pipe"]


FULL = "/dev/full"  # every write to it fails with ENOSPC
needs_full = pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL} here")


@needs_full
@pytest.mark.parametrize("artifact", ["csv", "json"])
def test_a_failed_artifact_write_names_the_artifact(tmp_path, capsys, artifact):
    # the write fails after open, when the file's buffer is flushed
    assert run_main(tmp_path, {**PERIODIC, "output": {artifact: FULL}}) == 1
    assert capsys.readouterr().err.splitlines() == [f"cannot write {FULL}: No space left on device"]


@needs_full
def test_a_failed_spiral_write_names_the_file(capsys):
    assert main(["spiral", "--x", "0,0.1", "--y", "1,0", "--n", "3", "--out", FULL]) == 1
    assert capsys.readouterr().err.splitlines() == [f"cannot write {FULL}: No space left on device"]


FAR_FAMILY = [
    {"type": "ball", "center": [0, 0], "radius": 1},
    {"type": "ball", "center": [4, 0], "radius": 1},
    {"type": "ball", "center": [0, 4], "radius": 1},
]
FAR_START = [[1e200, 1e200], [-1e200, 0], [0, 1e200]]
# id: config of a product run whose first squares leave the float range
FAR_START_CONFIGS = {
    "parallel": {"kind": "parallel", "family": FAR_FAMILY, "start": FAR_START},
    "pairwise2": {
        "kind": "projected_gradient", "family": FAR_FAMILY, "start": FAR_START, "objective": {"kind": "pairwise2"}
    },
    "cyclic2": {
        "kind": "projected_gradient", "family": FAR_FAMILY, "start": FAR_START, "objective": {"kind": "cyclic2"}
    },
    "far_target": {
        "kind": "projected_gradient", "family": FAR_FAMILY, "start": [0, 0],
        "objective": {"kind": "quadratic_to_target", "target": [[1e200, 0]] * 3},
    },
    "gap": {"kind": "gap", "family": FAR_FAMILY, "start": [1e200, 1e200], "candidate_kind": "pairwise2"},
}


@pytest.mark.parametrize("config", list(FAR_START_CONFIGS.values()), ids=list(FAR_START_CONFIGS))
def test_a_far_start_logs_its_first_move_without_a_warning(tmp_path, capsys, config):
    # warnings are errors under pytest, so an overflow warning fails the run
    assert run_main(tmp_path, config) == 0
    assert capsys.readouterr().err == ""
    if config["kind"] == "gap":
        assert math.isfinite(json.loads((tmp_path / "out" / "gap.json").read_text())["gap"])
        return
    rows = np.loadtxt(tmp_path / "out" / f"{config['kind']}.csv", delimiter=",", skiprows=1)
    assert rows[0, 1] == math.inf  # the start's objective lies past the float range
    move = rows[1, 4:].reshape(3, 2) - rows[0, 4:].reshape(3, 2)
    # each step lands on the projection (lambda = 1), so a block's residual is its move
    assert rows[1, 2] == pytest.approx(math.hypot(*move.ravel()), rel=1e-15)
    assert rows[1, 3] == pytest.approx(max(math.hypot(*block) for block in move), rel=1e-15)


def test_usage_errors_return_two(capsys):
    assert main(["spiral", "--x", "0,1"]) == 2
    assert main(["falsify", "--candidate", "nope", "--m", "3", "--rho", "2"]) == 2
    assert "usage:" in capsys.readouterr().err


BALL_2D = '{"type":"ball","center":[0,0],"radius":1}'


@pytest.mark.parametrize(
    "argv, flag, value, code",
    [
        (["project", "--set", BALL_2D], "--point", "-3,1", 0),
        (["project", "--set", '{"type":"ball","center":[0],"radius":1}'], "--point", "-3e5", 0),
        (["spiral", "--y", "1,0", "--n", "3"], "--x", "-0.05,0.1", 0),
        (["spiral", "--x", "0.1,0.2", "--n", "3"], "--y", "-1,0.5", 0),
        (["spiral", "--x", "-0.5,0", "--y", "1,0", "--n", "4"], "--plane", "-1,1", 0),
        (["falsify", "--candidate", "perimeter", "--m", "3", "--rho", "2"], "--z", "-1,0", 0),
        (["falsify", "--candidate", "perimeter", "--m", "3"], "--rho", "-1e5", 1),
    ],
    ids=["point", "point-exponent", "x", "y", "plane", "z", "rho"],
)
def test_a_value_may_start_with_a_minus_sign(capsys, argv, flag, value, code):
    # "--point -3,1" reads as "--point=-3,1", which argparse alone reads the same way
    assert main([*argv, f"{flag}={value}"]) == code
    want = capsys.readouterr()
    assert main([*argv, flag, value]) == code
    assert capsys.readouterr() == want


@pytest.mark.parametrize(
    "argv",
    [
        ["project", "--set", BALL_2D, "--point"],
        ["project", "--point", "--set", BALL_2D],
        ["project", "--set", BALL_2D, "--point", "-h"],
        ["falsify", "--candidate", "perimeter", "--m", "3", "--rho", "2", "--z", "-x"],
    ],
)
def test_a_point_flag_without_its_point_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    assert "expected one argument" in capsys.readouterr().err


# Contract: main returns 0, 1 or 2 for every input, raises nothing, and
# says why on stderr when it returns 1, also with every warning an error (as
# the tests run).  Bases converge within 200 steps and the pool has no
# integer above 10^3, so every example stays small.
CONTRACT_BASES = [
    periodic_config(solver={"max_sweeps": 200}, output={"csv": "a.csv", "json": "b.json"}),
    {**UNBOUNDED_PAIR, "solver": {"max_sweeps": 200}},
    {"kind": "pair_distance", "family": THREE_BALLS[:2], "start": [3, 3], "solver": {"max_sweeps": 200}},
    {**QUADRATIC, "solver": {"max_iters": 200, "gamma": 1.0, "lambda": 1.0}},
    {**PARALLEL, "variant": "full_mean", "solver": {"max_iters": 200}},
    {**SPIRAL, "plane": [0, 1]},
    {**FALSIFY, "z": [0, 1], "seed": 3},
    {"kind": "gap", "family": THREE_BALLS, "start": [0, 3], "candidate_kind": "cyclic2",
     "solver": {"max_sweeps": 200, "max_iters": 200}},
]
INVALID_VALUES = [None, True, 2.7, -1, "x", [], {}, [[]], math.nan, math.inf, 1e308]
ADDED_KEYS = ["kind", "family", "start", "solver", "output", "seed", "objective", "variant", "x", "y",
              "n", "plane", "candidate", "m", "z", "rho", "sphere_samples", "candidate_kind", "csv",
              "max_sweeps", "gamma", "target", "type", "radius", "bogus"]


def paths_into(value, prefix=()):
    """The path of every entry nested in dicts and lists."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths_into(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    config = json.loads(json.dumps(draw(st.sampled_from(CONTRACT_BASES))))
    *parents, last = draw(st.sampled_from(list(paths_into(config))))
    node = config
    for key in parents:
        node = node[key]
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "drop":
        del node[last]
    elif action == "add" and isinstance(node, dict):
        node[draw(st.sampled_from(ADDED_KEYS))] = draw(st.sampled_from(INVALID_VALUES))
    elif action == "add":
        node.append(draw(st.sampled_from(INVALID_VALUES)))
    else:
        node[last] = draw(st.sampled_from(INVALID_VALUES))
    return config


CONTRACT_ARGV = [
    ["spiral", "--x", "0,0.1", "--y", "1,0", "--n", "3"],
    ["falsify", "--candidate", "perimeter", "--m", "3", "--rho", "2", "--sphere-samples", "4"],
    ["project", "--set", '{"type":"ball","center":[0,0],"radius":1}', "--point", "2,0"],
]
INVALID_ARGS = ["", "x", "-1", "2.7", "1e308", "nan", "inf", "true", "[]", "{}", "[[]]", "1,abc", ",",
                "0,0", "1e308,1e308", '{"type":["ball"]}', '{"type":"ball","center":{},"radius":1}',
                "missing/out"]
ADDED_FLAGS = ["--x", "--y", "--n", "--plane", "--out", "--m", "--rho", "--z", "--seed",
               "--sphere-samples", "--candidate", "--set", "--point", "--bogus"]


@st.composite
def mutated_argv(draw):
    argv = list(draw(st.sampled_from(CONTRACT_ARGV)))
    flag = draw(st.sampled_from(range(1, len(argv), 2)))  # index of a flag; its value follows
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "drop":
        del argv[flag : flag + 2]
    elif action == "add":
        argv += [draw(st.sampled_from(ADDED_FLAGS)), draw(st.sampled_from(INVALID_ARGS))]
    else:
        argv[flag + 1] = draw(st.sampled_from(INVALID_ARGS))
    return argv


def assert_contract(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert stderr.getvalue().strip(), argv


@settings(max_examples=100, deadline=None)
@given(config=mutated_configs())
def test_any_mutated_run_config_ends_in_a_contract_exit_code(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert_contract(["run", "--config", str(cfg_path), "--out-dir", str(Path(tmp) / "out")])


@settings(max_examples=50, deadline=None)
@given(argv=mutated_argv())
def test_any_mutated_subcommand_argv_ends_in_a_contract_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        # every --out path lands in the temporary directory
        argv = [str(Path(tmp) / a) if i and argv[i - 1] == "--out" else a for i, a in enumerate(argv)]
        assert_contract(argv)
