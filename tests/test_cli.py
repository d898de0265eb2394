import json

import numpy as np
import pytest

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

    def test_project_subcommand(self, capsys):
        code = main(
            ["project", "--set", '{"type":"ball","center":[0,0],"radius":1}', "--point", "2,0"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.0,0.0"

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

    def test_falsify_subcommand(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["falsify", "--candidate", "cyclic2", "--m", "3", "--rho", "2", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["chain"] == [6.0, 14.0, 6.0, 14.0]
        assert payload["verdict"] == "candidate falsified"
