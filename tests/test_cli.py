import json

import numpy as np
import pytest

from rdgalerkin.basis import BasisSpec
from rdgalerkin.cli import (
    ConfigError,
    load_custom_problem,
    main,
    parse_config,
)
from rdgalerkin.norms import evaluate, sample_grid
from rdgalerkin.problems import builtin_grayscott, builtin_tp1
from rdgalerkin.stepper import run, state_at

TP1_ARGS = ["--problem", "tp1", "--dt", "0.1", "--t-end", "1"]


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


CUSTOM_DOC = {
    "lower": 0.0, "upper": 2.0, "eps1": 0.01, "eps2": 0.01,
    "theta0": 0.0, "gamma0": 1.0, "alpha": 2, "beta": 1,
    "sign_M": 1, "sign_N": -1,
    "decay_M": 0.086, "decay_N": 0.09, "source_M": 0.0, "source_N": 0.09,
    "initial_M_amplitude": 0.01, "initial_M_power": 1,
    "initial_M_x_ref": 2.0, "initial_M_width": 2.0, "initial_M_offset": 0.0,
    "initial_N_amplitude": -0.12, "initial_N_power": 1,
    "initial_N_x_ref": 2.0, "initial_N_width": 2.0, "initial_N_offset": 1.0,
}


class TestParseConfig:
    def test_flags_only(self):
        cfg = parse_config(TP1_ARGS + ["--theta", "0.5", "--grid-points", "51"])
        assert cfg.problem_id == "tp1"
        assert cfg.solver.dt == 0.1
        assert cfg.solver.t_end == 1.0
        assert cfg.solver.theta == 0.5
        assert cfg.grid_points == 51
        assert cfg.report_times == [1.0]

    def test_config_file_with_flag_override(self, tmp_path):
        path = write_json(
            tmp_path / "run.json",
            {"problem": "tp1", "dt": 0.1, "t_end": 2.0, "degree": 4},
        )
        cfg = parse_config(["--config", path, "--degree", "6"])
        assert cfg.solver.t_end == 2.0
        assert cfg.degree == 6

    def test_missing_dt_names_field(self):
        with pytest.raises(ConfigError, match="dt: required"):
            parse_config(["--problem", "tp1", "--t-end", "1"])

    def test_missing_problem(self):
        with pytest.raises(ConfigError, match="problem"):
            parse_config(["--dt", "0.1", "--t-end", "1"])

    def test_custom_requires_path(self):
        with pytest.raises(ConfigError, match="custom_path"):
            parse_config(["--problem", "custom", "--dt", "0.1", "--t-end", "1"])

    def test_report_time_off_grid(self):
        with pytest.raises(ConfigError, match="report_times"):
            parse_config(TP1_ARGS + ["--report-times", "0.55"])

    def test_report_time_beyond_horizon(self):
        with pytest.raises(ConfigError, match="exceeds t_end"):
            parse_config(TP1_ARGS + ["--report-times", "2.0"])

    def test_report_time_beyond_horizon_at_tiny_dt(self):
        # bounded by its step count, not by an absolute margin over t_end
        with pytest.raises(ConfigError, match="report_times: 3e-13 exceeds t_end=2e-13"):
            parse_config(["--problem", "tp1", "--dt", "1e-13", "--t-end", "2e-13",
                          "--report-times", "3e-13"])

    def test_convergence_dts_parsed(self):
        cfg = parse_config(TP1_ARGS + ["--convergence-dts", "0.5,0.25,0.125"])
        assert cfg.convergence_dts == [0.5, 0.25, 0.125]

    def test_bad_convergence_dts(self):
        with pytest.raises(ConfigError, match="convergence_dts"):
            parse_config(TP1_ARGS + ["--convergence-dts", "0.5,abc"])

    def test_unknown_config_key(self, tmp_path):
        path = write_json(tmp_path / "run.json", {"problem": "tp1", "dtt": 0.1})
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(["--config", path])

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(["--config", str(path)])


class TestCustomProblem:
    def test_round_trip(self, tmp_path):
        path = write_json(tmp_path / "prob.json", CUSTOM_DOC)
        problem = load_custom_problem(path)
        assert problem.lower == 0.0 and problem.upper == 2.0
        assert problem.reaction.alpha == 2 and problem.reaction.beta == 1
        x = np.array([0.5, 1.0])
        assert problem.initial_M(x) == pytest.approx(
            0.01 * np.sin(np.pi * (x - 2.0) / 2.0)
        )

    def test_missing_key(self, tmp_path):
        doc = dict(CUSTOM_DOC)
        del doc["eps1"]
        path = write_json(tmp_path / "prob.json", doc)
        with pytest.raises(ConfigError, match="missing keys.*eps1"):
            load_custom_problem(path)

    def test_unknown_key(self, tmp_path):
        doc = dict(CUSTOM_DOC, extra=1)
        path = write_json(tmp_path / "prob.json", doc)
        with pytest.raises(ConfigError, match="unknown keys.*extra"):
            load_custom_problem(path)

    def test_incompatible_boundary_reported_as_config_error(self, tmp_path):
        doc = dict(CUSTOM_DOC, initial_M_offset=0.5)   # M(0) = 0.5 != theta0 = 0
        path = write_json(tmp_path / "prob.json", doc)
        with pytest.raises(ConfigError, match="incompatible"):
            load_custom_problem(path)


class TestMain:
    def test_success_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(TP1_ARGS + ["--output-dir", str(out), "--emit-svg"])
        assert code == 0
        csv_text = (out / "solution.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == "x,t,M,N"
        assert len(lines) == 102
        assert (out / "solution_t1.svg").read_text().startswith("<svg")
        assert "t=1:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra,field",
        [
            (["--report-times", "-1"], "report_times"),
            (["--dt", "inf"], "dt"),
            (["--dt", "nan"], "dt"),
            (["--convergence-dts", "0"], "convergence_dts"),
            (["--quad-points", "2"], "quad_points"),
            (["--t-end", "inf"], "t_end"),
            (["--picard-tol", "nan"], "picard_tol"),
            (["--theta", "nan"], "theta"),
            (["--dt", "5e-324", "--t-end", "1e-323"], "dt"),
            (["--problem", "grayscott", "--dt", "1e-306", "--t-end", "2e-306"], "dt"),
            (["--degree", "-1"], "degree"),
            # past t_end by one step, at a dt far below 1
            (["--dt", "1e-13", "--t-end", "2e-13", "--report-times", "3e-13"], "report_times"),
        ],
    )
    def test_invalid_input_is_config_error(self, tmp_path, capsys, extra, field):
        # argparse keeps the last value, so the extra flags override TP1_ARGS
        code = main(TP1_ARGS + extra + ["--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith(f"configuration error: {field}:")

    @pytest.mark.parametrize(
        "config,custom,field",
        [
            (5, None, "config"),
            ({"dt": "abc"}, None, "dt"),
            ({"dt": [0.1]}, None, "dt"),
            ({"emit_svg": "false"}, None, "emit_svg"),
            ({"degree": 6.7}, None, "degree"),
            ({"problem": "custom"}, {"eps1": None}, "eps1"),
            ({"problem": "custom"}, {"sign_M": 1.5}, "sign_M"),
        ],
    )
    def test_wrong_typed_value_is_config_error(self, tmp_path, capsys, config, custom, field):
        out = tmp_path / "out"
        doc = {"problem": "tp1", "dt": 0.1, "t_end": 1.0, "output_dir": str(out)}
        if custom is not None:
            doc["custom_path"] = write_json(tmp_path / "prob.json", dict(CUSTOM_DOC, **custom))
        doc = dict(doc, **config) if isinstance(config, dict) else config
        code = main(["--config", write_json(tmp_path / "run.json", doc)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith(f"configuration error: {field}:")
        assert not out.exists()

    @pytest.mark.parametrize("callee", ["run", "sample_grid"])
    def test_memory_error_is_config_error(self, tmp_path, capsys, monkeypatch, callee):
        # a stand-in raises, so nothing large is allocated: on a host that
        # overcommits memory a real oversized array kills the process instead
        def too_large(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(f"rdgalerkin.cli.{callee}", too_large)
        code = main(TP1_ARGS + ["--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("configuration error:")
        for field in ("grid_points", "degree", "quad_points"):
            assert field in err

    def test_csv_is_byte_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(TP1_ARGS + ["--output-dir", str(out1)]) == 0
        assert main(TP1_ARGS + ["--output-dir", str(out2)]) == 0
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            TP1_ARGS + ["--grid-points", "2", "--report-times", "0,1"],
            TP1_ARGS + ["--grid-points", "101", "--report-times", "0,0.5,1"],
            ["--problem", "grayscott", "--dt", "0.1", "--t-end", "1", "--report-times", "0,1"],
        ],
    )
    def test_csv_bytes_match_per_row_formatting(self, tmp_path, argv):
        # the CLI formats by column; its bytes are those of formatting each
        # row of the evaluated fields on its own
        assert main(argv + ["--output-dir", str(tmp_path)]) == 0
        cfg = parse_config(argv)
        problem = {"tp1": builtin_tp1, "grayscott": builtin_grayscott}[cfg.problem_id]()
        basis = BasisSpec(problem.lower, problem.upper, cfg.degree)
        trajectory = run(problem, basis, cfg.solver)
        xs = sample_grid(problem, cfg.grid_points)
        expected = "x,t,M,N\n"
        for t in cfg.report_times:
            state = state_at(trajectory, t, cfg.solver.dt)
            M, N = evaluate(state, problem, basis, xs)
            for x, m, n in zip(xs, M, N):
                expected += f"{x:.9g},{state.t:.9g},{m:.9g},{n:.9g}\n"
        assert (tmp_path / "solution.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "extra,times",
        [
            (["--dt", "1e-306", "--t-end", "2e-306"], ["2e-306"]),
            (
                ["--dt", "1e-10", "--t-end", "1e-9", "--report-times", "5e-10,1e-9"],
                ["5e-10", "1e-09"],
            ),
        ],
    )
    def test_tiny_dt_writes_its_report_times(self, tmp_path, capsys, extra, times):
        # each report time is matched to its own step, not to t = 0
        assert main(TP1_ARGS + extra + ["--output-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "solution.csv").read_text().splitlines()[1:]
        assert list(dict.fromkeys(row.split(",")[1] for row in rows)) == times
        assert "t=0:" not in capsys.readouterr().out

    def test_csv_values_round_trip_at_nine_digits(self, tmp_path):
        out = tmp_path / "out"
        assert main(TP1_ARGS + ["--output-dir", str(out)]) == 0
        rows = (out / "solution.csv").read_text().splitlines()[1:]
        for row in rows:
            x, t, M, N = row.split(",")
            for field in (x, t, M, N):
                v = float(field)
                assert f"{v:.9g}" == field

    def test_norms_csv(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            TP1_ARGS + ["--output-dir", str(out), "--convergence-dts", "0.2,0.1"]
        )
        assert code == 0
        lines = (out / "norms.csv").read_text().splitlines()
        assert lines[0] == "dt,L2_M,Linf_M,L2_N,Linf_N"
        assert lines[1] == "0.2,,,,"
        assert lines[2].startswith("0.1,")
        assert len(lines[2].split(",")) == 5

    def test_config_error_exit_code(self, capsys):
        assert main(["--problem", "tp1", "--t-end", "1"]) == 2
        assert "configuration error: dt: required" in capsys.readouterr().err

    def test_unknown_flag_exit_code(self, capsys):
        assert main(TP1_ARGS + ["--bogus"]) == 2

    def test_horizon_mismatch_exit_code(self, capsys):
        assert main(["--problem", "tp1", "--dt", "0.3", "--t-end", "1"]) == 2

    def test_picard_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            TP1_ARGS
            + ["--output-dir", str(out), "--picard-max", "1", "--picard-tol", "1e-14"]
        )
        assert code == 3
        assert "solver error" in capsys.readouterr().err

    def test_linear_solver_failure_exit_code(self, tmp_path, capsys):
        # at degree 28 the mass matrix of the initial projection has
        # kappa_1 ~ 8e16: singular to working precision, although no LU
        # pivot is small enough for a pivot test to notice
        code = main(["--problem", "tp1", "--degree", "28", "--dt", "0.1", "--t-end", "0.2",
                     "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("linear-solver error: ")
        assert "Traceback" not in err

    def test_linear_solver_failure_just_below_the_floor(self, tmp_path, capsys):
        # degree 21: the probe bound (1.9e-13) passes the mass matrix of the
        # initial projection, its exact rcond (5.5e-14) does not
        code = main(["--problem", "tp1", "--degree", "21", "--dt", "0.1", "--t-end", "0.2",
                     "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("linear-solver error: ")
        assert "Traceback" not in err

    def test_io_failure_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("occupied")
        code = main(TP1_ARGS + ["--output-dir", str(blocker / "sub")])
        assert code == 5
        assert "i/o error" in capsys.readouterr().err
