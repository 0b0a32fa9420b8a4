import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from cyclefield import cli, green, montecarlo
from cyclefield.cli import run
from cyclefield.errors import InfeasiblePhaseError
from cyclefield.params import ModelParams
from cyclefield.paths import AgentPath, AgentState
from cyclefield.phases import compatibility_root, solve_phase


def invoke(tmp_path, *argv, name="out.txt"):
    out = tmp_path / name
    code = run(list(argv) + ["--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def write_config(tmp_path, **overrides):
    p = ModelParams().replace(**overrides)
    cfg = tmp_path / "params.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in vars(p).items()))
    return str(cfg)


class TestPhases:
    def test_json_round_trips_solver_output(self, tmp_path, params):
        code, text = invoke(tmp_path, "phases")
        assert code == 0
        doc = json.loads(text)
        recs = doc["phases"]
        assert [r["phase"] for r in recs] == [0, 1]
        sol1 = solve_phase(params, 1)
        assert recs[1]["gamma_eta"] == sol1.gamma_eta
        assert recs[1]["Gamma3"] == sol1.Gamma3
        assert recs[0]["mass"] == 0.0
        assert recs[1]["mass"] == sol1.mass

    def test_config_file_loaded(self, tmp_path):
        cfg = write_config(tmp_path, A0=9.0)
        code, text = invoke(tmp_path, "--config", cfg, "phases")
        assert code == 0
        doc = json.loads(text)
        expected = solve_phase(ModelParams().replace(A0=9.0), 1)
        assert doc["phases"][1]["Gamma3"] == expected.Gamma3

    def test_missing_config_is_usage_error(self, tmp_path):
        code, _ = invoke(tmp_path, "--config", str(tmp_path / "nope.cfg"), "phases")
        assert code == 2

    def test_wrong_format_rejected(self, tmp_path):
        code, _ = invoke(tmp_path, "phases", "--format", "csv")
        assert code == 2

    def test_infeasible_offset_exits_three(self, tmp_path):
        cfg = write_config(tmp_path, C0=1e9)
        code, _ = invoke(tmp_path, "--config", cfg, "phases")
        assert code == 3

    @pytest.mark.parametrize("overrides", [{"kappa": 0.996}, {"nu": 2.3, "A0": 27.0}])
    def test_overflowing_capital_shift_exits_four(self, tmp_path, capsys, overrides):
        # K1p = -exp(expo) with expo past log(DBL_MAX): its denominator
        # erf(u/sqrt2) + 1 vanishes faster than its numerator
        cfg = write_config(tmp_path, **overrides)
        code, text = invoke(tmp_path, "--config", cfg, "phases")
        assert (code, text) == (4, "")
        assert "vanishing factor in closed form: K1p" in capsys.readouterr().err


class TestPhaseScan:
    def parse(self, text):
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def test_single_point_matches_phases(self, tmp_path, params):
        code, text = invoke(tmp_path, "phase-scan", "--key", "A0", "--values", "8.0")
        assert code == 0
        rows = self.parse(text)
        assert len(rows) == 1
        sol = solve_phase(params, 1)
        assert float(rows[0]["gamma_eta"]) == sol.gamma_eta
        assert rows[0]["feasible"] == "true"
        assert rows[0]["stable"] == "true"

    # result columns and the PhaseSolution fields they hold
    FIELDS = {
        "gamma_eta": "gamma_eta", "Gamma1": "Gamma1", "Gamma2": "Gamma2", "Gamma3": "Gamma3",
        "C1": "C1", "K1p": "K1p", "A1": "A1", "m": "mass", "avgA": "avg_A", "avgC": "avg_C",
        "avgK": "avg_K", "avgY": "avg_Y", "feasible": "feasible", "stable": "stable",
    }

    def test_every_column_matches_library(self, tmp_path, params):
        code_c0, c0_text = invoke(tmp_path, "phase-scan", "--key", "C0", "--values", "0.1,0.5")
        code_g, gamma_text = invoke(tmp_path, "phase-scan", "--key", "gamma", "--values", "0.0")
        assert code_c0 == code_g == 0
        rows = self.parse(c0_text) + self.parse(gamma_text)
        # C0 = 0.1 lies below the offset window: the trivial phase is written,
        # flagged infeasible; gamma = 0 solves phase 1 but fails existence
        with pytest.raises(InfeasiblePhaseError):
            compatibility_root(params.replace(C0=0.1))
        low, mid, free = params.replace(C0=0.1), params.replace(C0=0.5), params.replace(gamma=0.0)
        cases = [
            (low, replace(solve_phase(low, 0), feasible=False), "infeasible"),
            (mid, solve_phase(mid, 1), "ok"),
            (free, solve_phase(free, 1), "ok"),
        ]
        assert len(rows) == len(cases)
        assert list(rows[0]) == list(vars(params)) + list(self.FIELDS) + ["status"]
        for row, (p, sol, status) in zip(rows, cases):
            expected = {k: cli._fmt(v) for k, v in vars(p).items()}
            expected.update({col: cli._fmt(getattr(sol, f)) for col, f in self.FIELDS.items()})
            expected["status"] = status
            assert row == expected
        assert rows[0]["gamma_eta"] == "0"
        assert [r["feasible"] for r in rows] == ["false", "true", "false"]

    def test_gamma_sweep_flags_free_limit_infeasible(self, tmp_path):
        code, text = invoke(
            tmp_path, "phase-scan", "--key", "gamma", "--values", "0.0,0.05,0.1"
        )
        assert code == 0
        rows = self.parse(text)
        assert [r["feasible"] for r in rows] == ["false", "true", "true"]
        # the compatibility root itself does not depend on the coupling
        assert float(rows[0]["gamma_eta"]) == float(rows[1]["gamma_eta"])

    def test_failed_row_keeps_the_others(self, tmp_path, capsys, params):
        code, text = invoke(
            tmp_path, "phase-scan", "--key", "kappa", "--values", "0.5,0.996,0.6"
        )
        assert code == 4
        assert "numerical failure in 1 of 3 rows" in capsys.readouterr().err
        rows = self.parse(text)
        assert [r["status"] for r in rows] == ["ok", "singular", "ok"]
        assert [float(r["kappa"]) for r in rows] == [0.5, 0.996, 0.6]
        assert [rows[1][col] for col in self.FIELDS] == [""] * len(self.FIELDS)
        for row, kappa in ((rows[0], 0.5), (rows[2], 0.6)):
            sol = solve_phase(params.replace(kappa=kappa), 1)
            assert row["Gamma3"] == cli._fmt(sol.Gamma3)

    def test_kappa_scan_finishes(self, tmp_path):
        # the damped Gamma3 iteration hit its cap before kappa = 0.8
        code, text = invoke(tmp_path, "phase-scan", "--key", "kappa", "--range", "0,0.99,100")
        assert code == 0
        rows = self.parse(text)
        assert len(rows) == 100
        assert {r["status"] for r in rows} <= {"ok", "infeasible"}

    @pytest.mark.parametrize(
        "key,value,status",
        [("kappa", "0.996", "singular"), ("A0", "3.691903901261551", "singular")],
    )
    def test_numerical_failure_is_a_typed_row(self, tmp_path, capsys, key, value, status):
        code, text = invoke(tmp_path, "phase-scan", "--key", key, "--values", value)
        assert code == 4
        assert "error: numerical failure" in capsys.readouterr().err
        assert [r["status"] for r in self.parse(text)] == [status]

    def test_range_grid(self, tmp_path):
        code, text = invoke(
            tmp_path, "phase-scan", "--key", "A0", "--range", "7.0,9.0,5"
        )
        assert code == 0
        rows = self.parse(text)
        assert [float(r["A0"]) for r in rows] == [7.0, 7.5, 8.0, 8.5, 9.0]

    @pytest.mark.parametrize(
        "option,grid,values",
        [("--range", "-3,3,3", [-3.0, 0.0, 3.0]), ("--values", "-1,0,1", [-1.0, 0.0, 1.0])],
    )
    def test_grid_may_start_below_zero(self, tmp_path, option, grid, values):
        # argparse would read a separate "-3,3,3" as an option
        code_apart, apart = invoke(tmp_path, "phase-scan", "--key", "g", option, grid, name="apart")
        code_joined, joined = invoke(tmp_path, "phase-scan", "--key", "g", f"{option}={grid}", name="joined")
        assert code_apart == code_joined == 0
        assert apart == joined
        assert [float(r["g"]) for r in self.parse(apart)] == values

    @pytest.mark.parametrize("tail", [["--range"], ["--values"], ["--range", "--values", "1"]])
    def test_missing_grid_value_is_a_usage_error(self, tmp_path, capsys, tail):
        code, _ = invoke(tmp_path, "phase-scan", "--key", "g", *tail)
        assert code == 2
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,grid,message",
        [
            ("--values", "1,x", "invalid --values list '1,x'"),
            ("--range", "1,2", "--range expects 'start,stop,count', got '1,2'"),
            ("--range", "1,x,3", "invalid --range '1,x,3'"),
            ("--range", "1,2,0", "--range count must be >= 1, got 0"),
        ],
    )
    def test_malformed_grid_is_a_usage_error(self, tmp_path, capsys, option, grid, message):
        code, text = invoke(tmp_path, "phase-scan", "--key", "A0", option, grid)
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_range_of_one_point_is_its_start(self, tmp_path):
        code, text = invoke(tmp_path, "phase-scan", "--key", "A0", "--range", "5,9,1")
        assert code == 0
        assert [float(r["A0"]) for r in self.parse(text)] == [5.0]

    def test_unknown_key_rejected(self, tmp_path):
        code, _ = invoke(tmp_path, "phase-scan", "--key", "bogus", "--values", "1")
        assert code == 2

    def test_values_and_range_mutually_exclusive(self, tmp_path):
        code, _ = invoke(
            tmp_path, "phase-scan", "--key", "A0", "--values", "8", "--range", "7,9,3"
        )
        assert code == 2


class TestTransit:
    ARGS = ("transit", "--from", "1.1,10.2,10.0", "--to", "1.12,10.3,10.01")

    def test_matches_library(self, tmp_path, trivial, params):
        code, text = invoke(tmp_path, *self.ARGS, "--t", "0.01")
        assert code == 0
        doc = json.loads(text)
        x = AgentState(C=1.1, K=10.2, A=10.0)
        y = AgentState(C=1.12, K=10.3, A=10.01)
        d, ld = green.transition_density(x, y, 0.01, trivial, params)
        assert doc["density"] == d
        assert doc["log_density"] == ld
        assert doc["coefficients"]["mass"] == 0.0

    def test_zero_horizon_is_usage_error(self, tmp_path):
        code, _ = invoke(tmp_path, *self.ARGS, "--t", "0.0")
        assert code == 2

    def test_maintext_convention_changes_beta(self, tmp_path):
        _, a = invoke(tmp_path, *self.ARGS, "--t", "0.01")
        _, b = invoke(tmp_path, *self.ARGS, "--t", "0.01", "--maintext-convention")
        assert json.loads(a)["coefficients"]["beta"] != json.loads(b)["coefficients"]["beta"]

    COINCIDENT = ("transit", "--from", "1.1,10.2,10.0", "--to", "1.1,10.2,10.0")

    @pytest.mark.parametrize("t,maintext", [(1e-120, False), (1e-320, True)])
    def test_tiny_horizon_keeps_finite_density(self, tmp_path, trivial, params, t, maintext):
        # the product of the variances in the normaliser underflows to 0 here
        flags = ["--maintext-convention"] if maintext else []
        code, text = invoke(tmp_path, *self.COINCIDENT, "--t", repr(t), *flags)
        assert code == 0
        doc = json.loads(text)
        x = AgentState(C=1.1, K=10.2, A=10.0)
        assert doc["log_density"] == green.transition_density(x, x, t, trivial, params, maintext)[1]
        assert doc["density"] == math.exp(doc["log_density"])

    @pytest.mark.parametrize("t", ["1e-250", "2e-322", "5e-324"])
    def test_unrepresentable_density_is_usage_error(self, tmp_path, capsys, t):
        # 1e-250: the density exceeds the largest double; 2e-322: the
        # consumption variance underflows to 0; 5e-324: all three do
        code, text = invoke(tmp_path, *self.COINCIDENT, "--t", t)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")


class TestPath:
    def test_csv_parses_as_path(self, tmp_path, trivial, params):
        eq = green.equilibrium(trivial, params)
        x0 = f"{eq.C},{eq.K},{eq.A}"
        code, text = invoke(
            tmp_path, "path", "--x0", x0, "--t", "0.5", "--n-steps", "50"
        )
        assert code == 0
        path = AgentPath.from_csv(text)
        assert len(path) == 51
        assert path.K[-1] == pytest.approx(eq.K, rel=1e-9)

    def test_capital_crash_exits_four(self, tmp_path):
        code, _ = invoke(
            tmp_path, "path", "--x0", "10.0,2.0,10.0", "--t", "5.0", "--n-steps", "500"
        )
        assert code == 4

    def test_bad_state_triple(self, tmp_path):
        code, _ = invoke(tmp_path, "path", "--x0", "1.0,2.0", "--t", "0.5")
        assert code == 2


class TestDeviations:
    def test_json_fields(self, tmp_path):
        code, text = invoke(
            tmp_path,
            "deviations",
            "--x0", "1.1,10.5,9.8",
            "--v0", "0.05,-0.1,0.02",
            "--t", "0.2",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["dC"] == 0.0
        assert doc["dK"] != 0.0
        assert doc["elasticities"]["dK_dCdot0"] < 0.0


class TestTwoAgent:
    def test_swap_symmetry_through_cli(self, tmp_path):
        base = [
            "two-agent",
            "--from1", "1.0,10.0,10.0", "--to1", "1.2,10.5,9.9",
            "--from2", "0.9,11.0,10.2", "--to2", "1.1,11.5,10.4",
            "--t", "0.3",
        ]
        swapped = [
            "two-agent",
            "--from1", "0.9,11.0,10.2", "--to1", "1.1,11.5,10.4",
            "--from2", "1.0,10.0,10.0", "--to2", "1.2,10.5,9.9",
            "--t", "0.3",
        ]
        code_a, a = invoke(tmp_path, *base, name="a.json")
        code_b, b = invoke(tmp_path, *swapped, name="b.json")
        assert code_a == code_b == 0
        da, db = json.loads(a), json.loads(b)
        assert da["V_I"] == db["V_I"]
        assert da["d12"] == db["d21"]


class TestMCValidate:
    def test_report_and_export(self, tmp_path):
        cfg = write_config(tmp_path, A0=1.0, gamma=0.0)
        export = tmp_path / "endpoints.csv"
        code, text = invoke(
            tmp_path,
            "--config", cfg,
            "mc-validate",
            "--t", "0.05",
            "--n", "2000",
            "--dt", "1e-3",
            "--export", str(export),
        )
        assert code == 0
        doc = json.loads(text)
        assert set(doc) == {"zscores", "ks", "pass"}
        lines = export.read_text().strip().split("\n")
        assert lines[0] == "path_id,C,K,A"
        assert len(lines) == 2001

    def test_strict_exits_5_after_writing_a_failed_report(self, tmp_path):
        # capital near zero with strong capital noise: the linear-noise
        # reference misses the consumption variance (z ~ 43)
        cfg = write_config(tmp_path, K_bar=1.0, nu=2.0)
        argv = ["--config", cfg, "mc-validate", "--t", "1", "--n", "2000"]
        code, plain = invoke(tmp_path, *argv, name="plain.json")
        assert code == 0
        assert json.loads(plain)["pass"] is False
        code, strict = invoke(tmp_path, *argv, "--strict", name="strict.json")
        assert code == 5
        assert strict == plain

    def test_strict_exits_0_when_the_check_passes(self, tmp_path):
        cfg = write_config(tmp_path, A0=1.0, gamma=0.0)
        argv = ["--config", cfg, "mc-validate", "--t", "0.05", "--n", "2000"]
        code, text = invoke(tmp_path, *argv, "--strict")
        assert code == 0
        assert json.loads(text)["pass"] is True

    def test_infeasible_phase_exits_3_naming_the_anchor(self, tmp_path, capsys):
        # base.cfg with nu = 3: the phase-1 technology anchor is negative
        cfg = write_config(tmp_path, nu=3.0)
        code, text = invoke(tmp_path, "--config", cfg, "mc-validate", "--t", "0.1", "--n", "64", "--phase", "1")
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert "phase 1" in err and "A_bar_phase=-4.92567" in err

    def test_rejected_ensemble_leaves_no_export(self, tmp_path, capsys):
        # one path has no sample variance: mc-validate rejects it before
        # anything is written
        export = tmp_path / "e.csv"
        code, text = invoke(tmp_path, "mc-validate", "--t", "0.1", "--n", "1", "--export", str(export))
        assert code == 2
        assert text == ""
        assert not export.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_export_written_in_blocks(self, tmp_path, monkeypatch, capsys):
        # 20 rows in blocks of 7, and 20,000 rows in the default blocks, give
        # the same bytes as one formatted text, to a file and to stdout
        p = ModelParams()
        sol = solve_phase(p, 0)
        x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
        for n, block in ((20, 7), (20_000, cli._EXPORT_ROWS)):
            argv = ["--seed", "3", "mc-validate", "--t", "0.01", "--n", str(n)]
            ens = montecarlo.sample_paths(x0, 0.01, sol, p, montecarlo.MCConfig(n_paths=n, seed=3))
            rows = ["path_id,C,K,A"] + [
                f"{i},{float(c):.17g},{float(k):.17g},{float(a):.17g}"
                for i, (c, k, a) in enumerate(zip(ens.C, ens.K, ens.A))
            ]
            expected = "\n".join(rows) + "\n"
            monkeypatch.setattr(cli, "_EXPORT_ROWS", block)
            export = tmp_path / "endpoints.csv"
            code, _ = invoke(tmp_path, *argv, "--export", str(export))
            assert code == 0
            assert export.read_text() == expected
            capsys.readouterr()
            code, _ = invoke(tmp_path, *argv, "--export", "-")
            assert code == 0
            assert capsys.readouterr().out == expected

    def test_export_and_report_both_on_stdout_exit_2_before_sampling(self, monkeypatch, capsys):
        def no_sampling(*a, **k):
            raise AssertionError("sampled before the targets were checked")

        monkeypatch.setattr(montecarlo, "sample_paths", no_sampling)
        for extra in ([], ["--output", "-"]):
            code = run(["mc-validate", "--t", "0.01", "--n", "20", "--export", "-", *extra])
            assert code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "--export" in err and "--output" in err and "stdout" in err

    def test_export_and_report_to_one_file_exit_2_before_sampling(self, tmp_path, monkeypatch, capsys):
        def no_sampling(*a, **k):
            raise AssertionError("sampled before the targets were checked")

        monkeypatch.setattr(montecarlo, "sample_paths", no_sampling)
        target = tmp_path / "both.txt"
        same = tmp_path / "sub" / ".." / "both.txt"
        code = run(["mc-validate", "--t", "0.01", "--n", "20", "--export", str(target), "--output", str(same)])
        assert code == 2
        assert not target.exists()
        err = capsys.readouterr().err
        assert "--export" in err and "--output" in err and "both.txt" in err


class TestUnwritableOutput:
    """An output target that cannot be written is bad usage: exit 2 and one error line."""

    def check(self, capsys, argv, target):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output file {target}: ")
        assert err.count("\n") == 1

    def test_phases_to_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        self.check(capsys, ["phases", "--output", str(target)], target)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_phase_scan_to_a_full_device(self, capsys):
        argv = ["phase-scan", "--key", "A0", "--values", "7.5,8.0", "--output", "/dev/full"]
        self.check(capsys, argv, "/dev/full")

    def test_transit_to_a_directory(self, tmp_path, capsys):
        argv = ["transit", "--from", "1.1,10.2,10.0", "--to", "1.12,10.3,10.01", "--t", "0.01"]
        self.check(capsys, argv + ["--output", str(tmp_path)], tmp_path)

    def test_mc_validate_export_to_a_missing_directory(self, tmp_path, monkeypatch, capsys):
        def no_sampling(*a, **k):
            raise AssertionError("sampled before the export target was opened")

        monkeypatch.setattr(montecarlo, "sample_paths", no_sampling)
        export, report = tmp_path / "missing" / "e.csv", tmp_path / "r.json"
        argv = ["mc-validate", "--t", "0.01", "--n", "20", "--export", str(export), "--output", str(report)]
        self.check(capsys, argv, export)
        assert not report.exists()


class TestDeterminism:
    CASES = [
        ["phases"],
        ["phase-scan", "--key", "A0", "--values", "7.5,8.0"],
        ["transit", "--from", "1.1,10.2,10.0", "--to", "1.12,10.3,10.01", "--t", "0.01"],
        ["path", "--x0", "1.0,10.0,10.0", "--t", "0.2", "--n-steps", "20"],
        ["mc-validate", "--t", "0.02", "--n", "500", "--seed", "7"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_repeat_runs_byte_identical(self, tmp_path, argv):
        code_a, a = invoke(tmp_path, *argv, name="a.out")
        code_b, b = invoke(tmp_path, *argv, name="b.out")
        assert code_a == code_b == 0
        assert a == b
        assert a  # non-empty


class TestRejectedInputs:
    """Inputs outside a command's domain exit 2 with an error line, not a traceback."""

    TRANSIT = ("transit", "--from", "1.1,10.2,10.0", "--to", "1.12,10.3,10.01")
    PATH = ("path", "--x0", "1.1,10.2,10.0")

    @pytest.mark.parametrize(
        "argv",
        [
            TRANSIT + ("--t", "nan"),
            TRANSIT + ("--t", "inf"),
            PATH + ("--t", "nan"),
            PATH + ("--t", "inf"),
            PATH + ("--t", "0.5", "--n-steps", "0"),
            PATH + ("--t", "0.5", "--n-steps", "-3"),
            ("mc-validate", "--t", "nan", "--n", "64"),
            ("mc-validate", "--t", "inf", "--n", "64"),
            ("mc-validate", "--t", "0.1", "--n", "1"),
            ("mc-validate", "--t", "0.1", "--n", "10", "--seed", "-1"),
            ("mc-validate", "--t", "0.1", "--n", "10", "--seed", str(2**128)),
        ],
        ids=[
            "transit-t-nan", "transit-t-inf", "path-t-nan", "path-t-inf", "path-n-steps-0",
            "path-n-steps-negative", "mc-validate-t-nan", "mc-validate-t-inf", "mc-validate-n-1",
            "mc-validate-seed-negative", "mc-validate-seed-2**128",
        ],
    )
    def test_exits_2(self, tmp_path, capsys, argv):
        code, text = invoke(tmp_path, *argv)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")

    SAME = "1,10,10"

    @pytest.mark.parametrize(
        "argv",
        [
            ("deviations", "--x0", SAME, "--v0", "0,0,0", "--t", "1e60"),
            ("two-agent", "--from1", SAME, "--to1", SAME, "--from2", SAME, "--to2", SAME, "--t", "1e110"),
        ],
        ids=["deviations", "two-agent"],
    )
    def test_overflowing_closed_form_exits_4(self, tmp_path, capsys, argv):
        # t**6 and t**3 overflow a double in the correction formulas
        code, text = invoke(tmp_path, *argv)
        assert code == 4
        assert text == ""
        assert capsys.readouterr().err.startswith("error: numerical failure: ")

    @pytest.mark.parametrize(
        "argv, formula",
        [
            (("deviations", "--x0", SAME, "--v0", "0,0,0", "--t", "1e60"), "elasticity_table"),
            (
                ("two-agent", "--from1", SAME, "--to1", SAME, "--from2", SAME, "--to2", SAME, "--t", "1e110"),
                "two_agent_correction",
            ),
        ],
        ids=["deviations", "two-agent"],
    )
    def test_overflow_message_names_formula_and_horizon(self, tmp_path, capsys, argv, formula):
        assert invoke(tmp_path, *argv)[0] == 4
        t = float(argv[-1])
        assert capsys.readouterr().err == (
            f"error: numerical failure: {formula} overflows a double at horizon t = {t!r}\n"
        )


class TestDispatcher:
    """Every subcommand passes through one format check, config load, phase solve and emit."""

    TWO = (
        "--from1", "1.0,10.0,10.0", "--to1", "1.2,10.5,9.9",
        "--from2", "0.9,11.0,10.2", "--to2", "1.1,11.5,10.4",
    )
    # subcommand -> (a cheap argv, natural format)
    COMMANDS = {
        "phases": (("phases",), "json"),
        "phase-scan": (("phase-scan", "--key", "A0", "--values", "8.0"), "csv"),
        "transit": (("transit", "--from", "1.1,10.2,10.0", "--to", "1.12,10.3,10.01", "--t", "0.01"), "json"),
        "path": (("path", "--x0", "1.0,10.0,10.0", "--t", "0.2", "--n-steps", "20"), "csv"),
        "deviations": (("deviations", "--x0", "1.1,10.5,9.8", "--v0", "0.05,-0.1,0.02", "--t", "0.2"), "json"),
        "two-agent": (("two-agent",) + TWO + ("--t", "0.3"), "json"),
        "mc-validate": (("mc-validate", "--t", "0.02", "--n", "64"), "json"),
    }
    TRIPLE_OPTIONS = [
        ("transit", "--from"), ("transit", "--to"), ("path", "--x0"), ("deviations", "--x0"),
        ("deviations", "--v0"), ("two-agent", "--from1"), ("two-agent", "--to1"),
        ("two-agent", "--from2"), ("two-agent", "--to2"),
    ]

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_wrong_format_writes_nothing(self, tmp_path, capsys, name):
        argv, natural = self.COMMANDS[name]
        wrong = "csv" if natural == "json" else "json"
        out = tmp_path / "out.txt"
        assert run([*argv, "--format", wrong, "--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: subcommand {name!r} only supports --format {natural}\n"

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_late_globals_match_early_ones(self, tmp_path, name):
        argv, natural = self.COMMANDS[name]
        cfg = write_config(tmp_path, A0=8.5)
        flags = ["--config", cfg, "--seed", "5", "--format", natural, "--paper-k1-approx", "--maintext-convention"]
        code_early, early = invoke(tmp_path, *flags, *argv, name="early.out")
        code_late, late = invoke(tmp_path, *argv, *flags, name="late.out")
        code_plain, plain = invoke(tmp_path, *argv, name="plain.out")
        assert code_early == code_late == code_plain == 0
        assert late == early != plain

    @pytest.mark.parametrize("bad", ["1.0,2.0", "1.0,two,3.0"], ids=["two-numbers", "not-a-number"])
    @pytest.mark.parametrize("name,option", TRIPLE_OPTIONS, ids=[f"{n}{o}" for n, o in TRIPLE_OPTIONS])
    def test_malformed_triple_exits_2(self, tmp_path, capsys, name, option, bad):
        argv = list(self.COMMANDS[name][0])
        argv[argv.index(option) + 1] = bad
        code, text = invoke(tmp_path, *argv)
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback

    def test_state_checked_before_config_and_phase(self, tmp_path, capsys):
        # the negative capital is rejected while the arguments are parsed,
        # before this configuration's infeasible phase 1 is solved
        cfg = write_config(tmp_path, C0=1e9)
        argv = ["--config", cfg, "transit", "--from", "1.1,-1,10", "--to", "1.1,10,10", "--t", "0.1", "--phase", "1"]
        code, text = invoke(tmp_path, *argv)
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: K must be >= 0, got -1.0\n"


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_globals_accepted_after_subcommand(self, tmp_path):
        out = tmp_path / "late.json"
        code = run(["phases", "--output", str(out)])
        assert code == 0
        assert out.exists()

    def test_cold_start_loads_no_scipy(self, tmp_path):
        # scipy.special alone is ~0.38 s of a ~0.5 s cold start and
        # scipy.linalg ~6 MB of RSS; the phase layer computes erfc/erfcx with
        # math, and no command imports SciPy
        src = str(Path(cli.__file__).resolve().parents[1])
        check = f"""
import sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import cyclefield.cli as cli
assert not loaded(), ("import cyclefield.cli", loaded())
from cyclefield.params import ModelParams
from cyclefield.phases import solve_phase
for phase in (0, 1):
    solve_phase(ModelParams(), phase)
    assert not loaded(), ("solve_phase", phase, loaded())
for argv in (
    ["phases"],
    ["phase-scan", "--key", "A0", "--values", "7.5,8.0"],
    ["transit", "--from", "1.1,10.2,10.0", "--to", "1.12,10.3,10.01", "--t", "0.01", "--phase", "1"],
):
    assert cli.run(argv + ["--output", {str(tmp_path / "out")!r}]) == 0, argv
    assert not loaded(), (argv[0], loaded())
"""
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", check], env=env, timeout=60, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_cold_start_loads_no_numpy(self, tmp_path):
        # the phase layer is plain math; NumPy is ~0.1 s of every cold start
        # and loads only with the kernel modules of the five horizon commands
        src = str(Path(cli.__file__).resolve().parents[1])
        check = f"""
import sys
def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
import cyclefield
assert not loaded(), ("import cyclefield", loaded())
import cyclefield.cli as cli
assert not loaded(), ("import cyclefield.cli", loaded())
from cyclefield.params import ModelParams
from cyclefield.phases import solve_phase
for phase in (0, 1):
    solve_phase(ModelParams(), phase)
    assert not loaded(), ("solve_phase", phase, loaded())
for argv in (["phases"], ["phase-scan", "--key", "A0", "--values", "7.5,8.0"]):
    assert cli.run(argv + ["--output", {str(tmp_path / "out")!r}]) == 0, argv
    assert not loaded(), (argv[0], loaded())
argv = ["transit", "--from", "1.1,10.2,10.0", "--to", "1.12,10.3,10.01", "--t", "0.01", "--phase", "1"]
assert cli.run(argv + ["--output", {str(tmp_path / "out")!r}]) == 0, argv
assert "numpy" in sys.modules, "transit ran without NumPy"
"""
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", check], env=env, timeout=60, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_mc_validate_and_appendix5_load_no_scipy(self, tmp_path):
        # appendix 5's capital root is Newton steps on the sampler's drift, the
        # linear-noise reference needs no matrix exponential, and the KS
        # comparison's ndtr and kolmogorov are cyclefield.ks's ports
        src = str(Path(cli.__file__).resolve().parents[1])
        check = f"""
import sys
from cyclefield import cli, montecarlo
from cyclefield.params import ModelParams
from cyclefield.phases import solve_phase
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
p = ModelParams()
montecarlo.appendix5_negligibility(p, solve_phase(p, 1), [0.0, 0.1], T=1.0, n_paths=64, seed=1)
assert not loaded(), ("appendix5_negligibility", loaded())
assert cli.run(["mc-validate", "--t", "0.1", "--n", "100", "--output", {str(tmp_path / "r.json")!r}]) == 0
assert not loaded(), ("mc-validate", loaded())
assert "cyclefield.ks" in sys.modules, "mc-validate ran without its KS comparison"
"""
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", check], env=env, timeout=60, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_mc_validate_runs_with_scipy_blocked(self, tmp_path):
        # an install without SciPy: a finder refuses every scipy import, and the
        # report keeps the bytes of a run in this process, where SciPy is importable
        base_cfg = str(Path(__file__).resolve().parent.parent / "base.cfg")
        argv = ["--config", base_cfg, "mc-validate", "--t", "0.1", "--n", "2000"]
        blocked = tmp_path / "blocked.json"
        check = """
import sys
class BlockSciPy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)", name=name)
sys.meta_path.insert(0, BlockSciPy())
from cyclefield.cli import main
main()
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", check, *argv, "--output", str(blocked)],
            env=env, timeout=60, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert run([*argv, "--output", str(tmp_path / "open.json")]) == 0
        assert blocked.read_bytes() == (tmp_path / "open.json").read_bytes()
