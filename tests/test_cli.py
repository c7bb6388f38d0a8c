"""Command-line front end: files, exit codes, precedence, determinism."""

import csv
import dataclasses
import json
import re
import subprocess
import sys
import warnings
import xml.dom.minidom
from pathlib import Path
from xml.sax import saxutils

import numpy as np
import pytest

import hybrid_nls.analysis as analysis
import hybrid_nls.cli as cli
import hybrid_nls.energy as en
import hybrid_nls.specfun as sf
import hybrid_nls.verify as verify
from hybrid_nls import _svgplot, solver
from hybrid_nls.analysis import SweepTable, critical_mass, sweep
from hybrid_nls.cli import main
from hybrid_nls.solver import SolverConfig, certify, omega_star_grid, solve_planar
from hybrid_nls.energy import HybridParams

# small grid keeps every solve in these tests fast; the physics checks
# live in test_acceptance.py at full resolution
FAST = ["--N", "512"]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def run_criterion(number):
    """One criterion's verdict, on the context ``run_suite(fast=True)``
    builds: ``(ok, details)`` or ``(ok, details, notes)``."""
    (fn,) = [fn for n, _, fn in verify.CRITERIA if n == number]
    return fn(verify._Context(cfg=SolverConfig(N=512), fast=True))


def options_table():
    """The options each command reads, from the table in docs/formats.md."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "formats.md"
    section = doc.read_text(encoding="utf-8").split(
        "## Options each command reads")[1].split("\n## ")[0]
    return {command: set(re.findall(r"`(\w+)`", row)) for command, row
            in re.findall(r"^\| `(\w+)` \| (.+) \|$", section, re.M)}


READS = options_table()
#: each (command, option) pair outside that command's row of the table
UNREAD = [(command, key) for command, keys in READS.items()
          for key in sorted(set().union(*READS.values()) - keys)]

class TestSolve:
    def test_symmetric_solve_writes_valid_files(self, tmp_path):
        code = main(["solve", "--p1", "3", "--p2", "3", "--sigma1", "0",
                     "--sigma2", "0", "--beta", "1", "--mu", "1",
                     "--out", str(tmp_path), "--formats", "json,csv,svg",
                     *FAST])
        assert code == 0
        d = read_json(tmp_path / "report.json")
        assert d["schema_version"] == 5
        assert d["command"] == "solve"
        assert d["converged"] is True
        assert d["stop_reason"] == "converged"
        cert = d["certificate"]
        assert cert["certified"] is True
        assert cert["checks"] == [
            {"name": "bound_state", "value": d["omega"], "cap": 0.0,
             "passed": True},
            {"name": "stationarity", "value": d["el_residual"], "cap": 1e-2,
             "passed": True}]
        assert d["q1"] > 0.0
        assert d["q1"] == pytest.approx(d["q2"], rel=1e-8)
        rows = read_csv(tmp_path / "profiles.csv")
        assert rows[0] == ["r", "u1", "u2", "phi1", "phi2"]
        assert len({len(r) for r in rows}) == 1
        assert len(rows) > 100
        xml.dom.minidom.parse(str(tmp_path / "profiles.svg"))

    def test_csv_floats_round_trip(self, tmp_path):
        main(["solve", "--out", str(tmp_path), *FAST])
        rows = read_csv(tmp_path / "profiles.csv")
        # 17 significant digits reproduce the double exactly
        val = float(rows[1][1])
        assert f"{val:.17g}" == rows[1][1]

    def test_beta_zero_reports_mass_carrier(self, tmp_path):
        code = main(["solve", "--p1", "3", "--p2", "3", "--sigma1", "0",
                     "--sigma2", "1", "--beta", "0", "--out", str(tmp_path),
                     *FAST])
        assert code == 0
        d = read_json(tmp_path / "report.json")
        assert d["mass_carrier"] == "plane1"
        assert d["mass2"] <= 1e-6

    def test_invalid_power_exits_2_citing_range(self, tmp_path, capsys):
        code = main(["solve", "--p1", "5", "--out", str(tmp_path)])
        assert code == 2
        assert "(2, 4)" in capsys.readouterr().err

    def test_invalid_grid_exits_2(self, tmp_path):
        assert main(["solve", "--N", "8", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("n, grading", [("8192", "1.2"), ("2048", "1.9")])
    def test_unbuildable_grading_exits_2(self, tmp_path, capsys, n, grading):
        # the first cell's square underflows: refused before any mesh power
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["solve", "--N", n, "--grading", grading,
                         "--out", str(tmp_path)])
        assert code == 2
        assert "square underflows" in capsys.readouterr().err

    @pytest.mark.parametrize("opt", ["--mu", "--beta", "--mu-relative"])
    def test_infinite_mass_or_coupling_exits_2(self, tmp_path, capsys, opt):
        code = main(["solve", opt, "inf", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err

    def test_subnormal_mass_exits_2(self, tmp_path, capsys):
        # a usage error, not the solver's "cannot scale the start" (exit 1)
        code = main(["solve", "--mu", "1e-310", "--out", str(tmp_path)])
        assert code == 2
        assert "normal double" in capsys.readouterr().err

    def test_nonconvergence_exits_1_with_partial_report(self, tmp_path):
        code = main(["solve", "--max-iters", "10", "--out", str(tmp_path),
                     *FAST])
        assert code == 1
        d = read_json(tmp_path / "report.json")
        assert d["converged"] is False
        assert d["certificate"]["certified"] is False

    def test_uncertified_state_exits_1(self, tmp_path, capsys):
        # converged, but plane 1 holds 2.5e-12 of the mass and the field
        # equation misses by 0.67 (the certificate's stationarity check)
        code = main(["solve", "--sigma1", "200", "--sigma2", "200",
                     "--beta", "0.5", "--mu", "1", "--out", str(tmp_path),
                     *FAST])
        assert code == 1
        assert capsys.readouterr().out.rstrip().endswith(
            "converged True  certified False")
        d = read_json(tmp_path / "report.json")
        assert d["converged"] is True
        assert d["certificate"]["certified"] is False

    def test_report_bit_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["solve", "--beta", "1", "--out", str(out),
                         *FAST]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_mu_relative_scales_to_critical_mass(self, tmp_path):
        code = main(["solve", "--p1", "2.5", "--p2", "3.5", "--sigma1", "6",
                     "--sigma2", "6", "--mu-relative", "0.5",
                     "--out", str(tmp_path), *FAST])
        assert code == 0
        d = read_json(tmp_path / "report.json")
        mustar = critical_mass(2.5, 3.5, SolverConfig(N=512))
        assert d["params"]["mu"] == pytest.approx(0.5 * mustar, rel=1e-12)

    def test_mu_relative_needs_distinct_powers(self, tmp_path):
        assert main(["solve", "--p1", "3", "--p2", "3", "--mu-relative",
                     "0.5", "--out", str(tmp_path)]) == 2


class TestConfigPlumbing:
    def test_config_file_supplies_command_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "solve", "p1": 3.0, "p2": 3.0, "sigma2": 1.0,
            "beta": 0.5, "N": 512, "out": str(tmp_path), "formats": "json",
        }))
        assert main(["--config", str(cfg), "--beta", "1.0"]) == 0
        d = read_json(tmp_path / "report.json")
        assert d["params"]["beta"] == 1.0  # flag beat the file
        assert d["params"]["sigma2"] == 1.0  # file value kept

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        assert "command" in capsys.readouterr().err

    def test_unknown_format_exits_2(self, tmp_path):
        assert main(["solve", "--formats", "json,pdf",
                     "--out", str(tmp_path)]) == 2

    def test_malformed_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["--config", str(cfg)]) == 2

    def test_unknown_config_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "solve", "jobs": 4}))
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv,named", [
        (["solve", "--values", "1,2"], "--values"),
        (["verify", "--fast", "--beta", "3"], "--beta"),
        (["baseline", "--beta", "1"], "--beta"),
    ], ids=["solve-values", "verify-beta", "baseline-beta"])
    def test_unread_option_exits_2_naming_it(self, tmp_path, capsys, argv,
                                             named):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unread_config_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "verify", "mu": 2.0}))
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "--mu" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,named", [
        ({"command": "solve", "mu_relative": "half"}, "--mu-relative"),
        ({"command": "solve", "mu_relative": [0.5]}, "--mu-relative"),
        ({"command": "solve", "out": 3}, "--out"),
        ({"command": "verify", "fast": "false"}, "--fast"),
    ], ids=["mu-relative-word", "mu-relative-list", "out-number",
            "fast-string"])
    def test_mistyped_config_value_exits_2_naming_it(self, tmp_path, capsys,
                                                      monkeypatch, entry,
                                                      named):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(entry))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize("entry,named", [
        ({"N": "abc"}, "--N"),
        ({"N": 256.5}, "--N"),
        ({"N": "256.5"}, "--N"),
        ({"max_iters": True}, "--max-iters"),
        ({"grad_tol": "tiny"}, "--grad-tol"),
        ({"R": [40]}, "--R"),
        ({"p1": "abc"}, "--p1"),
    ], ids=["N-word", "N-fraction", "N-fraction-text", "max-iters-bool",
            "grad-tol-word", "R-list", "p1-word"])
    def test_mistyped_number_exits_2_naming_it(self, tmp_path, capsys,
                                               monkeypatch, entry, named):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "solve", **entry}))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert named in err and "not supported" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_number_strings_read_as_the_flags_text(self, tmp_path):
        # a JSON string is read as the flag's text would be: int for N and
        # max_iters, float for the rest
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "solve", "N": "256", "max_iters": "500", "R": "40",
            "grading": "1.01", "grad_tol": "1e-7", "p1": "3", "mu": 1,
            "out": str(tmp_path), "formats": "json"}))
        assert main(["--config", str(cfg)]) == 0
        d = read_json(tmp_path / "report.json")
        assert d["solver"]["N"] == 256 and d["solver"]["max_iters"] == 500
        assert d["solver"]["grad_tol"] == 1e-7 and d["solver"]["R"] == 40.0
        assert d["params"]["p1"] == 3.0 and d["params"]["mu"] == 1.0

    def test_mu_relative_string_reads_as_number(self, tmp_path):
        # a JSON string is read as the flag's text would be
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "solve", "p1": 2.5, "p2": 3.5, "sigma1": 6.0,
            "sigma2": 6.0, "mu_relative": "0.5", "N": 512,
            "out": str(tmp_path), "formats": "json"}))
        assert main(["--config", str(cfg)]) == 0
        d = read_json(tmp_path / "report.json")
        mustar = critical_mass(2.5, 3.5, SolverConfig(N=512))
        assert d["params"]["mu"] == pytest.approx(0.5 * mustar, rel=1e-12)

    @pytest.mark.parametrize("command", ["solve", "sweep", "baseline",
                                         "verify"])
    def test_help_lists_the_commands_row(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--([\w-]+)", capsys.readouterr().out))
        assert listed - {"help", "no-fast"} == {
            key.replace("_", "-") for key in READS[command]}

    @pytest.mark.parametrize("command,key", UNREAD,
                             ids=[f"{c}-{k}" for c, k in UNREAD])
    def test_option_outside_the_commands_row_exits_2(self, tmp_path, capsys,
                                                     command, key):
        # a value the option accepts, so only the command refuses it
        value = {"fast": (), "mode": ("beta",), "mustar": ("2.5:3.5",),
                 "N": ("512",)}.get(key, ("1",))
        flag = "--" + key.replace("_", "-")
        assert main([command, flag, *value, "--out", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("entry,named", [
        ({"mu_rel": 0.5}, "--mu-rel"),
        ({"fast": False}, "--no-fast"),
    ], ids=["mu-rel", "fast-false"])
    def test_config_entry_solve_does_not_read_exits_2(self, tmp_path, capsys,
                                                       monkeypatch, entry,
                                                       named):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "solve", **entry}))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize("argv,named", [
        (["--p1", "3", "solve"], "--p1: options follow the command"),
        (["solve", "--mu-rel", "0.5"], "--mu-rel"),
    ], ids=["option-before-command", "abbreviation"])
    def test_misplaced_or_abbreviated_option_exits_2(self, tmp_path, capsys,
                                                     argv, named):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_env_var_sets_default_out_dir(self, tmp_path, monkeypatch):
        envdir = tmp_path / "from_env"
        monkeypatch.setenv("HYBRID_NLS_OUT", str(envdir))
        monkeypatch.chdir(tmp_path)
        assert main(["solve", *FAST]) == 0
        assert (envdir / "report.json").exists()

    def test_flag_beats_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYBRID_NLS_OUT", str(tmp_path / "ignored"))
        target = tmp_path / "explicit"
        assert main(["solve", "--out", str(target), *FAST]) == 0
        assert (target / "report.json").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("out,named", [
        ("a_file", "a_file"), ("a_file/sub", "a_file/sub"),
        ("dir", "dir/report.json")],
        ids=["file", "under-a-file", "output-name-is-a-directory"])
    def test_unusable_output_path_exits_2_naming_it(self, tmp_path, capsys,
                                                    out, named):
        (tmp_path / "a_file").write_text("kept\n")
        (tmp_path / "dir" / "report.json").mkdir(parents=True)
        assert main(["solve", "--out", str(tmp_path / out), *FAST]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / named) in err
        assert (tmp_path / "a_file").read_text() == "kept\n"

    @pytest.mark.parametrize("argv,name,computes", [
        (["solve"], "report.json", "hybrid_nls.cli.solve_hybrid"),
        (["solve", "--formats", "csv"], "profiles.csv",
         "hybrid_nls.cli.solve_hybrid"),
        (["sweep", "--values", "1,2", "--formats", "svg"], "sweep.svg",
         "hybrid_nls.analysis.sweep"),
        (["baseline", "--p", "3"], "baseline.json",
         "hybrid_nls.analysis.rho_detail"),
        (["verify", "--fast"], "verify.json", "hybrid_nls.cli.run_suite"),
    ], ids=["solve-json", "solve-csv", "sweep-svg", "baseline", "verify"])
    def test_unwritable_output_exits_2_before_computing(
            self, tmp_path, capsys, monkeypatch, argv, name, computes):
        def computed(*args, **kwargs):
            raise AssertionError("computed before checking the outputs")

        monkeypatch.setattr(computes, computed)
        (tmp_path / name).mkdir()
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and name in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_console_script_argparse_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hybrid_nls.cli", "sweep",
             "--mode", "bogus"],
            capture_output=True, text=True)
        assert proc.returncode == 2


class TestSweep:
    def test_sigma2_sweep_files_and_verdicts(self, tmp_path):
        code = main(["sweep", "--mode", "sigma2", "--p1", "3", "--p2", "3",
                     "--sigma1", "0", "--beta", "0.0625", "--mu", "1",
                     "--values", "1,2,4", "--out", str(tmp_path),
                     "--formats", "json,csv,svg", *FAST])
        assert code == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == list(SweepTable.COLUMNS)
        assert len(rows) == 4
        assert len({len(r) for r in rows}) == 1
        s = read_json(tmp_path / "summary.json")
        assert (s["schema_version"], s["command"]) == (5, "sweep")
        assert s["verdicts"]["mass1_fraction_monotone"] == "nondecreasing"
        assert s["verdicts"]["concentration"] == "plane1"
        assert s["verdicts"]["all_converged"] is True
        assert s["references"]["single_plane_1"] < 0.0
        assert s["errors"] == []
        xml.dom.minidom.parse(str(tmp_path / "sweep.svg"))

    def test_sweep_rows_carry_their_certificate(self, tmp_path):
        code = main(["sweep", "--mode", "sigma2", "--p1", "3", "--p2", "3",
                     "--sigma1", "0", "--beta", "0.0625", "--mu", "1",
                     "--values", "1,2", "--out", str(tmp_path), *FAST])
        assert code == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0][-2:] == ["converged", "certified"]
        assert [r[-1] for r in rows[1:]] == ["True", "True"]
        assert read_json(tmp_path / "summary.json")["verdicts"]["all_certified"] is True

    def test_uncertified_row_fails_the_sweep(self, tmp_path):
        code = main(["sweep", "--mode", "sigma_common", "--p1", "3",
                     "--p2", "3", "--beta", "0.5", "--mu", "1",
                     "--values", "0,200", "--out", str(tmp_path), *FAST])
        assert code == 1
        s = read_json(tmp_path / "summary.json")
        assert [(r["converged"], r["certified"]) for r in s["rows"]] == [
            (True, True), (True, False)]
        assert s["verdicts"]["all_converged"] is True
        assert s["verdicts"]["all_certified"] is False

    def test_common_sigma_sweep_concentrates_by_mass(self, tmp_path):
        code = main(["sweep", "--mode", "sigma_common", "--p1", "2.5",
                     "--p2", "3.5", "--beta", "1", "--mu-relative", "0.5",
                     "--values", "2,4,6", "--out", str(tmp_path), *FAST])
        assert code == 0
        s = read_json(tmp_path / "summary.json")
        assert s["verdicts"]["concentration"] == "plane1"
        assert "critical_mass" in s["references"]
        assert "free_plane_1" in s["references"]
        assert s["verdicts"]["limit_proximity"] < 0.05

    def test_beta_sweep_reports_gap_verdicts(self, tmp_path):
        code = main(["sweep", "--mode", "beta", "--p1", "3", "--p2", "3",
                     "--sigma1", "0", "--sigma2", "0", "--mu", "1",
                     "--values", "0.5,1,2", "--out", str(tmp_path), *FAST])
        assert code == 0
        s = read_json(tmp_path / "summary.json")
        assert s["verdicts"]["coupling_gap_positive"] is True
        assert s["verdicts"]["coupling_gap_monotone"] == "nondecreasing"

    def test_empty_values_exits_2(self, tmp_path):
        assert main(["sweep", "--mode", "sigma2", "--values", "",
                     "--out", str(tmp_path)]) == 2

    def test_unsorted_values_exit_2(self, tmp_path):
        assert main(["sweep", "--mode", "sigma2", "--values", "2,1",
                     "--out", str(tmp_path)]) == 2

    def test_row_failure_is_isolated(self, tmp_path, monkeypatch):
        real = analysis.solve_hybrid

        def sabotaged(P, cfg):
            if P.sigma2 in (2.0, 3.0):
                raise RuntimeError(f"synthetic row failure {P.sigma2:g}")
            return real(P, cfg)

        monkeypatch.setattr(analysis, "solve_hybrid", sabotaged)
        code = main(["sweep", "--mode", "sigma2", "--p1", "3", "--p2", "3",
                     "--sigma1", "0", "--beta", "0.0625",
                     "--values", "1,2,3,4", "--out", str(tmp_path), *FAST])
        assert code == 1
        rows = read_csv(tmp_path / "sweep.csv")
        assert [r[0] for r in rows[1:]] == ["1", "4"]
        s = read_json(tmp_path / "summary.json")
        # errors come in value order, so the same run writes the same bytes
        assert [e["value"] for e in s["errors"]] == [2.0, 3.0]
        assert [e["error"] for e in s["errors"]] == [
            "synthetic row failure 2", "synthetic row failure 3"]

    def test_mass_sweep_rows_hold_their_own_mass(self, tmp_path):
        code = main(["sweep", "--mode", "mu", "--p1", "2.5", "--p2", "3.5",
                     "--values", "0.5,1,2", "--out", str(tmp_path), *FAST])
        assert code == 0
        s = read_json(tmp_path / "summary.json")
        assert [r["value"] for r in s["rows"]] == [0.5, 1.0, 2.0]
        for r in s["rows"]:
            assert r["mass1"] + r["mass2"] == pytest.approx(r["value"], rel=1e-10)
        assert s["references"]["critical_mass"] > 0.0
        table = sweep(HybridParams(2.5, 3.5, 0.0, 0.0, 1.0, 1.0), "mu",
                      (0.5, 1.0, 2.0), SolverConfig(N=512))
        assert table.as_rows() == s["rows"]
        assert table.references == s["references"]
        assert table.verdicts() == s["verdicts"]

    def test_mu_relative_rejected_for_mass_sweep(self, tmp_path):
        assert main(["sweep", "--mode", "mu", "--p1", "2.5", "--p2", "3.5",
                     "--mu-relative", "0.5", "--values", "1,2",
                     "--out", str(tmp_path)]) == 2

    def test_mu_relative_checks_rows_before_critical_mass(self, tmp_path,
                                                          monkeypatch, capsys):
        def no_solve(p, cfg=None):
            raise AssertionError(f"rho_detail({p}) ran before the rows were checked")

        monkeypatch.setattr(analysis, "rho_detail", no_solve)
        assert main(["sweep", "--mode", "beta", "--p1", "2.5", "--p2", "3.5",
                     "--mu-relative", "0.5", "--values=-1,1",
                     "--out", str(tmp_path)]) == 2
        assert "beta=-1:" in capsys.readouterr().err


README_SOLVE = ["solve", "--p1", "3", "--p2", "3", "--sigma1", "0", "--sigma2",
                "1", "--beta", "1", "--mu", "1", "--formats", "json,csv,svg"]


class TestReportsWithoutHeavyImports:
    """The SVG escape and the profile sampling avoid stdlib and numpy
    imports; their outputs are those of the calls they replace."""

    @pytest.mark.parametrize("text", [
        "", "plain", "a & b", "<u1>", "x > y", "&amp; stays &amp;amp;",
        "\"double\" and 'single' quotes", "σ₂ = 1 < σ₁ & β > 0",
        "&&<<>>", "<σ₂ & \"β\"> &amp;lt; ρ'",
    ])
    def test_escape_matches_saxutils(self, text):
        assert _svgplot._escape(text) == saxutils.escape(text)

    def test_readme_solve_files_match_the_replaced_calls(self, tmp_path,
                                                         monkeypatch):
        assert main([*README_SOLVE, "--out", str(tmp_path / "new")]) == 0

        def unique_samples(grid, u1, u2):
            idx = np.unique(np.geomspace(1, grid.n_nodes - 2, 64).astype(int))
            return {"r": [float(x) for x in grid.r[idx]],
                    "u1": [float(x) for x in en.total_field(u1).values[idx]],
                    "u2": [float(x) for x in en.total_field(u2).values[idx]]}

        monkeypatch.setattr(_svgplot, "_escape", saxutils.escape)
        monkeypatch.setattr(solver, "_sample_profiles", unique_samples)
        assert main([*README_SOLVE, "--out", str(tmp_path / "old")]) == 0
        for name in ("report.json", "profiles.csv", "profiles.svg"):
            new = (tmp_path / "new" / name).read_bytes()
            assert new == (tmp_path / "old" / name).read_bytes(), name


class TestBaseline:
    def test_baseline_rho_mustar_and_scaling(self, tmp_path):
        code = main(["baseline", "--p", "3", "--mustar", "2.5:3.5",
                     "--out", str(tmp_path), *FAST])
        assert code == 0
        b = read_json(tmp_path / "baseline.json")
        assert (b["schema_version"], b["command"]) == (5, "baseline")
        assert b["rho"]["3"] > 0.0
        assert b["scaling"]["3"]["rel_err"] <= 0.02
        entry = b["mu_star"]["2.5:3.5"]
        assert entry["value"] > 0.0
        assert entry["root_property_ok"] is True

    def test_baseline_reuses_the_reference_solve(self, tmp_path, monkeypatch):
        # the scaling fit's f = 1 point is rho's reference solve: three
        # planar solves per power, and the fit of all four energies
        cfg = SolverConfig(N=512)
        detail = analysis.rho_detail(3.0, cfg)
        mus = [f * detail.reference_mass for f in (0.5, 1.0, 2.0, 4.0)]
        energies = [solve_planar(3.0, m, cfg).energy for m in mus]
        expected = float(np.polyfit(np.log(mus), np.log(np.abs(energies)), 1)[0])
        masses = []

        def counted(p, mu, cfg=None):
            masses.append(mu)
            return solve_planar(p, mu, cfg)

        monkeypatch.setattr(cli, "solve_planar", counted)
        assert main(["baseline", "--p", "3", "--out", str(tmp_path), *FAST]) == 0
        assert masses == [mus[0], mus[2], mus[3]]
        fit = read_json(tmp_path / "baseline.json")["scaling"]["3"]
        assert fit["fitted_exponent"] == expected

    def test_baseline_without_inputs_exits_2(self, tmp_path):
        assert main(["baseline", "--out", str(tmp_path)]) == 2

    def test_baseline_rejects_supercritical_power(self, tmp_path):
        assert main(["baseline", "--p", "4.5", "--out", str(tmp_path)]) == 2

    def test_baseline_checks_every_power_before_solving(self, tmp_path,
                                                       monkeypatch, capsys):
        def no_solve(p, cfg=None):
            raise AssertionError(f"rho_detail({p}) ran before the powers were checked")

        monkeypatch.setattr(analysis, "rho_detail", no_solve)
        assert main(["baseline", "--p", "3,5", "--out", str(tmp_path)]) == 2
        assert "p=5 " in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (["--p", "3", "--mustar", "3:3"], "3:3"),
        (["--mustar", "2.5:5"], "p2=5 "),
    ])
    def test_baseline_checks_every_pair_before_solving(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      argv, named):
        def no_solve(p, cfg=None):
            raise AssertionError(f"rho_detail({p}) ran before the pairs were checked")

        monkeypatch.setattr(analysis, "rho_detail", no_solve)
        assert main(["baseline", *argv, "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err


class TestVerify:
    def test_fast_suite_prints_all_criteria(self, tmp_path, capsys):
        code = main(["verify", "--fast", "--out", str(tmp_path)])
        out = capsys.readouterr()
        lines = [ln for ln in out.out.splitlines()
                 if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == 14
        # the strong-interaction energy clause is a known physical
        # limitation at interaction strength 6; everything else passes
        d = read_json(tmp_path / "verify.json")
        assert (d["schema_version"], d["command"]) == (5, "verify")
        failed = [r["number"] for r in d["results"] if not r["passed"]]
        assert failed == [8]
        assert code == 1
        assert "failed criteria: 8" in out.err

    def test_solver_flags_rejected(self, tmp_path, capsys):
        code = main(["verify", "--fast", "--N", "256", "--out", str(tmp_path)])
        assert code == 2
        assert "--N" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()

    def test_criterion_3_reads_the_two_plane_descent(self, monkeypatch):
        # at beta = 0 solve_hybrid solves only the single planes, so the
        # criterion must catch a two-plane state that beats them
        real = verify._solve_two_plane

        def lower(P, cfg):
            r = real(P, cfg)
            return dataclasses.replace(r, energy=r.energy - 1e-3 * abs(r.energy))

        monkeypatch.setattr(verify, "_solve_two_plane", lower)
        assert not run_criterion(3)[0]

    def test_criterion_7_names_a_failed_sweep_row(self, monkeypatch):
        real = analysis.solve_hybrid

        def sabotaged(P, cfg):
            if P.sigma2 == 4.0:
                raise RuntimeError("synthetic row failure")
            return real(P, cfg)

        monkeypatch.setattr(analysis, "solve_hybrid", sabotaged)
        ok, details, *_ = run_criterion(7)
        assert not ok
        assert "sigma2=4.0: synthetic row failure" in details

    @pytest.mark.parametrize("number,module", [(6, verify), (7, analysis)])
    def test_criteria_6_and_7_refuse_uncertified_solves(self, number, module,
                                                       monkeypatch):
        # converged, but failing stationarity: not a state to judge by
        real = module.solve_hybrid

        def uncertified(P, cfg):
            r = real(P, cfg)
            return dataclasses.replace(r, certificate=certify(True, r.omega, 1.0))

        monkeypatch.setattr(module, "solve_hybrid", uncertified)
        ok, details, *_ = run_criterion(number)
        assert not ok
        if number == 6:
            assert "failed stationarity" in details

    @pytest.mark.parametrize("defect,count", [("rise", "monotonicity violations"),
                                              ("negative", "positivity failures")],
                             ids=["rise", "negative"])
    def test_criterion_5_fails_a_broken_profile(self, defect, count, monkeypatch):
        # plane 1's profile of every hybrid solve gets one interior node
        # raised 1e-9 above its left neighbour, or made negative with
        # positive values after it
        real = verify.solve_hybrid

        def broken(P, cfg):
            r = real(P, cfg)
            u = r.state.u1
            tot = en.total_field(u).values
            k = int(np.argmax(tot[1:] < 0.5 * tot[1])) + 1  # half the peak
            assert tot[k - 1] > tot[k] > tot[k + 1] > 0.0
            target = tot[k - 1] * (1.0 + 1e-9) if defect == "rise" else -tot[k]
            phi = u.phi.values.copy()
            phi[k] += target - tot[k]
            u1 = dataclasses.replace(u, phi=en.RadialField(u.grid, phi))
            return dataclasses.replace(r, state=dataclasses.replace(r.state, u1=u1))

        monkeypatch.setattr(verify, "solve_hybrid", broken)
        ok, details, *_ = run_criterion(5)
        assert not ok
        assert int(re.search(count + r" (\d+)", details).group(1)) > 0

    def test_criterion_2_fails_a_box_planar_state(self, monkeypatch):
        # rho's references come from the real solver; criterion 2 then
        # reads each planar state solved on a quarter of the box, whose
        # wall holds it (p = 3: R sqrt(omega) = 1.6, certified, defect 0.35)
        for p in (2.5, 3.0, 3.5):
            analysis.rho_detail(p, SolverConfig(N=512))
        real = verify.solve_planar

        def boxed(p, mu, cfg):
            return real(p, mu, dataclasses.replace(cfg, R=cfg.R / 4))

        monkeypatch.setattr(verify, "solve_planar", boxed)
        ok, details = run_criterion(2)
        assert not ok
        assert float(re.search(r"defect (\S+)", details).group(1)) > 0.1

    @pytest.mark.parametrize("change", [
        lambda r: {"q1": r.q2, "q2": r.q1},
        lambda r: {"mass1": r.mass2, "mass2": r.mass1},
        lambda r: {"omega": 1.05 * r.omega},
    ], ids=["charges", "masses", "deep"])
    def test_criterion_9_fails_a_wrong_split(self, change, monkeypatch):
        # the small-mass state with its planes' charges or masses swapped
        # (defects 0.81 and 0.45), or reported 5% deeper than omega*
        real = verify.solve_hybrid

        def wrong(P, cfg):
            r = real(P, cfg)
            return dataclasses.replace(r, **change(r))

        monkeypatch.setattr(verify, "solve_hybrid", wrong)
        assert not run_criterion(9)[0]

    def test_criterion_12_fails_a_box_charged_state(self, monkeypatch):
        # the single plane with its charge on a box of radius 1.5, whose
        # wall holds it (R sqrt(omega) = 2.1): certified, defect 0.15
        real = verify.solve_single

        def boxed(p, sigma, mu, cfg):
            r = real(p, sigma, mu, dataclasses.replace(cfg, R=1.5))
            assert r.certificate.certified
            return r

        monkeypatch.setattr(verify, "solve_single", boxed)
        ok, details = run_criterion(12)
        assert not ok
        assert float(re.search(r"defect (\S+)", details).group(1)) > 0.1

    def test_theta_sign_flip_flags_closed_form_criteria(self, monkeypatch):
        orig = sf.theta

        def flipped(lam):
            return -orig(lam)

        monkeypatch.setattr(sf, "theta", flipped)
        monkeypatch.setattr(en, "theta", flipped)
        assert not run_criterion(14)[0]
        # the grid assembly sees the flipped vertex constant, the
        # closed form does not: at the closed-form level the charge
        # block is no longer positive definite, and the grid descent
        # refuses to start
        P = HybridParams(3.0, 3.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ArithmeticError, match="charge block"):
            omega_star_grid(P, SolverConfig(N=512))
