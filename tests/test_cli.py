"""Command-line front end: files, exit codes, precedence, determinism."""

import csv
import dataclasses
import json
import subprocess
import sys
import warnings
import xml.dom.minidom

import pytest

import hybrid_nls.analysis as analysis
import hybrid_nls.energy as en
import hybrid_nls.specfun as sf
import hybrid_nls.verify as verify
from hybrid_nls.analysis import SweepTable, critical_mass, sweep
from hybrid_nls.cli import main
from hybrid_nls.solver import SolverConfig, omega_star_grid
from hybrid_nls.energy import HybridParams
from hybrid_nls.verify import run_suite

# small grid keeps every solve in these tests fast; the physics checks
# live in test_acceptance.py at full resolution
FAST = ["--N", "512"]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestSolve:
    def test_symmetric_solve_writes_valid_files(self, tmp_path):
        code = main(["solve", "--p1", "3", "--p2", "3", "--sigma1", "0",
                     "--sigma2", "0", "--beta", "1", "--mu", "1",
                     "--out", str(tmp_path), "--formats", "json,csv,svg",
                     *FAST])
        assert code == 0
        d = read_json(tmp_path / "report.json")
        assert d["schema_version"] == 4
        assert d["command"] == "solve"
        assert d["converged"] is True
        assert d["stop_reason"] == "converged"
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

    def test_nonconvergence_exits_1_with_partial_report(self, tmp_path):
        code = main(["solve", "--max-iters", "10", "--out", str(tmp_path),
                     *FAST])
        assert code == 1
        d = read_json(tmp_path / "report.json")
        assert d["converged"] is False

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
        assert s["verdicts"]["mass1_fraction_monotone"] == "nondecreasing"
        assert s["verdicts"]["concentration"] == "plane1"
        assert s["verdicts"]["all_converged"] is True
        assert s["references"]["single_plane_1"] < 0.0
        assert s["errors"] == []
        xml.dom.minidom.parse(str(tmp_path / "sweep.svg"))

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


class TestBaseline:
    def test_baseline_rho_mustar_and_scaling(self, tmp_path):
        code = main(["baseline", "--p", "3", "--mustar", "2.5:3.5",
                     "--out", str(tmp_path), *FAST])
        assert code == 0
        b = read_json(tmp_path / "baseline.json")
        assert b["rho"]["3"] > 0.0
        assert b["scaling"]["3"]["rel_err"] <= 0.02
        entry = b["mu_star"]["2.5:3.5"]
        assert entry["value"] > 0.0
        assert entry["root_property_ok"] is True

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
        assert run_suite(fast=True, only=(3,)).failed_numbers == (3,)

    def test_criterion_7_names_a_failed_sweep_row(self, monkeypatch):
        real = analysis.solve_hybrid

        def sabotaged(P, cfg):
            if P.sigma2 == 4.0:
                raise RuntimeError("synthetic row failure")
            return real(P, cfg)

        monkeypatch.setattr(analysis, "solve_hybrid", sabotaged)
        (result,) = run_suite(fast=True, only=(7,)).results
        assert not result.passed
        assert "sigma2=4.0: synthetic row failure" in result.details

    def test_theta_sign_flip_flags_closed_form_criteria(self, monkeypatch):
        orig = sf.theta

        def flipped(lam):
            return -orig(lam)

        monkeypatch.setattr(sf, "theta", flipped)
        monkeypatch.setattr(en, "theta", flipped)
        en._PLANE_CACHE.clear()
        try:
            rep = run_suite(fast=True, only=(14,))
            assert rep.failed_numbers == (14,)
            # the grid assembly sees the flipped vertex constant, the
            # closed form does not: at the closed-form level the charge
            # block is no longer positive definite, and the grid descent
            # refuses to start
            P = HybridParams(3.0, 3.0, 0.0, 0.0, 1.0, 1.0)
            with pytest.raises(ArithmeticError, match="charge block"):
                omega_star_grid(P, SolverConfig(N=512))
        finally:
            en._PLANE_CACHE.clear()  # drop entries built with the flip
