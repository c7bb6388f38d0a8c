"""Tests of the benchmark itself, on small grids.

    python3 -m pytest perfbench

Each smoke run prints every metric BENCHMARK.json names, with its unit;
the oracle must flag a perturbed reference and an unexpected exit code.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SCRATCH = ROOT / ".bench_out" / "test"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        # children plus self time account for every solver span
        gap = re.search(r"solver accounting gap (\S+)", proc.stdout)
        assert float(gap.group(1)) < 1e-9


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench("--workload", "warm_solves", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_the_seed_orders_a_fixed_set_of_operations(workload):
    def keys(seed):
        rots = (wl.cli_rotations(seed, 6) if workload == "cold_cli"
                else wl.lib_rotations(workload, seed, 6))
        return [op.key for rot in rots for op in rot]

    assert keys(1) != keys(2)
    assert sorted(keys(1)) == sorted(keys(2))


def test_oracle_flags_a_perturbed_reference():
    op = wl.fine_cases()[0]
    report = SimpleNamespace(energy=-1497.1208545259724, mass1=0.6, mass2=0.4,
                             converged=True, el_residual=1e-6)
    assert wl.check_report(op, report, {op.key: report.energy}) == []
    perturbed = {op.key: report.energy * (1 + 10 * wl.ENERGY_REL_TOL)}
    (reason,) = wl.check_report(op, report, perturbed)
    assert "differs from reference" in reason


def test_oracle_names_known_defects_only_by_their_mechanism():
    assert wl.known_defect("sigma200", ["el_residual 0.82 > 0.01"],
                           1.0, 2e-12, 1.0) is not None
    assert wl.known_defect("sigma200", ["el_residual 0.82 > 0.01"],
                           0.5, 0.5, 1.0) is None
    assert wl.known_defect("n8192_g1.01", ["converged=False"], 0.5, 0.5, 1.0)
    assert wl.known_defect("n8192_refined", ["converged=False"], 0.5, 0.5, 1.0) is None


def test_oracle_flags_an_unexpected_exit_code():
    out = SCRATCH / "verify"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    results = [{"number": n, "passed": n != 8} for n in range(1, 15)]
    (out / "verify.json").write_text(json.dumps({"results": results}))
    op = next(o for o in wl.cli_ops() if o.kind == "verify")
    assert wl.check_cli(op, 1, out, {}) == []
    assert wl.check_cli(op, 0, out, {}) == ["exit code 0, expected 1"]
    results[2]["passed"] = False
    (out / "verify.json").write_text(json.dumps({"results": results}))
    assert len(wl.check_cli(op, 1, out, {})) == 1
    shutil.rmtree(out)
