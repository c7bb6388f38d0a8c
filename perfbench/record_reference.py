"""Record reference.json: the energies the oracle compares against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Solves every operation of the warm_solves pool, fine_hard and
cold_cli once and stores the energies of the converged ones (and the
baseline's rho and mu* values).  The reference in the repository was
recorded at the commit that introduced the benchmark; re-record only
when a change is meant to move these numbers, and say so.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def main() -> None:
    import hybrid_nls

    energies = {}
    warm = [op for rotation in wl.warm_pool() for op in rotation]
    for op in [*warm, *wl.fine_cases()]:
        cfg = hybrid_nls.SolverConfig(N=op.N, grading=op.grading)
        args = ((hybrid_nls.HybridParams(*op.args),) if op.fn == "solve_hybrid"
                else op.args)
        report = getattr(hybrid_nls, op.fn)(*args, cfg)
        if report.converged:
            energies[op.key] = report.energy
    out = HERE.parent / ".bench_out" / "reference"
    for op in wl.cli_ops():
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run([sys.executable, "-m", "hybrid_nls.cli", *op.argv,
                        "--out", str(out)], check=False, capture_output=True)
        energies.update(wl.cli_values(op, out))
    shutil.rmtree(out, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(
        {"tolerance_rel": wl.ENERGY_REL_TOL, "energies": energies}, indent=1) + "\n")


if __name__ == "__main__":
    main()
