"""Iteration census of the benchmark's library operations.

Runs each of the 640 operations of the ``warm_solves`` pool and the 7
``fine_hard`` operations once, in pool order, and records per operation
the winning start's iterations, the iterations summed over every start,
each start's stop reason, the energy and the ``converged`` flag, and per
set the wall time.  The operations come from ``perfbench/workloads.py``,
which this script only reads.

Every descent of a solve is counted by wrapping ``solver._descend``, so
the census also runs on a tree whose descent does not yet report a stop
reason (recorded as null).  Run it once per tree, one process each:

    OPENBLAS_NUM_THREADS=1 python tools/iteration_census.py --label change
    OPENBLAS_NUM_THREADS=1 python tools/iteration_census.py --label parent \\
        --src /path/to/parent/src

Each run replaces its label's entry in ``BENCH_newton_endgame.json`` at
the repo root and keeps the others.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_newton_endgame.json"
SETS = ("warm_pool", "fine_hard")


def environment() -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = re.search(r"model name\s*:\s*(.*)", fh.read())
    except OSError:
        cpu = None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu.group(1).strip() if cpu else "unknown",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _commit(src: Path) -> str | None:
    """Short hash of the tree holding ``src``, marked dirty when ``src``
    itself has uncommitted changes."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        head, dirty = git("rev-parse", "--short", "HEAD"), git("status", "--porcelain", "--", ".")
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if dirty else "")


def census(ops, hybrid_nls, solver) -> dict:
    """Run ``ops`` in order; per op its iterations, stops and answer."""
    runs = []
    descend = solver._descend

    def counted(*args, **kwargs):
        run = descend(*args, **kwargs)
        runs.append(run)
        return run

    solver._descend = counted
    records = []
    t0 = time.perf_counter()
    try:
        for op in ops:
            cfg = hybrid_nls.SolverConfig(N=op.N, grading=op.grading)
            args = ((hybrid_nls.HybridParams(*op.args),) if op.fn == "solve_hybrid"
                    else op.args)
            runs.clear()
            report = getattr(hybrid_nls, op.fn)(*args, cfg)
            records.append({
                "key": op.key,
                "kind": op.kind,
                "winner_iters": report.iterations,
                "total_iters": sum(r["iterations"] for r in runs),
                "stops": [r.get("stop") for r in runs],
                "converged": report.converged,
                "energy": report.energy,
            })
    finally:
        solver._descend = descend
    wall = time.perf_counter() - t0
    return {
        "wall_s": round(wall, 3),
        "winner_iters": sum(r["winner_iters"] for r in records),
        "total_iters": sum(r["total_iters"] for r in records),
        "unconverged": sum(not r["converged"] for r in records),
        "ops": records,
    }


def _dumps(data: dict) -> str:
    """Indented JSON in which each operation record takes one line."""
    rows = {}

    def stub(ops):
        tags = [f"@op{len(rows) + i}@" for i in range(len(ops))]
        rows.update((f'"{t}"', json.dumps(op, sort_keys=True)) for t, op in zip(tags, ops))
        return tags

    shallow = {label: {k: ({**v, "ops": stub(v["ops"])} if k in SETS else v)
                       for k, v in entry.items()}
               for label, entry in data.items()}
    text = json.dumps(shallow, indent=1, sort_keys=True)
    return re.sub(r'"@op\d+@"', lambda m: rows[m.group(0)], text) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the src/ directory whose hybrid_nls is measured")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(ROOT)]
    hybrid_nls = importlib.import_module("hybrid_nls")
    solver = importlib.import_module("hybrid_nls.solver")
    if Path(hybrid_nls.__file__).resolve().parents[1] != src:
        raise SystemExit(f"hybrid_nls imported from {hybrid_nls.__file__}, not {src}")
    from perfbench import workloads as wl

    warm = [op for rot in wl.warm_pool() for op in rot]
    fine = wl.fine_cases()
    census(fine[:1], hybrid_nls, solver)  # warm-up: imports, caches
    entry = {
        "commit": _commit(src),
        "environment": environment(),
        "warm_pool": census(warm, hybrid_nls, solver),
        "fine_hard": census(fine, hybrid_nls, solver),
    }
    data = json.loads(OUT.read_text()) if OUT.is_file() else {}
    data[args.label] = entry
    OUT.write_text(_dumps(data))
    for name in SETS:
        s = entry[name]
        print(f"{args.label} {name}: {len(s['ops'])} ops, winner iterations "
              f"{s['winner_iters']}, total {s['total_iters']}, unconverged "
              f"{s['unconverged']}, {s['wall_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
