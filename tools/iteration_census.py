"""Iteration census of the benchmark's library operations.

Runs each of the 640 operations of the ``warm_solves`` pool and the 7
``fine_hard`` operations once, in pool order, and records per operation
the winning start's iterations, the iterations summed over every start,
the energy and the ``converged`` flag, and per set the wall time.  The
operations come from ``perfbench/workloads.py``, which this script only
reads.

Each start of a multistart gets one record: the iteration at which the
screen paused it (null when it stopped earlier, or on a tree without
the screen) and its outcome.  A ``finished`` start carries its stop
reason and its iterations in total, and, when it was paused, ``drift``,
the distance sqrt(mass(U_s - U_f) / mu) from its paused state to its
final one.  A ``duplicate`` start was skipped at its screen; it carries
the iterations it took and ``distance``, that distance to the nearest
state the multistart finished.  Each operation also records
``separation``, the smallest distance between two of its multistart's
converged final states.

The starts are seen by wrapping ``solver._solve_on_grid`` and
``solver._descend``: the calls without ``paused`` are the starts, in
order, and a call with it continues the start that returned it.  Run
the census once per tree, one process each:

    OPENBLAS_NUM_THREADS=1 python tools/iteration_census.py --label change
    OPENBLAS_NUM_THREADS=1 python tools/iteration_census.py --label parent \\
        --src /path/to/parent/src
    python tools/iteration_census.py --compare parent change

Each run replaces its label's entry in ``BENCH_screened_multistart.json``
at the repo root and keeps the others; ``--compare`` prints the
``converged`` flags and the energies that differ between two entries.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_screened_multistart.json"
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


def _distance(grid, pd, mu, a, b) -> float:
    """sqrt(mass(U_a - U_b) / mu) of two runs' plane-batched states."""
    dphi, dq = a["phi"] - b["phi"], a["q"] - b["q"]
    w = grid.w_trapz
    dm = float(dphi.ravel() @ (dphi * w).ravel()
               + dq @ (2.0 * (dphi @ (w * pd["G"])) + pd["gl2"] * dq))
    return float(f"{math.sqrt(max(dm, 0.0) / mu):.4g}")


def _starts(calls, grid, pd, mu) -> tuple[list[dict], float | None]:
    """Per-start records of one multistart from its ``_descend`` calls,
    and the smallest distance between two of its converged final states."""
    firsts = [run for paused, run in calls if paused is None]
    resumed = {id(paused): run for paused, run in calls if paused is not None}
    finals = [resumed.get(id(run.get("paused")), run) for run in firsts]

    def dist(a, b):
        return _distance(grid, pd, mu, a, b)

    records = []
    for run, final in zip(firsts, finals):
        rec = {"screen": run["iterations"] if run.get("stop") == "screened" else None}
        if final.get("stop") == "screened":
            rec.update(outcome="duplicate", iterations=run["iterations"],
                       distance=min(dist(run, f) for f in resumed.values()))
        else:
            rec.update(outcome="finished", stop=final.get("stop"),
                       iterations=final["iterations"])
            if final is not run:
                rec["drift"] = dist(run, final)
        records.append(rec)
    done = [f for f in finals if f.get("converged")]
    pairs = [dist(a, b) for i, a in enumerate(done) for b in done[i + 1:]]
    return records, min(pairs, default=None)


def census(ops, hybrid_nls, solver) -> dict:
    """Run ``ops`` in order; per op its iterations, starts and answer."""
    calls, starts, separations = [], [], []
    descend, on_grid = solver._descend, solver._solve_on_grid

    def counted(*args, **kwargs):
        run = descend(*args, **kwargs)
        calls.append((kwargs.get("paused"), run))
        return run

    def multistart(grid, lam, pd, p, sigmas, beta, mu, cfg):
        calls.clear()
        best = on_grid(grid, lam, pd, p, sigmas, beta, mu, cfg)
        records, separation = _starts(calls, grid, pd, mu)
        starts.extend(records)
        separations.append(separation)
        return best

    solver._descend, solver._solve_on_grid = counted, multistart
    records = []
    t0 = time.perf_counter()
    try:
        for op in ops:
            cfg = hybrid_nls.SolverConfig(N=op.N, grading=op.grading)
            args = ((hybrid_nls.HybridParams(*op.args),) if op.fn == "solve_hybrid"
                    else op.args)
            starts.clear()
            separations.clear()
            report = getattr(hybrid_nls, op.fn)(*args, cfg)
            seps = [x for x in separations if x is not None]
            records.append({
                "key": op.key,
                "kind": op.kind,
                "winner_iters": report.iterations,
                "total_iters": sum(r["iterations"] for r in starts),
                "starts": list(starts),
                "separation": min(seps, default=None),
                "converged": report.converged,
                "energy": report.energy,
            })
    finally:
        solver._descend, solver._solve_on_grid = descend, on_grid
    wall = time.perf_counter() - t0
    every = [s for r in records for s in r["starts"]]
    dups = [s["distance"] for s in every if s["outcome"] == "duplicate"]
    drifts = [s["drift"] for s in every if "drift" in s]
    seps = [r["separation"] for r in records if r["separation"] is not None]
    return {
        "wall_s": round(wall, 3),
        "winner_iters": sum(r["winner_iters"] for r in records),
        "total_iters": sum(r["total_iters"] for r in records),
        "unconverged": sum(not r["converged"] for r in records),
        "starts": len(every),
        "duplicates": len(dups),
        "max_duplicate_distance": max(dups, default=None),
        "max_drift": max(drifts, default=None),
        "min_separation_over_0.1": min((x for x in seps if x > 0.1), default=None),
        "ops": records,
    }


def compare(data: dict, old: str, new: str) -> None:
    """Print the ops whose ``converged`` flag or energy differs."""
    for name in SETS:
        a = {r["key"]: r for r in data[old][name]["ops"]}
        moved = 0
        for r in data[new][name]["ops"]:
            o = a[r["key"]]
            rel = abs(r["energy"] - o["energy"]) / abs(o["energy"])
            if r["converged"] != o["converged"]:
                print(f"{name} {r['key']}: converged {o['converged']} -> {r['converged']}")
            if rel > 1e-10:
                moved += 1
                print(f"{name} {r['key']}: energy {o['energy']!r} -> {r['energy']!r} "
                      f"({rel:.2e} relative)")
        print(f"{name}: {moved} of {len(a)} energies moved by more than 1e-10 relative")


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
    ap.add_argument("--label", help="entry name, e.g. parent or change")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the src/ directory whose hybrid_nls is measured")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print what differs between two recorded entries")
    args = ap.parse_args(argv)
    if args.compare:
        compare(json.loads(OUT.read_text()), *args.compare)
        return 0
    if not args.label:
        ap.error("--label is required unless --compare is given")
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
              f"{s['unconverged']}, duplicates {s['duplicates']} of "
              f"{s['starts']} starts, {s['wall_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
