"""The census of the benchmark's multistarts and of 300 parameter draws.

One run records two parts into its label's entry of a ``BENCH_*.json``.

The iteration census runs each of the 640 operations of the
``warm_solves`` pool and the 7 ``fine_hard`` operations once, in pool
order, and records per operation the winning start's iterations, the
iterations summed over every start, the energy, the ``converged`` flag
and the stop reason.  The operations come from
``perfbench/workloads.py``, which this script only reads.  Times are not
recorded: they drift with the host, and ``perfbench``'s alternating
pairs measure them.

Each start of a multistart gets one record, with its outcome.  A
``finished`` start carries its stop reason and its iterations.  A
``joined`` start was dropped because it had reached a state the
multistart had finished: it carries the iterations it took,
``distance``, its distance sqrt(mass(U_s - U_f) / mu) then to the
nearest such state U_f, and ``rerun_distance``, the distance to U_f of
the same start run alone, uninterrupted.  Each operation also records
``separation``, the smallest distance between two of its multistart's
converged final states.

The starts are seen by wrapping ``solver._solve_on_grid`` and
``solver._descend``: each ``_descend`` call is one start, and a start
given the earlier converged runs as ``near`` joins one of them with
stop ``duplicate``.  A start run alone is a ``_descend`` call with the
same arguments and keywords less ``near``, so it keeps the preconditioner
shift it began at.  The distances are the tree's own batched mass,
``solver._mass``, and the wrappers use the signatures in which the
solver's internals take one ``PlaneData``.

The draw census draws 300 parameter sets from
``numpy.random.default_rng(0)``, each as p1, p2 ~ U(2.05, 3.95),
sigma1, sigma2 ~ U(-3, 20), beta ~ U(0, 2.5) and mu = 10^U(-3, 3), in
that order, and solves each with ``solve_hybrid`` at
``SolverConfig(N=512)``.  Each draw's class is the first test its
report's ``certificate`` fails (``solver.certify``):

* ``certified``: none;
* ``unconverged``: the stop test, ``converged``;
* ``box``: the check ``bound_state``, a state of the box;
* ``uncertified``: the check ``stationarity``.

Run the census once per tree, one process each, naming the file it
writes (a path relative to the repo root):

    OPENBLAS_NUM_THREADS=1 python tools/census.py BENCH_x.json --label change
    OPENBLAS_NUM_THREADS=1 python tools/census.py BENCH_x.json --label parent \\
        --src /path/to/parent/src
    python tools/census.py BENCH_x.json --compare parent change

A tree whose reports carry no ``certificate`` (``report.json`` schema 4
or older) is recorded with that tree's own ``tools/census.py``.

Each run replaces ``warm_pool``, ``fine_hard`` and ``draw_census`` in
its label's entry and keeps the rest of the file.  ``--compare`` lists
each operation and each draw whose class, ``converged`` flag or stop
reason differs, or whose energy moved by more than 1e-10 relative, and
counts the moved energies.  It exits 1 when a pool or ``fine_hard``
``converged`` flag differs, or when a draw's ``converged`` flag turns
False.
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
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SETS = ("warm_pool", "fine_hard")
#: a draw's class by the first test its certificate fails
CLASS_OF = {None: "certified", "converged": "unconverged",
            "bound_state": "box", "stationarity": "uncertified"}
CLASSES = tuple(CLASS_OF.values())
MOVED = 1e-10  # relative energy change that counts as moved


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = re.search(r"model name\s*:\s*(.*)", fh.read())
    except OSError:
        cpu = None
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
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


def _distance(solver, pd, mu, a, b) -> float:
    """sqrt(mass(U_a - U_b) / mu) of two runs' plane-batched states."""
    dm = solver._mass(a["phi"] - b["phi"], a["q"] - b["q"], pd)
    return float(f"{math.sqrt(max(dm, 0.0) / mu):.4g}")


def _starts(calls, solver, pd, mu, rerun) -> tuple[list[dict], float | None]:
    """Per-start records of one multistart from its ``_descend`` calls
    (positional arguments, keywords, run), and the smallest distance
    between two of its converged final states.  ``rerun(args, kw)`` runs
    a start alone."""
    def dist(a, b):
        return _distance(solver, pd, mu, a, b)

    records, finals = [], []
    for args, kw, run in calls:
        if run["stop"] != "duplicate":
            records.append({"outcome": "finished", "stop": run["stop"],
                            "iterations": run["iterations"]})
            finals.append(run)
            continue
        joined = min(kw["near"], key=lambda f: dist(run, f))
        records.append({"outcome": "joined", "iterations": run["iterations"],
                        "distance": dist(run, joined),
                        "rerun_distance": dist(rerun(args, kw), joined)})
    done = [f for f in finals if f["stop"] == "converged"]
    pairs = [dist(a, b) for i, a in enumerate(done) for b in done[i + 1:]]
    return records, min(pairs, default=None)


def iterations(ops, hybrid_nls, solver) -> dict:
    """Run ``ops`` in order; per op its iterations, starts and answer."""
    calls, starts, separations = [], [], []
    descend, on_grid = solver._descend, solver._solve_on_grid

    def counted(*args, **kwargs):
        run = descend(*args, **kwargs)
        calls.append((args, kwargs, run))
        return run

    def rerun(args, kw):
        return descend(*args, **{k: v for k, v in kw.items() if k != "near"})

    def multistart(pd, p, sigmas, beta, mu, cfg):
        calls.clear()
        best = on_grid(pd, p, sigmas, beta, mu, cfg)
        records, separation = _starts(calls, solver, pd, mu, rerun)
        starts.extend(records)
        separations.append(separation)
        return best

    solver._descend, solver._solve_on_grid = counted, multistart
    records = []
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
                "stop_reason": report.stop_reason,
                "energy": report.energy,
            })
    finally:
        solver._descend, solver._solve_on_grid = descend, on_grid
    every = [s for r in records for s in r["starts"]]
    joined = [s for s in every if s["outcome"] == "joined"]
    seps = [r["separation"] for r in records if r["separation"] is not None]
    return {
        "winner_iters": sum(r["winner_iters"] for r in records),
        "total_iters": sum(r["total_iters"] for r in records),
        "unconverged": sum(not r["converged"] for r in records),
        "starts": len(every),
        "joined": len(joined),
        "joined_iters": sum(s["iterations"] for s in joined),
        "max_join_distance": max((s["distance"] for s in joined), default=None),
        "max_rerun_distance": max((s["rerun_distance"] for s in joined), default=None),
        "min_separation_over_0.1": min((x for x in seps if x > 0.1), default=None),
        "ops": records,
    }


def draws(n: int = 300, seed: int = 0) -> list[tuple[float, ...]]:
    """The census's (p1, p2, sigma1, sigma2, beta, mu), in draw order."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(2.05, 3.95), rng.uniform(2.05, 3.95),
             rng.uniform(-3.0, 20.0), rng.uniform(-3.0, 20.0),
             rng.uniform(0.0, 2.5), 10.0 ** rng.uniform(-3.0, 3.0))
            for _ in range(n)]


def classify(report) -> str:
    return CLASS_OF[report.certificate.failed]


def classes(hybrid_nls, params) -> dict:
    """Solve every draw; its record and the count of each class."""
    cfg = hybrid_nls.SolverConfig(N=512)
    records = []
    for i, args in enumerate(params):
        r = hybrid_nls.solve_hybrid(hybrid_nls.HybridParams(*args), cfg)
        records.append({"draw": i, "class": classify(r), "converged": r.converged,
                        "stop_reason": r.stop_reason, "energy": r.energy,
                        "omega": r.omega, "el_residual": r.el_residual,
                        "iterations": r.iterations})
    counts = {c: sum(r["class"] == c for r in records) for c in CLASSES}
    return {"counts": counts, "draws": records}


def _differ(name, old, new, key) -> list[tuple[dict, dict]]:
    """Print each record of ``new`` whose class, flag or stop differs
    from its record in ``old``, or whose energy moved, and the count of
    moved energies; the (old, new) pairs printed."""
    a = {r[key]: r for r in old}
    pairs, moved = [], 0
    for r in new:
        o = a[r[key]]
        rel = abs(r["energy"] - o["energy"]) / abs(o["energy"])
        moved += rel > MOVED
        if rel <= MOVED and all(r.get(k) == o.get(k) for k in
                                ("class", "converged", "stop_reason")):
            continue
        pairs.append((o, r))
        state = [f"{x.get('class', 'converged' if x['converged'] else 'unconverged')} "
                 f"({x.get('stop_reason')}, E = {x['energy']!r})" for x in (o, r)]
        print(f"{name} {r[key]}: {state[0]} -> {state[1]} ({rel:.2e} relative)")
    print(f"{name}: {moved} of {len(a)} energies moved by more than {MOVED:g} relative")
    return pairs


def compare(data: dict, old: str, new: str) -> int:
    """Print the operations and draws that differ between two entries;
    the number of pool and ``fine_hard`` ``converged`` flags that differ
    plus the number of draw ``converged`` flags that turned False."""
    flips = 0
    for name in SETS:
        pairs = _differ(name, data[old][name]["ops"], data[new][name]["ops"], "key")
        flips += sum(o["converged"] != r["converged"] for o, r in pairs)
        for label in (old, new):
            s = data[label][name]
            print(f"{name} {label}: total iterations {s['total_iters']}, winner "
                  f"{s['winner_iters']}, joined {s['joined']} of {s['starts']} starts "
                  f"({s['joined_iters']} iterations), max rerun distance "
                  f"{s['max_rerun_distance']}")
    pairs = _differ("draw", data[old]["draw_census"]["draws"],
                    data[new]["draw_census"]["draws"], "draw")
    lost = sum(o["converged"] and not r["converged"] for o, r in pairs)
    for label in (old, new):
        counts = data[label]["draw_census"]["counts"]
        print(f"draws {label}: " + ", ".join(f"{counts[c]} {c}" for c in CLASSES))
    print(f"{flips} pool and fine_hard converged flags differ; "
          f"{lost} draw converged flags turned False")
    return flips + lost


def _dumps(data: dict) -> str:
    """Indented JSON in which each record of a list of records (an
    operation, a census draw) takes one line."""
    rows = {}

    def stub(v):
        if isinstance(v, dict):
            return {k: stub(x) for k, x in v.items()}
        if not (isinstance(v, list) and v and all(isinstance(x, dict) for x in v)):
            return v
        tags = [f"@op{len(rows) + i}@" for i in range(len(v))]
        rows.update((f'"{t}"', json.dumps(x, sort_keys=True)) for t, x in zip(tags, v))
        return tags

    text = json.dumps(stub(data), indent=1, sort_keys=True)
    return re.sub(r'"@op\d+@"', lambda m: rows[m.group(0)], text) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("file", help="the BENCH_*.json to write or compare, "
                    "relative to the repo root")
    ap.add_argument("--label", help="entry name, e.g. parent or change")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the src/ directory whose hybrid_nls is measured")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print what differs between two recorded entries")
    args = ap.parse_args(argv)
    out = ROOT / args.file
    if args.compare:
        return 1 if compare(json.loads(out.read_text()), *args.compare) else 0
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
    iterations(fine[:1], hybrid_nls, solver)  # warm-up: imports, caches
    entry = {
        "commit": _commit(src),
        "environment": environment(),
        "warm_pool": iterations(warm, hybrid_nls, solver),
        "fine_hard": iterations(fine, hybrid_nls, solver),
        "draw_census": classes(hybrid_nls, draws()),
    }
    data = json.loads(out.read_text()) if out.is_file() else {}
    data.setdefault(args.label, {}).update(entry)
    out.write_text(_dumps(data))
    for name in SETS:
        s = entry[name]
        print(f"{args.label} {name}: {len(s['ops'])} ops, winner iterations "
              f"{s['winner_iters']}, total {s['total_iters']}, unconverged "
              f"{s['unconverged']}, joined {s['joined']} of "
              f"{s['starts']} starts")
    counts = entry["draw_census"]["counts"]
    print(f"{args.label} draws: " + ", ".join(f"{counts[c]} {c}" for c in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
