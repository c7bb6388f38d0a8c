"""The 300-draw census of the coupled problem over a wide parameter box.

Draws 300 parameter sets from ``numpy.random.default_rng(0)``, each as
p1, p2 ~ U(2.05, 3.95), sigma1, sigma2 ~ U(-3, 20), beta ~ U(0, 2.5)
and mu = 10^U(-3, 3), in that order, and solves each with
``solve_hybrid`` at ``SolverConfig(N=512)``.  Each draw falls in one
class:

* ``certified``: ``converged``, ``el_residual`` <= 1e-2 and omega > 0;
* ``unconverged``: not ``converged``;
* ``box``: ``converged`` with omega <= 0, a state of the box;
* ``uncertified``: ``converged`` with omega > 0 but ``el_residual``
  above 1e-2.

Run it once per tree, one process each, naming the file it writes:

    python tools/draw_census.py BENCH_x.json --label change
    python tools/draw_census.py BENCH_x.json --label parent --src /path/to/parent/src
    python tools/draw_census.py BENCH_x.json --compare parent change

Each run stores its draws as ``draw_census`` in its label's entry of
the file (a path relative to the repo root), next to what
``tools/iteration_census.py`` records there, and prints the four
counts.  ``--compare`` prints each draw whose class, ``converged`` flag
or stop reason differs, with both energies, and exits 1 when a
``converged`` flag turns False.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CLASSES = ("certified", "unconverged", "box", "uncertified")


def draws(n: int = 300, seed: int = 0) -> list[tuple[float, ...]]:
    """The census's (p1, p2, sigma1, sigma2, beta, mu), in draw order."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(2.05, 3.95), rng.uniform(2.05, 3.95),
             rng.uniform(-3.0, 20.0), rng.uniform(-3.0, 20.0),
             rng.uniform(0.0, 2.5), 10.0 ** rng.uniform(-3.0, 3.0))
            for _ in range(n)]


def classify(report) -> str:
    if not report.converged:
        return "unconverged"
    if not report.omega > 0.0:
        return "box"
    return "certified" if report.el_residual <= 1e-2 else "uncertified"


def census(hybrid_nls, params) -> dict:
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


def compare(data: dict, old: str, new: str) -> int:
    """Print the draws whose class, flag or stop differs; the number of
    ``converged`` flags that turned False."""
    a = {r["draw"]: r for r in data[old]["draw_census"]["draws"]}
    lost = 0
    for r in data[new]["draw_census"]["draws"]:
        o = a[r["draw"]]
        if all(r[k] == o[k] for k in ("class", "converged", "stop_reason")):
            continue
        lost += o["converged"] and not r["converged"]
        print(f"draw {r['draw']}: {o['class']} ({o['stop_reason']}, "
              f"E = {o['energy']:.6g}) -> {r['class']} ({r['stop_reason']}, "
              f"E = {r['energy']:.6g})")
    for label in (old, new):
        counts = data[label]["draw_census"]["counts"]
        print(f"{label}: " + ", ".join(f"{counts[c]} {c}" for c in CLASSES))
    print(f"{lost} converged flags turned False")
    return lost


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
    sys.path.insert(0, str(src))
    hybrid_nls = importlib.import_module("hybrid_nls")
    if Path(hybrid_nls.__file__).resolve().parents[1] != src:
        raise SystemExit(f"hybrid_nls imported from {hybrid_nls.__file__}, not {src}")
    from iteration_census import _commit, _dumps, environment

    entry = census(hybrid_nls, draws())
    data = json.loads(out.read_text()) if out.is_file() else {}
    data.setdefault(args.label, {}).update(
        commit=_commit(src), environment=environment(), draw_census=entry)
    out.write_text(_dumps(data))
    counts = entry["counts"]
    print(f"{args.label}: " + ", ".join(f"{counts[c]} {c}" for c in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
