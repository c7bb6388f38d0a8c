"""Alternating parent/change pairs of the benchmark, judged by the claim rule.

    OPENBLAS_NUM_THREADS=1 python tools/bench_pairs.py --parent HEAD \\
        --label peak_rss --workload fine_hard --pairs 10 --seed 7

checks the parent revision out in a temporary ``git worktree`` and runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0``, each
run a fresh subprocess, in the parent's tree and in the working tree.
Pair i runs the parent first when i is even and the change first when
it is odd.  Each side runs its own ``perfbench/``, which this script
never writes; both share the caller's environment.

For each workload and end-to-end metric of ``BENCHMARK.json`` it reports
each side's median and quartiles, the pairs each side won (ties count
for neither) and whether the claim rule holds: the change wins at least
nine tenths of the pairs, and its median is better than the parent's by
more than the distance between the parent's quartiles.  Everything goes
into ``BENCH_<label>.json`` at the repo root: the command, the
environment, every run's last line of output and the summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values: list[float]) -> dict:
    """Median and quartiles of one side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def judge(pairs: list[tuple[float, float]], better: str) -> dict:
    """Both sides' spread, the pairs each won and the claim rule, for
    (parent, change) values of one metric whose ``better`` is "lower"
    or "higher"."""
    sign = -1.0 if better == "lower" else 1.0
    parent = spread([p for p, _ in pairs])
    change = spread([c for _, c in pairs])
    won = sum(sign * (c - p) > 0 for p, c in pairs)
    lost = sum(sign * (c - p) < 0 for p, c in pairs)
    gap = sign * (change["median"] - parent["median"])
    return {"parent": parent, "change": change,
            "pairs": len(pairs), "change_won": won, "parent_won": lost,
            "gap": gap, "parent_iqr": parent["q3"] - parent["q1"],
            "claim": (won >= math.ceil(0.9 * len(pairs))
                      and gap > parent["q3"] - parent["q1"])}


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its last line of output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the revision to compare against")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workload", action="append", required=True,
                    choices=[w["name"] for w in bench["workloads"]],
                    help="repeat for several workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    parent_sha = git("rev-parse", args.parent)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(tree), parent_sha)
        try:
            for workload in args.workload:
                for i in range(args.pairs):
                    order = (("parent", tree), ("change", ROOT))
                    for side, where in order if i % 2 == 0 else order[::-1]:
                        result = run_side(where, workload, args.seed, args.seconds)
                        runs.append({"workload": workload, "pair": i, "side": side,
                                     "result": result})
                        print(f"{workload} pair {i} {side}: " + ", ".join(
                            f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                            flush=True)
        finally:
            git("worktree", "remove", "--force", str(tree))

    summary = {}
    for workload in args.workload:
        value = {(r["pair"], r["side"]): r["result"] for r in runs
                 if r["workload"] == workload}
        summary[workload] = {
            name: judge([(value[i, "parent"]["metrics"][name]["value"],
                          value[i, "change"]["metrics"][name]["value"])
                         for i in range(args.pairs)], better)
            for name, better in metrics.items()}
        summary[workload]["failed"] = {
            side: [value[i, side]["failed"] for i in range(args.pairs)]
            for side in ("parent", "change")}
        for name in metrics:
            j = summary[workload][name]
            print(f"{workload} {name}: parent {j['parent']['median']:.4g} "
                  f"[{j['parent']['q1']:.4g}, {j['parent']['q3']:.4g}], change "
                  f"{j['change']['median']:.4g} [{j['change']['q1']:.4g}, "
                  f"{j['change']['q3']:.4g}], won {j['change_won']}/{j['pairs']} "
                  f"(parent {j['parent_won']}), claim {'holds' if j['claim'] else 'fails'}")

    record = {
        "parent_commit": parent_sha,
        "change": f"working tree on {git('rev-parse', 'HEAD')}",
        "command": " ".join(["python", "tools/bench_pairs.py",
                             *(sys.argv[1:] if argv is None else argv)]),
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "machine": platform.machine(),
                        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "runs": runs,
        "summary": summary,
    }
    (ROOT / f"BENCH_{args.label}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
