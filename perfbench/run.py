"""hybrid-nls benchmark: one closed-loop caller, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload warm_solves --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` replays every rotation of operations right after its
untraced run with each public function of the package wrapped, and
prints the per-layer metrics and the tracing overhead instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it name every failing operation, and the full record (environment, per
operation N and grading, spans) goes under ``.bench_out/``.  See
NOTES.md beside this file for why each workload exists.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib.metadata
import importlib.util
import itertools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

CLI_KINDS = ("solve", "sweep", "baseline", "verify_fast", "verify")

PER_LAYER = {
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_special_s": "s",
    "import.scipy_sparse_s": "s",
    "import.hybrid_nls_self_s": "s",
    "specfun.green_profile.calls": "count/op",
    "specfun.green_profile.s": "s/op",
    "grid.make_grid.calls": "count/op",
    "grid.make_grid.s": "s/op",
    "energy.plane_data.calls": "count/op",
    "energy.plane_data.s": "s/op",
    "energy.plane_data.hit_ratio": "ratio",
    "energy.certificates.s": "s/op",
    "kernels.energy.calls": "count/op",
    "kernels.energy.s": "s/op",
    "kernels.grad.calls": "count/op",
    "kernels.grad.s": "s/op",
    "kernels.bytes_computed": "B/op",
    "solver.calls": "count/op",
    "solver.self_s": "s/op",
    "solver.self_frac": "ratio",
    "solver.winner_iters": "count",
    "solver.linesearch_evals_per_iter": "ratio",
    "solver.unconverged": "count/op",
    "analysis.rho.calls": "count/op",
    "analysis.rho.s": "s/op",
    "analysis.critical_mass.s": "s/op",
    "verify.run_suite.s": "s",
    **{f"verify.criterion.{n}.s": "s" for n in range(1, 15)},
    "cli.self_s": "s/op",
    "svgplot.render_lines.s": "s/op",
    "cli.sweep.overlap": "ratio",
    "tracing.overhead_frac": "ratio",
    **{f"cli_{k}_s": "s" for k in CLI_KINDS},
}

#: fresh processes timed for setup_s; their median is reported
SETUP_PROBES = 5
IMPORT_PROBES = 3
#: a single CLI command or probe that runs longer than this has hung
CHILD_TIMEOUT_S = 150


@dataclass
class OpRecord:
    """Outcome of one operation: wall time, failure reasons, grid used."""

    name: str
    seconds: float
    reasons: list[str]
    #: the known defect that explains the failure, if one does
    known: str | None = None
    N: int | None = None
    grading: float | None = None


def run_child(argv) -> subprocess.CompletedProcess:
    """Run a fresh interpreter at the checkout root and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def setup_probe(workload: str) -> float:
    """Set-up time of one fresh process, as timed inside it."""
    proc = run_child([str(HERE / "child.py"), "setup", workload])
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# --------------------------------------------------------------------------
# import breakdown from `python -X importtime`

_IMPORT_GROUPS = (("scipy.sparse", "import.scipy_sparse_s"),
                  ("scipy.special", "import.scipy_special_s"),
                  ("scipy", "import.scipy_special_s"),
                  ("numpy", "import.numpy_s"),
                  ("hybrid_nls", "import.hybrid_nls_self_s"))


def _group_of(name: str) -> str | None:
    for prefix, group in _IMPORT_GROUPS:
        if name == prefix or name.startswith(prefix + "."):
            return group
    return None


def parse_importtime(text: str) -> dict:
    """Charge each import to the package that pulled it in.

    A module counts toward the outermost numpy or scipy import above it
    (or itself), so everything scipy.special drags in is scipy.special's
    cost; the rest under a hybrid_nls module is the package's own.
    scipy's base package counts as scipy.special, which loads it first.
    """
    rows = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)", line)
        if m:
            rows.append((int(m.group(1)) * 1e-6, int(m.group(2)) * 1e-6,
                         len(m.group(3)) // 2, m.group(4)))
    own = "import.hybrid_nls_self_s"
    totals = {g: 0.0 for _, g in _IMPORT_GROUPS} | {"import.total_s": 0.0}
    # importtime prints children before their parent: walk it backwards
    stack: list[tuple[int, str | None]] = []
    for self_s, cum_s, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        outer = stack[-1][1] if stack else None
        group = outer if outer not in (None, own) else (_group_of(name) or outer)
        stack.append((depth, group))
        if group is not None:
            totals[group] += self_s
        if name == "hybrid_nls":
            totals["import.total_s"] = cum_s
    return totals


def import_breakdown(probes: int) -> dict:
    samples = []
    for _ in range(probes):
        proc = run_child(["-X", "importtime", "-c", "import hybrid_nls"])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# --------------------------------------------------------------------------
# environment record


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict:
    cpu = re.search(r"model name\s*:\s*(.*)", _read("/proc/cpuinfo"))
    caches = {}
    for i in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{i}"
        level, kind = _read(f"{base}/level").strip(), _read(f"{base}/type").strip()
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(f"{base}/size").strip()
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu.group(1).strip() if cpu else "unknown",
        "caches_per_core": caches,
    }


# --------------------------------------------------------------------------
# in-process workloads


def run_lib_op(hybrid_nls, op: wl.LibOp, refs: dict, tracer=None) -> OpRecord:
    cfg = hybrid_nls.SolverConfig(N=op.N, grading=op.grading)
    args = ((hybrid_nls.HybridParams(*op.args),) if op.fn == "solve_hybrid"
            else op.args) + (cfg,)
    fn = getattr(hybrid_nls, op.fn)
    name = op.kind
    t0 = time.perf_counter()
    try:
        report = tracer.run_op("op", fn, *args) if tracer else fn(*args)
    except Exception as exc:  # a crashed operation is a failed operation
        return OpRecord(name, time.perf_counter() - t0,
                        [f"raised {type(exc).__name__}: {exc}"], N=op.N,
                        grading=op.grading)
    seconds = time.perf_counter() - t0
    reasons = wl.check_report(op, report, refs)
    grid = report.state.u1.grid if report.state is not None else None
    return OpRecord(name, seconds, reasons,
                    wl.known_defect(name, reasons, report.mass1, report.mass2, op.mu),
                    grid.n_cells if grid else op.N,
                    grid.grading if grid else op.grading)


def closed_loop(rotations: list, run_op, replay=None,
                probe=None, probes: int = 0) -> dict:
    """Run the rotations of operations, one operation at a time.

    With ``replay``, each rotation is replayed traced right after its
    untraced run, so a drift in machine speed hits both alike; the wall
    covers the untraced operations only.  The ``probes`` set-up probes
    are spread over the run between rotations for the same reason.
    """
    records, traced, setup = [], [], []
    wall = 0.0
    # what import and warm-up made lives to the end: freezing it makes
    # the collection before each operation take microseconds
    gc.collect()
    gc.freeze()
    for i, rotation in enumerate(rotations):
        for op in rotation:
            # garbage cycles left by one operation must not raise the
            # peak memory of the next, whichever order the seed gives
            gc.collect()
            t0 = time.perf_counter()
            records.append(run_op(op))
            wall += time.perf_counter() - t0
        if replay is not None:
            traced += replay(rotation)
        if len(setup) < probes and i >= len(setup) * len(rotations) / probes:
            setup.append(probe())
    setup += [probe() for _ in range(probes - len(setup))]
    return {"records": records, "traced_records": traced, "wall": wall,
            "setup": setup}


def run_lib(args, refs: dict, probes: int) -> dict:
    import child
    import hybrid_nls

    child.warm_up(hybrid_nls, args.workload)
    tracer = tracing.Tracer()

    def replay(rotation):
        tracer.install()
        try:
            return [run_lib_op(hybrid_nls, op, refs, tracer) for op in rotation]
        finally:
            tracer.uninstall()

    count = wl.rotation_count(args.workload, args.seconds, args.trace)
    result = closed_loop(wl.lib_rotations(args.workload, args.seed, count, args.smoke),
                         lambda op: run_lib_op(hybrid_nls, op, refs),
                         replay if args.trace else None,
                         lambda: setup_probe(args.workload), probes)
    result.update(spans=tracer.spans, wrapped=tracer.wrapped,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


# --------------------------------------------------------------------------
# cold_cli


def run_cli_op(op: wl.CliOp, refs: dict, out_root: Path, spans_file=None) -> OpRecord:
    out = out_root / op.kind
    shutil.rmtree(out, ignore_errors=True)
    argv = [*op.argv, "--out", str(out)]
    cmd = ([str(HERE / "child.py"), "cli", str(spans_file), *argv] if spans_file
           else ["-m", "hybrid_nls.cli", *argv])
    t0 = time.perf_counter()
    try:
        proc = run_child(cmd)
    except subprocess.TimeoutExpired:
        return OpRecord(op.kind, time.perf_counter() - t0,
                        [f"timed out after {CHILD_TIMEOUT_S} s"])
    seconds = time.perf_counter() - t0
    reasons = wl.check_cli(op, proc.returncode, out, refs)
    if reasons and proc.stderr.strip():
        reasons.append("stderr: " + proc.stderr.strip().splitlines()[-1])
    N = grading = None
    for name in ("report.json", "summary.json", "baseline.json"):
        if (out / name).is_file():
            solver = json.loads((out / name).read_text()).get("solver", {})
            N, grading = solver.get("N"), solver.get("grading")
    return OpRecord(op.kind, seconds, reasons, N=N, grading=grading)


def run_cli(args, refs: dict, out_root: Path, probes: int) -> dict:
    cli_out = out_root / "cli"
    spans_file = out_root / "cli_spans.json"
    spans, wrapped = [], set()
    op_ids = itertools.count(1)

    def replay(rotation):
        traced = []
        for op in rotation:
            spans_file.unlink(missing_ok=True)
            traced.append(run_cli_op(op, refs, cli_out, spans_file))
            if not spans_file.is_file():
                continue
            dump = json.loads(spans_file.read_text())
            spans_file.unlink()
            wrapped.update(dump["wrapped"])
            # span ids restart in every process: shift them; op = command
            offset = max((s[0] for s in spans), default=0)
            op_id = next(op_ids)
            spans.extend((sid + offset, None if parent is None else parent + offset,
                          op_id, name, t0, t1, info)
                         for sid, parent, _, name, t0, t1, info in dump["spans"])
        return traced

    count = wl.rotation_count(args.workload, args.seconds, args.trace)
    result = closed_loop(wl.cli_rotations(args.seed, count, args.smoke),
                         lambda op: run_cli_op(op, refs, cli_out),
                         replay if args.trace else None,
                         lambda: setup_probe(args.workload), probes)
    result.update(spans=spans, wrapped=wrapped,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    return result


# --------------------------------------------------------------------------
# reporting


def end_to_end(result: dict) -> dict:
    """End-to-end metrics of the untraced operations."""
    ms = [r.seconds * 1e3 for r in result["records"]]
    deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
    return {
        "setup_s": statistics.median(result["setup"]),
        "ops_per_s": len(ms) / result["wall"],
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": deciles[8],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result, imports: dict) -> tuple[dict, set]:
    metrics, absent = tracing.layer_metrics(
        result["spans"], result["wrapped"], len(result["traced_records"]))
    untraced = sum(r.seconds for r in result["records"])
    traced = sum(r.seconds for r in result["traced_records"])
    metrics["tracing.overhead_frac"] = traced / untraced - 1.0
    metrics.update(imports)
    by_kind = defaultdict(list)
    for r in result["records"]:
        by_kind[r.name].append(r.seconds)
    for k in CLI_KINDS:
        metrics[f"cli_{k}_s"] = statistics.median(by_kind[k]) if by_kind[k] else 0.0
    return metrics, absent


def summarize_ops(untraced, records) -> list[str]:
    """Per kind: count, median latency (untraced) and grid; then every
    failing operation, grouped by kind and reason."""
    lines = []
    by_kind = defaultdict(list)
    for r in untraced:
        by_kind[r.name].append(r)
    for kind, rs in by_kind.items():
        grids = Counter((r.N, r.grading) for r in rs)
        grid_text = ", ".join(f"N={n} grading={g}" for (n, g) in grids)
        median_ms = statistics.median(r.seconds for r in rs) * 1e3
        lines.append(f"op {kind}: n={len(rs)} median {median_ms:.1f} ms  [{grid_text}]")
    failures = defaultdict(list)
    for r in records:
        if r.reasons:
            failures[(r.name, "; ".join(r.reasons), r.known)].append(r)
    for (name, why, known), rs in sorted(failures.items()):
        tag = f"known defect: {known}" if known else "UNEXPECTED"
        lines.append(f"FAIL {name} x{len(rs)}: {why}  ({tag})")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"),
                    help="'all' runs the three workloads one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="sets the work of a run, which lasts about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small grids and one set-up probe, to test the benchmark itself")
    args = ap.parse_args(argv)

    if args.workload == "all":
        # each workload in its own process, so peak memory stays its own
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        for workload in wl.WORKLOADS:
            code = subprocess.run([sys.executable, __file__, "--workload", workload,
                                   *rest]).returncode
            if code != 0:
                return code
        return 0

    if not (ROOT / "src" / "hybrid_nls" / "__init__.py").is_file():
        print(f"perfbench: no hybrid_nls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    # byte-compile first so set-up time measures imports, not compilation
    compileall.compile_dir(str(ROOT / "src" / "hybrid_nls"), quiet=1)

    # the reference holds full-size results only
    refs = {} if args.smoke else wl.load_reference(HERE / "reference.json")
    # set-up is an end-to-end metric: probed only in untraced runs
    probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    if args.workload == "cold_cli":
        result = run_cli(args, refs, out_root, probes)
    else:
        result = run_lib(args, refs, probes)

    records = result["records"] + result["traced_records"]
    failed = [r for r in records if r.reasons]
    unexpected = [r for r in failed if not r.known]
    env = environment()

    notes: list[str] = []
    if args.trace:
        imports = import_breakdown(1 if args.smoke else IMPORT_PROBES)
        values, absent = per_layer(result, imports)
        names = PER_LAYER
        gap = tracing.solver_accounting(tracing.SpanIndex(result["spans"]))
        notes.append(f"solver accounting gap {gap:.2e}")
    else:
        values = end_to_end(result)
        absent = set()
        names = END_TO_END
    metrics = {k: {"value": 0.0 if k in absent else values[k], "unit": u}
               for k, u in names.items()}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    print("env " + json.dumps(env))
    for line in summarize_ops(result["records"], records):
        print(line)
    print(f"fail_frac {len(failed) / len(records):.4f} ({len(failed)}/{len(records)}), "
          f"unexpected {len(unexpected)}")
    for line in notes:
        print(line)
    if absent:
        print("absent (binding no longer in the package): " + ", ".join(sorted(absent)))
    for k, v in metrics.items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env,
        "metrics": metrics, "absent": sorted(absent),
        "ops": [asdict(r) for r in records],
    }
    tag = f"{args.workload}-trace{args.trace}"
    (out_root / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (out_root / f"spans-{args.workload}.json").write_text(json.dumps(
            {"fields": ["id", "parent", "op", "name", "t0", "t1", "info"],
             "spans": result["spans"]}))

    print(json.dumps({"correct": not unexpected, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
