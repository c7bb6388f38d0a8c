"""Spans around the calls into each hybrid_nls module, recorded from outside.

``Tracer.install`` replaces every public function of each layer module
with a timing wrapper at every module of the package that binds it by
name (``solver.plane_energy`` as well as ``_kernels.plane_energy``), so
no tracing code lives inside the package.  Spans are kept in memory as
``(id, parent, op, name, t0, t1, info)`` and turned into per-layer
metrics by :func:`layer_metrics`.  Each thread keeps its own span stack;
a span opened on a thread whose stack is empty (a pool worker) takes as
parent the innermost open span of the thread that opened the operation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

#: the package's modules, bottom up; each is one layer
LAYERS = ("specfun", "grid", "energy", "_kernels", "solver", "analysis",
          "verify", "cli", "_svgplot")

#: span names that carry the per-layer metrics below
KERNEL_ENERGY = "_kernels.plane_energy"
KERNEL_GRAD = "_kernels.plane_energy_grad"
SOLVE_CALLS = ("solver.solve_hybrid", "solver.solve_single", "solver.solve_planar")
CERTIFICATES = ("energy.el_residual", "energy.boundary_residual")


def _array_bytes(args, result) -> int:
    """Bytes of the array arguments a kernel call reads or writes
    (computed from their sizes, not measured)."""
    return sum(a.nbytes for a in args if hasattr(a, "nbytes"))


def _solve_info(args, result):
    return (result.iterations, bool(result.converged))


def _suite_info(args, result):
    return (bool(result.fast), {str(r.number): r.seconds for r in result.results})


#: per-span extra data, computed from the call's arguments and result
_INFO = {
    KERNEL_ENERGY: _array_bytes,
    KERNEL_GRAD: _array_bytes,
    "energy.plane_data": lambda args, result: id(result),
    "verify.run_suite": _suite_info,
    **{name: _solve_info for name in SOLVE_CALLS},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.wrapped: set[str] = set()
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._restore: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        try:
            return self._root_stack[-1]
        except IndexError:
            return None

    def begin_op(self) -> None:
        """Start a new operation; spans until the next call share its id."""
        self.op += 1
        self._root_stack = self._stack()

    def span(self, name: str, fn, info=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if info is not None and result is not None:
                    extra = info(args, result)
                tracer.spans.append((sid, parent, tracer.op, name, t0, t1, extra))

        return functools.update_wrapper(wrapper, fn)

    def run_op(self, name: str, fn, *args):
        """Call ``fn`` as the root span of a new operation."""
        self.begin_op()
        return self.span(name, fn)(*args)

    # -- installation ----------------------------------------------------

    def install(self, package: str = "hybrid_nls") -> None:
        """Wrap each layer's public functions at every binding in the package."""
        layers = {}
        for layer in LAYERS:
            try:
                layers[layer] = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue  # a removed module: its metrics are reported absent
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer, mod in layers.items():
            names: dict[int, str] = {}
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                # one function bound under several names keeps the shortest
                prev = names.get(id(obj))
                if prev is None or len(attr) < len(prev):
                    names[id(obj)] = attr
            for attr in names.values():
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                wrapper = self.span(name, fn, _INFO.get(name))
                for m in modules:
                    for a, obj in list(vars(m).items()):
                        if obj is fn:
                            self._restore.append((m, a, obj))
                            setattr(m, a, wrapper)
                self.wrapped.add(name)

    def uninstall(self) -> None:
        for m, a, obj in reversed(self._restore):
            setattr(m, a, obj)
        self._restore.clear()


# --------------------------------------------------------------------------
# metrics


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _in_solver(name: str) -> bool:
    return _layer(name) == "solver"


class SpanIndex:
    """Parent/child lookups over one list of spans."""

    def __init__(self, spans) -> None:
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list] = defaultdict(list)
        for s in spans:
            if s[1] is not None:
                self.children[s[1]].append(s)
        self.by_name: dict[str, list] = defaultdict(list)
        for s in spans:
            self.by_name[s[3]].append(s)

    def total(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.by_name.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def self_time(self, span) -> float:
        """Span duration minus the part its children cover."""
        kids = [(max(c[4], span[4]), min(c[5], span[5]))
                for c in self.children.get(span[0], ())]
        return (span[5] - span[4]) - _union_length(k for k in kids if k[1] > k[0])

    def outermost(self, inside) -> list:
        """Spans whose name satisfies ``inside`` and whose parent's does not."""
        return [s for s in self.by_id.values() if inside(s[3]) and not (
            s[1] in self.by_id and inside(self.by_id[s[1]][3]))]

    def has_ancestor(self, span, sid: int) -> bool:
        parent = span[1]
        while parent is not None:
            if parent == sid:
                return True
            parent = self.by_id[parent][1] if parent in self.by_id else None
        return False

    def foreign_cover(self, span, layer: str) -> float:
        """Time inside ``span`` covered by descendants outside ``layer``,
        reached through spans of ``layer`` only."""
        out, todo = [], [span]
        while todo:
            for c in self.children.get(todo.pop()[0], ()):
                if _layer(c[3]) == layer:
                    todo.append(c)
                else:
                    out.append((c[4], c[5]))
        return _union_length(out)


def solver_accounting(index: SpanIndex) -> float:
    """Worst relative gap, over outermost solver spans, between the span
    and its children plus self time (0 when the children nest cleanly)."""
    worst = 0.0
    for s in index.outermost(_in_solver):
        dur = s[5] - s[4]
        kids = sum(c[5] - c[4] for c in index.children.get(s[0], ()))
        if dur > 0:
            worst = max(worst, abs(dur - kids - index.self_time(s)) / dur)
    return worst


def layer_metrics(spans, wrapped: set[str], n_ops: int) -> tuple[dict, set]:
    """Per-operation layer metrics and the set of metrics whose binding is
    absent from the package (reported as absent, never as a failure)."""
    ix = SpanIndex(spans)
    per_op = 1.0 / max(n_ops, 1)
    m: dict[str, float] = {}
    needs: dict[str, tuple] = {}

    def calls_and_time(metric: str, span: str) -> None:
        m[f"{metric}.calls"] = ix.count(span) * per_op
        m[f"{metric}.s"] = ix.total(span) * per_op
        needs[f"{metric}.calls"] = needs[f"{metric}.s"] = (span,)

    calls_and_time("specfun.green_profile", "specfun.green_profile")
    calls_and_time("grid.make_grid", "grid.make_grid")
    calls_and_time("energy.plane_data", "energy.plane_data")
    seen, hits = set(), 0
    for s in sorted(ix.by_name.get("energy.plane_data", ()), key=lambda s: s[4]):
        hits += s[6] in seen
        seen.add(s[6])
    m["energy.plane_data.hit_ratio"] = hits / max(ix.count("energy.plane_data"), 1)
    needs["energy.plane_data.hit_ratio"] = ("energy.plane_data",)
    m["energy.certificates.s"] = sum(ix.total(n) for n in CERTIFICATES) * per_op
    needs["energy.certificates.s"] = CERTIFICATES

    calls_and_time("kernels.energy", KERNEL_ENERGY)
    calls_and_time("kernels.grad", KERNEL_GRAD)
    m["kernels.bytes_computed"] = sum(
        s[6] or 0 for n in (KERNEL_ENERGY, KERNEL_GRAD)
        for s in ix.by_name.get(n, ())) * per_op
    needs["kernels.bytes_computed"] = (KERNEL_ENERGY, KERNEL_GRAD)

    solves = [s for n in SOLVE_CALLS for s in ix.by_name.get(n, ())]
    self_s = sum(ix.self_time(s) for s in ix.by_id.values() if _in_solver(s[3]))
    outer_s = sum(s[5] - s[4] for s in ix.outermost(_in_solver))
    done = [s[6] for s in solves if s[6] is not None]
    m["solver.calls"] = len(solves) * per_op
    m["solver.self_s"] = self_s * per_op
    m["solver.self_frac"] = self_s / outer_s if outer_s > 0 else 0.0
    m["solver.winner_iters"] = sum(d[0] for d in done) / max(len(done), 1)
    m["solver.linesearch_evals_per_iter"] = (
        ix.count(KERNEL_ENERGY) / ix.count(KERNEL_GRAD) if ix.count(KERNEL_GRAD) else 0.0)
    m["solver.unconverged"] = sum(not d[1] for d in done) * per_op
    for k in ("calls", "self_s", "self_frac", "winner_iters", "unconverged"):
        needs[f"solver.{k}"] = SOLVE_CALLS
    needs["solver.linesearch_evals_per_iter"] = (KERNEL_ENERGY, KERNEL_GRAD)

    # rho delegates to rho_detail, which holds the cached solve: count
    # the outermost call of either
    rho_names = ("analysis.rho", "analysis.rho_detail")
    rhos = ix.outermost(lambda n: n in rho_names)
    m["analysis.rho.calls"] = len(rhos) * per_op
    m["analysis.rho.s"] = sum(s[5] - s[4] for s in rhos) * per_op
    needs["analysis.rho.calls"] = needs["analysis.rho.s"] = rho_names
    m["analysis.critical_mass.s"] = ix.total("analysis.critical_mass") * per_op
    needs["analysis.critical_mass.s"] = ("analysis.critical_mass",)

    # verify: per full (not --fast) suite run, from CriterionResult.seconds
    full = [s for s in ix.by_name.get("verify.run_suite", ()) if s[6] and not s[6][0]]
    nf = max(len(full), 1)
    m["verify.run_suite.s"] = sum(s[5] - s[4] for s in full) / nf
    needs["verify.run_suite.s"] = ("verify.run_suite",)
    for n in range(1, 15):
        m[f"verify.criterion.{n}.s"] = sum(s[6][1].get(str(n), 0.0) for s in full) / nf
        needs[f"verify.criterion.{n}.s"] = ("verify.run_suite",)

    mains = ix.by_name.get("cli.main", ())
    m["cli.self_s"] = sum((s[5] - s[4]) - ix.foreign_cover(s, "cli")
                          for s in mains) * per_op
    needs["cli.self_s"] = ("cli.main",)
    m["svgplot.render_lines.s"] = ix.total("_svgplot.render_lines") * per_op
    needs["svgplot.render_lines.s"] = ("_svgplot.render_lines",)
    sweeps = ix.by_name.get("cli.cmd_sweep", ())
    sweep_wall = sum(s[5] - s[4] for s in sweeps)
    in_sweep = sum(s[5] - s[4] for s in solves
                   if any(ix.has_ancestor(s, w[0]) for w in sweeps))
    m["cli.sweep.overlap"] = in_sweep / sweep_wall if sweep_wall > 0 else 0.0
    needs["cli.sweep.overlap"] = ("cli.cmd_sweep", "solver.solve_hybrid")

    absent = {k for k, spans_needed in needs.items()
              if not all(n in wrapped for n in spans_needed)}
    return m, absent
