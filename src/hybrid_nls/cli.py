"""Command-line front end: solve, sweep, baseline, and verify.

Configuration comes from an optional flat JSON file (``--config``,
with a ``"command"`` field) merged with command-line flags; flags win.
Exit codes are uniform across commands: 0 success, 1 numeric failure
(non-convergence, failed sweep rows, failed verification criteria),
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import _svgplot, analysis
from .energy import HybridParams, check_power, total_field
from .solver import GroundStateReport, SolverConfig, solve_hybrid, solve_planar
from .verify import run_suite

__all__ = ["RunConfig", "main", "cmd_solve", "cmd_sweep", "cmd_baseline",
           "cmd_verify"]

SCHEMA_VERSION = 4

_COMMANDS = ("solve", "sweep", "baseline", "verify")
_FORMATS = ("json", "csv", "svg")
#: options that set SolverConfig fields of the same name
_SOLVER_KEYS = ("R", "N", "grading", "grad_tol", "max_iters", "starts")
#: the options each command reads; setting any other one is an error
_READS = {
    "verify": ("fast", "formats", "out"),
    "solve": ("p1", "p2", "sigma1", "sigma2", "beta", "mu", "mu_relative",
              "formats", "out") + _SOLVER_KEYS,
    "baseline": ("p", "mustar") + _SOLVER_KEYS + ("formats", "out"),
}
_READS["sweep"] = _READS["solve"] + ("mode", "values")

_DEFAULTS = {
    "p1": 3.0, "p2": 3.0, "sigma1": 0.0, "sigma2": 0.0,
    "beta": 1.0, "mu": 1.0,
    "formats": "json,csv", "fast": False,
    "mode": "sigma2", "mu_relative": None, "values": None,
    "p": None, "mustar": None,
}


class UsageError(ValueError):
    """Configuration problem: maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation needs, fully resolved."""

    command: str
    params: HybridParams
    solver: SolverConfig
    out_dir: str
    formats: tuple[str, ...]
    fast: bool
    mode: str
    values: tuple[float, ...] | None
    mu_relative: float | None
    p_list: tuple[float, ...] | None
    mustar_pairs: tuple[tuple[float, float], ...] | None


# --------------------------------------------------------------------------
# configuration assembly


def _parse_floats(text, what: str) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        items = list(text)
    else:
        items = [s for s in str(text).split(",") if s.strip()]
    try:
        return tuple(float(x) for x in items)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"could not parse {what}: {exc}") from None


def _parse_pairs(text) -> tuple[tuple[float, float], ...]:
    if isinstance(text, (list, tuple)):
        chunks = [str(c) for c in text]
    else:
        chunks = [c for c in str(text).split(",") if c.strip()]
    pairs = []
    for chunk in chunks:
        halves = chunk.split(":")
        if len(halves) != 2:
            raise UsageError(f"pair {chunk!r} is not of the form p1:p2")
        try:
            pairs.append((float(halves[0]), float(halves[1])))
        except ValueError as exc:
            raise UsageError(f"could not parse pair {chunk!r}: {exc}") from None
    return tuple(pairs)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hybrid-nls",
        description="Ground states of two nonlinear planes coupled "
                    "through a point interaction.")
    ap.add_argument("command", nargs="?", choices=_COMMANDS,
                    help="solve | sweep | baseline | verify "
                         "(may also come from --config)")
    ap.add_argument("--config", help="flat JSON configuration file")
    for name in ("p1", "p2", "sigma1", "sigma2", "beta", "mu",
                 "R", "grading", "grad-tol", "mu-relative"):
        ap.add_argument(f"--{name}", type=float, default=None)
    for name in ("N", "max-iters"):
        ap.add_argument(f"--{name}", type=int, default=None)
    ap.add_argument("--starts", default=None,
                    help="comma-separated descent start weights")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--formats", default=None,
                    help="comma-separated subset of json,csv,svg")
    ap.add_argument("--fast", action="store_const", const=True, default=None,
                    help="verify on a shrunken grid (documented tolerances)")
    ap.add_argument("--mode", choices=analysis.SWEEP_MODES, default=None,
                    help="sweep parameter")
    ap.add_argument("--values", default=None,
                    help="comma-separated sweep values, strictly increasing")
    ap.add_argument("--p", default=None,
                    help="comma-separated powers for baseline")
    ap.add_argument("--mustar", default=None,
                    help="comma-separated p1:p2 pairs for baseline")
    return ap


def _merged_options(args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS)
    loaded = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"could not read config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a flat JSON object")
        known = set(vars(args)) - {"config"}  # the parser's destinations
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise UsageError("unknown config file keys: " + ", ".join(unknown))
        merged.update(loaded)
    on_cli = {k: v for k, v in vars(args).items()
              if v is not None and k != "config"}
    merged.update(on_cli)
    if not merged.get("command"):
        raise UsageError("no command given (argument or \"command\" in the "
                         "config file); expected one of " + ", ".join(_COMMANDS))
    if merged["command"] not in _COMMANDS:
        raise UsageError(f"unknown command {merged['command']!r}")
    unread = sorted((set(loaded) | set(on_cli))
                    - {"command", *_READS[merged["command"]]})
    if unread:
        flags = ", ".join("--" + k.replace("_", "-") for k in unread)
        raise UsageError(f"{merged['command']} does not read {flags}")
    return merged


def _resolve(merged: dict) -> RunConfig:
    overrides = {key: merged[key] for key in _SOLVER_KEYS
                 if merged.get(key) is not None}
    if "starts" in overrides:
        overrides["starts"] = _parse_floats(merged["starts"], "--starts")
    try:
        solver = dataclasses.replace(SolverConfig(), **overrides)
        params = HybridParams(merged["p1"], merged["p2"], merged["sigma1"],
                              merged["sigma2"], merged["beta"], merged["mu"])
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from None

    fmts = merged["formats"]
    fmts = tuple(f for f in (fmts if isinstance(fmts, (list, tuple))
                             else str(fmts).split(",")) if f)
    bad = set(fmts) - set(_FORMATS)
    if bad:
        raise UsageError(f"unknown formats {sorted(bad)}; "
                         f"choose from {','.join(_FORMATS)}")

    out_dir = merged.get("out") or os.environ.get("HYBRID_NLS_OUT") or "."

    values = None
    if merged.get("values") is not None:
        values = _parse_floats(merged["values"], "--values")
    p_list = None
    if merged.get("p") is not None:
        p_list = _parse_floats(merged["p"], "--p")
    pairs = None
    if merged.get("mustar") is not None:
        pairs = _parse_pairs(merged["mustar"])

    return RunConfig(
        command=merged["command"], params=params, solver=solver,
        out_dir=out_dir, formats=fmts, fast=bool(merged["fast"]),
        mode=merged["mode"], values=values,
        mu_relative=merged.get("mu_relative"), p_list=p_list,
        mustar_pairs=pairs)


# --------------------------------------------------------------------------
# output helpers


def _write_json(rc: RunConfig, name: str, payload: dict) -> None:
    path = os.path.join(rc.out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(rc: RunConfig, name: str, header: list[str],
               rows: list[list]) -> None:
    path = os.path.join(rc.out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                f"{v:.17g}" if isinstance(v, float) else str(v)
                for v in row) + "\n")


def _write_svg(rc: RunConfig, name: str, svg_text: str) -> None:
    with open(os.path.join(rc.out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(svg_text)


def _params_dict(P: HybridParams) -> dict:
    return dataclasses.asdict(P)


def _solver_dict(cfg: SolverConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["starts"] = list(d["starts"])
    return d


def _mass_carrier(r: GroundStateReport, mu: float) -> str:
    if r.mass2 <= 1e-6 * mu:
        return "plane1"
    if r.mass1 <= 1e-6 * mu:
        return "plane2"
    return "both"


# --------------------------------------------------------------------------
# commands


def _apply_mu_relative(rc: RunConfig) -> RunConfig:
    """Rescale the target mass to a multiple of the critical mass."""
    if rc.mu_relative is None:
        return rc
    if not 0.0 < rc.mu_relative < math.inf:
        raise UsageError(f"--mu-relative must be finite and > 0, got {rc.mu_relative}")
    if rc.command == "sweep" and rc.mode == "mu":
        raise UsageError("--mu-relative cannot combine with a mass sweep; "
                         "give absolute --values instead")
    P = rc.params
    try:
        analysis.check_critical_pair(P.p1, P.p2)
    except ValueError as exc:
        raise UsageError(f"--mu-relative: {exc}") from None
    mustar = analysis.critical_mass(P.p1, P.p2, rc.solver)
    return dataclasses.replace(
        rc, params=dataclasses.replace(P, mu=rc.mu_relative * mustar))


def cmd_solve(rc: RunConfig) -> int:
    rc = _apply_mu_relative(rc)
    report = solve_hybrid(rc.params, rc.solver)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "solve",
        "params": _params_dict(rc.params),
        "solver": _solver_dict(rc.solver),
        "mass_carrier": _mass_carrier(report, rc.params.mu),
        **report.as_dict(),
    }
    if "json" in rc.formats:
        _write_json(rc, "report.json", payload)
    U = report.state
    grid = U.grid
    t1 = total_field(U.u1).values
    t2 = total_field(U.u2).values
    inner = slice(1, grid.n_nodes - 1)  # origin kernel value is singular
    if "csv" in rc.formats:
        rows = [[float(r), float(a), float(b), float(c), float(d)]
                for r, a, b, c, d in zip(
                    grid.r[inner], t1[inner], t2[inner],
                    U.u1.phi.values[inner], U.u2.phi.values[inner])]
        _write_csv(rc, "profiles.csv", ["r", "u1", "u2", "phi1", "phi2"], rows)
    if "svg" in rc.formats:
        svg = _svgplot.render_lines(
            [("plane 1", grid.r[inner], t1[inner]),
             ("plane 2", grid.r[inner], t2[inner])],
            title=(f"ground-state profiles  p=({rc.params.p1:g},{rc.params.p2:g})"
                   f"  sigma=({rc.params.sigma1:g},{rc.params.sigma2:g})"
                   f"  beta={rc.params.beta:g}  mu={rc.params.mu:g}"),
            xlabel="r", ylabel="u(r)", ylog=True)
        _write_svg(rc, "profiles.svg", svg)
    print(f"energy {report.energy:.12g}  mass ({report.mass1:.6g}, "
          f"{report.mass2:.6g})  charges ({report.q1:.6g}, {report.q2:.6g})  "
          f"omega {report.omega:.6g}  converged {report.converged}")
    return 0 if report.converged else 1


def cmd_sweep(rc: RunConfig) -> int:
    try:
        # every row is checked at the given mass, which --mu-relative
        # only rescales, before its critical-mass solves run
        values = tuple(analysis.sweep_params(rc.params, rc.mode,
                                             rc.values or ()))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rc = _apply_mu_relative(rc)
    try:
        table = analysis.sweep(rc.params, rc.mode, values, rc.solver)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = table.as_rows()
    verdicts = table.verdicts()
    if "csv" in rc.formats:
        _write_csv(rc, "sweep.csv", list(table.COLUMNS),
                   [[r[c] for c in table.COLUMNS] for r in rows])
    if "json" in rc.formats:
        _write_json(rc, "summary.json", {
            "schema_version": SCHEMA_VERSION,
            "command": "sweep",
            "mode": rc.mode,
            "params": _params_dict(rc.params),
            "solver": _solver_dict(rc.solver),
            "values": list(values),
            "rows": rows,
            "references": table.references,
            "verdicts": verdicts,
            "errors": list(table.errors),
        })
    if "svg" in rc.formats and table.rows:
        xs = [r.value for r in table.rows]
        mus = [table.mass_of(r) for r in table.rows]
        svg = _svgplot.render_lines(
            [("plane-1 fraction", xs, [r.mass1 / m for r, m in zip(table.rows, mus)]),
             ("plane-2 fraction", xs, [r.mass2 / m for r, m in zip(table.rows, mus)])],
            title=f"mass split along {rc.mode}", xlabel=rc.mode,
            ylabel="mass fraction")
        _write_svg(rc, "sweep.svg", svg)

    for r in table.rows:
        print(f"{rc.mode}={r.value:g}: energy {r.energy:.9g}  "
              f"mass1 {r.mass1:.6g}  mass2 {r.mass2:.6g}  "
              f"converged {r.converged}")
    for e in table.errors:
        print(f"row {e['value']}: failed: {e['error']}", file=sys.stderr)
    return 0 if verdicts["all_converged"] and not table.errors else 1


def cmd_baseline(rc: RunConfig) -> int:
    if not rc.p_list and not rc.mustar_pairs:
        raise UsageError("baseline needs --p and/or --mustar")
    try:  # every power and pair, before the first solve
        for p in rc.p_list or ():
            check_power(p)
        for p1, p2 in rc.mustar_pairs or ():
            analysis.check_critical_pair(p1, p2)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "baseline",
        "solver": _solver_dict(rc.solver),
        "rho": {},
        "reference_mass": {},
        "scaling": {},
        "mu_star": {},
    }
    for p in rc.p_list or ():
        detail = analysis.rho_detail(p, rc.solver)
        key = f"{p:g}"
        payload["rho"][key] = detail.value
        payload["reference_mass"][key] = detail.reference_mass
        mus = [f * detail.reference_mass for f in (0.5, 1.0, 2.0, 4.0)]
        energies = [solve_planar(p, m, rc.solver).energy for m in mus]
        slope = float(np.polyfit(np.log(mus),
                                 np.log(np.abs(energies)), 1)[0])
        expected = 2.0 / (4.0 - p)
        payload["scaling"][key] = {
            "fitted_exponent": slope,
            "expected_exponent": expected,
            "rel_err": abs(slope - expected) / expected,
        }
    for p1, p2 in rc.mustar_pairs or ():
        mustar = analysis.critical_mass(p1, p2, rc.solver)
        r1 = analysis.rho(p1, rc.solver)
        r2 = analysis.rho(p2, rc.solver)
        e1 = -r1 * mustar ** (2.0 / (4.0 - p1))
        e2 = -r2 * mustar ** (2.0 / (4.0 - p2))
        gap = abs(e1 - e2) / max(abs(e1), abs(e2))
        payload["mu_star"][f"{p1:g}:{p2:g}"] = {
            "value": mustar,
            "endpoint_energies": [e1, e2],
            "root_rel_gap": gap,
            "root_property_ok": gap <= 1e-6,
        }
    if "json" in rc.formats:
        _write_json(rc, "baseline.json", payload)
    for key, val in payload["rho"].items():
        print(f"rho({key}) = {val:.9e}  (reference mass "
              f"{payload['reference_mass'][key]:g}, scaling exponent "
              f"{payload['scaling'][key]['fitted_exponent']:.5f})")
    for key, entry in payload["mu_star"].items():
        print(f"mu*({key}) = {entry['value']:.6g}  root gap "
              f"{entry['root_rel_gap']:.2e}")
    bad_fit = any(s["rel_err"] > 0.02 for s in payload["scaling"].values())
    bad_root = any(not e["root_property_ok"]
                   for e in payload["mu_star"].values())
    return 1 if (bad_fit or bad_root) else 0


def cmd_verify(rc: RunConfig) -> int:
    report = run_suite(fast=rc.fast)
    for line in report.lines():
        print(line)
    if "json" in rc.formats:
        _write_json(rc, "verify.json",
                    {"schema_version": SCHEMA_VERSION, "command": "verify",
                     **report.as_dict()})
    if report.all_passed:
        return 0
    print("failed criteria: "
          + ", ".join(str(n) for n in report.failed_numbers), file=sys.stderr)
    return 1


# --------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = _resolve(_merged_options(args))
        os.makedirs(rc.out_dir, exist_ok=True)
        handler = {"solve": cmd_solve, "sweep": cmd_sweep,
                   "baseline": cmd_baseline, "verify": cmd_verify}[rc.command]
        return handler(rc)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
