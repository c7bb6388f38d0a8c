"""Command-line front end: solve, sweep, baseline, and verify.

Each command is a subparser that holds exactly the options it reads, so
``hybrid-nls <command> --help`` lists them and any other one is a usage
error.  An optional flat JSON file (``--config``) is read as flags: its
entries become ``--key=value`` tokens placed after the command and
before the command-line flags, so one parser reads both and the flags
win.  Exit codes are uniform across commands: 0 success, 1 numeric
failure (an uncertified state, failed sweep rows, failed verification
criteria), 2 usage or configuration error, which includes an output
path that cannot be made or written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import _svgplot, analysis
from .energy import HybridParams, check_power, total_field
from .solver import GroundStateReport, SolverConfig, solve_hybrid, solve_planar
from .verify import run_suite

__all__ = ["main", "cmd_solve", "cmd_sweep", "cmd_baseline", "cmd_verify"]

SCHEMA_VERSION = 5

_FORMATS = ("json", "csv", "svg")
#: config-file entries whose JSON list is read as the flag's comma text
_LIST_KEYS = ("starts", "values", "p", "mustar", "formats")
#: config-file entries that must hold text
_TEXT_KEYS = ("out", "mode", "formats")
#: the file each command writes per format; a format missing here
#: writes nothing for that command
_OUTPUTS = {
    "solve": {"json": "report.json", "csv": "profiles.csv",
              "svg": "profiles.svg"},
    "sweep": {"json": "summary.json", "csv": "sweep.csv", "svg": "sweep.svg"},
    "baseline": {"json": "baseline.json"},
    "verify": {"json": "verify.json"},
}


class UsageError(ValueError):
    """Configuration problem: maps to exit code 2."""


# --------------------------------------------------------------------------
# configuration assembly


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError (exit code 2)."""

    def error(self, message):
        raise UsageError(f"{message} (see {self.prog} --help)")


def _floats(text: str) -> tuple[float, ...]:
    """Comma text as numbers: "0.1,0.5" -> (0.1, 0.5)."""
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _pairs(text: str) -> tuple[tuple[float, float], ...]:
    """Comma text of p1:p2 pairs: "2.5:3.5" -> ((2.5, 3.5),)."""
    pairs = []
    for chunk in (c for c in text.split(",") if c.strip()):
        halves = chunk.split(":")
        if len(halves) != 2:
            raise argparse.ArgumentTypeError(
                f"pair {chunk!r} is not of the form p1:p2")
        try:
            pairs.append((float(halves[0]), float(halves[1])))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"could not parse pair {chunk!r}: {exc}") from None
    return tuple(pairs)


def _formats(text: str) -> tuple[str, ...]:
    fmts = tuple(f for f in text.split(",") if f)
    bad = set(fmts) - set(_FORMATS)
    if bad:
        raise argparse.ArgumentTypeError(
            f"unknown formats {sorted(bad)}; choose from {','.join(_FORMATS)}")
    return fmts


def _build_parsers() -> tuple[_Parser, _Parser]:
    """The ``--config`` pre-parser and the parser of one command line."""
    config = _Parser(prog="hybrid-nls", add_help=False, allow_abbrev=False)
    config.add_argument("--config", help="flat JSON file of options; "
                        "the command's flags override its entries")
    output, solver, model = (argparse.ArgumentParser(add_help=False)
                             for _ in range(3))
    output.add_argument("--out", help="output directory")
    output.add_argument("--formats", type=_formats, default="json,csv",
                        help="comma-separated subset of json,csv,svg")
    for f in dataclasses.fields(SolverConfig):  # typed as their defaults
        kind = ({"type": _floats, "help": "comma-separated descent start "
                 "weights"} if f.name == "starts" else {"type": type(f.default)})
        solver.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                            **kind)
    for f, default in zip(dataclasses.fields(HybridParams),
                          (3.0, 3.0, 0.0, 0.0, 1.0, 1.0)):
        model.add_argument(f"--{f.name}", type=float, default=default)
    model.add_argument("--mu-relative", type=float,
                       help="target mass as a multiple of the critical mass")

    ap = _Parser(prog="hybrid-nls", parents=[config], allow_abbrev=False,
                 description="Ground states of two nonlinear planes coupled "
                             "through a point interaction.")
    commands = ap.add_subparsers(dest="command", required=True)
    add = functools.partial(commands.add_parser, allow_abbrev=False)
    add("solve", parents=[model, solver, output], help="one ground state")
    sweep = add("sweep", parents=[model, solver, output],
                help="ground states along one parameter")
    sweep.add_argument("--mode", choices=analysis.SWEEP_MODES,
                       default="sigma2", help="sweep parameter")
    sweep.add_argument("--values", type=_floats,
                       help="comma-separated sweep values, strictly increasing")
    baseline = add("baseline", parents=[solver, output],
                   help="free-plane coefficients and critical masses")
    baseline.add_argument("--p", type=_floats,
                          help="comma-separated powers")
    baseline.add_argument("--mustar", type=_pairs,
                          help="comma-separated p1:p2 pairs")
    verify = add("verify", parents=[output],
                 help="the fourteen verification criteria")
    verify.add_argument("--fast", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="verify on a shrunken grid (documented tolerances)")
    return config, ap


def _config_tokens(path: str) -> tuple[str | None, list[str]]:
    """A config file's ``"command"`` and its other entries as flags.

    A number or string becomes ``--key=value``; a list, for _LIST_KEYS
    only, its comma text; ``fast`` true or false ``--fast`` or
    ``--no-fast``.  _TEXT_KEYS take strings only.  Any other value is
    refused, naming its flag.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"could not read config file: {exc}") from None
    if not isinstance(entries, dict):
        raise UsageError("config file must hold a flat JSON object")
    command = entries.pop("command", None)
    tokens = []
    for key, value in entries.items():
        flag = "--" + key.replace("_", "-")
        if key == "fast" and isinstance(value, bool):
            tokens.append(flag if value else "--no-fast")
            continue
        if key in _LIST_KEYS and isinstance(value, list):
            value = ",".join(map(str, value))
        kinds = str if key in _TEXT_KEYS else (str, int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise UsageError(f"config file: {flag} cannot be {value!r}")
        tokens.append(f"{flag}={value}")
    return command, tokens


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Read the command line, and the config file it names, as one."""
    config, parser = _build_parsers()
    known, rest = config.parse_known_args(argv)
    first = rest[0] if rest else ""
    if known.config is not None:
        command, tokens = _config_tokens(known.config)
        if first and not first.startswith("-"):
            command, rest = first, rest[1:]
        rest = [str(command), *tokens, *rest] if command else tokens + rest
    elif first.startswith("-") and first not in ("-h", "--help"):
        raise UsageError(f"{first}: options follow the command "
                         "(see hybrid-nls --help)")
    args, unread = parser.parse_known_args(rest)
    if unread:
        raise UsageError(f"unrecognized arguments: {' '.join(unread)} "
                         f"(see hybrid-nls {args.command} --help)")
    return args


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Add the library's objects to the parsed options and make ``out``.

    ``args.solver`` is a SolverConfig, ``args.params`` (for commands
    with ``--mu``) a HybridParams, and ``args.out`` the directory from
    ``--out``, then ``HYBRID_NLS_OUT``, then ``.``.  Every file the
    command will write is opened for appending here, so an output that
    cannot be written is a usage error before any computation; a file
    that did not exist is removed again.
    """
    opts = vars(args)
    try:
        args.solver = SolverConfig(**{f.name: opts[f.name] for f in
                                      dataclasses.fields(SolverConfig)
                                      if f.name in opts})
        if "mu" in opts:
            args.params = HybridParams(**{f.name: opts[f.name] for f in
                                          dataclasses.fields(HybridParams)})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    args.out = args.out or os.environ.get("HYBRID_NLS_OUT") or "."
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {args.out!r}: "
                         f"{exc.strerror}") from None
    for fmt in args.formats:
        if fmt in _OUTPUTS[args.command]:
            path = _path(args, fmt)
            existed = os.path.lexists(path)
            _put(path, "a", "")
            if not existed:
                os.remove(path)
    return args


# --------------------------------------------------------------------------
# output helpers


def _path(args: argparse.Namespace, fmt: str) -> str:
    return os.path.join(args.out, _OUTPUTS[args.command][fmt])


def _put(path: str, mode: str, text: str, newline: str | None = None) -> None:
    try:
        with open(path, mode, encoding="utf-8", newline=newline) as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _write(args: argparse.Namespace, fmt: str, text: str,
           newline: str | None = None) -> None:
    _put(_path(args, fmt), "w", text, newline)


def _write_json(args: argparse.Namespace, payload: dict) -> None:
    """Write ``payload`` under the format tag and the command's name."""
    payload = {"schema_version": SCHEMA_VERSION, "command": args.command,
               **payload}
    _write(args, "json", json.dumps(payload, indent=2, sort_keys=True,
                                    allow_nan=False) + "\n")


def _write_csv(args: argparse.Namespace, header: list[str],
               rows: list[list]) -> None:
    lines = [",".join(header)] + [
        ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
        for row in rows]
    _write(args, "csv", "".join(line + "\n" for line in lines), newline="")


def _mass_carrier(r: GroundStateReport, mu: float) -> str:
    if r.mass2 <= 1e-6 * mu:
        return "plane1"
    if r.mass1 <= 1e-6 * mu:
        return "plane2"
    return "both"


# --------------------------------------------------------------------------
# commands


def _apply_mu_relative(args: argparse.Namespace) -> HybridParams:
    """The model with its mass rescaled to ``--mu-relative`` times the
    critical mass, or as given without that flag."""
    P, rel = args.params, args.mu_relative
    if rel is None:
        return P
    if not 0.0 < rel < math.inf:
        raise UsageError(f"--mu-relative must be finite and > 0, got {rel}")
    if args.command == "sweep" and args.mode == "mu":
        raise UsageError("--mu-relative cannot combine with a mass sweep; "
                         "give absolute --values instead")
    try:
        analysis.check_critical_pair(P.p1, P.p2)
    except ValueError as exc:
        raise UsageError(f"--mu-relative: {exc}") from None
    mustar = analysis.critical_mass(P.p1, P.p2, args.solver)
    return dataclasses.replace(P, mu=rel * mustar)


def cmd_solve(args: argparse.Namespace) -> int:
    P = _apply_mu_relative(args)
    report = solve_hybrid(P, args.solver)
    payload = {
        "params": dataclasses.asdict(P),
        "solver": dataclasses.asdict(args.solver),
        "mass_carrier": _mass_carrier(report, P.mu),
        **report.as_dict(),
    }
    if "json" in args.formats:
        _write_json(args, payload)
    U = report.state
    grid = U.grid
    t1 = total_field(U.u1).values
    t2 = total_field(U.u2).values
    inner = slice(1, grid.n_nodes - 1)  # origin kernel value is singular
    if "csv" in args.formats:
        rows = [[float(r), float(a), float(b), float(c), float(d)]
                for r, a, b, c, d in zip(
                    grid.r[inner], t1[inner], t2[inner],
                    U.u1.phi.values[inner], U.u2.phi.values[inner])]
        _write_csv(args, ["r", "u1", "u2", "phi1", "phi2"], rows)
    if "svg" in args.formats:
        svg = _svgplot.render_lines(
            [("plane 1", grid.r[inner], t1[inner]),
             ("plane 2", grid.r[inner], t2[inner])],
            title=(f"ground-state profiles  p=({P.p1:g},{P.p2:g})"
                   f"  sigma=({P.sigma1:g},{P.sigma2:g})"
                   f"  beta={P.beta:g}  mu={P.mu:g}"),
            xlabel="r", ylabel="u(r)", ylog=True)
        _write(args, "svg", svg)
    print(f"energy {report.energy:.12g}  mass ({report.mass1:.6g}, "
          f"{report.mass2:.6g})  charges ({report.q1:.6g}, {report.q2:.6g})  "
          f"omega {report.omega:.6g}  converged {report.converged}  "
          f"certified {report.certificate.certified}")
    return 0 if report.certificate.certified else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        # every row is checked at the given mass, which --mu-relative
        # only rescales, before its critical-mass solves run
        values = tuple(analysis.sweep_params(args.params, args.mode,
                                             args.values or ()))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    P = _apply_mu_relative(args)
    try:
        table = analysis.sweep(P, args.mode, values, args.solver)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = table.as_rows()
    verdicts = table.verdicts()
    if "csv" in args.formats:
        _write_csv(args, list(table.COLUMNS),
                   [[r[c] for c in table.COLUMNS] for r in rows])
    if "json" in args.formats:
        _write_json(args, {
            "mode": args.mode,
            "params": dataclasses.asdict(P),
            "solver": dataclasses.asdict(args.solver),
            "values": list(values),
            "rows": rows,
            "references": table.references,
            "verdicts": verdicts,
            "errors": list(table.errors),
        })
    if "svg" in args.formats and table.rows:
        xs = [r.value for r in table.rows]
        mus = [table.mass_of(r) for r in table.rows]
        svg = _svgplot.render_lines(
            [("plane-1 fraction", xs, [r.mass1 / m for r, m in zip(table.rows, mus)]),
             ("plane-2 fraction", xs, [r.mass2 / m for r, m in zip(table.rows, mus)])],
            title=f"mass split along {args.mode}", xlabel=args.mode,
            ylabel="mass fraction")
        _write(args, "svg", svg)

    for r in table.rows:
        print(f"{args.mode}={r.value:g}: energy {r.energy:.9g}  "
              f"mass1 {r.mass1:.6g}  mass2 {r.mass2:.6g}  "
              f"converged {r.converged}  certified {r.certified}")
    for e in table.errors:
        print(f"row {e['value']}: failed: {e['error']}", file=sys.stderr)
    return 0 if verdicts["all_certified"] and not table.errors else 1


def cmd_baseline(args: argparse.Namespace) -> int:
    powers, pairs, solver = args.p or (), args.mustar or (), args.solver
    if not powers and not pairs:
        raise UsageError("baseline needs --p and/or --mustar")
    try:  # every power and pair, before the first solve
        for p in powers:
            check_power(p)
        for p1, p2 in pairs:
            analysis.check_critical_pair(p1, p2)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload: dict = {
        "solver": dataclasses.asdict(solver),
        "rho": {},
        "reference_mass": {},
        "scaling": {},
        "mu_star": {},
    }
    for p in powers:
        detail = analysis.rho_detail(p, solver)
        key = f"{p:g}"
        payload["rho"][key] = detail.value
        payload["reference_mass"][key] = detail.reference_mass
        mus = [f * detail.reference_mass for f in (0.5, 1.0, 2.0, 4.0)]
        # rho's reference solve is the one at f = 1
        energies = [detail.energy if m == detail.reference_mass
                    else solve_planar(p, m, solver).energy for m in mus]
        slope = float(np.polyfit(np.log(mus),
                                 np.log(np.abs(energies)), 1)[0])
        expected = 2.0 / (4.0 - p)
        payload["scaling"][key] = {
            "fitted_exponent": slope,
            "expected_exponent": expected,
            "rel_err": abs(slope - expected) / expected,
        }
    for p1, p2 in pairs:
        mustar = analysis.critical_mass(p1, p2, solver)
        e1, e2 = (analysis.free_plane_energy(p, mustar, solver) for p in (p1, p2))
        gap = abs(e1 - e2) / max(abs(e1), abs(e2))
        payload["mu_star"][f"{p1:g}:{p2:g}"] = {
            "value": mustar,
            "endpoint_energies": [e1, e2],
            "root_rel_gap": gap,
            "root_property_ok": gap <= 1e-6,
        }
    if "json" in args.formats:
        _write_json(args, payload)
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


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(fast=args.fast)
    for line in report.lines():
        print(line)
    if "json" in args.formats:
        _write_json(args, report.as_dict())
    if report.all_passed:
        return 0
    print("failed criteria: "
          + ", ".join(str(n) for n in report.failed_numbers), file=sys.stderr)
    return 1


# --------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    try:
        args = _resolve(_parse(argv))
        handler = {"solve": cmd_solve, "sweep": cmd_sweep,
                   "baseline": cmd_baseline, "verify": cmd_verify}[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
