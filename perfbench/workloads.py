"""Operations of the three workloads and the oracle that checks them.

An operation is one public library call (``warm_solves``, ``fine_hard``)
or one ``hybrid-nls`` command in a fresh process (``cold_cli``).  Inputs
come only from the workload seed; the solver sees nothing else.  The
oracle turns each result into a list of failure reasons, empty when the
operation passed.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("warm_solves", "fine_hard", "cold_cli")

#: criterion 10's cap on the stationary-equation residual
EL_RESIDUAL_CAP = 1e-2
#: the solvers' own final mass check (solver._build_report)
MASS_REL_TOL = 1e-10
#: Relative energy tolerance against the recorded reference.  The energy
#: error at a stationary point is quadratic in the stopping gradient, so
#: grad_tol = 1e-6 pins it far below 1e-6: tightening grad_tol to 1e-8
#: moved the converged energies of the warm pool and of fine_hard by at
#: most 5e-10 relative.  1e-6 leaves that much headroom for another
#: descent path, yet flags a different local minimum or a change of the
#: discretization (N 2048 -> 8192 moves the default energy by 8e-6).
ENERGY_REL_TOL = 1e-6

#: a plane holding at most this share of the mass counts as empty
NEAR_EMPTY = 1e-9


#: README library example: HybridParams(3, 3, 0, 1, 1, 1)
DEFAULT_PARAMS = (3.0, 3.0, 0.0, 1.0, 1.0, 1.0)
#: 2 * critical_mass(2.5, 3.5) at the default grid (22.4264265...)
MU_TWICE_CRITICAL = 44.8529

#: warm_solves draws from one fixed pool: the first WARM_REFERENCE_OPS
#: operations of warm_ops(WARM_POOL_SEED), every one of which
#: reference.json covers
WARM_POOL_SEED = 0
WARM_REFERENCE_OPS = 640
WARM_KINDS = ("hybrid_beta", "hybrid_beta0", "single", "planar")

#: Rotations per second of ``--seconds``.  A run does a fixed amount of
#: work, so two runs with the same arguments attempt the same operations
#: and meet the same failures; these rates (measured on a 2-CPU host)
#: make a run last about ``--seconds``.
ROTATIONS_PER_S = {"warm_solves": 4.0, "fine_hard": 0.36, "cold_cli": 0.12}


def rotation_count(workload: str, seconds: float, trace: bool) -> int:
    """Rotations a run makes.  A traced run replays each rotation traced
    right after its untraced run, so it makes half as many."""
    count = round(seconds * ROTATIONS_PER_S[workload] / (2 if trace else 1))
    return max(count, 1)


@dataclass(frozen=True)
class LibOp:
    """One in-process call: ``fn`` is a public name of ``hybrid_nls``."""

    kind: str
    fn: str
    args: tuple
    N: int = 2048
    grading: float = 1.01

    @property
    def key(self) -> str:
        args = ",".join(repr(a) for a in self.args)
        return f"{self.fn}({args});N={self.N};g={self.grading!r}"

    @property
    def mu(self) -> float:
        return self.args[-1]


@dataclass(frozen=True)
class CliOp:
    """One ``hybrid-nls`` command; ``argv`` excludes ``--out``."""

    kind: str
    argv: tuple
    expect_exit: int
    outputs: tuple

    @property
    def key(self) -> str:
        return "cli " + " ".join(self.argv)


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def warm_ops(seed: int, N: int = 2048):
    """Endless seeded draw over p in [2.5, 3.5], sigma in [-0.5, 2],
    beta in {0} u [0.25, 2], mu in [0.5, 2], rotating through four calls.
    Every operation is a fresh draw, so a run averages over hundreds of
    parameter sets."""
    rng = random.Random(seed)
    while True:
        for kind in WARM_KINDS:
            p1, p2 = _u(rng, 2.5, 3.5), _u(rng, 2.5, 3.5)
            s1, s2 = _u(rng, -0.5, 2.0), _u(rng, -0.5, 2.0)
            beta = _u(rng, 0.25, 2.0)
            mu = _u(rng, 0.5, 2.0)
            if kind == "hybrid_beta":
                yield LibOp(kind, "solve_hybrid", (p1, p2, s1, s2, beta, mu), N)
            elif kind == "hybrid_beta0":
                yield LibOp(kind, "solve_hybrid", (p1, p2, s1, s2, 0.0, mu), N)
            elif kind == "single":
                yield LibOp(kind, "solve_single", (p1, s1, mu), N)
            else:
                yield LibOp(kind, "solve_planar", (p1, mu), N)


def fine_cases(scale: int = 1) -> list[LibOp]:
    """Large arrays and long descents; ``scale`` divides every N (smoke)."""
    d = DEFAULT_PARAMS
    hard = (2.5, 3.5, 6.0, 6.0, 1.0, MU_TWICE_CRITICAL)
    n = lambda N: max(N // scale, 128)  # noqa: E731
    return [
        # grading pulled toward 1 as refine_config does per doubling
        LibOp("n8192_refined", "solve_hybrid", d, n(8192), 1.0025),
        LibOp("n32768_refined", "solve_hybrid", d, n(32768), 1.000625),
        LibOp("single_n32768_refined", "solve_single", (3.0, 0.0, 1.0),
              n(32768), 1.000625),
        LibOp("sigma6_n2048", "solve_hybrid", hard, n(2048), 1.01),
        LibOp("sigma6_n8192", "solve_hybrid", hard, n(8192), 1.0025),
        LibOp("sigma200", "solve_hybrid", (3.0, 3.0, 200.0, 200.0, 0.5, 1.0),
              n(2048), 1.01),
        # what `--N 8192` gives a user: the default grading 1.01
        LibOp("n8192_g1.01", "solve_hybrid", d, n(8192), 1.01),
    ]


def warm_pool(N: int = 2048) -> list[list[LibOp]]:
    """The fixed warm_solves pool, as rotations of the four calls."""
    ops = warm_ops(WARM_POOL_SEED, N)
    return [[next(ops) for _ in WARM_KINDS]
            for _ in range(WARM_REFERENCE_OPS // len(WARM_KINDS))]


def _ordered(rotations: list[list], count: int, seed: int) -> list[list]:
    """``count`` rotations, cycling through ``rotations`` in order; the
    seed shuffles the order of the rotations and of the operations inside
    each, never which operations run."""
    rng = random.Random(seed)
    chosen = [list(rotations[i % len(rotations)]) for i in range(count)]
    rng.shuffle(chosen)
    for rot in chosen:
        rng.shuffle(rot)
    return chosen


def lib_rotations(workload: str, seed: int, count: int,
                  smoke: bool = False) -> list[list[LibOp]]:
    """The rotations (lists of ops) of one in-process run."""
    if workload == "warm_solves":
        return _ordered(warm_pool(512 if smoke else 2048), count, seed)
    return _ordered([fine_cases(16 if smoke else 1)], count, seed)


SWEEP_VALUES = "1,2,3,4,5,6,7,8"


def cli_ops(smoke: bool = False) -> list[CliOp]:
    """The README's commands, one op each."""
    solve = ("solve", "--p1", "3", "--p2", "3", "--sigma1", "0", "--sigma2",
             "1", "--beta", "1", "--mu", "1", "--formats", "json,csv,svg")
    sweep = ("sweep", "--mode", "sigma2", "--p1", "3", "--p2", "3",
             "--sigma1", "0", "--beta", "0.0625", "--mu", "1",
             "--values", SWEEP_VALUES, "--N", "8192", "--grading", "1.0025")
    baseline = ("baseline", "--p", "2.5,3,3.5", "--mustar", "2.5:3.5")
    if smoke:
        small = ("--N", "256")
        return [
            CliOp("solve", solve + small, 0,
                  ("report.json", "profiles.csv", "profiles.svg")),
            CliOp("verify_fast", ("verify", "--fast"), 1, ("verify.json",)),
        ]
    return [
        CliOp("solve", solve, 0, ("report.json", "profiles.csv", "profiles.svg")),
        CliOp("sweep", sweep, 0, ("summary.json", "sweep.csv")),
        CliOp("baseline", baseline, 0, ("baseline.json",)),
        CliOp("verify_fast", ("verify", "--fast"), 1, ("verify.json",)),
        CliOp("verify", ("verify",), 1, ("verify.json",)),
    ]


def cli_rotations(seed: int, count: int, smoke: bool = False) -> list[list[CliOp]]:
    return _ordered([cli_ops(smoke)], count, seed)


# --------------------------------------------------------------------------
# oracle


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text())["energies"]


def _energy_reason(label: str, value: float, ref: float | None) -> list[str]:
    if ref is None:
        return []
    if not abs(value - ref) <= ENERGY_REL_TOL * abs(ref):
        return [f"{label} {value!r} differs from reference {ref!r} "
                f"by more than {ENERGY_REL_TOL:g} relative"]
    return []


def check_solution(energy: float, mass1: float, mass2: float, converged: bool,
                   el_residual: float | None, mu: float,
                   ref: float | None) -> list[str]:
    """Failure reasons for one ground-state result (empty when it passed);
    ``el_residual`` is None where the output does not report it."""
    reasons = []
    if not converged:
        reasons.append("converged=False")
    if not abs(mass1 + mass2 - mu) <= MASS_REL_TOL * mu:
        reasons.append(f"mass1+mass2={mass1 + mass2!r} misses mu={mu!r}")
    if el_residual is not None and not el_residual <= EL_RESIDUAL_CAP:
        reasons.append(f"el_residual {el_residual:.3g} > {EL_RESIDUAL_CAP:g}")
    return reasons + _energy_reason("energy", energy, ref)


def check_report(op: LibOp, report, refs: dict) -> list[str]:
    return check_solution(report.energy, report.mass1, report.mass2,
                          report.converged, report.el_residual, op.mu,
                          refs.get(op.key))


def cli_values(op: CliOp, out: Path) -> dict:
    """Numbers a CLI command wrote that have a reference (for recording)."""
    if op.kind == "solve":
        rep = json.loads((out / "report.json").read_text())
        return {f"{op.key} :energy": rep["energy"]}
    if op.kind == "sweep":
        rows = json.loads((out / "summary.json").read_text())["rows"]
        return {f"{op.key} :energy[{r['value']:g}]": r["energy"] for r in rows}
    if op.kind == "baseline":
        base = json.loads((out / "baseline.json").read_text())
        vals = {f"{op.key} :rho[{k}]": v for k, v in base["rho"].items()}
        vals.update({f"{op.key} :mu_star[{k}]": e["value"]
                     for k, e in base["mu_star"].items()})
        return vals
    return {}


def check_cli(op: CliOp, exit_code: int, out: Path, refs: dict) -> list[str]:
    """Failure reasons for one CLI command from its exit code and files."""
    reasons = []
    if exit_code != op.expect_exit:
        reasons.append(f"exit code {exit_code}, expected {op.expect_exit}")
    missing = [name for name in op.outputs if not (out / name).is_file()]
    if missing:
        return reasons + [f"missing output {', '.join(missing)}"]
    try:
        reasons += _check_cli_files(op, out, refs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reasons.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return reasons


def _check_cli_files(op: CliOp, out: Path, refs: dict) -> list[str]:
    reasons = []
    if op.kind == "solve":
        rep = json.loads((out / "report.json").read_text())
        reasons += check_solution(rep["energy"], rep["mass1"], rep["mass2"],
                                  rep["converged"], rep["el_residual"],
                                  rep["params"]["mu"], None)
        with open(out / "profiles.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["r", "u1", "u2", "phi1", "phi2"] or len(rows) < 3:
            reasons.append("profiles.csv has no profile rows")
        if "<svg" not in (out / "profiles.svg").read_text()[:200]:
            reasons.append("profiles.svg is not an SVG document")
    elif op.kind == "sweep":
        summary = json.loads((out / "summary.json").read_text())
        rows = summary["rows"]
        if len(rows) != len(SWEEP_VALUES.split(",")) or summary["errors"]:
            reasons.append(f"sweep has {len(rows)} rows, errors {summary['errors']}")
        for r in rows:
            for why in check_solution(r["energy"], r["mass1"], r["mass2"],
                                      r["converged"], None, summary["params"]["mu"],
                                      None):
                reasons.append(f"row {r['value']:g}: {why}")
    elif op.kind == "baseline":
        base = json.loads((out / "baseline.json").read_text())
        for k, e in base["mu_star"].items():
            if not e["root_property_ok"]:
                reasons.append(f"mu_star {k}: root gap {e['root_rel_gap']:.2e}")
    else:
        report = json.loads((out / "verify.json").read_text())
        failed = sorted(r["number"] for r in report["results"] if not r["passed"])
        if len(report["results"]) != 14 or failed != [8]:
            reasons.append(f"{len(report['results'])} criteria, failed {failed}; "
                           "expected 14 with exactly {8} failing")
    for label, value in cli_values(op, out).items():
        reasons += _energy_reason(label.split(" :")[1], value, refs.get(label))
    return reasons


def known_defect(kind: str, reasons: list[str], mass1: float, mass2: float,
                 mu: float) -> str | None:
    """Name the known solver defect behind a failure, or None.

    Such failures still count as failed; only a failure no known defect
    explains makes a run incorrect.
    """
    if not reasons:
        return None
    if (all(r.startswith("el_residual") for r in reasons)
            and min(mass1, mass2) <= NEAR_EMPTY * mu):
        return ("near-empty plane: el_residual is not weighted by the "
                "plane's mass")
    if kind == "n8192_g1.01" and all(
            r.startswith(("converged=False", "el_residual")) for r in reasons):
        return "grading 1.01 at N=8192 over-grades the mesh; descent stalls"
    return None
