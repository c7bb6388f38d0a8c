"""Derived quantities built on top of the solvers.

Free-plane energy coefficients and the critical mass, parameter sweeps
toward the strong-interaction limits, and the radial monotonicity count
used by the verification suite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .energy import HybridParams, check_power
from .grid import RadialField
from .solver import (
    GroundStateReport,
    SolverConfig,
    solve_hybrid,
    solve_planar,
    solve_single,
)

__all__ = [
    "SweepRow",
    "SweepTable",
    "RhoDetail",
    "rho",
    "rho_detail",
    "free_plane_energy",
    "check_critical_pair",
    "critical_mass",
    "SWEEP_MODES",
    "sweep",
    "sweep_params",
    "monotone_radial_check",
]

# A free-plane profile whose decay rate drops below this value is wider
# than the default box can hold without visible truncation bias, so the
# reference solve moves to a larger mass where the state is compact; one
# whose rate its grid does not resolve (grid.RESOLUTION), to a smaller.
_RATE_FLOOR = 0.02
_RATE_TARGET = 0.3

#: the HybridParams fields each sweep mode sets to the swept value
_SWEPT_FIELDS = {"sigma2": ("sigma2",), "sigma_common": ("sigma1", "sigma2"),
                 "beta": ("beta",), "mu": ("mu",)}
SWEEP_MODES = tuple(_SWEPT_FIELDS)
#: what a row's solve or a reference may raise without ending the sweep
_SOLVE_ERRORS = (RuntimeError, ValueError, ArithmeticError)


@dataclass(frozen=True)
class SweepRow:
    """One solve of a parameter sweep: its report's numbers, its stop
    test and its certificate's verdict (a row built without one is not
    certified)."""

    value: float
    energy: float
    mass1: float
    mass2: float
    q1: float
    q2: float
    omega: float
    converged: bool
    certified: bool = False


@dataclass(frozen=True)
class SweepTable:
    """Ordered sweep results, the reference levels they approach, and the
    rows that failed (``{"value", "error"}`` records, in value order)."""

    parameter: str
    mu: float
    rows: tuple[SweepRow, ...]
    references: dict[str, float]
    errors: tuple[dict, ...] = ()

    COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))

    def __post_init__(self) -> None:
        vals = [row.value for row in self.rows]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep rows must be strictly increasing in value")
        for row in self.rows:
            mu = self.mass_of(row)
            if abs(row.mass1 + row.mass2 - mu) > 1e-8 * max(1.0, mu):
                raise ValueError("sweep row masses do not sum to the constraint")

    def mass_of(self, row: SweepRow) -> float:
        """The mass the row was solved at: its own value in a mass sweep."""
        return row.value if self.parameter == "mu" else self.mu

    def as_rows(self) -> list[dict]:
        return [dataclasses.asdict(row) for row in self.rows]

    def verdicts(self) -> dict[str, object]:
        """Trend and limit checks on the rows that solved.

        ``concentration`` and ``limit_proximity`` read the last row;
        ``limit_proximity`` compares its energy with the reference the
        sweep approaches (``single_plane_1`` for sigma2, the free-plane
        level of the concentration plane for sigma_common).  A beta
        sweep adds the sign and trend of the coupling gap
        ``uncoupled - energy``.
        """
        fracs = [row.mass1 / self.mass_of(row) for row in self.rows]
        out: dict[str, object] = {
            "mass1_fraction_monotone": _monotone(fracs),
            "all_converged": bool(self.rows) and all(r.converged for r in self.rows),
            "all_certified": bool(self.rows) and all(r.certified for r in self.rows),
        }
        refs = self.references
        if self.rows:
            out["concentration"] = ("plane1" if fracs[-1] >= 0.95 else
                                    "plane2" if fracs[-1] <= 0.05 else "mixed")
            tag = {"sigma2": "single_plane_1",
                   "sigma_common": ("free_plane_1" if out["concentration"] == "plane1"
                                    else "free_plane_2")}.get(self.parameter)
            if tag in refs:
                out["limit_proximity"] = (abs(self.rows[-1].energy - refs[tag])
                                          / abs(refs[tag]))
        if "uncoupled" in refs:
            gaps = [refs["uncoupled"] - r.energy for r in self.rows]
            out["coupling_gap_monotone"] = _monotone(gaps)
            out["coupling_gap_positive"] = all(g > 0.0 for g in gaps)
        return out


def _monotone(xs: list[float]) -> str:
    if all(b >= a for a, b in zip(xs, xs[1:])):
        return "nondecreasing"
    if all(b <= a for a, b in zip(xs, xs[1:])):
        return "nonincreasing"
    return "none"


@dataclass(frozen=True)
class RhoDetail:
    """Free-plane coefficient, with its reference solve's mass and energy."""

    value: float
    reference_mass: float
    energy: float


def _row_from_report(value: float, r: GroundStateReport) -> SweepRow:
    return SweepRow(float(value),
                    **{c: getattr(r, c) for c in SweepTable.COLUMNS[1:-1]},
                    certified=r.certificate.certified)


#: rho_detail's answers by (p, cfg), oldest first: numbers, not reports
_RHO_CACHE: dict[tuple[float, SolverConfig], RhoDetail] = {}


def rho_detail(p: float, cfg: SolverConfig | None = None, solve=None) -> RhoDetail:
    """Like :func:`rho`, with the reference solve's mass and energy.

    Up to 128 (p, cfg) are cached, the oldest dropped first.  A miss makes
    the reference solves with ``solve(p, mu, cfg=cfg)``, by default
    :func:`solve_planar`; verify passes the one that keeps its solves.
    """
    p, cfg = float(p), cfg if cfg is not None else SolverConfig()
    if (p, cfg) in _RHO_CACHE:
        return _RHO_CACHE[p, cfg]
    exponent = 2.0 / (4.0 - p)
    mu_ref = 1.0
    for attempt in range(3):
        report = (solve or solve_planar)(p, mu_ref, cfg=cfg)
        omega = report.omega
        if omega >= _RATE_FLOOR and report.state.grid.resolves(omega):
            break
        if attempt == 2:
            raise RuntimeError(f"free-plane reference for p={p} is out of band "
                               f"at mass {mu_ref}: omega {omega:.6g}")
        if omega > 0.0:
            # exact rate scaling: omega(mu) = omega(1) mu^((p-2)/(4-p))
            mu_ref *= (_RATE_TARGET / omega) ** ((4.0 - p) / (p - 2.0))
        else:
            # box pressure beats the binding at this mass; no usable scale
            mu_ref *= 16.0
    if not report.certificate.certified:
        raise RuntimeError(
            f"free-plane solve for p={p} is not certified at mass {mu_ref} "
            f"(failed {report.certificate.failed})")
    value = -report.energy / mu_ref**exponent
    if value <= 0.0:
        raise RuntimeError(
            f"free-plane energy for p={p} is nonnegative at mass {mu_ref}; "
            "enlarge R in the solver configuration")
    if len(_RHO_CACHE) >= 128:
        del _RHO_CACHE[next(iter(_RHO_CACHE))]
    detail = _RHO_CACHE[p, cfg] = RhoDetail(value, mu_ref, report.energy)
    return detail


def rho(p: float, cfg: SolverConfig | None = None) -> float:
    """Coefficient of the free-plane energy curve E(mu) = -rho mu^(2/(4-p)).

    Measured from one planar ground-state solve and cached per (p, cfg).
    The solve runs at mass 1 when the resulting profile fits the box and
    the grid; otherwise (powers near 4) it moves, through the exact
    mass-scaling law, to a mass where it does, and RuntimeError is
    raised when the third solve still does not.
    """
    return rho_detail(p, cfg).value


def free_plane_energy(p: float, mu: float, cfg: SolverConfig | None = None) -> float:
    """Free-plane ground-state energy at mass mu: -rho(p) mu^(2/(4-p))."""
    return -rho(p, cfg) * mu ** (2.0 / (4.0 - p))


def check_critical_pair(p1: float, p2: float) -> None:
    """Raise ValueError unless the powers (p1, p2) have a critical mass:
    both in the mass-subcritical range (2, 4), and distinct."""
    check_power(p1, "p1")
    check_power(p2, "p2")
    if p1 == p2:
        raise ValueError(
            f"critical mass requires two distinct powers, got {p1:g}:{p2:g}")


def critical_mass(p1: float, p2: float, cfg: SolverConfig | None = None) -> float:
    """Mass at which the two free-plane energy curves cross."""
    check_critical_pair(p1, p2)
    r1 = rho(p1, cfg)
    r2 = rho(p2, cfg)
    exponent = (4.0 - p1) * (4.0 - p2) / (2.0 * (p2 - p1))
    return (r1 / r2) ** exponent


def sweep_params(P: HybridParams, mode: str,
                 values) -> dict[float, HybridParams]:
    """Each row's parameters, keyed by its value in ascending order.

    Raises ValueError on an unknown mode, on values that are empty or
    not strictly ascending, and on a row whose parameters are invalid.
    No solve runs.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; choose from "
                         + ", ".join(SWEEP_MODES))
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError("sweep needs at least one parameter value")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("sweep values must be strictly ascending")
    rows = {}
    for v in vals:
        try:
            rows[v] = dataclasses.replace(
                P, **dict.fromkeys(_SWEPT_FIELDS[mode], v))
        except ValueError as exc:
            raise ValueError(f"sweep row {mode}={v:g}: {exc}") from None
    return rows


def _references(P: HybridParams, mode: str, cfg: SolverConfig) -> dict[str, float]:
    refs = {}
    if mode == "sigma2" and P.p1 == P.p2:
        refs["single_plane_1"] = solve_single(P.p1, P.sigma1, P.mu, cfg).energy
    if mode in ("sigma_common", "mu") and P.p1 != P.p2:
        refs["critical_mass"] = critical_mass(*sorted((P.p1, P.p2)), cfg)
    if mode == "sigma_common":
        for tag, p in (("free_plane_1", P.p1), ("free_plane_2", P.p2)):
            refs[tag] = free_plane_energy(p, P.mu, cfg)
    if mode == "beta":
        refs["uncoupled"] = solve_hybrid(dataclasses.replace(P, beta=0.0), cfg).energy
    return refs


def sweep(P: HybridParams, mode: str, values,
          cfg: SolverConfig | None = None) -> SweepTable:
    """Solve the hybrid along one parameter, everything else held at ``P``.

    ``mode`` is one of :data:`SWEEP_MODES`.  The values and every row's
    parameters are checked before any solve, so a bad value raises
    ValueError at once.  Rows are solved in value order; a row whose
    solve raises is left out of ``rows`` and recorded in ``errors``.
    The references are the levels the sweep is compared with, each
    where it is defined:

    * ``single_plane_1`` (sigma2, equal powers): plane 1 alone at ``P.mu``;
    * ``critical_mass`` (sigma_common and mu, distinct powers);
    * ``free_plane_1``/``free_plane_2`` (sigma_common): the free-plane
      energies at ``P.mu``;
    * ``uncoupled`` (beta): the hybrid at beta = 0.

    A failed reference leaves ``references`` empty and adds one last
    error with value None.
    """
    params = sweep_params(P, mode, values)
    cfg = cfg if cfg is not None else SolverConfig()
    rows = []
    errors = []
    for value, Pv in params.items():
        try:
            rows.append(_row_from_report(value, solve_hybrid(Pv, cfg)))
        except _SOLVE_ERRORS as exc:
            errors.append({"value": value, "error": str(exc)})
    try:
        refs = _references(P, mode, cfg)
    except _SOLVE_ERRORS as exc:
        refs = {}
        errors.append({"value": None, "error": f"references: {exc}"})
    return SweepTable(parameter=mode, mu=P.mu, rows=tuple(rows),
                      references=refs, errors=tuple(errors))


def monotone_radial_check(f) -> tuple[bool, int]:
    """Count increases along the radial direction.

    A node pair (k, k+1) is a violation when f[k+1] exceeds f[k] by more
    than a 1e-12 relative slack.  Accepts a RadialField or a plain
    sequence of node values.
    """
    v = f.values if isinstance(f, RadialField) else np.asarray(f, np.float64)
    viol = int(np.sum(v[1:] > v[:-1] + 1e-12 * np.abs(v[:-1])))
    return viol == 0, viol
