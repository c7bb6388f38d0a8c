"""Self-contained verification suite: fourteen numbered checks.

Each criterion runs against the library's public surface, measures the
quantities it needs, and reports one pass/fail verdict with the numbers
that decided it.  Thresholds are fixed here; the fast mode shrinks the
grids for speed and documents every tolerance it loosens in the result
notes.

Criterion 8 is known to fail its second energy clause on physical
grounds: the strong-interaction limit it probes is asymptotic, and at
interaction strength 6 the measured point-interaction dressing of the
deep second-plane state is ~21% against the 3% window the check
demands.  The suite reports that failure honestly rather than moving
the thresholds.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import analysis
from .energy import (
    ChargedField,
    HybridParams,
    HybridState,
    dilation_defect,
    f_hybrid,
    grad_f_hybrid,
    mass,
    plane_data,
    total_field,
)
from .grid import RadialField, make_grid
from .solver import (
    SolverConfig,
    _solve_two_plane,
    omega_star,
    omega_star_grid,
    refine_config,
    solve_hybrid,
    solve_planar,
    solve_single,
)
from . import specfun

__all__ = ["CriterionResult", "VerifyReport", "run_suite", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float
    notes: tuple[str, ...] = ()

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        text = f"{verdict}  {self.number:2d}  {self.name}: {self.details}"
        if self.notes:
            text += "  [" + "; ".join(self.notes) + "]"
        return f"{text}  ({self.seconds:.1f}s)"


@dataclass(frozen=True)
class VerifyReport:
    results: tuple[CriterionResult, ...]
    fast: bool

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failed_numbers(self) -> tuple[int, ...]:
        return tuple(r.number for r in self.results if not r.passed)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        n_pass = sum(r.passed for r in self.results)
        mode = "fast grids" if self.fast else "full grids"
        out.append(
            f"{n_pass}/{len(self.results)} criteria passed ({mode}, "
            f"{sum(r.seconds for r in self.results):.1f}s total)"
        )
        return out

    def as_dict(self) -> dict:
        return {
            "fast": self.fast,
            "all_passed": self.all_passed,
            "results": [dataclasses.asdict(r) for r in self.results],
        }


_COUPLED = HybridParams(3.0, 3.0, 0.0, 0.0, 1.0, 1.0)


@dataclass
class _Context:
    cfg: SolverConfig
    fast: bool
    _solves: dict = field(default_factory=dict)

    def tol(self, slow: float, fast: float) -> float:
        return fast if self.fast else slow

    def solve(self, solver, *args, cfg: SolverConfig | None = None):
        """``solver(*args, cfg)``, run once per suite for each argument set."""
        key = (solver, *args, cfg or self.cfg)
        if key not in self._solves:
            self._solves[key] = solver(*key[1:])
        return self._solves[key]

    def release(self, number: int) -> None:
        """Drop the states that no criterion after ``number`` reads; the
        reports keep their numbers for later questions and criterion 10."""
        # by last reader, the states read after their first asker: planar
        # p = 3 (asked in 1; read in 2, 5), single (3; 12), coupled (4; 5, 12)
        last_read = {(solve_planar, 3.0, 1.0, self.cfg): 5,
                     (solve_single, 3.0, 0.0, 1.0, self.cfg): 12,
                     (solve_hybrid, _COUPLED, self.cfg): 12}
        for key, r in self._solves.items():
            if r.state is not None and last_read.get(key, 0) <= number:
                self._solves[key] = dataclasses.replace(r, state=None)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


# --------------------------------------------------------------------------
# criteria


def _c1_scaling_law(ctx: _Context):
    mus = (0.5, 1.0, 2.0, 4.0)
    energies = [ctx.solve(solve_planar, 3.0, mu).energy for mu in mus]
    slope = float(np.polyfit(np.log(mus), np.log(np.abs(energies)), 1)[0])
    ok = abs(slope - 2.0) <= 0.02 * 2.0
    return ok, f"fitted mass exponent {slope:.5f} (target 2 +/- 2%)"


def _c2_virial_identity(ctx: _Context):
    tol = ctx.tol(1e-3, 5e-3)
    worst = 0.0
    # rho's reference solves are the suite's: their states are read here,
    # and criterion 8 reads the coefficients from rho's cache
    planar = functools.partial(ctx.solve, solve_planar)
    for p in (2.5, 3.0, 3.5):
        mu = analysis.rho_detail(p, ctx.cfg, planar).reference_mass
        r = ctx.solve(solve_planar, p, mu)
        # uncharged, so the dilation identity is the virial one
        P = HybridParams(p, p, 0.0, 0.0, 0.0, mu)
        worst = max(worst, dilation_defect(r.state, P))
    ok = worst <= tol
    return ok, f"worst dilation defect {worst:.2e} (cap {tol:.0e})"


def _c3_decoupling(ctx: _Context):
    cases = (
        (HybridParams(3.0, 3.0, 0.0, 1.0, 0.0, 1.0), (3.0, 0.0), (3.0, 1.0)),
        (HybridParams(2.5, 3.5, 0.0, 0.0, 0.0, 1.0), (2.5, 0.0), (3.5, 0.0)),
    )
    worst_rel, worst_leak = 0.0, 0.0
    for P, (pa, sa), (pb, sb) in cases:
        # an independent two-plane descent: no split may beat the endpoints
        # (solve_hybrid skips this descent at beta = 0)
        r = ctx.solve(_solve_two_plane, P)
        best = min(ctx.solve(solve_single, pa, sa, P.mu).energy,
                   ctx.solve(solve_single, pb, sb, P.mu).energy)
        worst_rel = max(worst_rel, _rel(r.energy, best))
        worst_leak = max(worst_leak, min(r.mass1, r.mass2) / P.mu)
    ok = worst_rel <= 1e-4 and worst_leak <= 1e-6
    return ok, (f"uncoupled energy defect {worst_rel:.2e} (cap 1e-4), "
                f"losing-plane mass {worst_leak:.2e} (cap 1e-6)")


def _c4_coupling_gap(ctx: _Context):
    e_ref = ctx.solve(solve_single, 3.0, 0.0, 1.0).energy
    gaps = []
    for b in (0.5, 1.0, 2.0):
        r = ctx.solve(solve_hybrid, HybridParams(3.0, 3.0, 0.0, 0.0, b, 1.0))
        gaps.append(e_ref - r.energy)
    ok = all(g > 0.0 for g in gaps) and gaps[0] < gaps[1] < gaps[2]
    return ok, ("gaps " + ", ".join(f"{g:.3e}" for g in gaps)
                + " (positive, strictly increasing)")


def _c5_profile_structure(ctx: _Context):
    bad_pos = bad_mono = 0
    for r in (ctx.solve(solve_hybrid, _COUPLED),
              ctx.solve(solve_hybrid, HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, 1.0)),
              ctx.solve(solve_planar, 3.0, 1.0)):
        U: HybridState = r.state
        for u in (U.u1, U.u2):
            if mass(u) <= 1e-12 * (r.mass1 + r.mass2):
                continue
            tot = total_field(u).values[1:]  # origin entry is a placeholder
            # positive until the exponential tail underflows, then exactly
            # zero; a genuine negative value anywhere is a failure
            inner = tot[:-1]
            nonpos = inner <= 0.0
            if nonpos.any() and not np.all(inner[np.argmax(nonpos):] == 0.0):
                bad_pos += 1
            bad_mono += analysis.monotone_radial_check(tot)[1]
    ok = bad_pos == 0 and bad_mono == 0
    return ok, (f"positivity failures {bad_pos}, "
                f"monotonicity violations {bad_mono}")


def _c6_charge_ordering(ctx: _Context):
    pairs = []
    for s2 in (0.5, 1.0, 2.0):
        r = ctx.solve(solve_hybrid, HybridParams(3.0, 3.0, 0.0, s2, 1.0, 1.0))
        if not r.certificate.certified:
            return False, (f"solve at sigma2={s2} is not certified "
                           f"(failed {r.certificate.failed})")
        pairs.append((r.q1, r.q2))
    ok = all(q2 < q1 for q1, q2 in pairs)
    return ok, ("q2/q1 ratios " + ", ".join(f"{q2 / q1:.3f}" for q1, q2 in pairs)
                + " (all < 1)")


def _c7_mass_migration(ctx: _Context):
    beta = 0.0625
    P = HybridParams(3.0, 3.0, 0.0, 1.0, beta, 1.0)
    table = analysis.sweep(P, "sigma2", (1.0, 2.0, 4.0, 8.0), ctx.cfg)
    if table.errors:
        return False, "sweep failed: " + "; ".join(
            f"sigma2={e['value']}: {e['error']}" for e in table.errors)
    verdicts = table.verdicts()
    fracs = [row.mass1 / table.mu for row in table.rows]
    e_gap = verdicts["limit_proximity"]
    ok = (
        verdicts["mass1_fraction_monotone"] == "nondecreasing"
        and fracs[-1] >= 0.99
        and e_gap <= 0.01
        and verdicts["all_certified"]
    )
    return ok, (f"mass fractions {', '.join(f'{x:.5f}' for x in fracs)}; "
                f"final energy defect {e_gap:.2e} (cap 1e-2) at beta={beta}")


def _c8_critical_mass_dichotomy(ctx: _Context):
    mustar = analysis.critical_mass(2.5, 3.5, ctx.cfg)
    parts = [f"mu*={mustar:.3f}"]
    ok = True
    for mu, plane, p in ((mustar / 2, 1, 2.5), (2 * mustar, 2, 3.5)):
        r = ctx.solve(solve_hybrid, HybridParams(2.5, 3.5, 6.0, 6.0, 1.0, mu))
        conc = (r.mass1 if plane == 1 else r.mass2) / mu
        e_free = analysis.free_plane_energy(p, mu, ctx.cfg)
        defect = abs(r.energy - e_free) / abs(e_free)
        case_ok = conc >= 0.95 and defect <= 0.03
        ok = ok and case_ok
        parts.append(
            f"mu={mu:.2f}: plane-{plane} fraction {conc:.5f} (>=0.95), "
            f"free-plane energy defect {defect:.3f} (cap 0.03)"
        )
    return ok, "; ".join(parts)


#: criterion 9's hybrid: a mass small enough for the linear state to set the split
_SMALL_MASS = HybridParams(3.0, 3.5, 0.0, 0.3, 0.5, 1e-3)


def _c9_small_mass_split(ctx: _Context):
    # As the mass vanishes the ground state tends to the linear one,
    # v_1 G and v_2 G at rate omega*, v the null vector of omega_star's
    # charge matrix [[s1 + t, -b], [-b, s2 + t]] at t = theta(omega*):
    # q2/q1 -> v2/v1 and the plane-1 mass share -> v1^2/|v|^2.
    P = _SMALL_MASS
    r = ctx.solve(solve_hybrid, P)
    if not r.certificate.certified:
        return False, f"solve is not certified (failed {r.certificate.failed})"
    w_star = omega_star(P)
    ratio = (P.sigma1 + specfun.theta(w_star)) / P.beta
    share = 1.0 / (1.0 + ratio * ratio)
    depth = r.omega / w_star
    worst = max(abs(r.q2 / r.q1 / ratio - 1.0), abs(r.mass1 / P.mu / share - 1.0))
    ok = depth <= 1.01 and worst <= 3e-3
    return ok, (f"omega/omega* {depth:.5f} (cap 1.01); q2/q1 {r.q2 / r.q1:.5f} "
                f"vs {ratio:.5f}, plane-1 share {r.mass1 / P.mu:.5f} vs "
                f"{share:.5f}: worst defect {worst:.2e} (cap 3e-3)")


def _c10_stationarity_certificates(ctx: _Context):
    bnd_cap_scale = ctx.tol(1e-3, 1e-2)
    done = [r for r in ctx._solves.values() if r.converged]
    checks = [r.certificate["stationarity"] for r in done]
    worst = max(checks, key=lambda c: c.value)
    worst_bnd = max(max(map(abs, r.boundary_residuals))
                    / (bnd_cap_scale * max(1.0, r.q1, r.q2)) for r in done)
    mantissa, exponent = f"{worst.cap:.0e}".split("e")
    details = (f"{len(done)} converged reports: max el residual "
               f"{worst.value:.2e} (cap {mantissa}e{int(exponent)}), "
               f"boundary over cap {worst_bnd:.2f}")
    notes = []
    ok = all(c.passed for c in checks) and worst_bnd <= 1.0
    if ctx.fast:
        notes.append("boundary cap loosened to 1e-2*max(1,q) on the shrunken "
                     "grid; refinement halving checked only on full grids")
    else:
        coarse = ctx.solve(solve_hybrid, _COUPLED)
        fine = ctx.solve(solve_hybrid, _COUPLED, cfg=refine_config(ctx.cfg))
        el_ratio = fine.el_residual / coarse.el_residual
        bnd_ratio = (max(map(abs, fine.boundary_residuals))
                     / max(map(abs, coarse.boundary_residuals)))
        ok = ok and el_ratio <= 0.5 and bnd_ratio <= 0.5
        details += (f"; refinement ratios el {el_ratio:.2f}, "
                    f"boundary {bnd_ratio:.2f} (caps 0.5)")
    return ok, details, notes


_GRADIENT_SETS = (
    (3.0, 3.0, 0.0, 0.0, 1.0),
    (2.5, 3.5, 0.3, -0.4, 0.5),
    (3.0, 3.0, -1.0, 1.0, 2.0),
    (2.2, 3.8, 1.0, 1.0, 0.0),
)


def _random_state(planes, rng) -> HybridState:
    grid = planes[0].grid

    def fld(pd):
        a = rng.uniform(0.2, 1.5)
        b = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.5, 4.0)
        v = a * np.exp(-(grid.r**2) / (2 * b**2)) * (1.0 + 0.3 * np.sin(c * grid.r))
        v[0] = v[1]
        v[-1] = 0.0
        return ChargedField(RadialField(grid, v), rng.uniform(0.1, 0.9), pd)

    return HybridState(*map(fld, planes))


def _c11_gradient_check(ctx: _Context):
    grid = make_grid(12.0, 256, 1.02)
    # the random states' two planes, at two decomposition rates
    planes = [plane_data(grid, lam) for lam in (1.5, 3.0)]
    w = grid.w_trapz
    rng = random.Random(1)
    h = 1e-6
    worst = 0.0
    for p1, p2, s1, s2, beta in _GRADIENT_SETS:
        P = HybridParams(p1, p2, s1, s2, beta, 1.0)
        for _ in range(20):
            U = _random_state(planes, rng)
            g = grad_f_hybrid(U, P)
            # uniform in [-1, 1) from the top 53 bits of bulk-drawn words
            d = np.zeros((2, grid.n_nodes))
            bits = np.frombuffer(rng.randbytes(16 * (grid.n_nodes - 2)), np.uint64)
            d[:, 1:-1] = ((bits >> np.uint64(11)) * 2.0**-52 - 1.0).reshape(2, -1)
            d[:, 0] = d[:, 1]
            dq = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))

            def shifted(t):
                return f_hybrid(HybridState(*(
                    dataclasses.replace(u, phi=RadialField(grid, u.phi.values + t * di),
                                        q=u.q + t * dqi)
                    for u, di, dqi in zip((U.u1, U.u2), d, dq))), P)

            fd = (shifted(h) - shifted(-h)) / (2 * h)
            an = (float(w @ (g.d1.values * d[0])) + g.dq1 * dq[0]
                  + float(w @ (g.d2.values * d[1])) + g.dq2 * dq[1])
            scale = max(abs(fd), abs(an), 1e-9)
            worst = max(worst, abs(fd - an) / scale)
    ok = worst <= 1e-5
    return ok, f"worst directional-derivative defect {worst:.2e} (cap 1e-5)"


def _c12_dilation_identity(ctx: _Context):
    # Resolved states read at most 1e-3 at N = 512 and less as N grows;
    # states that the box wall holds read 0.2 and more, certified or not.
    # The cap sits between, as the certificate's 1e-2 on el_residual does.
    worst = 0.0
    # one plane with its charge: the state the beta = 0 hybrid reports
    for P, r in ((_COUPLED, ctx.solve(solve_hybrid, _COUPLED)),
                 (HybridParams(3.0, 3.0, 0.0, 0.0, 0.0, 1.0),
                  ctx.solve(solve_single, 3.0, 0.0, 1.0))):
        worst = max(worst, dilation_defect(r.state, P))
    ok = worst <= 1e-2
    return ok, (f"worst dilation defect {worst:.2e} of the coupled hybrid "
                f"and the single plane (cap 1e-2)")


def _c13_linear_level(ctx: _Context):
    tol = ctx.tol(1e-3, 5e-3)
    triples = ((0.0, 0.0, 1.0), (0.0, 1.0, 0.5), (-1.0, 1.0, 2.0))
    notes = []
    worst = 0.0
    rate_ok = True
    for s1, s2, beta in triples:
        P = HybridParams(3.0, 3.0, s1, s2, beta, 1.0)
        steep = (s1, s2, beta) == (-1.0, 1.0, 2.0)
        cfg = SolverConfig(N=4096) if steep else ctx.cfg
        wg = omega_star_grid(P, cfg)
        worst = max(worst, _rel(wg, omega_star(P)))
        r = ctx.solve(solve_hybrid, P, cfg=cfg)
        # The strict inequality is only meaningful against the level computed
        # on the same grid: the discretization shift of the linear level can
        # exceed the nonlinear gap itself at strong coupling, so comparing
        # against the closed form would fail for purely numerical reasons.
        # Closed-form agreement is covered by the defect bound above.
        rate_ok = rate_ok and r.omega > wg
    if ctx.fast:
        notes.append("closed-form agreement cap loosened to 5e-3 on the "
                     "shrunken grid; steep triple still solved at N=4096")
    ok = worst <= tol and rate_ok
    return ok, (f"worst closed-form vs grid defect {worst:.2e} (cap {tol:.0e}); "
                f"ground-state rate above linear level: {rate_ok}"), notes


def _gauss_legendre(f, a: float, b: float, panels: int, nodes: int = 20) -> float:
    """Composite Gauss-Legendre rule for the vectorized integrand f on [a, b]."""
    x, wts = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return float((half * wts * f(edges[:-1, None] + half * (1.0 + x))).sum())


def _c14_closed_forms(ctx: _Context):
    worst_rt = 0.0
    for t in np.linspace(-3.0, 3.0, 13):
        worst_rt = max(worst_rt, abs(specfun.theta(specfun.lambda_for_theta(t)) - t))
    for lam in np.logspace(-3, 3, 13):
        back = specfun.lambda_for_theta(specfun.theta(lam))
        worst_rt = max(worst_rt, abs(back - lam) / lam)

    # the kernel the energy layer evaluates, K0(sqrt(lam) r) / (2 pi)
    def k0(lam, r):
        return 2.0 * math.pi * specfun.green_profile(lam, r)

    worst_g = 0.0
    for lam in (0.5, 1.0, 4.0):
        # in s = log r the integrand r^2 K0^2 is smooth; against its peak
        # it is below e^-72 at r = R e^-45 and e^-113 at R = 60/sqrt(lam)
        top = math.log(60.0 / math.sqrt(lam))
        val = _gauss_legendre(lambda s: np.exp(2.0 * s) * k0(lam, np.exp(s)) ** 2,
                              top - 45.0, top, 90)
        worst_g = max(worst_g, _rel(val / (2.0 * math.pi),
                                    specfun.green_l2_norm_sq(lam)))

    worst_b = 0.0
    for x in (0.1, 1.0, 5.0, 20.0):
        # integral representation, scaled by e^x so the integrand is
        # O(1) at t=0 for every x
        ref = _gauss_legendre(lambda t: np.exp(-x * (np.cosh(t) - 1.0)), 0.0, 12.0, 48)
        worst_b = max(worst_b, _rel(float(k0(1.0, x)) * math.exp(x), ref))

    ok = worst_rt <= 1e-12 and worst_g <= 1e-6 and worst_b <= 1e-9
    return ok, (f"round-trip defect {worst_rt:.2e} (cap 1e-12); Green norm vs "
                f"quadrature {worst_g:.2e} (cap 1e-6); kernel vs integral "
                f"{worst_b:.2e} (cap 1e-9)")


CRITERIA: tuple[tuple[int, str, Callable], ...] = (
    (1, "free-plane scaling law", _c1_scaling_law),
    (2, "stationary-profile identities", _c2_virial_identity),
    (3, "uncoupled hybrid decouples", _c3_decoupling),
    (4, "coupling gap grows with beta", _c4_coupling_gap),
    (5, "positive decreasing profiles", _c5_profile_structure),
    (6, "weaker plane carries less charge", _c6_charge_ordering),
    (7, "mass migrates to the stronger plane", _c7_mass_migration),
    (8, "critical-mass dichotomy", _c8_critical_mass_dichotomy),
    (9, "small-mass split follows the linear state", _c9_small_mass_split),
    (10, "stationarity certificates", _c10_stationarity_certificates),
    (11, "gradient matches finite differences", _c11_gradient_check),
    (12, "action identities", _c12_dilation_identity),
    (13, "linear spectral level", _c13_linear_level),
    (14, "closed-form layer", _c14_closed_forms),
)


def run_suite(fast: bool = False) -> VerifyReport:
    """Run the numbered checks and collect their verdicts.

    ``fast`` shrinks the solver grid to N=512 (tolerance changes are
    documented per criterion).
    """
    cfg = SolverConfig(N=512) if fast else SolverConfig()
    ctx = _Context(cfg=cfg, fast=fast)
    results = []
    for number, name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            out = fn(ctx)
        except Exception as exc:  # a crashed check is a failed check
            out = (False, f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        ctx.release(number)
        # a criterion returns (ok, details) or (ok, details, notes)
        ok, details, *notes = out
        # runtime budgets are part of the stated checks
        if number == 1 and seconds > 120.0:
            ok, details = False, details + f"; runtime {seconds:.0f}s over 120s budget"
        if number == 8 and seconds > 600.0:
            ok, details = False, details + f"; runtime {seconds:.0f}s over 600s budget"
        results.append(CriterionResult(number, name, bool(ok), details,
                                       seconds, tuple(*notes)))
    return VerifyReport(results=tuple(results), fast=fast)
