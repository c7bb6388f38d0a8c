"""Ground-state solvers for the planar, single-plane and two-plane problems.

Every problem is solved by one projected descent on the mass sphere,
``_descend``.  Each rule is stated, with its reason, in the function
that applies it:

* the preconditioner and its tail cut: ``_linear_solver``;
* the step choice, the shift, the line search, the Newton gate and the
  stop test: ``_descend``;
* the Newton endgame's Hessian: ``_newton_solver``;
* the multistart, its joined starts and inherited multiplier:
  ``_solve_on_grid``; the winner among its runs: ``_lowest``;
* the grading that keeps the linear level in the grid's band:
  ``_auto_grading``;
* the beta = 0 shortcut: ``solve_hybrid``;
* what makes a report certified: ``certify``.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._kernels import _exponent, plane_energy, plane_energy_grad
from ._lapack import gttrf, pttrf
from .energy import (
    ChargedField,
    HybridParams,
    HybridState,
    PlaneData,
    _state_pieces,
    boundary_residual,
    el_residual,
    mass,
    plane_data,
    total_field,
)
from .grid import RadialField, RadialGrid, check_mesh, first_cell, make_grid
from .specfun import lambda_for_theta

__all__ = [
    "SolverConfig",
    "GroundStateReport",
    "Certificate",
    "Check",
    "certify",
    "solve_planar",
    "solve_single",
    "solve_hybrid",
    "extract_omega",
    "omega_star",
    "omega_star_grid",
    "refine_config",
]

#: factor between the decomposition rate and the linear threshold; any
#: value > 1 keeps the preconditioner positive definite, e gives a
#: comfortable margin without outrunning the grid resolution.
_RATE_MARGIN = math.e

# the descent's rules, each stated in _descend
_ARMIJO = 1e-4
_STEP_SIZE = 1.0
_STEP_GROW = 1.3
_STEP_FLOOR = 1e-14
_STALL_LIMIT = 50
_ENERGY_TOL = 1e-10
_WINDOW = 5
_CRAWL = 0.8
_OMEGA_DRIFT = 0.01
_NOISE_BAND = 10.0
_PROGRESS = 0.5
_DUPLICATE = 0.3
#: starts whose energies agree to this relative gap reached the same state
_TIE = 1e-12
# the tail cut of the linear solve, stated in _linear_solver
_CUT_NATS = 80.0
_TRAP_NATS = 700.0


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and descent parameters shared by all solvers.

    ``_auto_grading`` raises ``grading`` where the linear level needs a
    finer first cell, and lowers it where the first cell is over-graded
    for that level (``grid.FINEST``), as 1.01 is at N = 8192 for the
    README hybrid.  The default does not follow N: tied to N it failed
    criterion 13's steep triple (1.28e-3 against its 1e-3 cap).
    ``starts`` are the multistart's plane-1 mass shares, stored as a
    tuple of floats so that equal configs hash alike.
    """

    R: float = 40.0
    N: int = 2048
    grading: float = 1.01
    max_iters: int = 50000
    grad_tol: float = 1e-6
    starts: tuple[float, ...] = (0.1, 0.5, 0.9)

    def __post_init__(self) -> None:
        for name in ("N", "max_iters"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}") from None
        check_mesh(self.R, self.N, self.grading)
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be > 0, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        try:
            object.__setattr__(self, "starts", tuple(map(float, self.starts)))
        except TypeError:
            raise ValueError("starts must be a sequence of numbers, "
                             f"got {self.starts!r}") from None
        if len(self.starts) == 0:
            raise ValueError("at least one start is required")
        if any(not (0.0 <= s <= 1.0) for s in self.starts):
            raise ValueError("every start must lie in [0, 1]")


#: the largest ``el_residual`` of a certified state
_STATIONARITY_CAP = 1e-2


@dataclass(frozen=True)
class Check:
    """One named test of a report: the value measured, the cap it is
    held to and whether it passed (``certify`` states each rule)."""

    name: str
    value: float
    cap: float
    passed: bool


@dataclass(frozen=True)
class Certificate:
    """Whether a report is a ground state of the problem, not just the
    end of a descent: its stop test and its named checks, in order."""

    converged: bool
    checks: tuple[Check, ...]

    @property
    def failed(self) -> str | None:
        """``"converged"`` when the descent stopped short, else the name
        of the first failed check; None for a certified report."""
        if not self.converged:
            return "converged"
        return next((c.name for c in self.checks if not c.passed), None)

    @property
    def certified(self) -> bool:
        return self.failed is None

    def __getitem__(self, name: str) -> Check:
        return next(c for c in self.checks if c.name == name)

    def as_dict(self) -> dict:
        return {"certified": self.certified,
                "checks": [dataclasses.asdict(c) for c in self.checks]}


def certify(converged: bool, omega: float, el_res: float) -> Certificate:
    """The certificate of a report with these numbers.  Its checks, each
    written so that a NaN fails it:

    * ``bound_state``: omega > 0.  A state with omega <= 0 lies at or
      above the bottom of the continuous spectrum; on the unbounded
      planes it would spread out, so only the box holds it.
    * ``stationarity``: ``el_residual`` <= 1e-2, the field equation met
      to 1% of the scale of its terms.
    """
    cap = _STATIONARITY_CAP
    return Certificate(converged, (
        Check("bound_state", omega, 0.0, omega > 0.0),
        Check("stationarity", el_res, cap, el_res <= cap),
    ))


@dataclass
class GroundStateReport:
    """What a solve_* entry point found: the winning start's state, its
    numbers and its certificate, converged or not."""

    energy: float
    mass1: float
    mass2: float
    q1: float
    q2: float
    omega: float
    el_residual: float
    boundary_residuals: tuple[float, float]
    iterations: int
    #: the winning start's stop test passed; ``certificate`` says more
    converged: bool
    #: why the winning start's descent ended (see ``_descend``)
    stop_reason: str
    certificate: Certificate
    profile_samples: dict[str, list[float]]
    #: endpoint branches when the uncoupled problem ties (both one-sided
    #: configurations reach the same energy); None otherwise
    branches: tuple["GroundStateReport", "GroundStateReport"] | None = None
    #: full discrete state (not serialized)
    state: HybridState | None = None

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
             if f.name not in ("branches", "state")}
        d["certificate"] = self.certificate.as_dict()
        if self.branches is not None:
            d["branches"] = [b.as_dict() for b in self.branches]
        return d


def omega_star(P: HybridParams) -> float:
    """Linear coupling threshold: largest rate solving the secular equation.

    The 2x2 charge matrix [[s1+t, -b], [-b, s2+t]] becomes singular on the
    branch t = -(s1+s2)/2 + sqrt(((s1-s2)/2)^2 + b^2); the corresponding
    rate is the negative of the linear ground-state level.  For beta = 0
    this reduces to max_i 4 exp(-4 pi sigma_i - 2 gamma).
    """
    half_sum = 0.5 * (P.sigma1 + P.sigma2)
    half_diff = 0.5 * (P.sigma1 - P.sigma2)
    t_star = -half_sum + math.hypot(half_diff, P.beta)
    return lambda_for_theta(t_star)


def extract_omega(U: HybridState, P: HybridParams) -> float:
    """Lagrange multiplier recovered from the stationarity pairing.

    omega = (|u1|_p1^p1 + |u2|_p2^p2 - Q(U)) / mass(U).
    """
    q_total, m, pt1, pt2 = _state_pieces(U, P)
    if not m > 0.0:
        raise ValueError("extract_omega requires a state with positive mass")
    return (pt1 + pt2 - q_total) / m


def refine_config(cfg: SolverConfig) -> SolverConfig:
    """One mesh-refinement step that shrinks every cell.

    Doubling N alone does not refine the geometric zone (its local
    spacing is ~ (grading-1)*r independent of N), so the grading is
    pulled toward 1 at the same time.
    """
    return dataclasses.replace(cfg, N=2 * cfg.N, grading=0.5 * (1.0 + cfg.grading))


# ----------------------------------------------------------------------
# grid selection


def _auto_grading(R: float, n: int, g_default: float, lam: float) -> float:
    """The grading nearest ``g_default`` whose first cell h0 keeps the
    rate lam in the grid's band, FINEST <= h0 sqrt(lam) <= RESOLUTION.

    A first cell too coarse to resolve lam raises the grading to the
    smallest that does.  One over-graded for lam lowers it toward 1, to
    the largest that is not: at N = 8192 the default 1.01 makes the
    README hybrid's first cell 1.9e-20, and every start stalled there.
    A grading inside the band comes back unchanged.
    """

    def resolves(g: float) -> bool:
        return RadialGrid.cell_resolves(first_cell(R, n, g), lam)

    def coarse_enough(g: float) -> bool:
        return not RadialGrid.cell_over_graded(first_cell(R, n, g), lam)

    if not coarse_enough(g_default):
        return _bisect(coarse_enough, 1.0, g_default)
    if resolves(g_default):
        return g_default
    if not resolves(1.2):
        raise ValueError(
            f"rate {lam:.3e} is too deep for an N={n} grid; increase N")
    return _bisect(resolves, 1.2, max(g_default, 1.0 + 1e-9))


def _bisect(ok: Callable[[float], bool], good: float, bad: float) -> float:
    """Bisect between ``good``, where ``ok`` holds, and ``bad``, where it
    does not, to the last point on ``good``'s side."""
    for _ in range(100):
        mid = 0.5 * (good + bad)
        good, bad = (mid, bad) if ok(mid) else (good, mid)
    return good


def _grid_for(lam: float, cfg: SolverConfig) -> RadialGrid:
    return make_grid(cfg.R, cfg.N, _auto_grading(cfg.R, cfg.N, cfg.grading, lam))


def _setup(rate: float, cfg: SolverConfig) -> PlaneData:
    """Plane data (grid and decomposition rate) for the linear level ``rate``."""
    lam = max(_RATE_MARGIN * rate, (16.0 / cfg.R) ** 2)
    return plane_data(_grid_for(lam, cfg), lam)


# ----------------------------------------------------------------------
# linear-part solve (the descent's preconditioner)


def _linear_solver(
    grid: RadialGrid,
    shift: float,
    th: float,
    sigmas: tuple[float, ...] | None,
    beta: float = 0.0,
) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the quadratic form  kinetic + shift*mass + charge block.

    The descent's preconditioner: the positive-definite linear part of
    the energy Hessian, without the |u|^p curvature.  Degrees of freedom
    are the interior profile nodes 1..N-1 of each plane (node 0 is the
    ghost tied to node 1, node N is pinned), plus one charge per plane
    when ``sigmas`` is given, laid out plane by plane.  In decomposition
    coordinates the form has no profile-charge cross terms: every plane
    shares one SPD tridiagonal block, factored once as L D L^T, and the
    charge block (s+th for one plane, [[s1+th, -beta], [-beta, s2+th]]
    for two) is inverted in closed form.  The returned solve takes
    right-hand sides as the rows of a (m, planes*stride) array and
    solves them all in one LAPACK call.  Raises ArithmeticError when
    either block is not positive definite.

    Tail cut: only the leading M x M block is solved, and the profile
    entries past M are set to 0.  M is the last node where any
    right-hand side is nonzero, extended until the product of the
    multipliers |e_i| has fallen by e^-_CUT_NATS.  Past that node the
    solution decays like that product, so the cut changes it only below
    e^-80 of its value there, and up to there damped by e^-80 once more,
    far below an ulp.  Deep states underflow to exact zeros well inside
    the box, and without the cut the forward sweep carries the solution
    into subnormal numbers, where a multiplier above 1/2 holds it at the
    smallest subnormal under round-to-nearest, each step a slow-path
    multiply (8.3 ms against 1.4 ms per solve at N = 32768).  The
    right-hand sides are scanned for M only when the factor can trap,
    that is when some |e_i| > 1/2 sits more than _TRAP_NATS of decay
    from node 0, near exp(-708), the smallest normal double (a
    constant-rate cut without that gate was 4-12% slower); otherwise M
    is every node.  Any SPD preconditioner leaves
    the descent correct, because convergence is judged on the full
    projected gradient.
    """
    cu = grid.c_h1  # per cell; interior node j sits between cells j-1, j
    diag = shift * grid.w_trapz[1:-1] + cu[1:]
    diag[1:] += cu[1:-1]
    e, tri = pttrf(diag, -cu[1:-1])
    nin = diag.size
    # decay[j]: nats the forward sweep's multipliers take off from node 0
    # to node j; nondecreasing, since diagonal dominance gives |e_i| < 1
    ae = np.abs(e)
    decay = np.zeros(nin)
    np.cumsum(-np.log(ae), out=decay[1:])
    traps = bool(np.any((ae > 0.5) & (decay[:-1] > _TRAP_NATS)))
    decay = decay if traps else None  # the solve reads it only to cut
    charged = sigmas is not None
    if charged and len(sigmas) == 1:
        adj, det = np.ones((1, 1)), sigmas[0] + th
    elif charged:
        a, c = sigmas[0] + th, sigmas[1] + th
        adj, det = np.array([[c, beta], [beta, a]]), a * c - beta * beta
    if charged and not (det > 0.0 and np.diag(adj).min() > 0.0):
        raise ArithmeticError("preconditioner charge block is not positive "
                              f"definite (determinant {det:.3e})")
    stride = nin + (1 if charged else 0)

    def solve(rhs: np.ndarray) -> np.ndarray:
        rows = rhs.reshape(-1, stride)
        out = np.empty_like(rows)
        m = nin
        if traps:
            live = np.flatnonzero(rows[:, :nin].any(axis=0))
            last = live[-1] if live.size else 0
            m = min(nin, int(np.searchsorted(decay, decay[last] + _CUT_NATS)) + 1)
        out[:, :m] = tri(rows[:, :m].T).T
        out[:, m:nin] = 0.0
        if charged:
            qs = rows[:, nin].reshape(len(rhs), -1)
            out[:, nin] = (qs @ adj).ravel() / det
        return out.reshape(rhs.shape)

    return solve


def _newton_solver(pd, phi, q, p, omega, sigmas, beta):
    """Factor the Hessian of E + (omega/2)*mass at the state (phi, q).

    The Newton endgame's step.  Same unknowns, layout and call as
    ``_linear_solver``'s solve; projecting its two solutions against the
    mass gradient, as the descent does, eliminates the mass border.
    Each plane's profile block is stiffness + omega*W minus the |u|^p
    curvature (p-1)|u|^(p-2) w_in, with the origin cell's on node 1.
    The blocks are stacked as one tridiagonal with zero coupling and
    LU-factored (dgttrf: the block is indefinite).  Each charge borders
    its plane with the column (omega-lam) wG minus the curvature times
    G.  dgttrf swaps no rows across the zero coupling, so A^-1 of each
    border stays in its plane's block: one right-hand side solves them
    all, and the charges' k x k Schur complement, which is inverted,
    differs from the charge block on its diagonal only.  Each solve
    takes one step of iterative refinement: the convergence test weighs
    the residual by 1/w, and w is tiny near the origin of a graded
    mesh.  Without it the ``fine_hard`` solve ``sigma6_n8192``, the
    sigma = 6, mu = 2 mu* hybrid at N = 8192, stops without progress.
    Raises ArithmeticError when a factor is singular.
    """
    k, n = phi.shape
    nin = n - 2
    w, cu, G, lam = pd.grid.w_trapz, pd.grid.c_h1, pd.G, pd.lam
    charged = sigmas is not None
    stride = nin + (1 if charged else 0)

    # curvature of the |u|^p term, weights included: (p-1)|u|^(p-2) w
    g0 = pd.g0
    u = phi + q[:, None] * G
    u0 = phi[:, 1:2] + q[:, None] * g0
    if p is None:
        a, a0 = np.zeros_like(u), np.zeros_like(u0)
    else:
        pm = _exponent(p)
        a = (pm - 1.0) * np.abs(u) ** (pm - 2.0) * pd.w_in
        a0 = (pm - 1.0) * np.abs(u0) ** (pm - 2.0) * pd.w0
    diag = omega * w[1:-1] + cu[1:] - a[:, 1:-1]
    diag[:, 1:] += cu[1:-1]
    diag[:, 0] -= a0.sum(axis=1)
    off = np.zeros((k, nin))
    off[:, :-1] = -cu[1:-1]
    off = off.ravel()[:-1]
    tri = gttrf(off, diag.ravel(), off)

    def tri_solve(b):  # (r, k, nin) -> (r, k, nin)
        return tri(b.reshape(len(b), k * nin).T).T.reshape(b.shape)

    if charged:
        border = (omega - lam) * pd.wG[1:-1] - a[:, 1:-1] * G[1:-1]
        border[:, 0] -= (a0 * g0).sum(axis=1)
        cblock = -beta * (1.0 - np.eye(k))
        cblock[np.diag_indices(k)] = (
            pd.theta + np.asarray(sigmas) + (omega - lam) * pd.gl2
            - (a * G * G).sum(axis=1) - (a0 * g0 * g0).sum(axis=1))
        ycol = tri_solve(border[None])[0]  # each plane's A^-1 border
        schur = cblock - np.diag(np.einsum("in,in->i", border, ycol))
        try:
            schur_inv = np.linalg.inv(schur)
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError("Newton charge block is singular") from exc

    def solve_once(rows):
        out = np.empty_like(rows)
        x = tri_solve(rows[:, :, :nin])
        if charged:
            y = (rows[:, :, nin] - (x * border).sum(-1)) @ schur_inv.T
            x -= y[:, :, None] * ycol
            out[:, :, nin] = y
        out[:, :, :nin] = x
        return out

    def apply(z):  # the Hessian times z
        x = z[:, :, :nin]
        hz = np.empty_like(z)
        hz[:, :, :nin] = diag * x
        hz[:, :, :nin - 1] -= cu[1:-1] * x[:, :, 1:]
        hz[:, :, 1:nin] -= cu[1:-1] * x[:, :, :-1]
        if charged:
            y = z[:, :, nin]
            hz[:, :, :nin] += y[:, :, None] * border
            hz[:, :, nin] = (x * border).sum(-1) + y @ cblock.T
        return hz

    def solve(rhs):
        rows = rhs.reshape(len(rhs), k, stride)
        z = solve_once(rows)
        z += solve_once(rows - apply(z))
        return z.reshape(rhs.shape)

    return solve


def omega_star_grid(P: HybridParams, cfg: SolverConfig | None = None) -> float:
    """Grid value of the coupling threshold: -min Q(U)/mass(U).

    Independently of the secular closed form, runs the nonlinear
    solvers' multistart (``_solve_on_grid``) from the middle start alone
    with the |u|^p term off, so it minimizes the energy Q/2 on the
    unit-mass sphere of the discretized two-plane space, and returns
    -Q(U) at the minimizer.  Because it shares every quadrature and
    every line of the descent with the nonlinear solvers, the inequality
    omega > omega_star_grid holds for their converged ground states
    without discretization-bias caveats.  Raises RuntimeError when the
    descent stops unconverged.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    pd = _setup(omega_star(P), cfg)
    run = _solve_on_grid(pd, None, (P.sigma1, P.sigma2), P.beta, 1.0,
                         dataclasses.replace(cfg, starts=(0.5,)))
    if run["stop"] != "converged":
        raise RuntimeError(
            f"linear descent stopped unconverged ({run['stop']}) after "
            f"{run['iterations']} iterations (projected-gradient norm "
            f"{run['grad_norm']:.3e})")
    return -2.0 * run["energy"]


# ----------------------------------------------------------------------
# descent engine


def _initial_guess(pd, sigmas, beta, mu, start):
    """Gaussian profiles with matched charges, one row per plane.

    Each profile carries its plane's share of the mass; ``_descend``
    rescales the start onto the sphere.  ``sigmas`` None is the
    chargeless planar problem.  The charges solve M q = peaks, M the
    charge matrix at theta(lam).  ``_setup``'s lam >= e omega* gives M
    the smallest eigenvalue theta(lam) - theta(omega*) >= 1/(4 pi) (a
    beta = 0 shortcut's other plane sits higher), and M's off-diagonal
    is -beta <= 0, so M^-1 >= 0 entrywise and q > 0.
    """
    w = pd.grid.w_trapz
    charged = sigmas is not None
    k = len(sigmas) if charged else 1
    # a charged start fits the linear level lam / _RATE_MARGIN of _setup,
    # at most a 40th of the box; the planar grid is built for lam = 1
    width0 = (min(pd.grid.R / 40.0, 2.5 / math.sqrt(pd.lam / _RATE_MARGIN))
              if charged else 1.0)
    if k == 1:
        widths = np.array([width0 * (0.5 + start)])
        masses = np.array([mu])
    else:
        s = min(max(start, 1e-3), 1.0 - 1e-3)
        widths = np.array([width0, width0])
        masses = np.array([s * mu, (1.0 - s) * mu])

    prof = np.exp(-(pd.grid.r**2) / (2.0 * widths[:, None] * widths[:, None]))
    prof[:, 0] = prof[:, 1]
    prof[:, -1] = 0.0
    peaks = np.sqrt(masses / ((prof * prof) @ w))
    phi = peaks[:, None] * prof

    if not charged:
        return phi, np.zeros(k)
    sig_theta = np.asarray(sigmas) + pd.theta
    if k == 1:
        return phi, peaks / sig_theta
    m = np.array([[sig_theta[0], -beta], [-beta, sig_theta[1]]])
    return phi, np.linalg.solve(m, peaks)


def _mass(phi, q, pd):
    """Mass of the plane-batched state (phi, q), summed over the planes."""
    return float(phi.ravel() @ (phi * pd.grid.w_trapz).ravel()
                 + q @ (2.0 * (phi @ pd.wG) + pd.gl2 * q))


def _tangent_direction(solve, flat):
    """The projected step: solve the two right-hand sides (gradient,
    mass gradient) and project the first solution onto the mass sphere's
    tangent space in the solve's metric, the Sobolev gradient of Henning
    and Peterseim (SIAM J. Numer. Anal. 58, 2020); returns (direction,
    slope), or None when the result is not a descent direction."""
    gvec, dmvec = flat
    dvec, nvec = solve(flat)
    denom = float(dmvec @ nvec)
    if not (denom != 0.0 and np.isfinite(denom)):
        return None
    pvec = dvec - (float(dmvec @ dvec) / denom) * nvec
    slope = float(gvec @ pvec)
    return (pvec, slope) if slope > 0.0 and np.isfinite(slope) else None


def _residual_direction(solve, flat, omega_hat, r):
    """The residual step: solve the one right-hand side r = gradient +
    (omega_hat/2) * mass gradient, the Lagrangian residual, formed in
    the buffer ``r``.  r pairs to 0 with the state, so A^-1 r is tangent
    as it stands and <r, A^-1 r> is the energy's slope along the
    retracted path (Antoine, Levitt and Tang, J. Comput. Phys. 343,
    2017); returns (A^-1 r, slope), or None when that slope is not
    positive and finite."""
    np.multiply(flat[1], 0.5 * omega_hat, out=r)
    r += flat[0]
    pvec = solve(r[None])[0]
    slope = float(r @ pvec)
    return (pvec, slope) if slope > 0.0 and np.isfinite(slope) else None


def _descend(pd, p, sigmas, beta, mu, cfg, phi, q, near=(), shift=None):
    """Projected descent from one start, with a Newton endgame; returns a
    run dict.

    The state is plane-batched: ``phi`` holds one plane per row, shape
    (k, n), and ``q`` their charges, shape (k,).  ``sigmas`` is None for
    the chargeless planar problem, whose charge stays zero.  ``p`` is
    the power, one scalar or one per row; None switches the |u|^p term
    off, and the descent then minimizes the linear energy Q/2.  Raises
    ValueError when the start cannot be scaled onto the sphere of mass
    ``mu``.

    Stop test: the W-metric projected-gradient norm is at most
    ``cfg.grad_tol`` * sqrt(mu) * max(1, |omega_hat|), omega_hat being
    the running multiplier estimate.  The gradient grows with the state,
    as sqrt(mu), and with omega_hat, so small masses and deep states are
    held to the same relative stationarity as shallow ones at mass 1;
    the rules below read the norm so scaled.

    Preconditioner: ``_linear_solver`` at the mass shift ``shift``
    (pd.lam by default), refactored at |omega_hat| once that leaves a
    factor-3 band around the shift, at most every 10 iterations, so that
    it tracks omega (a fixed shift took 15,666 winner iterations over
    the benchmark's 647 solves against 12,336; a refactor every
    iteration fails criterion 5).

    Step: where the grid's first cell resolves |omega_hat| the residual
    step (``_residual_direction``, one column per plane), elsewhere the
    projected step (``_tangent_direction``, two columns), which is also
    the fallback of a residual step whose slope is not positive and
    finite.  The residual step everywhere leaves census draws 11, 45,
    189, 266 and 285 unconverged, and the R = 1e6 box hybrid.  Armijo
    backtracking on the true energy starts from _STEP_SIZE, then from
    _STEP_GROW times the last accepted step (a fixed first step of 1
    took 17,918 winner iterations against 12,336).  Each evaluated point
    gets one energy-kernel call, so one |u|^p power pass, and the
    accepted trial's pieces give the next iteration's gradient.

    Newton endgame: the preconditioner leaves out the |u|^p curvature,
    and where that term dominates (a strong interaction at large mass,
    or p near 2) the descent contracts by only 0.91-0.94 per iteration;
    the endgame takes the sigma = 6, mu = 2 mu* hybrid from 138 to 46
    iterations.  Once a start's scaled norm fell by less than _CRAWL
    per iteration over the last _WINDOW iterations, with omega_hat
    within _OMEGA_DRIFT relative over them and the norm more than
    _NOISE_BAND times its tolerance, the start takes Newton steps
    (``_newton_solver``, first trial step 1) to its end, falling back to
    the preconditioned step when the factor fails or the direction does
    not descend.  Newton from the first iteration sent a quarter of the
    warm pool's 640 solves to other critical points.  Without the drift
    condition both sigma = 6 ``fine_hard`` solves stop at E = -47.97 in
    place of -109.90.  Inside the noise band the norm's roundoff floor
    sets its ratio: on the N = 32768, grading 1.000625 mesh ulp noise
    in phi alone is twice the default tolerance.  Without the crawl
    condition two ``fine_hard`` solves stop ``no_progress``
    (``single_n32768_refined`` and ``n8192_g1.01``).

    ``stop`` says why the descent ended: ``converged``; ``duplicate``
    (after the stop test, the iterate lies within _DUPLICATE, in the
    distance sqrt(mass(U - U_f) / mu), of the state U_f of a converged
    run in ``near``, and its energy is not below that run's within
    _TIE; 0.3 is under half the smallest distance measured between two
    distinct converged states, 0.80, and took the warm pool from 21,398
    iterations at 0.1 to 19,816); ``stalled`` (_STALL_LIMIT steps in a
    row each lowered the energy by at most _ENERGY_TOL relative);
    ``no_progress`` (in Newton mode the norm did not fall by _PROGRESS
    over _WINDOW iterations; without this stop the deep single (3.86,
    -0.27, 61.3) runs all 50,000 iterations); ``line_search`` (no step down to _STEP_FLOOR
    passed Armijo); ``degenerate`` (the projected step does not
    descend); ``max_iters``.  The run dict's ``omega_hat`` is the final
    multiplier estimate.
    """
    k, n = phi.shape
    nin = n - 2
    w = pd.grid.w_trapz
    charged = sigmas is not None
    stride = nin + (1 if charged else 0)
    sig_theta = pd.theta + (np.array(sigmas) if charged else 0.0)
    # W metric of one plane's (node-or-charge) row, the same for every
    # plane; the gradient covectors are paired in its inverse
    winv = np.append(1.0 / w[1:-1], np.ones(stride - nin))
    w2, Gin = 2.0 * w[1:-1], pd.G[1:-1]

    def coupling(q_):
        return beta * q_[0] * q_[1] if k == 2 else 0.0

    def evaluate(phi_, q_):
        # energy, Q, |u|^p integral and gradient pieces of one point
        e, qf, pt, pieces_ = plane_energy(phi_, q_, p, sig_theta, pd, work)
        return float(e.sum()) - coupling(q_), qf, pt, pieces_

    def retract(phi_, q_):
        # ghost tie, Dirichlet pin, charge clamp, one rescale to mass mu,
        # all in phi_'s own buffer
        phi_[:, 0] = phi_[:, 1]
        phi_[:, -1] = 0.0
        q_ = np.maximum(q_, 0.0)
        mt = _mass(phi_, q_, pd)
        if not mt > 1e-300 * mu:
            return None
        c = math.sqrt(mu / mt)
        phi_ *= c
        q_ *= c
        return phi_, q_

    def joins(f):
        # this iterate is on its way to the state of the converged run f
        if energy - f["energy"] < -_TIE * abs(f["energy"]):
            return False
        dm = _mass(phi - f["phi"], q - f["q"], pd)
        return math.sqrt(max(dm, 0.0) / mu) <= _DUPLICATE

    start = retract(phi.copy(), q)
    if start is None:
        raise ValueError(
            f"cannot scale the start onto the sphere of mass {mu!r}")
    phi, q = start
    shift = pd.lam if shift is None else shift
    step, stall, since_factor, newton = _STEP_SIZE, 0, 0, False
    # (scaled norm, omega_hat) of the last _WINDOW + 1 iterations, since
    # the Newton gate in Newton mode
    recent = collections.deque(maxlen=_WINDOW + 1)
    lin_solve = _linear_solver(pd.grid, shift, pd.theta, sigmas, beta)
    # Besides the state, the descent holds two state-size buffers.
    # ``gphi`` takes the gradient, then the residual step's right-hand
    # side, then each trial point of the line search; an accepted trial
    # becomes the state, and the old state's buffer takes the next
    # gradient.  ``work`` begins with ``rhs``, the gradient and
    # mass-gradient covectors, per plane and flat.  Once the step's
    # direction is found ``rhs`` is not read again, and ``work`` holds
    # the line search's scaled direction, then each trial's cell
    # differences and |u|^p (``plane_energy``); the next gradient
    # consumes the differences before ``rhs`` is filled.
    gphi = np.empty((k, n))
    work = np.empty(2 * k * n - k)
    rhs = work[:2 * k * stride].reshape(2, k, stride)
    flat = rhs.reshape(2, -1)
    energy, qform, pt, pieces = evaluate(phi, q)
    stop = "max_iters"
    pg_norm = math.inf

    for iterations in range(1, cfg.max_iters + 1):
        gq, dmq = plane_energy_grad(q, pieces, sig_theta, pd, gphi)
        # drop the pieces here: only the line search's latest trial keeps any
        pieces = point = None
        rhs[0, :, :nin] = gphi[:, 1:-1]
        dm = rhs[1, :, :nin]  # w2 * (phi + q Gin), formed in place
        np.multiply(q[:, None], Gin, out=dm)
        dm += phi[:, 1:-1]
        dm *= w2
        if charged:
            rhs[0, :, nin] = gq - beta * q[::-1] if k == 2 else gq
            rhs[1, :, nin] = dmq

        # Gram matrix in W^-1
        (gg, gm), (_, mm) = (rhs * winv).reshape(2, -1) @ flat.T
        pg_norm = math.sqrt(max(gg - gm * gm / mm, 0.0)) if mm > 0 else math.sqrt(gg)
        omega_hat = (float((pt - qform).sum()) + 2.0 * coupling(q)) / mu
        scale = math.sqrt(mu) * max(1.0, abs(omega_hat))
        if pg_norm <= cfg.grad_tol * scale:
            stop = "converged"
            break
        if any(joins(f) for f in near):
            stop = "duplicate"
            break

        recent.append((pg_norm / scale, omega_hat))
        if newton:
            if (len(recent) > _WINDOW
                    and recent[-1][0] > _PROGRESS * recent[0][0]):
                stop = "no_progress"
                break
        elif (len(recent) > _WINDOW
              and pg_norm > _NOISE_BAND * cfg.grad_tol * scale
              and recent[-1][0] > _CRAWL ** _WINDOW * recent[0][0]
              and all(abs(o - omega_hat) <= _OMEGA_DRIFT * abs(omega_hat)
                      for _, o in recent)):
            # the Newton-mode window starts at this iteration
            newton = True
            recent = collections.deque((recent[-1],), maxlen=_WINDOW + 1)

        since_factor += 1
        target = abs(omega_hat)
        if (since_factor >= 10 and math.isfinite(target)
                and not (shift / 3.0 <= target <= shift * 3.0)):
            shift = max(target, 1e-10)
            lin_solve = _linear_solver(pd.grid, shift, pd.theta, sigmas, beta)
            since_factor = 0

        found = None
        if newton:
            try:
                found = _tangent_direction(_newton_solver(
                    pd, phi, q, p, omega_hat, sigmas, beta), flat)
            except ArithmeticError:
                pass
        s_try = 1.0 if found else step * _STEP_GROW
        if found is None and pd.grid.resolves(abs(omega_hat)):
            found = _residual_direction(lin_solve, flat, omega_hat,
                                        gphi.reshape(-1)[:k * stride])
        if found is None:
            found = _tangent_direction(lin_solve, flat)
        if found is None:
            stop = "degenerate"
            break
        pvec, slope = found
        pvec = pvec.reshape(k, stride)

        while s_try >= _STEP_FLOOR:
            trial = gphi
            np.copyto(trial, phi)
            trial[:, 1:-1] -= np.multiply(pvec[:, :nin], s_try, out=rhs[0, :, :nin])
            retr = retract(trial, q - s_try * pvec[:, nin] if charged else q)
            if retr is not None:
                point = evaluate(*retr)
                e_try = point[0]
                if np.isfinite(e_try) and e_try <= energy - _ARMIJO * s_try * slope:
                    break
                point = None  # a rejected trial's pieces go before the next
            s_try *= 0.5
        if point is None:
            stop = "line_search"
            break

        drop = energy - e_try
        gphi = phi
        phi, q = retr
        energy, qform, pt, pieces = point
        pvec = found = None  # the direction goes before the next gradient
        step = s_try
        stall = stall + 1 if drop <= _ENERGY_TOL * max(1.0, abs(energy)) else 0
        if stall >= _STALL_LIMIT:
            stop = "stalled"
            break

    return {
        "phi": phi,
        "q": q,
        "energy": energy,
        "iterations": iterations,
        "stop": stop,
        "grad_norm": pg_norm,
        "omega_hat": omega_hat,
    }


def _lowest(runs: list[dict]) -> dict:
    """The first run whose energy is within _TIE relative of the lowest.

    Runs that reach the same state differ by an ulp or two, so a raw
    minimum would let roundoff choose the reported state.  Converged or
    not makes no difference: an unconverged run's energy still bounds
    the minimum from above, so a converged run above it is not the
    ground state.  The winner's stop goes into the report.
    """
    best = min(runs, key=lambda r: r["energy"])
    e = best["energy"]
    return next((r for r in runs if r["energy"] - e <= _TIE * abs(e)), best)


def _solve_on_grid(pd, p, sigmas, beta, mu, cfg):
    """Sequential multistart over ``cfg.starts``; returns the ``_lowest``
    of the finished runs.

    The starts mostly reach one state.  So they run in order, each given
    the converged runs finished before it as ``_descend``'s ``near``,
    and a start that joins one of those states (stop ``duplicate``) is
    dropped: the winner never is a joined start.  The warm pool takes
    19,816 iterations so, and 41,851 with every start run to its end.
    Over the benchmark's 647 solves a joined start, run alone, ends at
    most 5.7e-5 from the state it joined, and two distinct converged
    states lie at least 0.80 apart.  Joining unconverged runs as well
    flipped a census draw from ``converged`` to ``no_progress``.  A
    start after a converged run begins at the shift
    max(|omega_hat|, 1e-10) of the last one, the refactor rule's floor;
    begun at pd.lam, the warm pool took 24,158 iterations (its joined
    starts 7,890 against 3,563) and ``fine_hard`` 351 against 332.
    """
    runs = []
    for s in cfg.starts:
        near = [r for r in runs if r["stop"] == "converged"]
        shift = max(abs(near[-1]["omega_hat"]), 1e-10) if near else pd.lam
        # popped into the call, so that the descent holds the only
        # reference to its start and frees it once it is scaled
        guess = list(_initial_guess(pd, sigmas, beta, mu, s))
        run = _descend(pd, p, sigmas, beta, mu, cfg, guess.pop(0), guess.pop(),
                       near=near, shift=shift)
        if run["stop"] != "duplicate":
            runs.append(run)
    return _lowest(runs)


# ----------------------------------------------------------------------
# report assembly and public entry points


def _sample_profiles(grid, u1, u2) -> dict[str, list[float]]:
    # interior nodes only: node 0 is the (possibly singular) origin and
    # the last node is pinned to zero by the box truncation
    n = grid.n_nodes
    # the truncated geomspace never decreases, so dropping adjacent
    # repeats is np.unique, whose first call imports numpy.ma
    idx = np.geomspace(1, n - 2, 64).astype(int)
    idx = idx[np.r_[True, idx[1:] != idx[:-1]]]
    return {"r": grid.r[idx].tolist(),
            "u1": total_field(u1).values[idx].tolist(),
            "u2": total_field(u2).values[idx].tolist()}


def _build_report(pd, run, P, side=None, *, vertex=True):
    """Report of a descent run; both fields carry ``pd``.  A one-plane
    run fills plane ``side`` and leaves the other exactly empty."""
    grid = pd.grid
    fields = [ChargedField(RadialField(grid, f), q, pd)
              for f, q in zip(run["phi"], run["q"])]
    if side is not None:
        fields.insert(1 - side, ChargedField(
            RadialField(grid, np.zeros(grid.n_nodes)), 0.0, pd))
    U = HybridState(*fields)
    m1, m2 = mass(U.u1), mass(U.u2)
    total = m1 + m2
    if abs(total - P.mu) > 1e-10 * P.mu:
        raise RuntimeError(
            f"mass constraint violated in final state: {total!r} vs {P.mu!r}")
    omega = extract_omega(U, P)
    el_res = el_residual(U, P, omega)
    converged = run["stop"] == "converged"
    bres = boundary_residual(U, P) if vertex else (0.0, 0.0)
    return GroundStateReport(
        energy=run["energy"],
        mass1=m1,
        mass2=m2,
        q1=U.u1.q,
        q2=U.u2.q,
        omega=omega,
        el_residual=el_res,
        boundary_residuals=bres,
        iterations=run["iterations"],
        converged=converged,
        stop_reason=run["stop"],
        certificate=certify(converged, omega, el_res),
        profile_samples=_sample_profiles(grid, U.u1, U.u2),
        state=U,
    )


def solve_planar(p: float, mu: float, cfg: SolverConfig | None = None) -> GroundStateReport:
    """Ground state of the plain planar NLS energy at mass mu (no charge).

    The charge stays frozen at zero; boundary_residuals is reported as
    (0, 0) because no vertex condition applies.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    P = HybridParams(p, p, 0.0, 0.0, 0.0, mu)
    pd = plane_data(_grid_for(1.0, cfg), 1.0)
    run = _solve_on_grid(pd, p, None, 0.0, mu, cfg)
    return _build_report(pd, run, P, 0, vertex=False)


def solve_single(p: float, sigma: float, mu: float,
                 cfg: SolverConfig | None = None) -> GroundStateReport:
    """Ground state of one plane with its point charge at mass mu."""
    cfg = cfg if cfg is not None else SolverConfig()
    P = HybridParams(p, p, sigma, 0.0, 0.0, mu)
    pd = _setup(lambda_for_theta(-sigma), cfg)
    run = _solve_on_grid(pd, p, (sigma,), 0.0, mu, cfg)
    return _build_report(pd, run, P, 0)


def _solve_two_plane(P: HybridParams, cfg: SolverConfig) -> GroundStateReport:
    """Multi-start over the configured mass splits; the lowest run wins."""
    pd = _setup(omega_star(P), cfg)
    # equal powers stay one scalar, which keeps the kernels' fast paths
    p = P.p1 if P.p1 == P.p2 else np.array([P.p1, P.p2])
    best = _solve_on_grid(pd, p, (P.sigma1, P.sigma2), P.beta, P.mu, cfg)
    return _build_report(pd, best, P)


def solve_hybrid(P: HybridParams, cfg: SolverConfig | None = None) -> GroundStateReport:
    """Ground state of the coupled two-plane energy at mass P.mu.

    For beta != 0, multi-start over the configured mass splits.  For
    beta = 0 only the two single-plane problems are solved, on the grid
    the two-plane problem uses, and the lower one (plane 1 within _TIE)
    is reported with the other plane exactly empty.  When the two
    endpoints agree to 1e-6, both reports are attached as ``branches``.

    The beta = 0 shortcut is exact in the discrete problem.  The energy
    splits as e1(s) + e2(mu - s), e_i(m) being plane i's minimum at mass
    m.  The quadratic form and the mass are quadratic and the |u|^p term
    is p-homogeneous with p > 2, so scaling a minimizer at mass m by
    sqrt(t), t > 1, gives e_i(t m) < t e_i(m): e_i(m)/m is strictly
    decreasing.  Hence for every 0 < s < mu,
    e1(s) + e2(mu - s) > (s/mu) e1(mu) + (1 - s/mu) e2(mu)
    >= min(e1(mu), e2(mu)).
    """
    cfg = cfg if cfg is not None else SolverConfig()
    if P.beta != 0.0:
        return _solve_two_plane(P, cfg)
    pd = _setup(omega_star(P), cfg)
    singles = [_solve_on_grid(pd, pi, (si,), 0.0, P.mu, cfg)
               for pi, si in ((P.p1, P.sigma1), (P.p2, P.sigma2))]
    i = 0 if _lowest(singles) is singles[0] else 1
    e1, e2 = singles[0]["energy"], singles[1]["energy"]
    if abs(e1 - e2) > 1e-6 * max(1.0, abs(e1)):
        return _build_report(pd, singles[i], P, i)
    branches = tuple(_build_report(pd, run, P, j)
                     for j, run in enumerate(singles))
    return dataclasses.replace(branches[i], branches=branches)
