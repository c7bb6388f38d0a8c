"""Ground-state solvers for the planar, single-plane and two-plane problems.

The minimization runs a projected descent on the mass sphere, with
linearly preconditioned steps and a Newton endgame.  The preconditioner
is the positive-definite linear part of the energy Hessian: radial
stiffness + shift * mass diagonal on each plane's profile, and the
charge block (1x1, or the 2x2 block coupled by beta) on the charges,
with no profile-charge entries.  So it is factored as one SPD
tridiagonal shared by the planes (LAPACK dpttrf, refactored when the
shift moves) and a charge block inverted in closed form; each iteration
solves its two right-hand sides in one dpttrs call.

That preconditioner leaves out the |u|^p curvature, and where that term
dominates (a strong interaction at large mass, or p near 2) the descent
contracts by only 0.91-0.94 per iteration.  A start that is in a basin
but crawling switches to Newton steps on the full constrained Hessian,
which has the same shape: per plane a tridiagonal (now indefinite,
LU-factored by dgttrf) bordered by its charge column, plus the charge
block and the mass constraint.  The gate, the fallback and the
progress stop are in _descend, the factorization in _newton_solver.
The endgame takes the sigma = 6, mu = 2 mu* hybrid from 138 to 46
iterations.  Convergence still depends on the mesh: at N=8192 the
default grading 1.01 makes first cells near 1e-20, the scaled norm
stays above 1e3 against a tolerance of 1e-6, and the descent stops
after 12 iterations on a preconditioned direction that does not
descend; grading 1.0025 converges in 18.

That dpttrs call solves only the leading block the right-hand sides
reach, and the Newton solve the leading block the state reaches.  Deep
states underflow to exact zeros well inside the box, and carrying the
solve into that tail runs the forward sweep through subnormal numbers,
where a multiplier above 1/2 traps it at the smallest subnormal.  The
cut changes the solution only below e^-80 of its value at the last
nonzero right-hand-side node, and up to that node not at all; the
right-hand sides are scanned for it only when the factor can trap (the
rule and the argument are in _linear_solver).

Steps are safeguarded by Armijo backtracking on the true energy, and
the iterate is retracted to the constraint set after every step (charge
clamp at zero, then a joint rescale of profiles and charges).  Each
evaluated point, the start and every trial, gets one energy-kernel call
and so one |u|^p power pass: the accepted trial's pieces give the next
iteration's gradient, multiplier estimate and convergence test, and are
dropped once that gradient is assembled.

Convergence is declared on the W-metric projected-gradient norm, scaled
by max(1, |omega_hat| * sqrt(mu)) so that deep, tightly bound states are
held to the same *relative* stationarity as shallow ones.  Every run
records why it stopped (``stop``; the winner's is the report's
``stop_reason``).

Each solve is a multistart over mass splits, and the starts mostly
reach one state: on the benchmark's 640-solve warm pool only 12,560 of
50,909 iterations were the winning starts'.  So the multistart is
screened (_solve_on_grid): every start pauses at _SCREEN = 1e4 times
its tolerance, the lowest paused start is finished, and a later one is
finished only when it lies more than _DUPLICATE = 0.1 from every state
already finished.  A paused state lay at most 0.34 from its own final
state and two distinct converged states at least 0.80 apart, and the
pool took 33,196 iterations.  A paused run keeps only its state and
scalars; resumed, it continues bit for bit as if it had not paused.

At beta = 0 only the two single-plane problems are solved: the ground
state then sits on one plane (the argument is in solve_hybrid).
"""

from __future__ import annotations

import collections
import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

from ._kernels import _exponent, plane_energy, plane_energy_grad
from .energy import (
    ChargedField,
    HybridParams,
    HybridState,
    _state_pieces,
    boundary_residual,
    el_residual,
    mass,
    plane_data,
    total_field,
)
from .grid import (
    RadialField,
    RadialGrid,
    check_first_cell,
    first_cell,
    make_grid,
)
from .specfun import lambda_for_theta

__all__ = [
    "SolverConfig",
    "GroundStateReport",
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

#: smallest cell target: this many lengths 1/sqrt(lam) per first cell
_FIRST_CELL_FACTOR = 0.05

_ARMIJO = 1e-4
#: first trial step of the line search
_STEP_SIZE = 1.0
_STEP_GROW = 1.3
_STEP_FLOOR = 1e-14
_STALL_LIMIT = 50
#: a step that lowers the energy by at most this much relative stalls
_ENERGY_TOL = 1e-10
#: Newton endgame: a start whose scaled projected-gradient norm fell by
#: less than _CRAWL per iteration over the last _WINDOW iterations, with
#: omega_hat within _OMEGA_DRIFT relative over them, takes Newton steps
#: from then on ...
_WINDOW = 5
_CRAWL = 0.8
_OMEGA_DRIFT = 0.01
#: ... unless that norm is within this factor of its tolerance.  There the
#: norm's roundoff floor sets its ratio, not the contraction: on the
#: N=32768, grading 1.000625 mesh, ulp-level noise in phi alone gives a
#: norm of about twice the default tolerance, and no step can beat that
_NOISE_BAND = 10.0
#: ... and stops without progress once that norm has not fallen by this
#: factor over its last _WINDOW Newton-mode iterations
_PROGRESS = 0.5
#: starts whose energies agree to this relative gap reached the same state
_TIE = 1e-12
#: the multistart pauses every start at this many times its tolerance ...
_SCREEN = 1e4
#: ... and skips a paused start that lies within this distance
#: sqrt(mass(U - U_f) / mu) of a state U_f it has already finished
_DUPLICATE = 0.1
#: the preconditioner solve stops this many nats of multiplier decay past
#: the last nonzero right-hand-side node ...
_CUT_NATS = 80.0
#: ... and looks for that node only when the factor's multipliers can
#: reach subnormal numbers (exp(-708) is the smallest normal double)
_TRAP_NATS = 700.0


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and descent parameters shared by all solvers."""

    R: float = 40.0
    N: int = 2048
    grading: float = 1.01
    max_iters: int = 50000
    grad_tol: float = 1e-6
    starts: tuple[float, ...] = (0.1, 0.5, 0.9)

    def __post_init__(self) -> None:
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"R must be finite and > 0, got {self.R}")
        if self.N < 64:
            raise ValueError(f"N must be at least 64, got {self.N}")
        if not 1.0 <= self.grading < 2.0:
            raise ValueError(f"grading must lie in [1, 2), got {self.grading}")
        check_first_cell(self.R, self.N, self.grading)
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be > 0, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if len(self.starts) == 0:
            raise ValueError("at least one start is required")
        if any(not (0.0 <= s <= 1.0) for s in self.starts):
            raise ValueError("every start must lie in [0, 1]")


@dataclass
class GroundStateReport:
    """Converged-state summary returned by the solve_* entry points."""

    energy: float
    mass1: float
    mass2: float
    q1: float
    q2: float
    omega: float
    el_residual: float
    boundary_residuals: tuple[float, float]
    iterations: int
    converged: bool
    #: why the winning start's descent ended (see ``_descend``)
    stop_reason: str
    profile_samples: dict[str, list[float]]
    #: endpoint branches when the uncoupled problem ties (both one-sided
    #: configurations reach the same energy); None otherwise
    branches: tuple["GroundStateReport", "GroundStateReport"] | None = None
    #: full discrete state (not serialized)
    state: HybridState | None = None

    def as_dict(self) -> dict:
        d = {
            "energy": self.energy,
            "mass1": self.mass1,
            "mass2": self.mass2,
            "q1": self.q1,
            "q2": self.q2,
            "omega": self.omega,
            "el_residual": self.el_residual,
            "boundary_residuals": list(self.boundary_residuals),
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "profile_samples": self.profile_samples,
        }
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
    """Increase the grading until the first cell resolves scale 1/sqrt(lam)."""
    target = _FIRST_CELL_FACTOR / math.sqrt(lam)
    if first_cell(R, n, g_default) <= target:
        return g_default
    lo, hi = max(g_default, 1.0 + 1e-9), 1.2
    if first_cell(R, n, hi) > target:
        raise ValueError(
            f"rate {lam:.3e} is too deep for an N={n} grid; increase N")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if first_cell(R, n, mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def _grid_for(lam: float, cfg: SolverConfig) -> RadialGrid:
    return make_grid(cfg.R, cfg.N, _auto_grading(cfg.R, cfg.N, cfg.grading, lam))


def _setup(rate: float, cfg: SolverConfig) -> tuple[RadialGrid, float, dict]:
    """Grid, decomposition rate and plane data for the linear level ``rate``."""
    lam = max(_RATE_MARGIN * rate, (16.0 / cfg.R) ** 2)
    grid = _grid_for(lam, cfg)
    return grid, lam, plane_data(grid, lam)


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

    Degrees of freedom are the interior profile nodes 1..N-1 of each
    plane (node 0 is the ghost tied to node 1, node N is pinned), plus
    one charge per plane when ``sigmas`` is given, laid out plane by
    plane.  In decomposition coordinates the form has no profile-charge
    cross terms: every plane shares one SPD tridiagonal block, factored
    once as L D L^T, and the charge block (s+th for one plane,
    [[s1+th, -beta], [-beta, s2+th]] for two) is inverted in closed form.

    The returned solve takes right-hand sides as the rows of a
    (m, planes*stride) array and solves all of them, every plane's
    profile at once, in one LAPACK call.  Raises ArithmeticError when
    the tridiagonal block or the charge block is not positive definite.

    Only the leading M x M block that the right-hand sides reach is
    solved, and the profile entries past M are set to 0.  The first M
    pivots and M-1 multipliers of the full factor are the factor of
    that block, so no refactor is needed.  M is the last node where any
    right-hand side is nonzero, extended until the product of the
    multipliers |e_i| has fallen by e^-_CUT_NATS.  Past the last nonzero
    node the solution decays like that product, so the cut changes it
    only below e^-80 of its value at that node, and the change reaches
    that node and every node before it damped by e^-80 once more, far
    below an ulp.  The cut matters for deep states, whose profiles
    underflow to exact zeros well inside the box: without it the
    forward sweep carries the solution into subnormal numbers, and once
    there a multiplier above 1/2 holds it at the smallest subnormal
    under round-to-nearest for the rest of the grid, each step a
    slow-path multiply.  So the right-hand sides are scanned only when
    the factor can trap, that is when some |e_i| > 1/2 sits more than
    _TRAP_NATS of decay from node 0; otherwise M is every node.  Any
    SPD preconditioner leaves the descent correct, because convergence
    is judged on the full projected gradient.
    """
    cu = grid.c_h1  # per cell; interior node j sits between cells j-1, j
    diag = shift * grid.w_trapz[1:-1] + cu[1:]
    diag[1:] += cu[1:-1]
    d, e, info = dpttrf(diag, -cu[1:-1])
    if info != 0:
        raise ArithmeticError(
            f"preconditioner is not positive definite (dpttrf info {info})")
    nin = d.size
    # decay[j]: nats the forward sweep's multipliers take off from node 0
    # to node j; nondecreasing, since diagonal dominance gives |e_i| < 1
    ae = np.abs(e)
    decay = np.zeros(nin)
    np.cumsum(-np.log(ae), out=decay[1:])
    traps = bool(np.any((ae > 0.5) & (decay[:-1] > _TRAP_NATS)))
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
        out[:, :m] = dpttrs(d[:m], e[:m - 1], rows[:, :m].T)[0].T
        out[:, m:nin] = 0.0
        if charged:
            qs = rows[:, nin].reshape(len(rhs), -1)
            out[:, nin] = (qs @ adj).ravel() / det
        return out.reshape(rhs.shape)

    return solve


def _newton_solver(grid, pd, phi, q, p, omega, sigmas, beta):
    """Factor the Hessian of E + (omega/2)*mass at the state (phi, q).

    The descent's Newton step.  Same unknowns, layout and call as
    ``_linear_solver``'s solve; projecting its two solutions against the
    mass gradient, as the descent does, eliminates the mass border.
    Each plane's profile block is stiffness + omega*W minus the |u|^p
    curvature (p-1)|u|^(p-2) w_in, with the origin cell's on node 1.
    The blocks are stacked as one tridiagonal with zero coupling and
    LU-factored (dgttrf: the block is indefinite).  Each charge borders
    its plane with the column (omega-lam) wG minus the curvature times
    G, and the charges' k x k Schur complement is inverted.  Each
    solve takes one step of iterative refinement: the convergence test
    weighs the residual by 1/w, and w is tiny near the origin of a
    graded mesh.  Without it the sigma = 6, mu = 2 mu* hybrid at
    N=32768 stops without progress.

    Only the leading M nodes are solved, as in ``_linear_solver``: M is
    the node after the last where phi (or, with charges, G) is nonzero,
    extended until the tail operator stiffness + omega*W (no curvature
    and no border there) has decayed by e^-_CUT_NATS, at the
    constant-coefficient rate 2 asinh(h sqrt(omega)/2) nats per cell.
    Raises ArithmeticError when a factor is singular.
    """
    k, n = phi.shape
    nin = n - 2
    w, cu, G, lam = grid.w_trapz, grid.c_h1, pd["G"], pd["lam"]
    charged = sigmas is not None
    stride = nin + (1 if charged else 0)
    live = (phi[:, 1:-1] != 0.0).any(axis=0)
    if charged:
        live |= G[1:-1] != 0.0
    nz = np.flatnonzero(live)
    last = min(int(nz[-1]) + 1 if nz.size else 0, nin - 1)
    m = nin
    if omega > 0.0 and last < nin - 1:
        nats = np.cumsum(2.0 * np.arcsinh(0.5 * math.sqrt(omega) * grid.h[last + 1:-1]))
        m = min(nin, last + 2 + int(np.searchsorted(nats, _CUT_NATS)))

    # curvature of the |u|^p term, weights included: (p-1)|u|^(p-2) w
    g0 = pd["g0"]
    u = phi + q[:, None] * G
    u0 = phi[:, 1:2] + q[:, None] * g0
    if p is None:
        a, a0 = np.zeros_like(u), np.zeros_like(u0)
    else:
        pm = _exponent(p)
        a = (pm - 1.0) * np.abs(u) ** (pm - 2.0) * pd["w_in"]
        a0 = (pm - 1.0) * np.abs(u0) ** (pm - 2.0) * (pd["area0"] * pd["lagw"])
    sl = slice(1, m + 1)
    diag = omega * w[sl] + cu[1:m + 1] - a[:, sl]
    diag[:, 1:] += cu[1:m]
    diag[:, 0] -= a0.sum(axis=1)
    off = np.zeros((k, m))
    off[:, :-1] = -cu[1:m]
    off = off.ravel()[:-1]
    dl, d, du, du2, ipiv, info = dgttrf(off, diag.ravel(), off)
    if info != 0:
        raise ArithmeticError(f"Newton block is singular (dgttrf info {info})")

    def tri_solve(b):  # (r, k, m) -> (r, k, m)
        r = len(b)
        x = dgttrs(dl, d, du, du2, ipiv, b.reshape(r, k * m).T)[0]
        return x.T.reshape(r, k, m)

    if charged:
        border = (omega - lam) * (w * G)[sl] - a[:, sl] * G[sl]
        border[:, 0] -= (a0 * g0).sum(axis=1)
        cblock = -beta * (1.0 - np.eye(k))
        cblock[np.diag_indices(k)] = (
            pd["theta"] + np.asarray(sigmas) + (omega - lam) * pd["gl2"]
            - (a * G * G).sum(axis=1) - (a0 * g0 * g0).sum(axis=1))
        ycol = tri_solve(np.eye(k)[:, :, None] * border)  # A^-1 of each border
        try:
            schur_inv = np.linalg.inv(cblock - np.einsum("in,jin->ij", border, ycol))
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError("Newton charge block is singular") from exc

    def solve_once(rows):
        out = np.zeros_like(rows)
        x = tri_solve(rows[:, :, :m])
        if charged:
            y = (rows[:, :, nin] - (x * border).sum(-1)) @ schur_inv.T
            x -= np.einsum("rj,jin->rin", y, ycol)
            out[:, :, nin] = y
        out[:, :, :m] = x
        return out

    def apply(z):  # the Hessian times z, over the solved block
        x = z[:, :, :m]
        hz = np.zeros_like(z)
        hz[:, :, :m] = diag * x
        hz[:, :, :m - 1] -= cu[1:m] * x[:, :, 1:]
        hz[:, :, 1:m] -= cu[1:m] * x[:, :, :-1]
        if charged:
            y = z[:, :, nin]
            hz[:, :, :m] += y[:, :, None] * border
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

    Independently of the secular closed form, runs the same descent as
    the nonlinear solvers (``_descend``) with the |u|^p term off, so it
    minimizes the energy Q/2 on the unit-mass sphere of the discretized
    two-plane space from the middle start, and returns -Q(U) at the
    minimizer.  Because it shares every quadrature and every line of
    the descent with the nonlinear solvers, the inequality
    omega > omega_star_grid holds for their converged ground states
    without discretization-bias caveats.  Raises RuntimeError when the
    descent stops unconverged.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    grid, lam, pd = _setup(omega_star(P), cfg)
    sigmas = (P.sigma1, P.sigma2)
    phi, q = _initial_guess(grid, pd, sigmas, P.beta, 1.0, 0.5,
                            lam / _RATE_MARGIN)
    run = _descend(grid, lam, pd, None, sigmas, P.beta, 1.0, cfg, phi, q)
    if not run["converged"]:
        raise RuntimeError(
            f"linear descent stopped unconverged ({run['stop']}) after "
            f"{run['iterations']} iterations (projected-gradient norm "
            f"{run['grad_norm']:.3e})")
    return -2.0 * run["energy"]


# ----------------------------------------------------------------------
# descent engine


def _initial_guess(grid, pd, sigmas, beta, mu, start, omega_ref):
    """Gaussian profiles with matched charges, one row per plane.

    Each profile carries its plane's share of the mass; ``_descend``
    rescales the start onto the sphere.  ``sigmas`` None is the
    chargeless planar problem.
    """
    w = grid.w_trapz
    charged = sigmas is not None
    k = len(sigmas) if charged else 1
    width0 = 1.0
    if charged and omega_ref > 0.0:
        width0 = min(1.0, 2.5 / math.sqrt(omega_ref))
    if k == 1:
        widths = np.array([width0 * (0.5 + start)])
        masses = np.array([mu])
    else:
        s = min(max(start, 1e-3), 1.0 - 1e-3)
        widths = np.array([width0, width0])
        masses = np.array([s * mu, (1.0 - s) * mu])

    prof = np.exp(-(grid.r**2) / (2.0 * widths[:, None] * widths[:, None]))
    prof[:, 0] = prof[:, 1]
    prof[:, -1] = 0.0
    peaks = np.sqrt(masses / ((prof * prof) @ w))
    phi = peaks[:, None] * prof

    q = np.zeros(k)
    if charged:
        th = pd["theta"]
        if k == 1:
            denom = sigmas[0] + th
            sol = np.array([peaks[0] / denom if denom > 1e-12 else -1.0])
        else:
            m2 = np.array([[sigmas[0] + th, -beta], [-beta, sigmas[1] + th]])
            try:
                sol = np.linalg.solve(m2, peaks)
            except np.linalg.LinAlgError:
                sol = np.array([-1.0, -1.0])
        q = np.where(sol > 0.0, sol, 0.1 * np.sqrt(masses))
    return phi, q


def _mass(phi, q, w, wG, gl2):
    """Mass of the plane-batched state (phi, q), summed over the planes."""
    return float(phi.ravel() @ (phi * w).ravel() + q @ (2.0 * (phi @ wG) + gl2 * q))


def _tangent_direction(solve, flat):
    """Solve the two right-hand sides (gradient, mass gradient) and
    project the first solution onto the mass sphere's tangent space in
    the solve's metric; returns (direction, slope), or None when the
    result is not a descent direction."""
    gvec, dmvec = flat
    dvec, nvec = solve(flat)
    denom = float(dmvec @ nvec)
    if not (denom != 0.0 and np.isfinite(denom)):
        return None
    pvec = dvec - (float(dmvec @ dvec) / denom) * nvec
    slope = float(gvec @ pvec)
    return (pvec, slope) if slope > 0.0 and np.isfinite(slope) else None


def _descend(grid, lam, pd, p, sigmas, beta, mu, cfg, phi, q,
             screen=False, paused=None):
    """Projected descent from one start, with a Newton endgame; returns a
    run dict.

    The state is plane-batched: ``phi`` holds one plane per row, shape
    (k, n), and ``q`` their charges, shape (k,).  ``sigmas`` is None for
    the chargeless planar problem, whose charge stays zero.  ``p`` is
    the power, one scalar or one per row; None switches the |u|^p term
    off, and the descent then minimizes the linear energy Q/2.

    Each step starts as a preconditioned step: the linear-part solve is
    refactored with a mass shift that tracks the running multiplier
    estimate, so the metric stays matched to the linear part even when
    the final omega sits far from the decomposition rate (the chargeless
    planar problem being the extreme case).  Where the nonlinear term
    dominates the Hessian that metric contracts slowly.  So once a start
    is in a basin but crawling (the scaled projected-gradient norm fell
    by less than _CRAWL per iteration over the last _WINDOW iterations
    while omega_hat stayed within _OMEGA_DRIFT relative, and it is still
    more than _NOISE_BAND times its tolerance), it takes Newton steps for
    the rest of its descent: the same projection with ``_newton_solver``
    in place of the preconditioner, first trial step 1.  The
    preconditioned direction is the fallback for a step whose Newton
    factor fails or whose Newton direction does not descend.  Switched
    on from the first iteration, Newton steps sent a quarter of the
    benchmark's 640 warm-pool solves to other critical points, hence the
    gate.  In Newton mode a start that has not cut its norm by _PROGRESS
    over its last _WINDOW iterations stops.

    The run dict's ``stop`` says why the descent ended: ``converged``,
    ``stalled`` (_STALL_LIMIT steps in a row each lowered the energy by
    at most _ENERGY_TOL relative), ``no_progress`` (the Newton-mode
    rule), ``line_search`` (no step down to _STEP_FLOOR passed Armijo),
    ``max_iters`` or ``degenerate`` (the preconditioned direction does
    not descend; the N=8192, grading 1.01 hybrid of the module docstring
    stops so after 12 iterations).

    With ``screen`` the descent also pauses, stop ``screened``, at the
    first iteration whose scaled projected-gradient norm is within
    _SCREEN times its tolerance.  The run's ``paused`` then holds the
    scalars that with ``phi`` and ``q`` make up the run: the shift, the
    step, the stall and refactor counters, the iteration, the ``recent``
    window and the Newton mode.  Passing ``phi``, ``q`` and ``paused``
    back continues the run: the preconditioner is refactored at the
    same shift and the point re-evaluated, so it ends after the same
    iterations, with the same stop and the bit-identical state and
    energy of a run that never paused.  Nothing else is kept while
    paused: no factor and no buffers.  Raises ValueError when the start
    cannot be scaled onto the sphere of mass ``mu``.
    """
    k, n = phi.shape
    nin = n - 2
    w = grid.w_trapz
    G, gl2, th = pd["G"], pd["gl2"], pd["theta"]
    charged = sigmas is not None
    stride = nin + (1 if charged else 0)
    sig_theta = th + (np.array(sigmas) if charged else 0.0)
    wG = w * G
    args = (G, p, lam, sig_theta, gl2, wG, pd["w_in"], grid.c_h1,
            pd["area0"] * pd["lagw"], pd["g0"])
    # W metric of the flat (plane, node-or-charge) layout; the gradient
    # covectors are paired in its inverse
    winv = np.tile(np.append(1.0 / w[1:-1], np.ones(stride - nin)), k)
    w2, Gin = 2.0 * w[1:-1], G[1:-1]

    def coupling(q_):
        return beta * q_[0] * q_[1] if k == 2 else 0.0

    def evaluate(phi_, q_):
        # energy, Q, |u|^p integral and gradient pieces of one point
        e, qf, pt, pieces_ = plane_energy(phi_, q_, *args)
        return float(e.sum()) - coupling(q_), qf, pt, pieces_

    def retract(phi_, q_):
        # ghost tie, Dirichlet pin, charge clamp, one rescale to mass mu
        phi_[:, 0] = phi_[:, 1]
        phi_[:, -1] = 0.0
        q_ = np.maximum(q_, 0.0)
        mt = _mass(phi_, q_, w, wG, gl2)
        if not mt > 1e-300:
            return None
        c = math.sqrt(mu / mt)
        return c * phi_, c * q_

    if paused is None:
        start = retract(phi.copy(), q)
        if start is None:
            raise ValueError(
                f"cannot scale the start onto the sphere of mass {mu!r}")
        phi, q = start
        shift, step, stall, since_factor, first = lam, _STEP_SIZE, 0, 0, 1
        recent, newton, newton_iters = (), False, 0
    else:
        (shift, step, stall, since_factor, first,
         recent, newton, newton_iters) = paused
    # (scaled norm, omega_hat) of the last _WINDOW + 1 iterations
    recent = collections.deque(recent, maxlen=_WINDOW + 1)
    lin_solve = _linear_solver(grid, shift, th, sigmas, beta)
    energy, qform, pt, pieces = evaluate(phi, q)
    gphi = np.empty((k, n))
    # gradient and mass-gradient covectors, per plane and flat
    rhs = np.zeros((2, k, stride))
    flat = rhs.reshape(2, -1)
    stop = "max_iters"
    pg_norm = math.inf

    for iterations in range(first, cfg.max_iters + 1):
        gq, dmq = plane_energy_grad(q, pieces, *args, gphi)
        # drop the pieces here: only the line search's latest trial keeps any
        pieces = point = None
        rhs[0, :, :nin] = gphi[:, 1:-1]
        rhs[1, :, :nin] = w2 * (phi[:, 1:-1] + q[:, None] * Gin)
        if charged:
            rhs[0, :, nin] = gq - beta * q[::-1] if k == 2 else gq
            rhs[1, :, nin] = dmq

        (gg, gm), (_, mm) = (flat * winv) @ flat.T  # Gram matrix in W^-1
        pg_norm = math.sqrt(max(gg - gm * gm / mm, 0.0)) if mm > 0 else math.sqrt(gg)
        omega_hat = (float((pt - qform).sum()) + 2.0 * coupling(q)) / mu
        scale = max(1.0, abs(omega_hat) * math.sqrt(mu))
        if pg_norm <= cfg.grad_tol * scale:
            stop = "converged"
            break
        if screen and pg_norm <= _SCREEN * cfg.grad_tol * scale:
            stop = "screened"
            break

        recent.append((pg_norm / scale, omega_hat))
        if newton:
            newton_iters += 1
            if (newton_iters >= _WINDOW
                    and recent[-1][0] > _PROGRESS * recent[0][0]):
                stop = "no_progress"
                break
        elif (len(recent) > _WINDOW
              and pg_norm > _NOISE_BAND * cfg.grad_tol * scale
              and recent[-1][0] > _CRAWL ** _WINDOW * recent[0][0]
              and all(abs(o - omega_hat) <= _OMEGA_DRIFT * abs(omega_hat)
                      for _, o in recent)):
            newton = True

        since_factor += 1
        target = abs(omega_hat)
        if (since_factor >= 10 and math.isfinite(target)
                and not (shift / 3.0 <= target <= shift * 3.0)):
            shift = max(target, 1e-10)
            lin_solve = _linear_solver(grid, shift, th, sigmas, beta)
            since_factor = 0

        found = None
        if newton:
            try:
                found = _tangent_direction(_newton_solver(
                    grid, pd, phi, q, p, omega_hat, sigmas, beta), flat)
            except ArithmeticError:
                pass
        s_try = 1.0 if found else step * _STEP_GROW
        if found is None:
            found = _tangent_direction(lin_solve, flat)
        if found is None:
            stop = "degenerate"
            break
        pvec, slope = found
        pvec = pvec.reshape(k, stride)

        while s_try >= _STEP_FLOOR:
            trial = phi.copy()
            trial[:, 1:-1] -= s_try * pvec[:, :nin]
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
        phi, q = retr
        energy, qform, pt, pieces = point
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
        "converged": stop == "converged",
        "stop": stop,
        "grad_norm": pg_norm,
        # what a later call needs, with phi and q, to continue the run
        "paused": ((shift, step, stall, since_factor, iterations,
                    tuple(recent), newton, newton_iters)
                   if stop == "screened" else None),
    }


def _lowest(runs: list[dict]) -> dict:
    """The first run whose energy is within _TIE relative of the lowest.

    Runs that reach the same state differ by an ulp or two, so a raw
    minimum would let roundoff choose the reported state.  Converged or
    not makes no difference: an unconverged run's energy still bounds
    the minimum from above, so a converged run above it is not the
    ground state.  The winner's ``converged`` goes into the report.
    """
    best = min(runs, key=lambda r: r["energy"])
    e = best["energy"]
    return next((r for r in runs if r["energy"] - e <= _TIE * abs(e)), best)


def _solve_on_grid(grid, lam, pd, p, sigmas, beta, mu, cfg):
    """Screened multistart over ``cfg.starts``; returns the ``_lowest``
    of the finished runs.

    Every start descends to its screen, _SCREEN times its tolerance, or
    to an earlier stop, which is final.  The screened starts are then
    taken in order of energy: the lowest is finished, and each later one
    is finished unless it lies within _DUPLICATE, in the distance
    sqrt(mass(U - U_f) / mu), of a state U_f finished before it.  A start
    so skipped was on its way to that state.  Measured over the
    benchmark's 640 warm-pool and 7 fine_hard solves: a finished start's
    screened state lies at most 0.34 from its final state (median
    2.3e-3), a skipped one at most 0.09994 from the state it joined, and
    the closest two distinct converged states are 0.80 apart.  Without the
    distance test, finishing only the lowest screened start picks the
    wrong state of (2.87, 2.919, 1.784, 1.116, 0.547, 0.556) once the
    screen is 1e5.
    """
    w = grid.w_trapz
    wG, gl2 = w * pd["G"], pd["gl2"]
    runs = [_descend(grid, lam, pd, p, sigmas, beta, mu, cfg,
                     *_initial_guess(grid, pd, sigmas, beta, mu, s,
                                     lam / _RATE_MARGIN), screen=True)
            for s in cfg.starts]
    finished = []

    def near(run, done):
        dm = _mass(run["phi"] - done["phi"], run["q"] - done["q"], w, wG, gl2)
        return math.sqrt(max(dm, 0.0) / mu) <= _DUPLICATE

    for i in sorted((i for i, r in enumerate(runs) if r["stop"] == "screened"),
                    key=lambda i: runs[i]["energy"]):
        run = runs[i]
        if any(near(run, done) for done in finished):
            continue
        runs[i] = _descend(grid, lam, pd, p, sigmas, beta, mu, cfg,
                           run["phi"], run["q"], paused=run["paused"])
        finished.append(runs[i])
    return _lowest([r for r in runs if r["stop"] != "screened"])


# ----------------------------------------------------------------------
# report assembly and public entry points


def _sample_profiles(grid, u1, u2) -> dict[str, list[float]]:
    # interior nodes only: node 0 is the (possibly singular) origin and
    # the last node is pinned to zero by the box truncation
    n = grid.n_nodes
    idx = np.unique(np.geomspace(1, n - 2, 64).astype(int))
    t1 = total_field(u1).values
    t2 = total_field(u2).values
    return {
        "r": [float(x) for x in grid.r[idx]],
        "u1": [float(x) for x in t1[idx]],
        "u2": [float(x) for x in t2[idx]],
    }


def _build_report(grid, lam, run, P, plane=None, *, vertex=True):
    """Report of a descent run.  A one-plane run fills ``plane`` and
    leaves the other plane exactly empty."""
    fields = [ChargedField(RadialField(grid, f), q, lam)
              for f, q in zip(run["phi"], run["q"])]
    if plane is not None:
        fields.insert(1 - plane, ChargedField(
            RadialField(grid, np.zeros(grid.n_nodes)), 0.0, lam))
    U = HybridState(*fields)
    m1, m2 = mass(U.u1), mass(U.u2)
    total = m1 + m2
    if abs(total - P.mu) > 1e-10 * P.mu:
        raise RuntimeError(
            f"mass constraint violated in final state: {total!r} vs {P.mu!r}")
    omega = extract_omega(U, P)
    bres = boundary_residual(U, P) if vertex else (0.0, 0.0)
    return GroundStateReport(
        energy=run["energy"],
        mass1=m1,
        mass2=m2,
        q1=U.u1.q,
        q2=U.u2.q,
        omega=omega,
        el_residual=el_residual(U, P, omega),
        boundary_residuals=bres,
        iterations=run["iterations"],
        converged=run["converged"],
        stop_reason=run["stop"],
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
    lam = 1.0
    grid = _grid_for(lam, cfg)
    pd = plane_data(grid, lam)
    run = _solve_on_grid(grid, lam, pd, p, None, 0.0, mu, cfg)
    return _build_report(grid, lam, run, P, 0, vertex=False)


def solve_single(p: float, sigma: float, mu: float,
                 cfg: SolverConfig | None = None) -> GroundStateReport:
    """Ground state of one plane with its point charge at mass mu."""
    cfg = cfg if cfg is not None else SolverConfig()
    if not math.isfinite(sigma):
        raise ValueError("sigma must be finite")
    P = HybridParams(p, p, sigma, 0.0, 0.0, mu)
    grid, lam, pd = _setup(lambda_for_theta(-sigma), cfg)
    run = _solve_on_grid(grid, lam, pd, p, (sigma,), 0.0, mu, cfg)
    return _build_report(grid, lam, run, P, 0)


def _solve_two_plane(P: HybridParams, cfg: SolverConfig) -> GroundStateReport:
    """Multi-start over the configured mass splits; the lowest run wins."""
    grid, lam, pd = _setup(omega_star(P), cfg)
    # equal powers stay one scalar, which keeps the kernels' fast paths
    p = P.p1 if P.p1 == P.p2 else np.array([P.p1, P.p2])
    best = _solve_on_grid(grid, lam, pd, p, (P.sigma1, P.sigma2), P.beta,
                          P.mu, cfg)
    return _build_report(grid, lam, best, P)


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
    grid, lam, pd = _setup(omega_star(P), cfg)
    singles = [_solve_on_grid(grid, lam, pd, pi, (si,), 0.0, P.mu, cfg)
               for pi, si in ((P.p1, P.sigma1), (P.p2, P.sigma2))]
    i = 0 if _lowest(singles) is singles[0] else 1
    e1, e2 = singles[0]["energy"], singles[1]["energy"]
    if abs(e1 - e2) > 1e-6 * max(1.0, abs(e1)):
        return _build_report(grid, lam, singles[i], P, i)
    branches = tuple(_build_report(grid, lam, run, P, j)
                     for j, run in enumerate(singles))
    return dataclasses.replace(branches[i], branches=branches)
