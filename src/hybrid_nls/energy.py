"""Energies, gradients and residuals of the two-plane point-coupled model.

States are pairs ``U = (u_1, u_2)`` of charged fields, one per plane.
Each plane's field is stored in decomposed form

    u = phi + q * G_lam,

with ``phi`` a regular (H^1) radial profile, ``q >= 0`` the charge
multiplying the Green kernel of -Delta + lam, and ``lam`` a free
bookkeeping rate: physical quantities do not depend on it (tested), it
only fixes how the singular part is split off.

The central objects are

* the lam-independent quadratic form
      Q_sigma(u) = |grad phi|^2 + lam |phi|^2 - lam |u|^2
                   + q^2 (sigma + theta(lam)),
* the single-plane energy  F_{p,sigma}(u) = 1/2 Q_sigma(u) - 1/p |u|_p^p,
* the hybrid energy
      F(U) = F_{p1,s1}(u_1) + F_{p2,s2}(u_2) - beta q_1 q_2,

minimized over the mass sphere |u_1|^2 + |u_2|^2 = mu, and the action
bookkeeping built from the same norm evaluations.

Gradients returned by :func:`grad_f_hybrid` live in the flat
L^2 x R metric (a profile direction per plane plus a charge scalar);
the pairing with a tangent direction v is

    sum_planes ( <dphi, vphi>_w + dq * vq ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hybrid_nls import _kernels
from hybrid_nls.grid import (
    RadialField,
    RadialGrid,
    eval_at_origin,
    origin_cell_rule,
    radial_laplacian,
)
from hybrid_nls.specfun import (
    green_l2_norm_sq,
    green_profile,
    theta,
)

__all__ = [
    "ChargedField",
    "HybridParams",
    "HybridState",
    "ActionValues",
    "HybridGradient",
    "check_power",
    "mass",
    "q_form_sigma",
    "f_single",
    "f_hybrid",
    "grad_f_hybrid",
    "action_functionals",
    "el_residual",
    "boundary_residual",
    "redecompose",
    "total_field",
    "plane_data",
]


@dataclass
class ChargedField:
    """One plane's state: regular part, charge, decomposition rate."""

    phi: RadialField
    q: float
    lam: float

    def __post_init__(self) -> None:
        self.q = float(self.q)
        self.lam = float(self.lam)
        if not isinstance(self.phi, RadialField):
            raise TypeError("phi must be a RadialField")
        if not self.q >= 0.0:
            raise ValueError(f"charge must be >= 0, got {self.q}")
        if not self.lam > 0.0:
            raise ValueError(f"decomposition rate must be > 0, got {self.lam}")

    @property
    def grid(self) -> RadialGrid:
        return self.phi.grid


def check_power(p: float, name: str = "p") -> None:
    """Raise ValueError unless p lies in the mass-subcritical range (2, 4)."""
    if not 2.0 < p < 4.0:
        raise ValueError(
            f"{name}={p:g} outside the mass-subcritical range (2, 4)")


@dataclass(frozen=True)
class HybridParams:
    """Model parameters: powers, interaction strengths, coupling, mass."""

    p1: float
    p2: float
    sigma1: float
    sigma2: float
    beta: float
    mu: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "sigma1", "sigma2", "beta", "mu"):
            object.__setattr__(self, name, float(getattr(self, name)))
        check_power(self.p1, "p1")
        check_power(self.p2, "p2")
        if not math.isfinite(self.sigma1) or not math.isfinite(self.sigma2):
            raise ValueError("interaction strengths must be finite")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"coupling must be finite and >= 0, got {self.beta}")
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"target mass must be finite and > 0, got {self.mu}")


@dataclass
class HybridState:
    """Two charged fields sharing one grid."""

    u1: ChargedField
    u2: ChargedField

    def __post_init__(self) -> None:
        if self.u1.grid is not self.u2.grid:
            g1, g2 = self.u1.grid, self.u2.grid
            if g1.signature() != g2.signature():
                raise ValueError("both planes must live on the same grid")

    @property
    def grid(self) -> RadialGrid:
        return self.u1.grid


@dataclass(frozen=True)
class ActionValues:
    """The five action functionals at one (state, frequency) pair."""

    s_omega: float
    i_omega: float
    s_tilde: float
    a_omega: float
    b_omega: float


@dataclass
class HybridGradient:
    """Flat-metric gradient: profile direction + charge scalar per plane."""

    d1: RadialField
    dq1: float
    d2: RadialField
    dq2: float


# --------------------------------------------------------------------------
# per-(grid, lam) precomputed arrays shared by every energy evaluation

_PLANE_CACHE: dict[tuple, dict] = {}


def plane_data(grid: RadialGrid, lam: float) -> dict:
    """Green profile, origin-cell kernel values and weights for one rate.

    Cached per (grid signature, lam).  The returned dict is read-only by
    convention and is consumed by the kernels in :mod:`hybrid_nls._kernels`.
    """
    key = (grid.signature(), float(lam))
    hit = _PLANE_CACHE.get(key)
    if hit is not None and hit["grid"] is grid:
        return hit
    G = green_profile(lam, grid.r)
    z, lagw, area0 = origin_cell_rule(grid)
    radii0 = grid.r[1] * np.exp(-z / 2.0)
    g0 = green_profile(lam, radii0)
    w_in = grid.w_trapz.copy()
    w_in[1] -= np.pi * grid.r[1] * grid.h[0]  # first cell handled by log rule
    w_in[0] = 0.0
    data = {
        "grid": grid,
        "lam": float(lam),
        "theta": theta(lam),
        "G": G,
        "g0": g0,
        "lagw": lagw,
        "area0": area0,
        "w_in": w_in,
        "gl2": green_l2_norm_sq(lam),
    }
    if len(_PLANE_CACHE) > 64:
        _PLANE_CACHE.clear()
    _PLANE_CACHE[key] = data
    return data


# --------------------------------------------------------------------------
# public functionals


def mass(u: ChargedField) -> float:
    """Squared L^2 norm |phi|^2 + 2q <phi, G> + q^2/(4 pi lam)."""
    pd = plane_data(u.grid, u.lam)
    phi = u.phi.values
    w = u.grid.w_trapz
    mpp = float(w @ (phi * phi))
    mpg = float(w @ (phi * pd["G"]))
    return mpp + 2.0 * u.q * mpg + u.q * u.q * pd["gl2"]


def lp_power(u: ChargedField, p: float) -> float:
    """|u|_p^p of the total field, origin cell by the log-adapted rule."""
    pd = plane_data(u.grid, u.lam)
    phi = u.phi.values
    total = phi + u.q * pd["G"]
    val = float(pd["w_in"] @ np.abs(total) ** p)
    u0 = phi[1] + u.q * pd["g0"]
    return val + pd["area0"] * float(pd["lagw"] @ np.abs(u0) ** p)


def q_form_sigma(u: ChargedField, sigma: float) -> float:
    """Quadratic form |grad phi|^2 + lam |phi|^2 - lam |u|^2 + q^2 (sigma+theta).

    Independent of the decomposition rate lam up to quadrature error
    (a tested property), despite every term moving with it.
    """
    pd = plane_data(u.grid, u.lam)
    phi = u.phi.values
    grid = u.grid
    d = np.diff(phi)
    kin = float(grid.c_h1 @ (d * d))
    w = grid.w_trapz
    mpg = float(w @ (phi * pd["G"]))
    # lam |phi|^2 - lam mass(u) collapses to the cross and charge terms
    return (kin - 2.0 * u.lam * u.q * mpg - u.lam * u.q * u.q * pd["gl2"]
            + u.q * u.q * (sigma + pd["theta"]))


def f_single(u: ChargedField, p: float, sigma: float) -> float:
    """Single-plane energy 1/2 Q_sigma(u) - 1/p |u|_p^p."""
    check_power(p)
    return 0.5 * q_form_sigma(u, sigma) - lp_power(u, p) / p


def f_hybrid(U: HybridState, P: HybridParams) -> float:
    """Hybrid energy: both planes plus the charge coupling -beta q1 q2."""
    return (f_single(U.u1, P.p1, P.sigma1) + f_single(U.u2, P.p2, P.sigma2)
            - P.beta * U.u1.q * U.u2.q)


def grad_f_hybrid(U: HybridState, P: HybridParams) -> HybridGradient:
    """Flat-metric gradient of f_hybrid.

    Profile directions are the L^2 functional derivatives
    -Delta phi + lam phi - lam u - |u|^{p-2} u sampled at the interior
    nodes (ghost node mirrors node 1, the Dirichlet node is 0); charge
    components are dF/dq_i including the coupling.
    """
    grid = U.grid
    out = []
    for u, sigma, p in ((U.u1, P.sigma1, P.p1), (U.u2, P.sigma2, P.p2)):
        pd = plane_data(grid, u.lam)
        q = np.array([u.q])
        args = (pd["G"], p, u.lam, sigma + pd["theta"], pd["gl2"],
                grid.w_trapz * pd["G"], pd["w_in"], grid.c_h1,
                pd["area0"] * pd["lagw"], pd["g0"])
        pieces = _kernels.plane_energy(u.phi.values[None], q, *args)[3]
        gphi = np.empty((1, grid.n_nodes))  # the plane as a one-row stack
        gq = float(_kernels.plane_energy_grad(q, pieces, *args, gphi)[0][0])
        d = np.zeros(grid.n_nodes)
        d[1:-1] = gphi[0, 1:-1] / grid.w_trapz[1:-1]
        d[0] = d[1]
        out.append((d, gq))
    (d1, gq1), (d2, gq2) = out
    gq1 -= P.beta * U.u2.q
    gq2 -= P.beta * U.u1.q
    return HybridGradient(RadialField(grid, d1), gq1, RadialField(grid, d2), gq2)


def _state_pieces(U: HybridState, P: HybridParams):
    q_total = (q_form_sigma(U.u1, P.sigma1) + q_form_sigma(U.u2, P.sigma2)
               - 2.0 * P.beta * U.u1.q * U.u2.q)
    return (q_total, mass(U.u1) + mass(U.u2), lp_power(U.u1, P.p1),
            lp_power(U.u2, P.p2))


def action_functionals(U: HybridState, P: HybridParams,
                       omega: float) -> ActionValues:
    """The five action functionals, assembled from shared norm values.

    The decomposition identities

        s_omega = i_omega/2 + s_tilde
                = i_omega/p1 + a_omega
                = i_omega/p2 + b_omega

    then hold to rounding by construction of the returned values.
    """
    q_total, m, pt1, pt2 = _state_pieces(U, P)
    p1, p2 = P.p1, P.p2
    f_val = 0.5 * q_total - pt1 / p1 - pt2 / p2
    s_omega = f_val + 0.5 * omega * m
    i_omega = q_total + omega * m - pt1 - pt2
    s_tilde = (p1 - 2.0) / (2.0 * p1) * pt1 + (p2 - 2.0) / (2.0 * p2) * pt2
    q_shift = q_total + omega * m
    a_omega = (p1 - 2.0) / (2.0 * p1) * q_shift + (p2 - p1) / (p1 * p2) * pt2
    b_omega = (p2 - 2.0) / (2.0 * p2) * q_shift + (p1 - p2) / (p1 * p2) * pt1
    return ActionValues(s_omega, i_omega, s_tilde, a_omega, b_omega)


def el_residual(U: HybridState, P: HybridParams, omega: float) -> float:
    """Normalized stationary-equation residual.

    Per plane the stationary system reads

        (-Delta + omega) phi + (omega - lam) q G - |u|^{p-2} u = 0

    on the regular part.  The residual is measured in the quadrature
    norm over interior nodes excluding the first two cells (node-level
    second differences are rounding-limited there) and divided by the
    sum of the norms of the three constituent terms, so the result is a
    dimensionless defect: ~1 for unrelated fields, << 1 at converged
    states, independent of how deep (large omega) the state is.
    Planes carrying less than 1e-12 of the total mass are skipped.
    Returns the worse of the two planes.
    """
    grid = U.grid
    w = grid.w_trapz
    sel = np.zeros(grid.n_nodes, dtype=bool)
    sel[3:-1] = True  # nodes strictly inside, first two cells excluded
    m_total = mass(U.u1) + mass(U.u2)
    worst = 0.0
    for u, sigma, p in ((U.u1, P.sigma1, P.p1), (U.u2, P.sigma2, P.p2)):
        if mass(u) <= 1e-12 * m_total:
            continue
        pd = plane_data(u.grid, u.lam)
        phi = u.phi.values
        lap = radial_laplacian(u.phi).values
        total = phi + u.q * pd["G"]
        s = np.abs(total) ** (p - 2.0) * total
        term_a = -lap + omega * phi
        term_b = (omega - u.lam) * u.q * pd["G"]
        resid = term_a + term_b - s
        norm = math.sqrt(float(w[sel] @ (resid[sel] * resid[sel])))
        scale = sum(
            math.sqrt(float(w[sel] @ (t[sel] * t[sel])))
            for t in (term_a, term_b, s))
        if scale > 0.0:
            worst = max(worst, norm / scale)
    return worst


def boundary_residual(U: HybridState, P: HybridParams) -> tuple[float, float]:
    """Origin matching defects phi_i(0) - [(sigma_i + theta_i) q_i - beta q_j].

    Invariant under the decomposition rate (phi(0) and theta shift
    together); vanishes at stationary points.
    """
    th1 = theta(U.u1.lam)
    th2 = theta(U.u2.lam)
    r1 = eval_at_origin(U.u1.phi) - ((P.sigma1 + th1) * U.u1.q
                                     - P.beta * U.u2.q)
    r2 = eval_at_origin(U.u2.phi) - ((P.sigma2 + th2) * U.u2.q
                                     - P.beta * U.u1.q)
    return float(r1), float(r2)


def redecompose(u: ChargedField, lam_new: float) -> ChargedField:
    """Re-express the same total field at another decomposition rate.

    phi' = phi + q (G_lam - G_lam'); the charge is unchanged.  At the
    origin node the kernel difference extends continuously to
    theta(lam') - theta(lam).
    """
    if not lam_new > 0.0:
        raise ValueError("lam_new must be > 0")
    grid = u.grid
    G_old = green_profile(u.lam, grid.r)
    G_new = green_profile(lam_new, grid.r)
    diff = G_old - G_new
    diff[0] = theta(lam_new) - theta(u.lam)
    phi_new = u.phi.values + u.q * diff
    return ChargedField(RadialField(grid, phi_new), u.q, lam_new)


def total_field(u: ChargedField) -> RadialField:
    """phi + q G sampled on the nodes (origin entry is a placeholder)."""
    pd = plane_data(u.grid, u.lam)
    return RadialField(u.grid, u.phi.values + u.q * pd["G"])
