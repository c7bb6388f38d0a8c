"""Energies, gradients and residuals of the two-plane point-coupled model.

States are pairs ``U = (u_1, u_2)`` of charged fields, one per plane.
Each plane's field is stored in decomposed form

    u = phi + q * G_lam,

with ``phi`` a regular (H^1) radial profile, ``q >= 0`` the charge
multiplying the Green kernel of -Delta + lam, and ``lam`` a free
bookkeeping rate: physical quantities do not depend on it (tested), it
only fixes how the singular part is split off.  A field carries G_lam
on its grid, in the :class:`PlaneData` of its rate.

The central objects are

* the lam-independent quadratic form
      Q_sigma(u) = |grad phi|^2 + lam |phi|^2 - lam |u|^2
                   + q^2 (sigma + theta(lam)),
* the single-plane energy  F_{p,sigma}(u) = 1/2 Q_sigma(u) - 1/p |u|_p^p,
* the hybrid energy
      F(U) = F_{p1,s1}(u_1) + F_{p2,s2}(u_2) - beta q_1 q_2,

minimized over the mass sphere |u_1|^2 + |u_2|^2 = mu.

Gradients returned by :func:`grad_f_hybrid` live in the flat
L^2 x R metric (a profile direction per plane plus a charge scalar);
the pairing with a tangent direction v is

    sum_planes ( <dphi, vphi>_w + dq * vq ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "HybridGradient",
    "check_power",
    "mass",
    "q_form_sigma",
    "f_single",
    "f_hybrid",
    "grad_f_hybrid",
    "dilation_defect",
    "el_residual",
    "boundary_residual",
    "total_field",
    "PlaneData",
    "plane_data",
]


@dataclass
class ChargedField:
    """One plane's state: regular part, charge, and the plane data of
    its decomposition rate, built on the regular part's grid."""

    phi: RadialField
    q: float
    plane: PlaneData

    def __post_init__(self) -> None:
        self.q = float(self.q)
        if not isinstance(self.phi, RadialField):
            raise TypeError("phi must be a RadialField")
        if not self.q >= 0.0:
            raise ValueError(f"charge must be >= 0, got {self.q}")
        if self.plane.grid is not self.phi.grid:
            raise ValueError("plane data must be built on the field's grid")

    @property
    def grid(self) -> RadialGrid:
        return self.phi.grid

    @property
    def lam(self) -> float:
        return self.plane.lam


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
        if not np.finfo(float).tiny <= self.mu < math.inf:  # no subnormal mass
            raise ValueError(f"target mass must be a finite normal double, got {self.mu}")


@dataclass
class HybridState:
    """Two charged fields sharing one grid object."""

    u1: ChargedField
    u2: ChargedField

    def __post_init__(self) -> None:
        if self.u1.grid is not self.u2.grid:
            raise ValueError("both planes must live on the same grid")

    @property
    def grid(self) -> RadialGrid:
        return self.u1.grid


@dataclass
class HybridGradient:
    """Flat-metric gradient: profile direction + charge scalar per plane."""

    d1: RadialField
    dq1: float
    d2: RadialField
    dq2: float


# --------------------------------------------------------------------------
# per-(grid, lam) precomputed arrays shared by every energy evaluation


@dataclass(frozen=True, eq=False)
class PlaneData:
    """Green profile, origin-cell rule and weights of one (grid, lam).

    What the kernels in :mod:`hybrid_nls._kernels` and the solver read
    besides profiles and charges; built by :func:`plane_data`, arrays
    read-only, carried by each :class:`ChargedField` decomposed on it.
    ``mass``, ``lp_power`` and ``q_form_sigma`` read it too, but keep
    their own formulas: they are the reference the kernels are tested on.
    Node 0 is a ghost tied to node 1 and carries zero quadrature weight,
    node N is a Dirichlet value, and the H^1 cell coefficients are
    ``grid.c_h1`` (cell 0 is left out of the stiffness sum because of
    the ghost tie).

    * ``theta``, ``gl2``, ``G`` — theta(lam), |G|^2 = 1/(4 pi lam) and
      the Green profile of -Delta + lam on the nodes;
    * ``wG``     — ``G`` times the full trapezoid weights ``grid.w_trapz``;
    * ``w_in``   — trapezoid weights with the first cell removed (the
      origin cell of |u|^p is handled by the log-adapted rule instead);
    * ``w0``     — origin-cell quadrature weights ``area0 * lagw``: pi r_1^2
      times the log-adapted rule's weights (``grid.origin_cell_rule``);
    * ``g0``     — Green-kernel values at the origin-cell quadrature radii.
    """

    grid: RadialGrid
    lam: float
    theta: float
    gl2: float
    G: np.ndarray = field(repr=False)
    wG: np.ndarray = field(repr=False)
    w_in: np.ndarray = field(repr=False)
    g0: np.ndarray = field(repr=False)
    lagw: np.ndarray = field(repr=False)
    area0: float
    w0: np.ndarray = field(repr=False)


def plane_data(grid: RadialGrid, lam: float) -> PlaneData:
    """The :class:`PlaneData` of ``grid`` at decomposition rate ``lam``."""
    z, lagw, area0 = origin_cell_rule(grid)
    # the kernel at the nodes and at the origin cell's radii, in one call
    G, g0 = np.split(green_profile(lam, np.concatenate(
        (grid.r, grid.r[1] * np.exp(-z / 2.0)))), [grid.n_nodes])
    w_in = grid.w_trapz.copy()
    w_in[1] -= np.pi * grid.r[1] * grid.h[0]  # first cell handled by log rule
    w_in[0] = 0.0
    data = PlaneData(grid=grid, lam=float(lam), theta=theta(lam),
                     gl2=green_l2_norm_sq(lam), G=G, wG=grid.w_trapz * G,
                     w_in=w_in, g0=g0, lagw=lagw, area0=area0, w0=area0 * lagw)
    for arr in (data.G, data.wG, data.w_in, data.g0, data.w0):
        arr.flags.writeable = False
    return data


# --------------------------------------------------------------------------
# public functionals


def mass(u: ChargedField) -> float:
    """Squared L^2 norm |phi|^2 + 2q <phi, G> + q^2/(4 pi lam)."""
    pd = u.plane
    phi = u.phi.values
    w = u.grid.w_trapz
    mpp = float(w @ (phi * phi))
    mpg = float(w @ (phi * pd.G))
    return mpp + 2.0 * u.q * mpg + u.q * u.q * pd.gl2


def lp_power(u: ChargedField, p: float) -> float:
    """|u|_p^p of the total field, origin cell by the log-adapted rule."""
    pd = u.plane
    phi = u.phi.values
    total = phi + u.q * pd.G
    val = float(pd.w_in @ np.abs(total) ** p)
    u0 = phi[1] + u.q * pd.g0
    return val + pd.area0 * float(pd.lagw @ np.abs(u0) ** p)


def q_form_sigma(u: ChargedField, sigma: float) -> float:
    """Quadratic form |grad phi|^2 + lam |phi|^2 - lam |u|^2 + q^2 (sigma+theta).

    Independent of the decomposition rate lam up to quadrature error
    (a tested property), despite every term moving with it.
    """
    pd = u.plane
    phi = u.phi.values
    grid = u.grid
    d = np.diff(phi)
    kin = float(grid.c_h1 @ (d * d))
    w = grid.w_trapz
    mpg = float(w @ (phi * pd.G))
    # lam |phi|^2 - lam mass(u) collapses to the cross and charge terms
    return (kin - 2.0 * u.lam * u.q * mpg - u.lam * u.q * u.q * pd.gl2
            + u.q * u.q * (sigma + pd.theta))


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
        pd = u.plane
        q = np.array([u.q])
        sig_theta = sigma + pd.theta
        pieces = _kernels.plane_energy(u.phi.values[None], q, p, sig_theta, pd)[3]
        gphi = np.empty((1, grid.n_nodes))  # the plane as a one-row stack
        gq = float(_kernels.plane_energy_grad(q, pieces, sig_theta, pd, gphi)[0][0])
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


def dilation_defect(U: HybridState, P: HybridParams) -> float:
    """Relative defect of the identity every critical point satisfies.

    The mass-preserving dilation u_L(x) = L u(Lx) maps phi + q G_lam to
    a field of charge L q at rate L^2 lam, and theta(L^2 lam) = theta(lam)
    + log L / (2 pi); so d/dL F(U_L) = 0 at L = 1 reads

        Q(U) + c = X,   c = (q_1^2 + q_2^2) / (4 pi),
        X = sum_i (p_i - 2)/p_i |u_i|_{p_i}^{p_i},

    with Q the coupled quadratic form.  Returns |Q + c - X| / (|Q| + |X| + c).
    Unlike the Nehari pairing, which fixes omega, it needs no multiplier
    and holds by no construction: a box wall that holds the state, or a
    first cell too coarse for it, breaks it.  At q = 0 it is the virial
    identity |grad u|^2 = (p - 2)/p |u|_p^p.  It does not see saddles.
    """
    q_total, _, pt1, pt2 = _state_pieces(U, P)
    x = (P.p1 - 2.0) / P.p1 * pt1 + (P.p2 - 2.0) / P.p2 * pt2
    c = (U.u1.q ** 2 + U.u2.q ** 2) / (4.0 * math.pi)
    return abs(q_total + c - x) / (abs(q_total) + abs(x) + c)


def el_residual(U: HybridState, P: HybridParams, omega: float) -> float:
    """Normalized stationary-equation residual.

    Per plane the stationary system reads

        (-Delta + omega) phi + (omega - lam) q G - |u|^{p-2} u = 0

    on the regular part.  The residual is measured in the quadrature
    norm over interior nodes excluding the first two cells (node-level
    second differences are rounding-limited there) and divided by the
    sum of the norms of the four terms -Delta phi, omega phi, the charge
    term and |u|^{p-2} u, each taken alone, so the result is a
    dimensionless defect: ~1 for unrelated fields, << 1 at converged
    states, independent of how deep (large omega) the state is.  Taken
    together, -Delta phi + omega phi nearly cancels at a linear box mode
    (a tiny mass) and would not scale the residual there.
    Planes carrying less than 1e-12 of the total mass are skipped.
    Returns the worse of the two planes.
    """
    sel = slice(3, -1)  # nodes strictly inside, first two cells excluded
    w = U.grid.w_trapz[sel]
    m1, m2 = mass(U.u1), mass(U.u2)
    worst = 0.0
    for u, m, p in ((U.u1, m1, P.p1), (U.u2, m2, P.p2)):
        if m <= 1e-12 * (m1 + m2):
            continue
        pd = u.plane
        phi = u.phi.values
        total = phi + u.q * pd.G
        s = np.abs(total) ** (p - 2.0) * total
        terms = (-radial_laplacian(u.phi).values, omega * phi,
                 (omega - u.lam) * u.q * pd.G)
        resid = terms[0] + terms[1] + terms[2] - s
        norm = math.sqrt(float(w @ (resid[sel] * resid[sel])))
        scale = sum(
            math.sqrt(float(w @ (t[sel] * t[sel])))
            for t in (*terms, s))
        if scale > 0.0:
            worst = max(worst, norm / scale)
    return worst


def boundary_residual(U: HybridState, P: HybridParams) -> tuple[float, float]:
    """Origin matching defects phi_i(0) - [(sigma_i + theta_i) q_i - beta q_j].

    Invariant under the decomposition rate (phi(0) and theta shift
    together); vanishes at stationary points.
    """
    return tuple(
        float(eval_at_origin(u.phi) - ((sigma + u.plane.theta) * u.q - P.beta * v.q))
        for u, v, sigma in ((U.u1, U.u2, P.sigma1), (U.u2, U.u1, P.sigma2)))


def total_field(u: ChargedField) -> RadialField:
    """phi + q G sampled on the nodes (origin entry is a placeholder)."""
    return RadialField(u.grid, u.phi.values + u.q * u.plane.G)
