"""Stacked-plane energy/gradient kernels — the solver's hot path.

Each projected-gradient iteration evaluates, for every plane at once,
the discrete energy

    E = 1/2 Q - (1/p) P(phi, q),

    Q = sum_{k>=1} c_k (phi_{k+1} - phi_k)^2
        - 2 lam q <phi, G>_w - lam q^2 |G|^2 + q^2 (sigma + theta),

    P = sum_j w_in_j |phi_j + q G_j|^p  +  sum_i w0_i |phi_1 + q g0_i|^p,

and its exact partial derivatives with respect to the node values and
the charge.  A solve runs thousands of iterations over ~2k-node arrays,
and the |u|^{p-2} power is the dominant cost, so every evaluated point
gets exactly one power pass.  ``plane_energy`` computes
s = |u|^{p-2} u, takes P as (s u) integrated, and returns with the
energy the pieces a gradient needs: the cell differences, <phi, G>_w, s
and its origin-cell values s0.  ``plane_energy_grad`` assembles the
gradient from those pieces alone, with no power and no second pass over
the quadratic form, and consumes them: it weights d and s in place.
The descent evaluates each line-search trial with ``plane_energy``,
and the accepted trial's pieces give the next iteration's gradient.

Layout: the planes are stacked as rows.  ``phi`` is a (k, n) array, one
plane per row, and ``q`` a (k,) array of their charges; every output is
a (k,) array with one entry per row, and the gradient kernel fills a
(k, n) ``gphi``.  A single plane is the k = 1 stack.  ``p`` is one
scalar shared by all rows or a (k,) array with one power per row;
``p = None`` switches the nonlinear term off (no |u|^p pass, P = 0), so
the energy is the quadratic form Q/2 alone.  ``sig_theta`` is sigma +
theta, a scalar or one per row.  The cross-plane coupling -beta q_1 q_2
is not part of a row and is left to the caller.  The plane arrays come
in one :class:`hybrid_nls.energy.PlaneData` ``pd``; ``c`` is ``pd.grid.c_h1``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["plane_energy", "plane_energy_grad"]


def _exponent(p):
    # a scalar power keeps numpy's fast paths (x**1.0, x**0.5)
    return p[:, None] if getattr(p, "ndim", 0) else p


def plane_energy(phi, q, p, sig_theta, pd, work=None):
    """Energy of each row, with the pieces its gradient is built from.

    Returns ``(energy, qform, pterm, pieces)``: ``energy`` =
    qform/2 - pterm/p, ``qform`` the quadratic form Q, ``pterm`` the
    full |u|^p integral including the origin cell (zeros when ``p`` is
    None), and ``pieces`` the input of :func:`plane_energy_grad` at this
    point, ``(d, <phi, G>_w, s, s0)`` (``s`` and ``s0`` None when ``p``
    is None).  ``work``, a float64 buffer of at least 2kn - k entries
    for a (k, n) ``phi``, holds the cell differences d and the
    transient |u|^p; the call overwrites it, and d lives there until
    the pieces are consumed.  Without it the call allocates one.
    """
    k, n = phi.shape
    work = np.empty(2 * k * n - k) if work is None else work
    d = np.subtract(phi[:, 1:], phi[:, :-1],
                    out=work[k * n:2 * k * n - k].reshape(k, n - 1))
    mpg = phi @ pd.wG
    kin = (d[:, 1:] * d[:, 1:]) @ pd.grid.c_h1[1:]
    qform = kin - q * (2.0 * pd.lam * mpg + q * (pd.lam * pd.gl2 - sig_theta))
    if p is None:
        return 0.5 * qform, qform, np.zeros(len(q)), (d, mpg, None, None)
    pe = _exponent(p) - 2.0
    u = np.multiply(q[:, None], pd.G, out=work[:k * n].reshape(k, n))
    u += phi
    s = np.abs(u)
    s **= pe  # the point's one power pass
    s *= u
    u0 = phi[:, 1:2] + q[:, None] * pd.g0
    s0 = np.abs(u0) ** pe * u0
    u *= s  # |u|^p, in place: no further (k, n) temporary
    pterm = u @ pd.w_in + (s0 * u0) @ pd.w0
    return 0.5 * qform - pterm / p, qform, pterm, (d, mpg, s, s0)


def plane_energy_grad(q, pieces, sig_theta, pd, gphi):
    """Exact partial derivatives of each row at the point ``pieces`` of
    :func:`plane_energy` came from (charges ``q``).

    Fills ``gphi`` (same shape as phi) with dE/dphi_j for the interior
    nodes 1..N-1 (ghost and Dirichlet entries are set to 0) and returns
    ``(gq, dmq)`` with ``gq`` = dE/dq excluding any cross-plane coupling
    and ``dmq`` = dmass/dq.  ``sig_theta`` and ``pd`` are those of
    the ``plane_energy`` call; no power is needed, since ``pieces``
    holds s.  The pieces are consumed: their arrays d and s are
    overwritten with the weighted terms, so no (k, n) temporary is made.
    """
    d, mpg, s, s0 = pieces
    lam, w0 = pd.lam, pd.w0
    np.multiply((-lam * q)[:, None], pd.wG, out=gphi)
    half_dmq = mpg + q * pd.gl2
    gq = q * sig_theta - lam * half_dmq
    if s is not None:
        s *= pd.w_in
        gphi -= s
        gphi[:, 1] -= s0 @ w0
        gq = gq - s @ pd.G - (s0 * pd.g0) @ w0

    d *= pd.grid.c_h1
    d[:, 0] = 0.0  # cell 0 carries no stiffness (ghost tie)
    gphi[:, 1:] += d
    gphi[:, :-1] -= d
    gphi[:, 0] = 0.0
    gphi[:, -1] = 0.0
    return gq, 2.0 * half_dmq
