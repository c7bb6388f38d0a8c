"""Per-plane energy/gradient kernels — the solver's hot path.

Each projected-gradient iteration evaluates, per plane, the discrete
energy

    E = 1/2 sum_{k>=1} c_k (phi_{k+1} - phi_k)^2
        - lam q <phi, G>_w - 1/2 lam q^2 |G|^2 + 1/2 q^2 (sigma + theta)
        - (1/p) P(phi, q),

    P = sum_j w_in_j |phi_j + q G_j|^p  +  area0 sum_i lagw_i |phi_1 + q g0_i|^p,

and (for gradient steps) its exact partial derivatives with respect to
the node values and the charge.  A solve runs tens of thousands of
iterations over ~2k-node arrays, so the |u|^{p-2} power — the dominant
cost — is computed once and reused for both the energy and the
gradient.

Sign conventions and array layout (phi has N+1 nodes, phi[N] = 0 is a
Dirichlet value, node 0 is a ghost tied to node 1 and carries zero
quadrature weight):

* ``w``      — full trapezoid weights (node 0 weight is 0);
* ``w_in``   — trapezoid weights with the first cell removed (the
  origin cell of |u|^p is handled by the log-adapted rule instead);
* ``c``      — H^1 cell coefficients; cell 0 is excluded from the
  stiffness sum because of the ghost tie;
* ``g0``     — Green-kernel values at the origin-cell quadrature radii;
* ``area0``  — pi r_1^2, the origin-cell area factor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["plane_energy", "plane_energy_grad"]


def plane_energy(phi, q, G, p, lam, sig_theta, gl2, w, w_in, c, lagw, g0,
                 area0):
    """Energy and norm pieces of one plane.

    Returns ``(energy, mass, kin, mpp, mpg, pterm)`` where ``mass`` is
    |phi|^2 + 2 q <phi,G> + q^2 gl2, ``kin`` the stiffness sum, ``mpp``
    and ``mpg`` the quadratures <phi,phi> and <phi,G>, and ``pterm``
    the full |u|^p integral including the origin cell.
    """
    d = np.diff(phi)
    kin = float(c[1:] @ (d[1:] * d[1:]))
    mpp = float(w @ (phi * phi))
    mpg = float(w @ (phi * G))
    u = phi + q * G
    pterm = float(w_in @ np.abs(u) ** p)
    u0 = phi[1] + q * g0
    pterm += area0 * float(lagw @ np.abs(u0) ** p)
    energy = (0.5 * kin - lam * q * mpg - 0.5 * lam * q * q * gl2
              + 0.5 * q * q * sig_theta - pterm / p)
    mass = mpp + 2.0 * q * mpg + q * q * gl2
    return energy, mass, kin, mpp, mpg, pterm


def plane_energy_grad(phi, q, G, p, lam, sig_theta, gl2, w, w_in, c, lagw,
                      g0, area0, gphi):
    """Energy pieces plus exact partial derivatives.

    Fills ``gphi`` (same length as phi) with dE/dphi_j for the interior
    nodes 1..N-1 (ghost and Dirichlet entries are set to 0) and returns
    ``(energy, mass, kin, mpp, mpg, pterm, gq, dmq)`` with ``gq`` =
    dE/dq excluding any cross-plane coupling and ``dmq`` = dmass/dq.
    """
    d = np.diff(phi)
    kin = float(c[1:] @ (d[1:] * d[1:]))
    mpp = float(w @ (phi * phi))
    mpg = float(w @ (phi * G))
    u = phi + q * G
    au = np.abs(u)
    s = au ** (p - 2.0) * u  # one power pass serves energy and gradient
    pterm = float(w_in @ (s * u))
    u0 = phi[1] + q * g0
    a0 = np.abs(u0)
    s0 = a0 ** (p - 2.0) * u0
    pterm += area0 * float(lagw @ (s0 * u0))

    t = c * d
    t[0] = 0.0  # cell 0 carries no stiffness (ghost tie)
    gphi[:] = -lam * q * w * G - w_in * s
    gphi[1:] += t
    gphi[:-1] -= t
    gphi[1] -= area0 * float(lagw @ s0)
    gphi[0] = 0.0
    gphi[-1] = 0.0

    gq = (-lam * (mpg + q * gl2) + q * sig_theta
          - float(w_in @ (s * G)) - area0 * float(lagw @ (s0 * g0)))
    energy = (0.5 * kin - lam * q * mpg - 0.5 * lam * q * q * gl2
              + 0.5 * q * q * sig_theta - pterm / p)
    mass = mpp + 2.0 * q * mpg + q * q * gl2
    dmq = 2.0 * (mpg + q * gl2)
    return energy, mass, kin, mpp, mpg, pterm, gq, dmq
