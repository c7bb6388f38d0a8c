"""Closed-form layer: the 2-D Green kernel and its boundary constant.

Everything downstream leans on the fundamental solution of -Delta + lam
on the plane,

    G_lam(r) = K0(sqrt(lam) * r) / (2 pi),

its logarithmic behaviour near the origin,

    G_lam(r) = -log(r)/(2 pi) - theta(lam) + o(1),    r -> 0,

and the renormalized boundary constant

    theta(lam) = (log(sqrt(lam)/2) + gamma) / (2 pi),

gamma being the Euler-Mascheroni constant.  This module keeps those
formulas in one place so that every energy expression uses identical
constants.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "EULER_GAMMA",
    "theta",
    "lambda_for_theta",
    "green_profile",
    "green_l2_norm_sq",
]

#: Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


def _check_positive(name: str, x: float) -> float:
    x = float(x)
    if not x > 0.0:  # catches NaN as well
        raise ValueError(f"{name} must be > 0, got {x!r}")
    return x


def theta(lam: float) -> float:
    """Renormalized boundary constant of the point interaction.

    theta(lam) = (log(sqrt(lam)/2) + gamma) / (2 pi).  Strictly
    increasing in lam; enters the quadratic form through sigma + theta
    and the origin matching condition.
    """
    lam = _check_positive("lam", lam)
    return (math.log(math.sqrt(lam) / 2.0) + EULER_GAMMA) / _TWO_PI


def lambda_for_theta(t: float) -> float:
    """Inverse of :func:`theta`: the rate lam with theta(lam) = t.

    lam = 4 * exp(4 pi t - 2 gamma).  Raises OverflowError when the
    result exceeds the double range (t beyond ~445).
    """
    return 4.0 * math.exp(4.0 * math.pi * float(t) - 2.0 * EULER_GAMMA)


def green_profile(lam: float, r: np.ndarray) -> np.ndarray:
    """Vectorized Green kernel over an array of radii.

    The entry at r = 0 (if present) is copied from the first positive
    node: quadrature weight there is zero by construction, so the value
    only matters for plotting.  Underflow for huge sqrt(lam)*r is mapped
    silently to 0.0 — those tails are physically negligible.
    """
    lam = _check_positive("lam", lam)
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    pos = r > 0.0
    with np.errstate(under="ignore"):
        out[pos] = _sp.k0(math.sqrt(lam) * r[pos]) / _TWO_PI
    if not pos.all():
        first = np.argmax(pos)
        out[~pos] = out[first]
    return out


def green_l2_norm_sq(lam: float) -> float:
    """Closed-form squared L2 norm of the Green kernel: 1/(4 pi lam)."""
    lam = _check_positive("lam", lam)
    return 1.0 / (_FOUR_PI * lam)

