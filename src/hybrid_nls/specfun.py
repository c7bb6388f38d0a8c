"""Closed-form layer: modified Bessel functions and the 2-D Green kernel.

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
import warnings

import numpy as np
from scipy import special as _sp

__all__ = [
    "EULER_GAMMA",
    "BesselUnderflow",
    "bessel_k0",
    "bessel_k1",
    "theta",
    "lambda_for_theta",
    "green_value",
    "green_l2_norm_sq",
]

#: Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

# K0(x) ~ sqrt(pi/2x) e^{-x}; below ~1e-308 the double result is a hard 0.
# exp(-745) is the smallest positive subnormal, so 745 is the last x where
# any information survives.
_UNDERFLOW_X = 745.0

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


class BesselUnderflow(RuntimeWarning):
    """Signals that K0/K1 underflowed to zero for a huge argument."""


def _check_positive(name: str, x: float) -> float:
    x = float(x)
    if not x > 0.0:  # catches NaN as well
        raise ValueError(f"{name} must be > 0, got {x!r}")
    return x


def bessel_k0(x: float) -> float:
    """Modified Bessel function of the second kind, order 0.

    Parameters
    ----------
    x : float
        Argument, must be positive.

    Returns
    -------
    float
        K0(x).  For x beyond the double-precision underflow threshold
        (~745) the true value is below the smallest subnormal; 0.0 is
        returned and a :class:`BesselUnderflow` warning is emitted.

    Notes
    -----
    Backed by scipy's Cephes routine (relative error ~1e-15 across the
    working range).  Tests cross-check against quadrature of the
    integral representation  K0(x) = int_0^inf exp(-x cosh t) dt.
    """
    x = _check_positive("x", x)
    if x > _UNDERFLOW_X:
        warnings.warn(
            f"bessel_k0 underflows for x={x:g} (threshold ~{_UNDERFLOW_X:g})",
            BesselUnderflow,
            stacklevel=2,
        )
        return 0.0
    return float(_sp.k0(x))


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order 1.

    Same contract as :func:`bessel_k0`; K1(x) = -K0'(x).
    """
    x = _check_positive("x", x)
    if x > _UNDERFLOW_X:
        warnings.warn(
            f"bessel_k1 underflows for x={x:g} (threshold ~{_UNDERFLOW_X:g})",
            BesselUnderflow,
            stacklevel=2,
        )
        return 0.0
    return float(_sp.k1(x))


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


def green_value(lam: float, r: float) -> float:
    """Green kernel of -Delta + lam on the plane at radius r.

    G_lam(r) = K0(sqrt(lam) r) / (2 pi), logarithmically singular at
    r = 0 (the singular point is never evaluated directly).
    """
    lam = _check_positive("lam", lam)
    r = _check_positive("r", r)
    return bessel_k0(math.sqrt(lam) * r) / _TWO_PI


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

