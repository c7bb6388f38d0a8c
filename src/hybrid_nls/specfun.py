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
constants.  K0 itself is evaluated here, as Cephes (and scipy) does.
"""

from __future__ import annotations

import math

import numpy as np

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

# Chebyshev coefficients, highest degree first, that
# tools/k0_coefficients.py computes: K0(x) + log(x/2) I0(x) on (0, 2],
# e^x sqrt(x) K0(x) on [2, inf) and e^-x I0(x) on [0, 8], in the
# variables x^2/2 - 1, 4/x - 1 and x/4 - 1.  They are Cephes' own.
_K0_A = (
    1.3744654358807508e-16,
    4.2598161427910826e-14,
    1.0349695257633625e-11,
    1.904516377220209e-09,
    2.5347910790261494e-07,
    2.286212103119452e-05,
    0.001264615411446926,
    0.0359799365153615,
    0.3442898999246285,
    -0.5353273932339028,
)
_K0_B = (
    5.3004337711773354e-18,
    -1.6475805939842632e-17,
    5.2103917776435543e-17,
    -1.6782311257549006e-16,
    5.5120559994043335e-16,
    -1.848593377920907e-15,
    6.340076476276646e-15,
    -2.2275133267462965e-14,
    8.032890775068375e-14,
    -2.9800969231481784e-13,
    1.1403405882073441e-12,
    -4.514597883374519e-12,
    1.8559491149549264e-11,
    -7.957489244477396e-11,
    3.5773972814003283e-10,
    -1.6975345093890614e-09,
    8.574034017414225e-09,
    -4.660489897687948e-08,
    2.766813639445015e-07,
    -1.8317555227191195e-06,
    1.39498137188765e-05,
    -0.00012849549581627802,
    0.0015698838857300533,
    -0.0314481013119645,
    2.4403030820659555,
)
_I0_A = (
    -4.4153416464793395e-18,
    3.3307945188222384e-17,
    -2.431279846547955e-16,
    1.715391285555133e-15,
    -1.1685332877993451e-14,
    7.676185498604936e-14,
    -4.856446783111929e-13,
    2.95505266312964e-12,
    -1.726826291441556e-11,
    9.675809035373237e-11,
    -5.189795601635263e-10,
    2.6598237246823866e-09,
    -1.300025009986248e-08,
    6.046995022541919e-08,
    -2.670793853940612e-07,
    1.1173875391201037e-06,
    -4.4167383584587505e-06,
    1.6448448070728896e-05,
    -5.754195010082104e-05,
    0.00018850288509584165,
    -0.0005763755745385824,
    0.0016394756169413357,
    -0.004324309995050576,
    0.010546460394594998,
    -0.02373741480589947,
    0.04930528423967071,
    -0.09490109704804764,
    0.17162090152220877,
    -0.3046826723431984,
    0.6767952744094761,
)
#: exp(-x) is exactly 0 from here on
_K0_ZERO = 746.0
#: the smallest subnormal and the smallest normal double
_TINY = 5e-324
_NORMAL = float(np.finfo(np.float64).tiny)


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


def _chbevl(z, coef: tuple):
    """Cephes' chbevl: c_0/2 + sum c_k T_k(z/2), by Clenshaw's recurrence."""
    b0, b1 = coef[0], 0.0
    for c in coef[1:]:
        b2, b1 = b1, b0
        b0 = z * b1 - b2 + c
    return 0.5 * (b0 - b2)


# The C library's exp and log over arrays, at a fraction of the cost of
# math.exp and math.log per element: numpy's complex exp and log call the
# C library's cexp and clog, whose real parts at a real argument a are
# exp(a) * cos(0) and, for normal a < 1/2, log(hypot(a, 0)) = log(a).
# From 1/2 clog takes log1p paths, and below the normal range it
# rescales, so there math.log is called.
def _exp(a: np.ndarray) -> np.ndarray:
    return np.exp(a.astype(np.complex128)).real


def _log(a: np.ndarray) -> np.ndarray:
    out = np.log(a.astype(np.complex128)).real
    other = (a >= 0.5) | (a < _NORMAL)
    out[other] = list(map(math.log, a[other].tolist()))
    return out


def _k0(x: np.ndarray) -> np.ndarray:
    """K0 over positive x, exactly 0 where it underflows.

    Cephes' algorithm, operation for operation: for x <= 2,
    K0 = A(x^2 - 2) - log(x/2) e^x I(x/2 - 2), and above,
    K0 = e^-x B(8/x - 2) / sqrt(x), with A, B and I the Chebyshev sums of
    _K0_A, _K0_B and _I0_A.  exp and log are the C library's: numpy's
    own differ from them by an ulp on a few percent of arguments.  So
    the values are scipy.special.k0's bit for bit, and solves whose stop
    sits on the roundoff floor of the convergence test end as they did
    with it.
    """
    out = np.zeros_like(x)
    small = x <= 2.0
    big = ~small & (x < _K0_ZERO)
    xs, xb = x[small], x[big]
    if xs.size:
        i0 = _exp(xs) * _chbevl(xs / 2.0 - 2.0, _I0_A)
        # the clamp only keeps log finite at the smallest subnormal x
        log = _log(np.maximum(0.5 * xs, _TINY))
        out[small] = _chbevl(xs * xs - 2.0, _K0_A) - log * i0
    if xb.size:
        out[big] = _exp(-xb) * _chbevl(8.0 / xb - 2.0, _K0_B) / np.sqrt(xb)
    return out


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
        out[pos] = _k0(math.sqrt(lam) * r[pos]) / _TWO_PI
    if not pos.all():
        first = np.argmax(pos)
        out[~pos] = out[first]
    return out


def green_l2_norm_sq(lam: float) -> float:
    """Closed-form squared L2 norm of the Green kernel: 1/(4 pi lam)."""
    lam = _check_positive("lam", lam)
    return 1.0 / (_FOUR_PI * lam)

