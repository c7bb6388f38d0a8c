"""Chebyshev coefficients of the K0 evaluation in ``hybrid_nls.specfun``.

``specfun`` evaluates K0 as the Cephes library does (and so as
``scipy.special.k0`` does), from three Chebyshev series:

- ``_K0_A``: K0(x) + log(x/2) I0(x) on 0 < x <= 2, in the variable
  x^2/2 - 1;
- ``_K0_B``: e^x sqrt(x) K0(x) on x >= 2, in 4/x - 1;
- ``_I0_A``: e^-x I0(x) on 0 <= x <= 8, in x/4 - 1.

This script computes each coefficient c_k of f = c_0/2 + sum c_k T_k,
cut at Cephes' lengths (10, 25 and 30 terms), in 40-digit arithmetic
with mpmath, and prints them highest degree first, as ``specfun``
holds them.  Rounded to doubles they are Cephes' published values, so
with the C library's exp and log ``specfun`` reproduces
``scipy.special.k0`` bit for bit.  mpmath is used here only, never at
import.  Run from the repo root:

    python tools/k0_coefficients.py
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 40
#: Chebyshev points per series: the coefficients past 2 * POINTS, which
#: alias onto the ones kept, are far below an ulp
POINTS = 80


def chebyshev(f, terms: int) -> list:
    """The first ``terms`` Chebyshev coefficients of f on [-1, 1]."""
    angles = [mp.pi * (j + mp.mpf(1) / 2) / POINTS for j in range(POINTS)]
    values = [f(mp.cos(a)) for a in angles]
    return [2 * mp.fsum(v * mp.cos(k * a) for v, a in zip(values, angles)) / POINTS
            for k in range(terms)]


def k0_small(u):
    x = mp.sqrt(2 * (u + 1))
    if x == 0:
        return -mp.euler
    return mp.besselk(0, x) + mp.log(x / 2) * mp.besseli(0, x)


def k0_large(u):
    s = (u + 1) / 4  # 1/x
    if s == 0:
        return mp.sqrt(mp.pi / 2)
    return mp.exp(1 / s) * mp.besselk(0, 1 / s) / mp.sqrt(s)


def i0_scaled(u):
    x = 4 * (u + 1)
    return mp.exp(-x) * mp.besseli(0, x)


def coefficients() -> dict[str, tuple[float, ...]]:
    """specfun's constants, highest degree first."""
    series = {"_K0_A": (k0_small, 10), "_K0_B": (k0_large, 25),
              "_I0_A": (i0_scaled, 30)}
    return {name: tuple(float(c) for c in reversed(chebyshev(f, n)))
            for name, (f, n) in series.items()}


def main() -> None:
    for name, values in coefficients().items():
        print(f"{name} = (")
        for v in values:
            print(f"    {v!r},")
        print(")")


if __name__ == "__main__":
    main()
