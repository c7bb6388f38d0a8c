"""Tridiagonal factorizations from numpy's OpenBLAS, each with its solve.

numpy's wheels load an ILP64 OpenBLAS (``numpy.libs/libscipy_openblas64_*``)
whose Fortran symbols carry a ``scipy_`` prefix and a ``64_`` suffix and
take 64-bit integers.  Binding them with ctypes spares every import the
load of ``scipy.linalg``.  A factorization copies its inputs and raises
ArithmeticError naming the routine and its ``info`` when it fails.  Its
solve copies b, (n,) or (n, nrhs), and returns the solution that
``scipy.linalg.lapack``'s dpttrs or dgttrs returns, bit for bit.
There is no fallback: without that library or one of the symbols, the
import fails naming both.
"""

from __future__ import annotations

import ctypes
import glob
import os
from collections.abc import Callable

import numpy as np

__all__ = ["pttrf", "gttrf"]


def _bind(*names: str) -> list:
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                           "numpy.libs", "libscipy_openblas64_*")
    paths = glob.glob(pattern)
    if not paths:
        raise ImportError(f"no library matches {pattern}, "
                          f"so {', '.join(names)} cannot be bound")
    lib = ctypes.CDLL(paths[0])
    try:
        return [getattr(lib, f"scipy_{name}_64_") for name in names]
    except AttributeError as exc:
        raise ImportError(f"{paths[0]}: {exc}") from None


_PTTRF, _PTTRS, _GTTRF, _GTTRS = _bind("dpttrf", "dpttrs", "dgttrf", "dgttrs")
for _f in (_PTTRF, _PTTRS, _GTTRF, _GTTRS):
    _f.restype = None
_PTTRF.argtypes = [ctypes.c_void_p] * 4
_PTTRS.argtypes = [ctypes.c_void_p] * 7
_GTTRF.argtypes = [ctypes.c_void_p] * 7
# the trailing argument is the hidden length of the character TRANS
_GTTRS.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 10 + [ctypes.c_size_t]
#: the Fortran integer arguments of one call: n, nrhs, ldb, info
_INTS = ctypes.c_int64 * 4


def _at(a: np.ndarray) -> int:
    """Address of a C-contiguous array's first element (the transpose of a
    Fortran-ordered one is C-contiguous)."""
    try:  # a fifth of the cost of a.ctypes.data
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except ValueError:  # empty: e at n = 1, du2 at n = 2
        return a.ctypes.data


def _vector(a, size: int) -> np.ndarray:
    """A float64 copy of a, checked to hold ``size`` entries (the routine
    would read past a shorter one)."""
    a = np.array(a, dtype=np.float64)
    if a.shape != (max(size, 0),):
        raise ValueError(f"expected {max(size, 0)} entries, got shape {a.shape}")
    return a


def _factor(routine, name: str, failure: str, n: int, *arrays) -> list[int]:
    """Factor in place the order-n matrix the arrays hold; returns their
    addresses, which the solve passes on every call and which stay valid
    while the solve holds the arrays (its ``factor``)."""
    ints = _INTS(n)
    at = ctypes.addressof(ints)
    ats = [_at(a) for a in arrays]
    routine(at, *ats, at + 24)
    if ints[3]:
        raise ArithmeticError(f"{name} info {ints[3]}: the matrix is {failure}")
    return ats


def _rhs(b, low: int, high: int) -> tuple[np.ndarray, _INTS, int]:
    """A Fortran-ordered copy of b with low to high rows (one memcpy for
    the transpose of a C-ordered array), its integers and their address.
    dpttrs and dgttrs then report in info only illegal arguments."""
    x = np.array(b, dtype=np.float64, order="F")
    n = len(x) if x.ndim in (1, 2) else -1
    if not low <= n <= high:
        raise ValueError(f"expected {low} to {high} rows, got shape {x.shape}")
    ints = _INTS(n, x.shape[1] if x.ndim == 2 else 1, max(n, 1), 0)
    return x, ints, ctypes.addressof(ints)


def pttrf(d, e) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """L D L^T factor of the SPD tridiagonal (d, e): ``(e, solve)``.

    ``e`` is a read-only view of the multipliers.  ``solve(b)`` takes b
    with 0 < n <= len(d) rows and solves the leading n x n block, whose
    factor is the first n pivots and n-1 multipliers.
    """
    d, e = _vector(d, np.size(d)), _vector(e, np.size(d) - 1)
    ats = _factor(_PTTRF, "dpttrf", "not positive definite", d.size, d, e)

    def solve(b) -> np.ndarray:
        x, ints, at = _rhs(b, 1, d.size)
        _PTTRS(at, at + 8, *ats, _at(x.T), at + 16, at + 24)
        return x

    solve.factor = d, e

    view = e.view()
    view.flags.writeable = False
    return view, solve


def gttrf(dl, d, du) -> Callable[[np.ndarray], np.ndarray]:
    """LU factor, with row interchanges, of the tridiagonal (dl, d, du):
    its ``solve(b)``, b with len(d) rows."""
    d = _vector(d, np.size(d))
    dl, du = (_vector(a, d.size - 1) for a in (dl, du))
    du2, ipiv = np.zeros(max(d.size - 2, 0)), np.zeros(d.size, dtype=np.int64)
    ats = _factor(_GTTRF, "dgttrf", "singular", d.size, dl, d, du, du2, ipiv)

    def solve(b) -> np.ndarray:
        x, ints, at = _rhs(b, d.size, d.size)
        _GTTRS(b"N", at, at + 8, *ats, _at(x.T), at + 16, at + 24, 1)
        return x

    solve.factor = dl, d, du, du2, ipiv

    return solve
