"""The four tridiagonal LAPACK routines the solver uses, from numpy's OpenBLAS.

numpy's wheels load an ILP64 OpenBLAS (``numpy.libs/libscipy_openblas64_*``)
whose Fortran symbols carry a ``scipy_`` prefix and a ``64_`` suffix and
take 64-bit integers.  Binding them with ctypes spares every import the
load of ``scipy.linalg``.  Each function takes and returns what the
``scipy.linalg.lapack`` wrapper of the same name does, except that
``ipiv`` is int64, and, as that wrapper does by default, leaves its
inputs untouched.  There is no fallback: without that library or one of
the symbols, the import fails naming both.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

__all__ = ["dpttrf", "dpttrs", "dgttrf", "dgttrs"]


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
    except (TypeError, ValueError):  # read-only or empty
        return a.ctypes.data


def _vector(a, size: int) -> np.ndarray:
    """a as a contiguous float64 vector, checked to hold ``size`` entries
    (the routine would read past a shorter one)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.shape != (max(size, 0),):
        raise ValueError(f"expected {max(size, 0)} entries, got shape {a.shape}")
    return a


def _rhs(b) -> tuple[np.ndarray, _INTS, int]:
    """A Fortran-ordered copy of b, (n,) or (n, nrhs), and its integers.

    The transpose of a C-contiguous (nrhs, n) array already has this
    layout, so its copy is one memcpy.
    """
    x = np.array(b, dtype=np.float64, order="F")
    if x.ndim not in (1, 2):
        raise ValueError(f"right-hand sides must be (n,) or (n, nrhs), got {x.shape}")
    n = len(x)
    ints = _INTS(n, x.shape[1] if x.ndim == 2 else 1, max(n, 1), 0)
    return x, ints, ctypes.addressof(ints)


def dpttrf(d, e):
    """L D L^T factor of the SPD tridiagonal (d, e): ``(d, e, info)``."""
    d = np.array(_vector(d, np.size(d)))
    e = np.array(_vector(e, d.size - 1))
    ints = _INTS(d.size)
    at = ctypes.addressof(ints)
    _PTTRF(at, _at(d), _at(e), at + 24)
    return d, e, ints[3]


def dpttrs(d, e, b):
    """Solve with dpttrf's factor, ``b`` (n,) or (n, nrhs): ``(x, info)``."""
    x, ints, at = _rhs(b)
    n = ints[0]
    _PTTRS(at, at + 8, _at(_vector(d, n)), _at(_vector(e, n - 1)), _at(x.T),
           at + 16, at + 24)
    return x, ints[3]


def dgttrf(dl, d, du):
    """LU factor, with row interchanges, of the tridiagonal (dl, d, du):
    ``(dl, d, du, du2, ipiv, info)``."""
    d = np.array(_vector(d, np.size(d)))
    dl, du = (np.array(_vector(a, d.size - 1)) for a in (dl, du))
    du2 = np.zeros(max(d.size - 2, 0))
    ipiv = np.zeros(d.size, dtype=np.int64)
    ints = _INTS(d.size)
    at = ctypes.addressof(ints)
    _GTTRF(at, _at(dl), _at(d), _at(du), _at(du2), _at(ipiv), at + 24)
    return dl, d, du, du2, ipiv, ints[3]


def dgttrs(dl, d, du, du2, ipiv, b):
    """Solve with dgttrf's factor, ``b`` (n,) or (n, nrhs): ``(x, info)``."""
    x, ints, at = _rhs(b)
    n = ints[0]
    piv = np.ascontiguousarray(ipiv, dtype=np.int64)
    if piv.shape != (n,):
        raise ValueError(f"expected {n} pivots, got shape {piv.shape}")
    _GTTRS(b"N", at, at + 8, _at(_vector(dl, n - 1)), _at(_vector(d, n)),
           _at(_vector(du, n - 1)), _at(_vector(du2, n - 2)), _at(piv),
           _at(x.T), at + 16, at + 24, 1)
    return x, ints[3]
