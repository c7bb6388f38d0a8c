"""The ctypes LAPACK bindings against scipy.linalg.lapack.

The bindings call the same reference routines as scipy's wrappers, so
factors, pivots and solutions must agree bit for bit, and, as scipy's
wrappers do by default, leave their inputs as they were.
"""

import types

import numpy as np
import pytest
from scipy.linalg import lapack as scipy_lapack

from hybrid_nls import _lapack, solver

SIZES = (2, 3, 64, 2048, 32768)


def spd_tridiagonal(n, rng):
    return rng.uniform(2.5, 4.0, n), rng.uniform(-1.0, 1.0, n - 1)


def indefinite_tridiagonal(n, rng):
    # diagonal of both signs, often smaller than the sub-diagonal: pivots
    return (rng.standard_normal(n - 1), 0.1 * rng.standard_normal(n),
            rng.standard_normal(n - 1))


def right_hand_sides(n, nrhs, rng):
    # the solver's layout: the transpose of a C-ordered (nrhs, n) array
    return rng.standard_normal((nrhs, n)).T


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def frozen(*arrays):
    return [a.copy() for a in arrays]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("nrhs", (1, 2))
def test_positive_definite_factor_and_solve_match_scipy(n, nrhs):
    rng = np.random.default_rng(n + nrhs)
    d, e = spd_tridiagonal(n, rng)
    b = right_hand_sides(n, nrhs, rng)
    inputs = frozen(d, e, b)
    factor = _lapack.dpttrf(d, e)
    assert_same(factor, scipy_lapack.dpttrf(d, e))
    assert factor[2] == 0
    x = _lapack.dpttrs(factor[0], factor[1], b)
    assert_same(x, scipy_lapack.dpttrs(factor[0], factor[1], b))
    assert x[0].shape == (n, nrhs) and x[1] == 0
    assert_same([d, e, b], inputs)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("nrhs", (1, 2))
def test_pivoted_factor_and_solve_match_scipy(n, nrhs):
    rng = np.random.default_rng(10 * n + nrhs)
    dl, d, du = indefinite_tridiagonal(n, rng)
    b = right_hand_sides(n, nrhs, rng)
    inputs = frozen(dl, d, du, b)
    factor = _lapack.dgttrf(dl, d, du)
    assert factor[5] == 0
    if n > 2:  # scipy's wrappers refuse n = 2; the residual check holds
        want = scipy_lapack.dgttrf(dl, d, du)
        assert_same(factor, want)
        assert not np.array_equal(factor[4], np.arange(1, n + 1))  # it pivoted
        assert_same(_lapack.dgttrs(*factor[:5], b),
                    scipy_lapack.dgttrs(*want[:5], b))
    x, info = _lapack.dgttrs(*factor[:5], b)
    assert info == 0 and x.shape == (n, nrhs)
    ax = d[:, None] * x
    ax[1:] += dl[:, None] * x[:-1]
    ax[:-1] += du[:, None] * x[1:]
    assert np.abs(ax - b).max() <= 1e-10 * np.abs(x).max()
    assert_same([dl, d, du, b], inputs)


def test_one_dimensional_right_hand_side():
    rng = np.random.default_rng(7)
    d, e = spd_tridiagonal(64, rng)
    b = rng.standard_normal(64)
    factor = _lapack.dpttrf(d, e)
    assert_same(_lapack.dpttrs(factor[0], factor[1], b),
                scipy_lapack.dpttrs(factor[0], factor[1], b))


def test_indefinite_factor_reports_info():
    d, e, info = _lapack.dpttrf(np.array([1.0, -1.0, 2.0]), np.zeros(2))
    assert info == scipy_lapack.dpttrf(np.array([1.0, -1.0, 2.0]), np.zeros(2))[2]
    assert info == 2


def test_singular_newton_block_raises():
    # a Hessian block that is exactly zero: dgttrf finds a zero pivot
    n = 6
    grid = types.SimpleNamespace(w_trapz=np.zeros(n), c_h1=np.zeros(n - 1),
                                 h=np.ones(n - 1))
    pd = types.SimpleNamespace(grid=grid, G=np.zeros(n), lam=1.0,
                               g0=np.zeros(8))
    with pytest.raises(ArithmeticError, match="Newton block is singular"):
        solver._newton_solver(pd, np.zeros((1, n)), np.zeros(1), None, 0.0,
                              None, 0.0)


def test_short_inputs_are_refused():
    # the routines would read past the end of a short array
    d, e = np.full(5, 3.0), np.ones(4)
    factor = _lapack.dpttrf(d, e)
    with pytest.raises(ValueError):
        _lapack.dpttrf(d, e[:3])
    with pytest.raises(ValueError):
        _lapack.dpttrs(factor[0], factor[1][:3], np.ones((5, 1)))
    lu = _lapack.dgttrf(e, d, e)
    with pytest.raises(ValueError):
        _lapack.dgttrs(*lu[:4], lu[4][:4], np.ones((5, 1)))
    with pytest.raises(ValueError):
        _lapack.dgttrf(e[:3], d, e)
