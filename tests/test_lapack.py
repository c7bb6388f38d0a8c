"""The ctypes LAPACK bindings against scipy.linalg.lapack.

The bindings call the same reference routines as scipy's wrappers, so
multipliers and solutions must agree bit for bit, and, as scipy's
wrappers do by default, leave their inputs as they were.
"""

import gc
import types

import numpy as np
import pytest
from scipy.linalg import lapack as scipy_lapack

from hybrid_nls import _lapack, solver
from hybrid_nls._lapack import gttrf, pttrf

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


def frozen(*arrays):
    return [a.copy() for a in arrays]


def assert_unchanged(arrays, copies):
    for a, c in zip(arrays, copies, strict=True):
        np.testing.assert_array_equal(a, c)


def test_only_the_two_factorizations_are_public():
    assert _lapack.__all__ == ["pttrf", "gttrf"]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("nrhs", (1, 2))
def test_positive_definite_factor_and_solve_match_scipy(n, nrhs):
    rng = np.random.default_rng(n + nrhs)
    d, e = spd_tridiagonal(n, rng)
    b = right_hand_sides(n, nrhs, rng)
    inputs = frozen(d, e, b)
    mult, solve = pttrf(d, e)
    wd, we, info = scipy_lapack.dpttrf(d, e)
    assert info == 0
    np.testing.assert_array_equal(mult, we)
    x = solve(b)
    assert x.shape == (n, nrhs)
    np.testing.assert_array_equal(x, scipy_lapack.dpttrs(wd, we, b)[0])
    # the leading m x m block's factor is the full factor's head (scipy's
    # wrapper refuses m = 1, where dpttrs scales by the first pivot)
    for m in sorted({n // 2, n - 1} - {0, 1}):
        np.testing.assert_array_equal(
            solve(b[:m]), scipy_lapack.dpttrs(wd[:m], we[:m - 1], b[:m])[0])
    np.testing.assert_array_equal(solve(b[:1]), b[:1] * (1.0 / wd[0]))
    assert_unchanged([d, e, b], inputs)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("nrhs", (1, 2))
def test_pivoted_factor_and_solve_match_scipy(n, nrhs):
    rng = np.random.default_rng(10 * n + nrhs)
    dl, d, du = indefinite_tridiagonal(n, rng)
    b = right_hand_sides(n, nrhs, rng)
    inputs = frozen(dl, d, du, b)
    x = gttrf(dl, d, du)(b)
    if n > 2:  # scipy's wrappers refuse n = 2; the residual check holds
        want = scipy_lapack.dgttrf(dl, d, du)
        assert want[5] == 0
        assert not np.array_equal(want[4], np.arange(1, n + 1))  # it pivoted
        np.testing.assert_array_equal(x, scipy_lapack.dgttrs(*want[:5], b)[0])
    assert x.shape == (n, nrhs)
    ax = d[:, None] * x
    ax[1:] += dl[:, None] * x[:-1]
    ax[:-1] += du[:, None] * x[1:]
    assert np.abs(ax - b).max() <= 1e-10 * np.abs(x).max()
    assert_unchanged([dl, d, du, b], inputs)


def test_one_dimensional_right_hand_side():
    rng = np.random.default_rng(7)
    d, e = spd_tridiagonal(64, rng)
    b = rng.standard_normal(64)
    wd, we, _ = scipy_lapack.dpttrf(d, e)
    np.testing.assert_array_equal(pttrf(d, e)[1](b),
                                  scipy_lapack.dpttrs(wd, we, b)[0])
    dl, d, du = indefinite_tridiagonal(64, rng)
    np.testing.assert_array_equal(
        gttrf(dl, d, du)(b),
        scipy_lapack.dgttrs(*scipy_lapack.dgttrf(dl, d, du)[:5], b)[0])


def test_indefinite_factor_reports_info():
    d, e = np.array([1.0, -1.0, 2.0]), np.zeros(2)
    assert scipy_lapack.dpttrf(d, e)[2] == 2
    with pytest.raises(ArithmeticError, match="dpttrf info 2"):
        pttrf(d, e)


def test_singular_factor_raises_with_info():
    d, off = np.array([1.0, 0.0, 2.0]), np.zeros(2)
    assert scipy_lapack.dgttrf(off, d, off)[5] == 2
    with pytest.raises(ArithmeticError, match="dgttrf info 2"):
        gttrf(off, d, off)


def test_singular_newton_block_raises():
    # a Hessian block that is exactly zero: dgttrf finds a zero pivot
    n = 6
    grid = types.SimpleNamespace(w_trapz=np.zeros(n), c_h1=np.zeros(n - 1),
                                 h=np.ones(n - 1))
    pd = types.SimpleNamespace(grid=grid, G=np.zeros(n), lam=1.0,
                               g0=np.zeros(8))
    with pytest.raises(ArithmeticError, match="dgttrf info 1"):
        solver._newton_solver(pd, np.zeros((1, n)), np.zeros(1), None, 0.0,
                              None, 0.0)


def test_short_inputs_are_refused():
    # the routines would read past the end of a short array
    d, e = np.full(5, 3.0), np.ones(4)
    with pytest.raises(ValueError):
        pttrf(d, e[:3])
    with pytest.raises(ValueError):
        gttrf(e[:3], d, e)
    with pytest.raises(ValueError):
        gttrf(e, d, e[:3])


@pytest.mark.parametrize("rows", (0, 6))
def test_positive_definite_solve_refuses_rows_outside_the_factor(rows):
    _, solve = pttrf(np.full(5, 3.0), np.ones(4))
    with pytest.raises(ValueError, match="1 to 5 rows"):
        solve(np.ones((rows, 1)))


@pytest.mark.parametrize("rows", (0, 1, 4, 6))
def test_pivoted_solve_refuses_any_other_row_count(rows):
    solve = gttrf(np.ones(4), np.full(5, 3.0), np.ones(4))
    with pytest.raises(ValueError, match="5 to 5 rows"):
        solve(np.ones((rows, 1)))


def test_solves_refuse_a_scalar_or_a_cube():
    _, solve = pttrf(np.full(5, 3.0), np.ones(4))
    for b in (np.float64(1.0), np.ones((5, 1, 1))):
        with pytest.raises(ValueError):
            solve(b)


def test_multipliers_are_read_only():
    e, _ = pttrf(np.full(5, 3.0), np.ones(4))
    assert not e.flags.writeable
    with pytest.raises(ValueError):
        e[0] = 0.0


def test_solves_keep_their_factor_alive():
    rng = np.random.default_rng(3)
    d, e = spd_tridiagonal(2048, rng)
    b = right_hand_sides(2048, 2, rng)
    wd, we, _ = scipy_lapack.dpttrf(d, e)
    mult, solve = pttrf(d, e)
    dl, dg, du = indefinite_tridiagonal(2048, rng)
    want = scipy_lapack.dgttrs(*scipy_lapack.dgttrf(dl, dg, du)[:5], b)[0]
    lu_solve = gttrf(dl, dg, du)
    del mult, d, e, dl, dg, du
    gc.collect()
    # the solves pass addresses taken at factorization: arrays freed
    # there would hand their memory to these
    junk = [np.full(2048, np.nan) for _ in range(64)]
    np.testing.assert_array_equal(solve(b), scipy_lapack.dpttrs(wd, we, b)[0])
    np.testing.assert_array_equal(lu_solve(b), want)
    del junk  # held across both solves


def test_solves_never_write_b():
    # a Fortran-ordered float64 b is the layout LAPACK would overwrite
    rng = np.random.default_rng(5)
    b = np.asfortranarray(rng.standard_normal((64, 2)))
    copy = b.copy()
    _, solve = pttrf(*spd_tridiagonal(64, rng))
    lu_solve = gttrf(*indefinite_tridiagonal(64, rng))
    for x in (solve(b), solve(b[:10]), lu_solve(b)):
        assert not np.shares_memory(x, b)
    np.testing.assert_array_equal(b, copy)


@pytest.fixture
def two_threads():
    """OpenBLAS at two threads for the test, the caller's count after."""
    before = _lapack._GET_THREADS()
    _lapack._SET_THREADS(2)
    yield
    _lapack._SET_THREADS(before)


def test_one_thread_restores_the_callers_count(two_threads):
    with _lapack._one_thread():
        assert _lapack._GET_THREADS() == 1
        with _lapack._one_thread():
            assert _lapack._GET_THREADS() == 1
        assert _lapack._GET_THREADS() == 1  # the inner block restores nothing
    assert _lapack._GET_THREADS() == 2
    with pytest.raises(ZeroDivisionError), _lapack._one_thread():
        1 / 0
    assert _lapack._GET_THREADS() == 2


@pytest.mark.parametrize("solve", [
    lambda cfg: solver.solve_planar(3.0, 1.0, cfg),
    lambda cfg: solver.solve_single(3.0, 0.0, 1.0, cfg),
    lambda cfg: solver.solve_hybrid(solver.HybridParams(3, 3, 0, 1, 1, 1), cfg),
    lambda cfg: solver.omega_star_grid(solver.HybridParams(3, 3, 0, 1, 1, 1), cfg),
], ids=["planar", "single", "hybrid", "omega_star_grid"])
def test_public_solves_run_on_one_thread(two_threads, monkeypatch, solve):
    counts = []
    descend = solver._descend

    def counted(*args, **kwargs):
        counts.append(_lapack._GET_THREADS())
        return descend(*args, **kwargs)

    monkeypatch.setattr(solver, "_descend", counted)
    solve(solver.SolverConfig(N=256))
    assert counts and set(counts) == {1}
    assert _lapack._GET_THREADS() == 2
