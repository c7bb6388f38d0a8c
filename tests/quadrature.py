"""Independent quadrature rules that tests use as oracles, and their tests.

The solver and the energy layer integrate with the grid's trapezoid
weights and stiffness coefficients.  Tests check them against a
different rule: composite locally-quadratic (nonuniform Simpson)
weights, fourth order on smooth integrands and nonnegative for any
grading below 2.  The accuracy tests of these helpers are collected
through ``test_grid.py``.
"""

import math

import numpy as np
import pytest

from hybrid_nls import specfun as sf
from hybrid_nls.grid import RadialField, make_grid


def simpson_weights(r: np.ndarray) -> np.ndarray:
    """Composite quadrature weights for 2 pi int_0^R F(r) r dr, F sampled at r.

    Cells are paired; on each pair the parabola through the three nodes
    is integrated exactly (classic nonuniform-Simpson coefficients).  A
    trailing unpaired cell falls back to trapezoid.  The 2 pi r measure
    factor is folded into the returned node weights.
    """
    n = len(r) - 1
    w = np.zeros_like(r)
    k = np.arange(0, n - 1, 2)
    h1 = r[k + 1] - r[k]
    h2 = r[k + 2] - r[k + 1]
    s = h1 + h2
    w[k] += s / 6.0 * (2.0 - h2 / h1)
    w[k + 1] += s**3 / (6.0 * h1 * h2)
    w[k + 2] += s / 6.0 * (2.0 - h1 / h2)
    if n % 2:
        half = 0.5 * (r[n] - r[n - 1])
        w[n - 1] += half
        w[n] += half
    return w * (2.0 * np.pi) * r


def integrate(f: RadialField) -> float:
    """Quadrature of 2 pi int_0^R f(r) r dr on the field's grid."""
    return float(simpson_weights(f.grid.r) @ f.values)


def lp_norm(f: RadialField, p: float) -> float:
    """Discrete L^p norm, (2 pi int |f|^p r dr)^(1/p), for p >= 1."""
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    w = simpson_weights(f.grid.r)
    return float((w @ np.abs(f.values) ** p) ** (1.0 / p))


def h1_seminorm_sq(f: RadialField) -> float:
    """Squared H^1 seminorm 2 pi int |f'(r)|^2 r dr (midpoint in r)."""
    d = np.diff(f.values)
    return float(f.grid.c_h1 @ (d * d))


def _field(grid, fn):
    return RadialField(grid, fn(grid.r))


class TestIntegrate:
    def test_constant_disk_area(self):
        g = make_grid(40.0, 1024, 1.01)
        assert integrate(_field(g, lambda r: np.ones_like(r))) == pytest.approx(
            math.pi * 40.0**2, rel=1e-10)

    def test_gaussian_closed_form(self):
        g = make_grid(40.0, 1024, 1.0)
        got = integrate(_field(g, lambda r: np.exp(-(r**2))))
        assert got == pytest.approx(math.pi * (1.0 - math.exp(-1600.0)), rel=1e-6)

    def test_green_kernel_l2_norm(self):
        g = make_grid(40.0, 4096, 1.01)
        prof = sf.green_profile(1.0, g.r)
        got = integrate(RadialField(g, prof * prof))
        assert got == pytest.approx(sf.green_l2_norm_sq(1.0), rel=1e-6)

    def test_linearity(self, default_grid):
        rng = np.random.default_rng(7)
        f = rng.normal(size=default_grid.n_nodes)
        h = rng.normal(size=default_grid.n_nodes)
        lhs = integrate(RadialField(default_grid, 2.0 * f - 3.0 * h))
        rhs = 2.0 * integrate(RadialField(default_grid, f)) \
            - 3.0 * integrate(RadialField(default_grid, h))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_monotonicity(self, default_grid):
        rng = np.random.default_rng(8)
        f = rng.uniform(0.0, 1.0, size=default_grid.n_nodes)
        h = f + rng.uniform(0.0, 1.0, size=default_grid.n_nodes)
        assert integrate(RadialField(default_grid, f)) <= integrate(
            RadialField(default_grid, h))

    def test_refinement_order(self):
        errs = []
        for n in (256, 512, 1024):
            g = make_grid(8.0, n, 1.0)
            got = integrate(_field(g, lambda r: np.exp(-(r**2))))
            errs.append(abs(got - math.pi * (1.0 - math.exp(-64.0))))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9
        assert errs[2] < errs[1] < errs[0]


class TestLpNorm:
    def test_constant(self):
        g = make_grid(40.0, 256, 1.0)
        got = lp_norm(_field(g, lambda r: np.full_like(r, -2.5)), 2.0)
        assert got == pytest.approx(2.5 * math.sqrt(math.pi * 1600.0), rel=1e-10)

    def test_definition_consistency(self, default_grid):
        rng = np.random.default_rng(11)
        f = rng.normal(size=default_grid.n_nodes)
        assert lp_norm(RadialField(default_grid, f), 2.0) ** 2 == pytest.approx(
            integrate(RadialField(default_grid, f * f)), rel=1e-12)

    @pytest.mark.parametrize("p", [2.5, 3.0, 3.5])
    def test_green_kernel_lp_finite(self, p):
        coarse = make_grid(40.0, 4096, 1.01)
        fine = make_grid(40.0, 16384, 1.01)
        vals = []
        for g in (coarse, fine):
            prof = sf.green_profile(1.0, g.r)
            vals.append(lp_norm(RadialField(g, prof), p) ** p)
        assert np.isfinite(vals).all() and vals[0] > 0
        assert vals[0] == pytest.approx(vals[1], rel=1e-4)

    def test_triangle_inequality_random_pairs(self, default_grid):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.normal(size=default_grid.n_nodes)
            h = rng.normal(size=default_grid.n_nodes)
            for p in (2.0, 3.0):
                lhs = lp_norm(RadialField(default_grid, f + h), p)
                rhs = lp_norm(RadialField(default_grid, f), p) + lp_norm(
                    RadialField(default_grid, h), p)
                assert lhs <= rhs * (1.0 + 1e-12)

    def test_invalid_p(self, default_grid):
        with pytest.raises(ValueError):
            lp_norm(RadialField(default_grid, default_grid.r), 0.5)


class TestH1Seminorm:
    def test_constant_is_zero(self, default_grid):
        assert h1_seminorm_sq(_field(default_grid, np.ones_like)) == 0.0

    def test_linear_field(self):
        g = make_grid(40.0, 1024, 1.0)
        assert h1_seminorm_sq(_field(g, lambda r: r)) == pytest.approx(
            math.pi * 1600.0, rel=1e-10)

    def test_gaussian_against_closed_form(self):
        # |grad exp(-r^2/2)|^2 integrates to pi over the plane
        g = make_grid(40.0, 8192, 1.01)
        assert h1_seminorm_sq(_field(g, lambda r: np.exp(-(r**2) / 2))) == \
            pytest.approx(math.pi, rel=1e-5)

    def test_refinement_toward_closed_form(self):
        errs = []
        for n in (1024, 2048, 4096):
            g = make_grid(40.0, n, 1.01)
            got = h1_seminorm_sq(_field(g, lambda r: np.exp(-(r**2) / 2)))
            errs.append(abs(got - math.pi))
        assert errs[2] < errs[1] < errs[0]

    def test_nonnegative_random(self, default_grid):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = rng.normal(size=default_grid.n_nodes)
            assert h1_seminorm_sq(RadialField(default_grid, f)) >= 0.0
