"""Radial mesh and quadrature tests, mostly against closed forms.

The accuracy tests of the Simpson oracle in ``quadrature.py`` are
imported here so that pytest collects them.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hybrid_nls.grid import (
    FINEST,
    RESOLUTION,
    RadialField,
    RadialGrid,
    eval_at_origin,
    first_cell,
    make_grid,
    origin_cell_rule,
    radial_laplacian,
)

from quadrature import (  # noqa: F401  (collected here)
    TestH1Seminorm,
    TestIntegrate,
    TestLpNorm,
    simpson_weights,
)


def field(grid, fn):
    return RadialField(grid, fn(grid.r))


@pytest.fixture(scope="module")
def default_grid():
    return make_grid(40.0, 2048, 1.01)


class TestMakeGrid:
    def test_uniform_mesh(self):
        g = make_grid(40.0, 1024, 1.0)
        assert g.n_nodes == 1025
        assert np.allclose(np.diff(g.r), 40.0 / 1024, rtol=1e-12)

    def test_graded_mesh_monotone_cells(self):
        g = make_grid(40.0, 1024, 1.01)
        assert g.h[0] < g.h[-1]
        assert np.all(np.diff(g.r) > 0)
        assert g.r[0] == 0.0 and g.r[-1] == 40.0

    def test_smallest_cell_bound(self):
        # documented bound for genuinely graded meshes
        for ratio in (1.005, 1.01, 1.02):
            g = make_grid(40.0, 1024, ratio)
            bound = 40.0 * (1.0 - 1.0 / ratio) / ratio ** (1024 // 2)
            assert g.h[0] <= bound

    def test_node_count_contract(self):
        for n in (64, 129, 2048):
            assert make_grid(10.0, n, 1.01).n_nodes == n + 1

    def test_construction_errors(self):
        for bad_R in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                make_grid(bad_R, 1024, 1.01)
        with pytest.raises(ValueError):
            make_grid(40.0, 32, 1.01)
        with pytest.raises(ValueError):
            make_grid(40.0, 1024, 0.9)
        with pytest.raises(ValueError):
            make_grid(40.0, 1024, 2.5)
        # first cells of 1.4e-287 and 0 (the closed form underflows): their
        # squares are not normal doubles
        for n, ratio in ((2048, 1.9), (8192, 1.2)):
            with pytest.raises(ValueError, match="square underflows"):
                make_grid(40.0, n, ratio)

    @pytest.mark.parametrize("n, ratio", [(64, 1.0), (1024, 1.01),
                                          (32768, 1.01), (2048, 1.2)])
    def test_first_cell_law_matches_mesh(self, n, ratio):
        assert first_cell(40.0, n, ratio) == pytest.approx(
            make_grid(40.0, n, ratio).h[0], rel=1e-12)

    def test_quadrature_weights_nonnegative(self):
        for ratio in (1.0, 1.01, 1.05):
            g = make_grid(40.0, 256, ratio)
            assert np.all(g.w_trapz >= 0.0)
            assert np.all(simpson_weights(g.r) >= 0.0)

    @pytest.mark.parametrize("R, n", [(40.0, 1024), (10.0, 64), (12.0, 129),
                                      (1e6, 512)])
    def test_uniform_mesh_is_the_geometric_formula_at_ratio_one(self, R, n):
        # uniform cells R/n, built directly: the geometric formula gives
        # them bit for bit at ratio 1
        h = np.full(n, R / n)
        r = np.concatenate([[0.0], np.cumsum(h)])
        r[-1] = R
        h = np.diff(r)
        w = np.zeros(n + 1)
        w[1:] += np.pi * r[1:] * h
        w[:-1] += np.pi * r[:-1] * h
        c = 2.0 * np.pi * (0.5 * (r[:-1] + r[1:])) / h
        g = make_grid(R, n, 1.0)
        for got, want in ((g.r, r), (g.h, h), (g.w_trapz, w), (g.c_h1, c)):
            assert np.array_equal(got, want)

    def test_grids_and_fields_compare_by_identity(self):
        g, twin = make_grid(10.0, 64, 1.02), make_grid(10.0, 64, 1.02)
        assert g == g and g != twin
        assert hash(g) != hash(twin) and len({g, g, twin}) == 2
        f = RadialField(g, np.ones(g.n_nodes))
        assert f == f and f != RadialField(g, np.ones(g.n_nodes))
        assert hash(f) == hash(f)

    def test_field_validation(self):
        g = make_grid(10.0, 64, 1.0)
        with pytest.raises(ValueError):
            RadialField(g, np.zeros(g.n_nodes - 1))
        bad = np.zeros(g.n_nodes)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            RadialField(g, bad)


class TestResolution:
    def test_boundary(self):
        assert RESOLUTION == 0.05
        assert RadialGrid.cell_resolves(0.05, 1.0)
        assert not RadialGrid.cell_resolves(math.nextafter(0.05, 1.0), 1.0)
        assert RadialGrid.cell_resolves(1e6, 0.0)

    def test_floor(self):
        assert FINEST == 1e-7
        assert not RadialGrid.cell_over_graded(1e-7, 1.0)
        assert RadialGrid.cell_over_graded(math.nextafter(1e-7, 0.0), 1.0)
        assert not RadialGrid.cell_over_graded(1e-300, 0.0)

    def test_grid_reads_its_first_cell(self, default_grid):
        h0 = default_grid.h[0]
        rate = (RESOLUTION / h0) ** 2
        for r in (0.0, 0.5 * rate, math.nextafter(rate, 2.0 * rate), 2.0 * rate, 1.0):
            assert default_grid.resolves(r) == RadialGrid.cell_resolves(h0, r)
        assert default_grid.resolves(0.5 * rate) and not default_grid.resolves(2.0 * rate)


class TestEvalAtOrigin:
    def test_constant(self, default_grid):
        assert eval_at_origin(field(default_grid, lambda r: np.full_like(r, 3.25))) \
            == pytest.approx(3.25, rel=1e-14)

    def test_quadratic_exact(self, default_grid):
        got = eval_at_origin(field(default_grid, lambda r: 1.0 - r**2))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_cosine(self, default_grid):
        got = eval_at_origin(field(default_grid, np.cos))
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_ignores_node_zero_placeholder(self, default_grid):
        vals = 1.0 - default_grid.r ** 2
        vals[0] = 1e9  # placeholder junk must not leak into the result
        assert eval_at_origin(RadialField(default_grid, vals)) == pytest.approx(
            1.0, abs=1e-10)


class TestRadialLaplacian:
    def test_quadratic(self, default_grid):
        out = radial_laplacian(field(default_grid, lambda r: r**2))
        assert np.max(np.abs(out.values - 4.0)) <= 1e-8

    def test_constant(self, default_grid):
        out = radial_laplacian(field(default_grid, lambda r: np.full_like(r, 2.0)))
        assert np.max(np.abs(out.values)) == 0.0

    def test_gaussian_closed_form(self, default_grid):
        # On ~1e-6-sized graded cells the curvature signal h^2 f'' of a
        # unit-scale function sits ~4 decades above machine epsilon, so
        # node-wise differences there are rounding-limited (~2e-4), not
        # truncation-limited.  Downstream consumers weight those nodes
        # by ~r*h, so the truncation contract is asserted away from the
        # rounding zone and only a loose sanity bound inside it.
        f = field(default_grid, lambda r: np.exp(-(r**2) / 2))
        exact = (default_grid.r**2 - 2.0) * np.exp(-(default_grid.r**2) / 2)
        err = np.abs(radial_laplacian(f).values - exact)
        outer = default_grid.r >= 0.01
        assert np.max(err[outer]) <= 1e-4
        assert np.max(err) <= 2e-3

    def test_refinement_reduces_error(self):
        # Inside the geometric zone the local spacing is ~(grading-1)*r
        # independent of n, so a genuine refinement halves the grading
        # excess together with doubling n.
        errs = []
        for n, ratio in ((1024, 1.02), (2048, 1.01), (4096, 1.005)):
            g = make_grid(40.0, n, ratio)
            f = field(g, lambda r: np.exp(-(r**2) / 2))
            exact = (g.r**2 - 2.0) * np.exp(-(g.r**2) / 2)
            err = np.abs(radial_laplacian(f).values - exact)
            errs.append(np.max(err[g.r >= 0.01]))
        assert errs[1] <= 0.6 * errs[0]
        assert errs[2] <= 0.6 * errs[1]


class TestOriginCellRule:
    def test_weights_and_area(self, default_grid):
        z, w, area = origin_cell_rule(default_grid)
        assert len(z) == len(w) == 8
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        assert area == pytest.approx(math.pi * default_grid.r[1] ** 2, rel=1e-14)

    def test_rule_is_numpys_laguerre_rule(self, default_grid):
        # the rule is written out so that the import skips numpy.polynomial;
        # laggauss is its reference, to the bit
        z, w, _ = origin_cell_rule(default_grid)
        ref_z, ref_w = np.polynomial.laguerre.laggauss(8)
        assert z.tobytes() == ref_z.tobytes()
        assert w.tobytes() == ref_w.tobytes()

    def test_log_power_integrand_oracle(self, default_grid):
        # 2 pi int_0^{r1} |a + b log r|^p r dr against adaptive quadrature
        a, b, p = 1.0, 0.3, 2.7
        r1 = default_grid.r[1]
        z, w, area = origin_cell_rule(default_grid)
        radii = r1 * np.exp(-z / 2.0)
        got = area * float(w @ np.abs(a + b * np.log(radii)) ** p)
        oracle, _ = quad(
            lambda r: abs(a + b * math.log(r)) ** p * r, 0.0, r1,
            epsabs=1e-300, epsrel=1e-12, limit=400)
        assert got == pytest.approx(2.0 * math.pi * oracle, rel=1e-8)
