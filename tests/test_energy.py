"""Energy-layer tests.

The key oracle here is central finite differencing of the assembled
energy against the analytic gradient, over random states.  Random
states respect the solver's representation conventions: node 0 is a
ghost tied to node 1 and the far-end node is pinned to zero, so test
directions satisfy v[0] = v[1], v[-1] = 0.
"""

import dataclasses
import gc
import math
import os
import tracemalloc

import numpy as np
import pytest

import hybrid_nls
from hybrid_nls import _kernels
from hybrid_nls import energy as en
from hybrid_nls import specfun as sf
from hybrid_nls.energy import (
    ChargedField,
    HybridParams,
    HybridState,
    boundary_residual,
    dilation_defect,
    el_residual,
    f_hybrid,
    f_single,
    grad_f_hybrid,
    lp_power,
    mass,
    plane_data,
    q_form_sigma,
    total_field,
)
from hybrid_nls.grid import RadialField, make_grid

from quadrature import h1_seminorm_sq, integrate, lp_norm


@pytest.fixture(scope="module")
def small_grid():
    return make_grid(30.0, 256, 1.02)


@pytest.fixture(scope="module")
def default_grid():
    return make_grid(40.0, 2048, 1.01)


def tied(grid, values):
    """Apply the representation conventions (ghost tie, Dirichlet end)."""
    v = np.array(values, dtype=float)
    v[0] = v[1]
    v[-1] = 0.0
    return v


def redecompose(u, lam_new):
    """The same total field split at rate lam_new: phi' = phi + q (G_lam -
    G_lam'), the charge unchanged; at the origin node the kernel
    difference extends continuously to theta(lam') - theta(lam)."""
    grid = u.grid
    diff = sf.green_profile(u.lam, grid.r) - sf.green_profile(lam_new, grid.r)
    diff[0] = sf.theta(lam_new) - sf.theta(u.lam)
    return ChargedField(RadialField(grid, u.phi.values + u.q * diff), u.q,
                        plane_data(grid, lam_new))


def gaussian_field(grid, amp=1.0, width=1.0):
    return tied(grid, amp * np.exp(-(grid.r**2) / (2.0 * width**2)))


def random_state(grid, rng, lam1=1.5, lam2=3.0):
    def bump():
        a, b, c = rng.uniform(0.3, 1.5, size=3)
        return tied(grid, a * np.exp(-(grid.r**2) / (2 * b * b))
                    * (1.0 + 0.3 * np.sin(c * grid.r)))
    u1 = ChargedField(RadialField(grid, bump()), rng.uniform(0.05, 0.8),
                      plane_data(grid, lam1))
    u2 = ChargedField(RadialField(grid, bump()), rng.uniform(0.05, 0.8),
                      plane_data(grid, lam2))
    return HybridState(u1, u2)


class TestTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            HybridParams(5.0, 3.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            HybridParams(3.0, 2.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            HybridParams(3.0, 3.0, 0.0, 0.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            HybridParams(3.0, 3.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            HybridParams(3.0, 3.0, float("inf"), 0.0, 1.0, 1.0)
        # 1e-310 is subnormal: no start of that mass can be scaled
        for beta, mu in ((float("inf"), 1.0), (1.0, float("inf")),
                         (float("nan"), 1.0), (1.0, float("nan")), (1.0, 1e-310)):
            with pytest.raises(ValueError, match="finite"):
                HybridParams(3.0, 3.0, 0.0, 0.0, beta, mu)

    def test_charged_field_validation(self, small_grid):
        phi = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        with pytest.raises(ValueError):
            ChargedField(phi, -0.1, plane_data(small_grid, 1.0))
        with pytest.raises(ValueError):
            plane_data(small_grid, 0.0)

    def test_charged_field_carries_its_plane(self, small_grid, default_grid):
        phi = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        u = ChargedField(phi, 0.1, plane_data(small_grid, 2.5))
        assert u.lam == u.plane.lam == 2.5
        with pytest.raises(AttributeError):
            u.lam = 1.0
        # a plane built on another grid object is refused, even an equal one
        twin = make_grid(30.0, 256, 1.02)
        assert (twin.R, twin.n_cells, twin.grading) == (
            small_grid.R, small_grid.n_cells, small_grid.grading)
        for grid in (twin, default_grid):
            with pytest.raises(ValueError, match="grid"):
                ChargedField(phi, 0.1, plane_data(grid, 2.5))

    def test_state_grid_compatibility(self, small_grid, default_grid):
        z1 = ChargedField(RadialField(small_grid, np.zeros(small_grid.n_nodes)),
                          0.0, plane_data(small_grid, 1.0))
        # a twin of small_grid (equal arguments, another object) is refused
        # like a different mesh: both planes hold one grid object
        twin = make_grid(30.0, 256, 1.02)
        for grid in (default_grid, twin):
            z2 = ChargedField(RadialField(grid, np.zeros(grid.n_nodes)),
                              0.0, plane_data(grid, 1.0))
            with pytest.raises(ValueError, match="same grid"):
                HybridState(z1, z2)


class TestMass:
    def test_pure_profile(self, small_grid):
        phi = gaussian_field(small_grid)
        u = ChargedField(RadialField(small_grid, phi), 0.0, plane_data(small_grid, 1.0))
        # same value as the standalone quadrature up to the difference
        # of the two rules (trapezoid vs locally-quadratic)
        assert mass(u) == pytest.approx(
            integrate(RadialField(small_grid, phi * phi)), rel=1e-3)
        w = small_grid.w_trapz
        assert mass(u) == pytest.approx(float(w @ (phi * phi)), rel=1e-14)

    def test_pure_charge_closed_form(self, small_grid):
        zero = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        u = ChargedField(zero, 1.0, plane_data(small_grid, 1.0))
        assert mass(u) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-8)

    def test_redecomposition_invariance(self, default_grid):
        phi = gaussian_field(default_grid)
        u = ChargedField(RadialField(default_grid, phi), 0.7,
                         plane_data(default_grid, 1.0))
        v = redecompose(u, 4.0)
        assert mass(v) == pytest.approx(mass(u), rel=1e-6)
        back = redecompose(v, 1.0)
        assert mass(back) == pytest.approx(mass(u), rel=1e-9)


class TestQFormSigma:
    def test_pure_profile_is_kinetic(self, small_grid):
        phi = gaussian_field(small_grid)
        u = ChargedField(RadialField(small_grid, phi), 0.0, plane_data(small_grid, 2.0))
        assert q_form_sigma(u, 0.7) == pytest.approx(
            h1_seminorm_sq(RadialField(small_grid, phi)), rel=1e-12)

    def test_pure_charge_closed_form(self, small_grid):
        zero = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        for lam, sigma in ((1.0, 0.0), (3.0, -0.4), (0.5, 2.0)):
            u = ChargedField(zero, 1.0, plane_data(small_grid, lam))
            expected = sigma + sf.theta(lam) - 1.0 / (4.0 * math.pi)
            assert q_form_sigma(u, sigma) == pytest.approx(expected, abs=1e-12)

    def test_rate_independence(self, default_grid):
        phi = gaussian_field(default_grid)
        u = ChargedField(RadialField(default_grid, phi), 0.5,
                         plane_data(default_grid, 1.0))
        v = redecompose(u, 4.0)
        a = q_form_sigma(u, 0.3)
        b = q_form_sigma(v, 0.3)
        assert b == pytest.approx(a, rel=1e-5)


class TestFSingle:
    def test_zero_state(self, small_grid):
        zero = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        u = ChargedField(zero, 0.0, plane_data(small_grid, 1.0))
        assert f_single(u, 3.0, 0.5) == 0.0

    def test_chargeless_reduces_to_planar_energy(self, default_grid):
        phi_vals = gaussian_field(default_grid)
        phi = RadialField(default_grid, phi_vals)
        u = ChargedField(phi, 0.0, plane_data(default_grid, 1.0))
        # identical decomposition: 1/2 |grad|^2 - (1/p) |phi|_p^p
        p = 3.0
        assert f_single(u, p, 0.9) == pytest.approx(
            0.5 * h1_seminorm_sq(phi) - lp_power(u, p) / p, rel=1e-13)
        # and against the fully independent quadrature rule
        planar = 0.5 * h1_seminorm_sq(phi) - lp_norm(phi, p) ** p / p
        assert f_single(u, p, 0.9) == pytest.approx(planar, rel=1e-4)

    def test_rate_independence(self, default_grid):
        phi = gaussian_field(default_grid)
        u = ChargedField(RadialField(default_grid, phi), 0.5,
                         plane_data(default_grid, 1.0))
        v = redecompose(u, 4.0)
        assert f_single(v, 2.7, 0.3) == pytest.approx(
            f_single(u, 2.7, 0.3), rel=1e-5)

    def test_invalid_power(self, small_grid):
        zero = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        with pytest.raises(ValueError):
            f_single(ChargedField(zero, 0.0, plane_data(small_grid, 1.0)), 4.5, 0.0)


class TestFHybrid:
    def test_uncoupled_sum(self, small_grid):
        rng = np.random.default_rng(0)
        U = random_state(small_grid, rng)
        P = HybridParams(3.0, 2.5, 0.2, -0.3, 0.0, 1.0)
        assert f_hybrid(U, P) == (
            f_single(U.u1, P.p1, P.sigma1) + f_single(U.u2, P.p2, P.sigma2))

    def test_single_plane_limit(self, small_grid):
        rng = np.random.default_rng(1)
        U0 = random_state(small_grid, rng)
        zero = ChargedField(RadialField(small_grid, np.zeros(small_grid.n_nodes)),
                            0.0, plane_data(small_grid, 1.0))
        U = HybridState(U0.u1, zero)
        P = HybridParams(3.0, 3.0, 0.2, 0.4, 1.5, 1.0)
        assert f_hybrid(U, P) == pytest.approx(
            f_single(U.u1, P.p1, P.sigma1), rel=1e-14)

    def test_swap_identity_equal_powers(self, small_grid):
        rng = np.random.default_rng(2)
        for _ in range(5):
            U = random_state(small_grid, rng, lam1=2.0, lam2=2.0)
            s1, s2 = rng.uniform(-1.0, 2.0, size=2)
            P = HybridParams(3.0, 3.0, s1, s2, rng.uniform(0.0, 2.0), 1.0)
            swapped = HybridState(U.u2, U.u1)
            got = f_hybrid(swapped, P) - f_hybrid(U, P)
            expected = 0.5 * (s2 - s1) * (U.u1.q**2 - U.u2.q**2)
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)


class TestGradient:
    @pytest.mark.parametrize("pset", [
        (3.0, 3.0, 0.0, 0.0, 1.0),
        (2.5, 3.5, 0.3, -0.4, 0.5),
        (3.0, 3.0, -1.0, 1.0, 2.0),
        (2.2, 3.8, 1.0, 1.0, 0.0),
    ])
    def test_matches_central_differences(self, small_grid, pset):
        p1, p2, s1, s2, beta = pset
        P = HybridParams(p1, p2, s1, s2, beta, 1.0)
        rng = np.random.default_rng(hash(pset) % 2**32)
        n = small_grid.n_nodes
        for _ in range(20):
            U = random_state(small_grid, rng)
            g = grad_f_hybrid(U, P)
            v1 = tied(small_grid, rng.standard_normal(n))
            v2 = tied(small_grid, rng.standard_normal(n))
            vq1, vq2 = rng.standard_normal(2)
            analytic = (
                float(small_grid.w_trapz @ (g.d1.values * v1)) + g.dq1 * vq1
                + float(small_grid.w_trapz @ (g.d2.values * v2)) + g.dq2 * vq2)

            h = 1e-6

            def shifted(sign):
                u1 = ChargedField(
                    RadialField(small_grid, U.u1.phi.values + sign * h * v1),
                    U.u1.q + sign * h * vq1, U.u1.plane)
                u2 = ChargedField(
                    RadialField(small_grid, U.u2.phi.values + sign * h * v2),
                    U.u2.q + sign * h * vq2, U.u2.plane)
                return HybridState(u1, u2)

            fd = (f_hybrid(shifted(+1), P) - f_hybrid(shifted(-1), P)) / (2 * h)
            assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-9)

    def test_zero_state_gradient_vanishes(self, small_grid):
        zero = ChargedField(RadialField(small_grid, np.zeros(small_grid.n_nodes)),
                            0.0, plane_data(small_grid, 1.0))
        P = HybridParams(3.0, 3.0, 0.5, 0.5, 1.0, 1.0)
        g = grad_f_hybrid(HybridState(zero, zero), P)
        assert np.all(g.d1.values == 0.0) and np.all(g.d2.values == 0.0)
        assert g.dq1 == 0.0 and g.dq2 == 0.0


class TestResiduals:
    def test_boundary_residual_chargeless(self, small_grid):
        rng = np.random.default_rng(4)
        U = random_state(small_grid, rng)
        u1 = ChargedField(U.u1.phi, 0.0, U.u1.plane)
        u2 = ChargedField(U.u2.phi, 0.0, U.u2.plane)
        P = HybridParams(3.0, 3.0, 0.5, 1.0, 2.0, 1.0)
        r1, r2 = boundary_residual(HybridState(u1, u2), P)
        from hybrid_nls.grid import eval_at_origin
        assert r1 == pytest.approx(eval_at_origin(u1.phi), rel=1e-12)
        assert r2 == pytest.approx(eval_at_origin(u2.phi), rel=1e-12)

    def test_boundary_residual_linear_eigenstate(self, small_grid):
        # charge-matrix kernel vector at the secular rate: zero defect
        sigma1, sigma2, beta = 0.0, 1.0, 0.5
        th = -0.5 * (sigma1 + sigma2) + math.sqrt(
            0.25 * (sigma1 - sigma2) ** 2 + beta * beta)
        lam = sf.lambda_for_theta(th)
        zero = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        q1 = 1.0
        q2 = (sigma1 + th) * q1 / beta
        pd = plane_data(small_grid, lam)
        U = HybridState(ChargedField(zero, q1, pd), ChargedField(zero, q2, pd))
        P = HybridParams(3.0, 3.0, sigma1, sigma2, beta, 1.0)
        r1, r2 = boundary_residual(U, P)
        assert abs(r1) <= 1e-6 and abs(r2) <= 1e-6

    def test_boundary_residual_rate_invariance(self, small_grid):
        rng = np.random.default_rng(5)
        U = random_state(small_grid, rng)
        P = HybridParams(3.0, 2.5, 0.3, -0.2, 0.7, 1.0)
        base = boundary_residual(U, P)
        moved = HybridState(redecompose(U.u1, 5.0), redecompose(U.u2, 0.7))
        got = boundary_residual(moved, P)
        assert got[0] == pytest.approx(base[0], abs=2e-4)
        assert got[1] == pytest.approx(base[1], abs=2e-4)

    def test_el_residual_finite_and_positive_on_random(self, small_grid):
        rng = np.random.default_rng(6)
        U = random_state(small_grid, rng)
        P = HybridParams(3.0, 3.0, 0.0, 0.0, 1.0, 1.0)
        r = el_residual(U, P, 1.0)
        assert np.isfinite(r) and r > 0.01

    def test_el_residual_skips_empty_plane(self, small_grid):
        rng = np.random.default_rng(7)
        U0 = random_state(small_grid, rng)
        zero = ChargedField(RadialField(small_grid, np.zeros(small_grid.n_nodes)),
                            0.0, plane_data(small_grid, 2.0))
        U = HybridState(U0.u1, zero)
        P = HybridParams(3.0, 3.0, 0.0, 0.0, 0.0, 1.0)
        assert np.isfinite(el_residual(U, P, 1.0))


class TestDilationDefect:
    README = HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("N,cap", [(512, 1e-3), (2048, 1e-5)])
    def test_falls_with_n_on_the_readme_hybrid(self, N, cap):
        # measured 9.9e-4 at N = 512 and 7.5e-6 at 2048
        r = hybrid_nls.solve_hybrid(self.README, hybrid_nls.SolverConfig(N=N))
        assert dilation_defect(r.state, self.README) <= cap

    def test_box_state_breaks_it(self):
        # a shallow state the R = 40 wall holds (R sqrt(omega) = 2.3); its
        # certificate passes, the identity does not (measured 0.198)
        P = HybridParams(3.0, 3.0, 1.0, 1.0, 0.1, 0.05)
        r = hybrid_nls.solve_hybrid(P, hybrid_nls.SolverConfig(N=512))
        assert r.certificate.certified
        assert dilation_defect(r.state, P) > 0.1

    def test_vanishes_on_a_dilation_stationary_state(self, small_grid):
        # a chargeless Gaussian of amplitude a: |grad u|^2 = pi a^2 and
        # |u|_3^3 = 2 pi a^3 / 3, so |grad u|^2 = |u|_3^3 / 3 at a = 9/2
        u = ChargedField(RadialField(small_grid, gaussian_field(small_grid, 4.5)),
                         0.0, plane_data(small_grid, 1.0))
        zero = ChargedField(RadialField(small_grid, np.zeros(small_grid.n_nodes)),
                            0.0, u.plane)
        P = HybridParams(3.0, 3.0, 0.0, 0.0, 0.0, 1.0)
        assert dilation_defect(HybridState(u, zero), P) < 1e-3
        off = dataclasses.replace(u, phi=RadialField(small_grid, 0.5 * u.phi.values))
        assert dilation_defect(HybridState(off, zero), P) > 0.1


def kernel_pair(phi, q, p, sig_theta, pd):
    """Energy pieces of each row and the gradient built from them."""
    energy, qform, pterm, pieces = _kernels.plane_energy(phi, q, p, sig_theta, pd)
    gphi = np.empty_like(phi)
    gq = _kernels.plane_energy_grad(q, pieces, sig_theta, pd, gphi)[0]
    return energy, qform, pterm, gphi, gq


#: (powers, interaction strengths, coupling) of the stacks under test
STACKS = {
    "one-row": ((2.7,), (0.1,), 0.0),
    "two-rows": ((2.5, 3.5), (0.3, -0.2), 0.8),
}


class TestKernelBackends:
    LAM = 1.0

    def stack(self, grid, k, seed):
        """k random tied rows and charges, with their ChargedFields."""
        rng = np.random.default_rng(seed)
        phi = np.array([tied(grid, rng.standard_normal(grid.n_nodes))
                        for _ in range(k)])
        q = rng.uniform(0.05, 0.8, size=k)
        pd = plane_data(grid, self.LAM)
        fields = [ChargedField(RadialField(grid, phi[i]), q[i], pd)
                  for i in range(k)]
        return phi, q, fields

    @pytest.mark.parametrize("ps,sigmas,beta", STACKS.values(), ids=STACKS)
    def test_rows_match_f_single(self, small_grid, ps, sigmas, beta):
        k = len(ps)
        phi, q, fields = self.stack(small_grid, k, 12)
        pd = plane_data(small_grid, self.LAM)
        energy, qform, pterm, gphi, gq = kernel_pair(
            phi, q, np.array(ps), np.array(sigmas) + pd.theta, pd)
        for i, u in enumerate(fields):
            # f_single, q_form_sigma and lp_power do not call the kernels
            assert energy[i] == pytest.approx(f_single(u, ps[i], sigmas[i]),
                                              rel=1e-12)
            assert qform[i] == pytest.approx(q_form_sigma(u, sigmas[i]),
                                             rel=1e-12)
            assert pterm[i] == pytest.approx(lp_power(u, ps[i]), rel=1e-12)
        if k == 2:
            U = HybridState(*fields)
            P = HybridParams(ps[0], ps[1], sigmas[0], sigmas[1], beta, 1.0)
            # the caller's coupling term completes the hybrid energy ...
            total = energy.sum() - beta * q[0] * q[1]
            assert total == pytest.approx(f_hybrid(U, P), rel=1e-12)
            # ... and its charge gradient; each stacked row's gradient is
            # the one-row gradient of that plane
            ref = grad_f_hybrid(U, P)
            gq = gq - beta * q[::-1]
            assert gq[0] == pytest.approx(ref.dq1, rel=1e-12)
            assert gq[1] == pytest.approx(ref.dq2, rel=1e-12)
            w = small_grid.w_trapz
            for row, d in zip(gphi, (ref.d1, ref.d2)):
                np.testing.assert_allclose(row[1:-1] / w[1:-1],
                                           d.values[1:-1], rtol=1e-12)

    def test_nonlinear_term_off(self, small_grid):
        phi, q, fields = self.stack(small_grid, 2, 13)
        sigmas = np.array([0.3, -0.2])
        pd = plane_data(small_grid, self.LAM)
        sig_theta = sigmas + pd.theta
        energy, qform, pterm, gphi, gq = kernel_pair(phi, q, None, sig_theta, pd)
        for i, u in enumerate(fields):
            assert energy[i] == pytest.approx(
                0.5 * q_form_sigma(u, sigmas[i]), rel=1e-12)
        np.testing.assert_array_equal(pterm, 0.0)
        np.testing.assert_array_equal(energy, 0.5 * qform)
        # the energy is quadratic, so a central difference is exact up
        # to rounding
        rng = np.random.default_rng(14)
        v = np.array([tied(small_grid, rng.standard_normal(small_grid.n_nodes))
                      for _ in range(2)])
        vq = rng.standard_normal(2)
        h = 1e-3
        plus = _kernels.plane_energy(phi + h * v, q + h * vq, None, sig_theta, pd)[0]
        minus = _kernels.plane_energy(phi - h * v, q - h * vq, None, sig_theta, pd)[0]
        slope = (gphi * v).sum(axis=1) + gq * vq
        np.testing.assert_allclose((plus - minus) / (2 * h), slope, rtol=1e-8)


class TestPlaneData:
    def test_fields_of_a_report_share_its_plane(self, small_grid):
        # plane_data keeps no memo: each call builds
        assert plane_data(small_grid, 2.0) is not plane_data(small_grid, 2.0)
        P = HybridParams(3.0, 2.5, 0.0, 1.0, 0.5, 1.0)
        U = hybrid_nls.solve_hybrid(P, hybrid_nls.SolverConfig(N=512)).state
        assert U.u1.plane is U.u2.plane
        assert U.u1.plane.grid is U.grid

    def test_read_only(self, small_grid):
        # every field of a solve shares one object
        pd = plane_data(small_grid, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pd.G = np.zeros_like(pd.G)
        for name in ("G", "wG", "w_in", "g0", "lagw", "w0"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(pd, name)[1] = 0.0

    def test_folded_weights_are_the_products(self, small_grid):
        pd = plane_data(small_grid, 2.0)
        np.testing.assert_array_equal(pd.wG, small_grid.w_trapz * pd.G)
        np.testing.assert_array_equal(pd.w0, pd.area0 * pd.lagw)


def counting_builds(monkeypatch):
    """Record the rate of every plane-data build (one Green profile each)."""
    builds = []

    def counted(lam, r):
        builds.append(lam)
        return sf.green_profile(lam, r)

    monkeypatch.setattr(en, "green_profile", counted)
    return builds


class TestPlaneDataLifetime:
    """A field carries its plane data, which lives as long as something
    holds the field or the solve that built it; each solve builds one."""

    @pytest.mark.parametrize("beta", [0.5, 0.0])
    def test_one_solve_builds_its_plane_data_once(self, monkeypatch, beta):
        # report included; at beta = 0 both single-plane multistarts
        # share the two-plane problem's grid
        builds = counting_builds(monkeypatch)
        P = HybridParams(3.0, 2.5, 0.0, 1.0, beta, 1.0)
        hybrid_nls.solve_hybrid(P, hybrid_nls.SolverConfig(N=512))
        assert len(builds) == 1

    def test_verify_builds_its_random_planes_once(self, monkeypatch):
        # criteria 11 and 12 draw 105 random states on two planes; a
        # build per field would make 243 in all
        builds = counting_builds(monkeypatch)
        hybrid_nls.run_suite(fast=True)
        assert len(builds) <= 39

    def test_finished_solves_retain_less_than_one_entry(self):
        # at N = 2048 a plane holds three node arrays of its own and
        # four of its grid, about 115 KB
        grid = make_grid(40.0, 2048, 1.01)
        pd = plane_data(grid, 1.0)
        entry = sum(a.nbytes for a in (pd.G, pd.wG, pd.w_in, pd.w0, grid.r,
                                       grid.h, grid.w_trapz, grid.c_h1))
        del grid, pd
        here = os.path.join(os.path.dirname(hybrid_nls.__file__), "*")
        tracemalloc.start()
        try:
            for sigma in np.linspace(-0.5, 0.0, 20):
                hybrid_nls.solve_single(3.0, float(sigma), 1.0)
            gc.collect()
            snap = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(st.size for st in snap.filter_traces(
            [tracemalloc.Filter(True, here)]).statistics("filename"))
        assert held < entry


class TestTotalField:
    def test_composition(self, small_grid):
        rng = np.random.default_rng(12)
        U = random_state(small_grid, rng)
        tf = total_field(U.u1)
        pd = plane_data(small_grid, U.u1.lam)
        expected = U.u1.phi.values + U.u1.q * pd.G
        np.testing.assert_allclose(tf.values, expected, rtol=1e-14)
