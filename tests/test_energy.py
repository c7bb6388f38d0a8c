"""Energy-layer tests.

The key oracle here is central finite differencing of the assembled
energy against the analytic gradient, over random states.  Random
states respect the solver's representation conventions: node 0 is a
ghost tied to node 1 and the far-end node is pinned to zero, so test
directions satisfy v[0] = v[1], v[-1] = 0.
"""

import math

import numpy as np
import pytest

from hybrid_nls import _kernels
from hybrid_nls import specfun as sf
from hybrid_nls.energy import (
    ActionValues,
    ChargedField,
    HybridParams,
    HybridState,
    action_functionals,
    boundary_residual,
    el_residual,
    f_hybrid,
    f_single,
    grad_f_hybrid,
    lp_power,
    mass,
    plane_data,
    q_form_sigma,
    redecompose,
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


def gaussian_field(grid, amp=1.0, width=1.0):
    return tied(grid, amp * np.exp(-(grid.r**2) / (2.0 * width**2)))


def random_state(grid, rng, lam1=1.5, lam2=3.0):
    def bump():
        a, b, c = rng.uniform(0.3, 1.5, size=3)
        return tied(grid, a * np.exp(-(grid.r**2) / (2 * b * b))
                    * (1.0 + 0.3 * np.sin(c * grid.r)))
    u1 = ChargedField(RadialField(grid, bump()), rng.uniform(0.05, 0.8), lam1)
    u2 = ChargedField(RadialField(grid, bump()), rng.uniform(0.05, 0.8), lam2)
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
        for beta, mu in ((float("inf"), 1.0), (1.0, float("inf")),
                         (float("nan"), 1.0), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="finite"):
                HybridParams(3.0, 3.0, 0.0, 0.0, beta, mu)

    def test_charged_field_validation(self, small_grid):
        phi = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        with pytest.raises(ValueError):
            ChargedField(phi, -0.1, 1.0)
        with pytest.raises(ValueError):
            ChargedField(phi, 0.1, 0.0)

    def test_state_grid_compatibility(self, small_grid, default_grid):
        z1 = ChargedField(RadialField(small_grid, np.zeros(small_grid.n_nodes)), 0.0, 1.0)
        z2 = ChargedField(RadialField(default_grid, np.zeros(default_grid.n_nodes)), 0.0, 1.0)
        with pytest.raises(ValueError):
            HybridState(z1, z2)


class TestMass:
    def test_pure_profile(self, small_grid):
        phi = gaussian_field(small_grid)
        u = ChargedField(RadialField(small_grid, phi), 0.0, 1.0)
        # same value as the standalone quadrature up to the difference
        # of the two rules (trapezoid vs locally-quadratic)
        assert mass(u) == pytest.approx(
            integrate(RadialField(small_grid, phi * phi)), rel=1e-3)
        w = small_grid.w_trapz
        assert mass(u) == pytest.approx(float(w @ (phi * phi)), rel=1e-14)

    def test_pure_charge_closed_form(self, small_grid):
        zero = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        u = ChargedField(zero, 1.0, 1.0)
        assert mass(u) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-8)

    def test_redecomposition_invariance(self, default_grid):
        phi = gaussian_field(default_grid)
        u = ChargedField(RadialField(default_grid, phi), 0.7, 1.0)
        v = redecompose(u, 4.0)
        assert mass(v) == pytest.approx(mass(u), rel=1e-6)
        back = redecompose(v, 1.0)
        assert mass(back) == pytest.approx(mass(u), rel=1e-9)


class TestQFormSigma:
    def test_pure_profile_is_kinetic(self, small_grid):
        phi = gaussian_field(small_grid)
        u = ChargedField(RadialField(small_grid, phi), 0.0, 2.0)
        assert q_form_sigma(u, 0.7) == pytest.approx(
            h1_seminorm_sq(RadialField(small_grid, phi)), rel=1e-12)

    def test_pure_charge_closed_form(self, small_grid):
        zero = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        for lam, sigma in ((1.0, 0.0), (3.0, -0.4), (0.5, 2.0)):
            u = ChargedField(zero, 1.0, lam)
            expected = sigma + sf.theta(lam) - 1.0 / (4.0 * math.pi)
            assert q_form_sigma(u, sigma) == pytest.approx(expected, abs=1e-12)

    def test_rate_independence(self, default_grid):
        phi = gaussian_field(default_grid)
        u = ChargedField(RadialField(default_grid, phi), 0.5, 1.0)
        v = redecompose(u, 4.0)
        a = q_form_sigma(u, 0.3)
        b = q_form_sigma(v, 0.3)
        assert b == pytest.approx(a, rel=1e-5)


class TestFSingle:
    def test_zero_state(self, small_grid):
        zero = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        assert f_single(ChargedField(zero, 0.0, 1.0), 3.0, 0.5) == 0.0

    def test_chargeless_reduces_to_planar_energy(self, default_grid):
        phi_vals = gaussian_field(default_grid)
        phi = RadialField(default_grid, phi_vals)
        u = ChargedField(phi, 0.0, 1.0)
        # identical decomposition: 1/2 |grad|^2 - (1/p) |phi|_p^p
        p = 3.0
        assert f_single(u, p, 0.9) == pytest.approx(
            0.5 * h1_seminorm_sq(phi) - lp_power(u, p) / p, rel=1e-13)
        # and against the fully independent quadrature rule
        planar = 0.5 * h1_seminorm_sq(phi) - lp_norm(phi, p) ** p / p
        assert f_single(u, p, 0.9) == pytest.approx(planar, rel=1e-4)

    def test_rate_independence(self, default_grid):
        phi = gaussian_field(default_grid)
        u = ChargedField(RadialField(default_grid, phi), 0.5, 1.0)
        v = redecompose(u, 4.0)
        assert f_single(v, 2.7, 0.3) == pytest.approx(
            f_single(u, 2.7, 0.3), rel=1e-5)

    def test_invalid_power(self, small_grid):
        zero = RadialField(small_grid, np.zeros(small_grid.n_nodes))
        with pytest.raises(ValueError):
            f_single(ChargedField(zero, 0.0, 1.0), 4.5, 0.0)


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
        zero = ChargedField(
            RadialField(small_grid, np.zeros(small_grid.n_nodes)), 0.0, 1.0)
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
                    U.u1.q + sign * h * vq1, U.u1.lam)
                u2 = ChargedField(
                    RadialField(small_grid, U.u2.phi.values + sign * h * v2),
                    U.u2.q + sign * h * vq2, U.u2.lam)
                return HybridState(u1, u2)

            fd = (f_hybrid(shifted(+1), P) - f_hybrid(shifted(-1), P)) / (2 * h)
            assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-9)

    def test_zero_state_gradient_vanishes(self, small_grid):
        zero = ChargedField(
            RadialField(small_grid, np.zeros(small_grid.n_nodes)), 0.0, 1.0)
        P = HybridParams(3.0, 3.0, 0.5, 0.5, 1.0, 1.0)
        g = grad_f_hybrid(HybridState(zero, zero), P)
        assert np.all(g.d1.values == 0.0) and np.all(g.d2.values == 0.0)
        assert g.dq1 == 0.0 and g.dq2 == 0.0


class TestActionValues:
    def test_zero_state(self, small_grid):
        zero = ChargedField(
            RadialField(small_grid, np.zeros(small_grid.n_nodes)), 0.0, 1.0)
        P = HybridParams(3.0, 2.5, 0.0, 0.0, 1.0, 1.0)
        av = action_functionals(HybridState(zero, zero), P, 0.7)
        assert av == ActionValues(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_decomposition_identities_random(self, small_grid):
        rng = np.random.default_rng(3)
        for _ in range(25):
            U = random_state(small_grid, rng)
            P = HybridParams(
                rng.uniform(2.1, 3.9), rng.uniform(2.1, 3.9),
                rng.uniform(-1, 2), rng.uniform(-1, 2),
                rng.uniform(0, 2), 1.0)
            omega = rng.uniform(-2.0, 5.0)
            av = action_functionals(U, P, omega)
            scale = max(1e-30, abs(av.s_omega))
            assert abs(av.s_omega - (0.5 * av.i_omega + av.s_tilde)) <= 1e-12 * scale
            assert abs(av.s_omega - (av.i_omega / P.p1 + av.a_omega)) <= 1e-12 * scale
            assert abs(av.s_omega - (av.i_omega / P.p2 + av.b_omega)) <= 1e-12 * scale


class TestResiduals:
    def test_boundary_residual_chargeless(self, small_grid):
        rng = np.random.default_rng(4)
        U = random_state(small_grid, rng)
        u1 = ChargedField(U.u1.phi, 0.0, U.u1.lam)
        u2 = ChargedField(U.u2.phi, 0.0, U.u2.lam)
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
        U = HybridState(ChargedField(zero, q1, lam),
                        ChargedField(zero, q2, lam))
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
        zero = ChargedField(
            RadialField(small_grid, np.zeros(small_grid.n_nodes)), 0.0, 2.0)
        U = HybridState(U0.u1, zero)
        P = HybridParams(3.0, 3.0, 0.0, 0.0, 0.0, 1.0)
        assert np.isfinite(el_residual(U, P, 1.0))


def kernel_args(grid, lam, p, sig_theta):
    """The kernels' arguments after the state (phi, q)."""
    pd = plane_data(grid, lam)
    return (pd["G"], p, lam, sig_theta, pd["gl2"], grid.w_trapz * pd["G"],
            pd["w_in"], grid.c_h1, pd["area0"] * pd["lagw"], pd["g0"])


def kernel_pair(phi, q, args):
    """Energy pieces of each row and the gradient built from them."""
    energy, qform, pterm, pieces = _kernels.plane_energy(phi, q, *args)
    gphi = np.empty_like(phi)
    gq = _kernels.plane_energy_grad(q, pieces, *args, gphi)[0]
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
        fields = [ChargedField(RadialField(grid, phi[i]), q[i], self.LAM)
                  for i in range(k)]
        return phi, q, fields

    @pytest.mark.parametrize("ps,sigmas,beta", STACKS.values(), ids=STACKS)
    def test_rows_match_f_single(self, small_grid, ps, sigmas, beta):
        k = len(ps)
        phi, q, fields = self.stack(small_grid, k, 12)
        th = plane_data(small_grid, self.LAM)["theta"]
        args = kernel_args(small_grid, self.LAM, np.array(ps),
                           np.array(sigmas) + th)
        energy, qform, pterm, gphi, gq = kernel_pair(phi, q, args)
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
        th = plane_data(small_grid, self.LAM)["theta"]
        args = kernel_args(small_grid, self.LAM, None, sigmas + th)
        energy, qform, pterm, gphi, gq = kernel_pair(phi, q, args)
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
        plus = _kernels.plane_energy(phi + h * v, q + h * vq, *args)[0]
        minus = _kernels.plane_energy(phi - h * v, q - h * vq, *args)[0]
        slope = (gphi * v).sum(axis=1) + gq * vq
        np.testing.assert_allclose((plus - minus) / (2 * h), slope, rtol=1e-8)


class TestTotalField:
    def test_composition(self, small_grid):
        rng = np.random.default_rng(12)
        U = random_state(small_grid, rng)
        tf = total_field(U.u1)
        pd = plane_data(small_grid, U.u1.lam)
        expected = U.u1.phi.values + U.u1.q * pd["G"]
        np.testing.assert_allclose(tf.values, expected, rtol=1e-14)
