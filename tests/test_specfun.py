"""Closed-form layer tests.

The Green kernel G_lam(r) = K0(sqrt(lam) r) / (2 pi) is checked against
an independent oracle: adaptive quadrature of the integral
representations

    K0(x) = int_0^inf exp(-x cosh t) dt,
    K1(x) = -K0'(x) = int_0^inf exp(-x cosh t) cosh t dt,

so the library backend is never trusted blindly.  Frozen reference
digits below were produced by that oracle.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special
from scipy.integrate import quad

from hybrid_nls import specfun as sf


def k0_oracle(x: float) -> float:
    tmax = math.acosh(745.0 / x) if x < 745.0 else 1.0
    val, err = quad(lambda t: math.exp(-x * math.cosh(t)), 0.0, tmax,
                    epsabs=1e-300, epsrel=1e-13, limit=400)
    return val


def k1_oracle(x: float) -> float:
    tmax = math.acosh(745.0 / x) if x < 745.0 else 1.0
    val, err = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
                    0.0, tmax, epsabs=1e-300, epsrel=1e-13, limit=400)
    return val


def k0(x):
    """K0 as the library evaluates it: 2 pi times the lam = 1 kernel."""
    return 2.0 * math.pi * sf.green_profile(1.0, x)


def k0_slope(x: float) -> float:
    # relative step: K0''' ~ 2/x^3 blows up as x -> 0
    h = 1e-4 * x
    return float(k0(x + h) - k0(x - h)) / (2.0 * h)


# Frozen oracle outputs (quadrature above, 16 digits).
K0_AT_1 = 0.4210244382407083
K0_AT_10 = 1.778006231616765e-05


class TestBesselValues:
    def test_frozen_reference_points(self):
        assert k0(1.0) == pytest.approx(K0_AT_1, rel=1e-12, abs=0)
        assert k0(10.0) == pytest.approx(K0_AT_10, rel=1e-12, abs=0)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0, 50.0, 300.0])
    def test_k0_against_quadrature_oracle(self, x):
        assert k0(x) == pytest.approx(k0_oracle(x), rel=1e-9, abs=0)

    def test_small_argument_log_limit(self):
        # K0(x) -> -log(x/2) - gamma as x -> 0+
        for x in (1e-4, 1e-6, 1e-8):
            drift = k0(x) + math.log(x / 2.0) + sf.EULER_GAMMA
            assert abs(drift) <= 10.0 * x * x * max(1.0, -math.log(x))

    def test_k1_leading_singularity(self):
        # the kernel's slope carries the log singularity: x K1(x) -> 1
        for x in (1e-4, 1e-6, 1e-8):
            assert -x * k0_slope(x) == pytest.approx(1.0, abs=1e-7)

    def test_derivative_identity_at_2(self):
        assert abs(k0_slope(2.0) + k1_oracle(2.0)) <= 1e-6

    def test_derivative_identity_log_spaced(self):
        for x in np.logspace(math.log10(0.01), math.log10(50.0), 20):
            k1 = k1_oracle(x)
            assert abs(k0_slope(x) + k1) <= 1e-6 * max(1.0, k1)

    def test_positive_and_decreasing(self):
        prof = k0(np.logspace(-6, 2.5, 60))
        assert np.all(prof > 0)
        assert np.all(np.diff(prof) < 0)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                sf.green_profile(bad, np.array([1.0]))


class TestTheta:
    def test_zero_crossing(self):
        lam0 = 4.0 * math.exp(-2.0 * sf.EULER_GAMMA)
        assert abs(sf.theta(lam0)) <= 1e-15

    def test_at_four(self):
        assert sf.theta(4.0) == pytest.approx(
            sf.EULER_GAMMA / (2.0 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("t", [-3.0, 0.0, 5.0])
    def test_round_trip(self, t):
        assert sf.theta(sf.lambda_for_theta(t)) == pytest.approx(
            t, abs=1e-12, rel=1e-12)

    def test_coercivity_anchor_value(self):
        # the rate whose boundary constant equals 2*beta - sigma
        beta, sigma = 1.0, 0.0
        lam = sf.lambda_for_theta(2.0 * beta - sigma)
        assert lam == pytest.approx(
            4.0 * math.exp(8.0 * math.pi - 2.0 * sf.EULER_GAMMA), rel=1e-13)
        assert sf.theta(lam) == pytest.approx(2.0, rel=1e-12)

    def test_strictly_increasing(self):
        lams = np.logspace(-6, 12, 40)
        th = np.array([sf.theta(l) for l in lams])
        assert np.all(np.diff(th) > 0)

    @given(st.floats(min_value=-20.0, max_value=20.0))
    def test_round_trip_property(self, t):
        assert sf.theta(sf.lambda_for_theta(t)) == pytest.approx(t, abs=1e-11)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sf.theta(0.0)
        with pytest.raises(ValueError):
            sf.theta(-2.0)


class TestGreenKernel:
    def test_value_is_scaled_bessel(self):
        assert sf.green_profile(1.0, 1.0) == pytest.approx(
            K0_AT_1 / (2.0 * math.pi), rel=1e-12)
        assert sf.green_profile(1.0, 1.0) == pytest.approx(
            k0_oracle(1.0) / (2.0 * math.pi), rel=1e-9)

    def test_log_singularity_normalization(self):
        r = 1e-6
        drift = sf.green_profile(1.0, r) + math.log(r) / (2.0 * math.pi) + sf.theta(1.0)
        assert abs(drift) <= 1e-5

    @pytest.mark.parametrize("lam", [0.5, 1.0, 10.0])
    def test_log_normalization_scaled(self, lam):
        r = 1e-6 / math.sqrt(lam)
        drift = sf.green_profile(lam, r) + math.log(r) / (2.0 * math.pi) + sf.theta(lam)
        assert abs(drift) <= 1e-4

    @pytest.mark.parametrize("r", [0.1, 1.0, 3.0])
    def test_rate_scaling(self, r):
        assert sf.green_profile(4.0, r) == pytest.approx(
            sf.green_profile(1.0, 2.0 * r), rel=1e-14)

    def test_l2_norm_closed_form(self):
        # Fourier-side oracle: (2 pi)^{-1} * int_0^inf k (k^2+lam)^{-2} dk
        for lam in (0.5, 1.0, 7.0):
            val, _ = quad(lambda k: k / (k * k + lam) ** 2, 0.0, np.inf)
            assert sf.green_l2_norm_sq(lam) == pytest.approx(
                val / (2.0 * math.pi), rel=1e-10)
        assert sf.green_l2_norm_sq(1.0) == pytest.approx(
            1.0 / (4.0 * math.pi), rel=1e-15)

    def test_l2_norm_homogeneity(self):
        for lam in (0.3, 2.0, 11.0):
            assert sf.green_l2_norm_sq(2.0 * lam) == pytest.approx(
                sf.green_l2_norm_sq(lam) / 2.0, rel=1e-14)

    def test_profile_matches_scalar_and_handles_origin(self):
        r = np.array([0.0, 0.5, 1.0, 2.0])
        prof = sf.green_profile(2.0, r)
        for i in (1, 2, 3):
            assert prof[i] == sf.green_profile(2.0, r[i])
            assert prof[i] == pytest.approx(
                k0_oracle(math.sqrt(2.0) * r[i]) / (2.0 * math.pi), rel=1e-9)
        assert prof[0] == prof[1]  # origin placeholder

    def test_profile_underflow_is_silent_zero(self):
        prof = sf.green_profile(1.0, np.array([0.1, 800.0, 2000.0]))
        assert prof[1] == 0.0 and prof[2] == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.green_profile(0.0, 1.0)
        with pytest.raises(ValueError):
            sf.green_profile(-1.0, 1.0)
        with pytest.raises(ValueError):
            sf.green_l2_norm_sq(0.0)


class TestK0Evaluation:
    """specfun evaluates K0 itself, as Cephes does; scipy.special.k0 (the
    same algorithm in compiled code) and mpmath are the references."""

    def test_bit_for_bit_scipy(self):
        # the same operations on the same coefficients give the same
        # doubles, subnormals included (5e-15 relative would do for the
        # values; the solves whose stop sits on the roundoff floor of the
        # convergence test need them exact)
        x = np.geomspace(1e-12, 745.0, 200_001)
        np.testing.assert_array_equal(sf._k0(x), special.k0(x))
        np.testing.assert_array_equal(sf.green_profile(1.0, x),
                                      special.k0(x) / (2.0 * math.pi))

    @pytest.mark.parametrize("x", [1e-12, 1e-3, 0.5, 1.0, 1.999, 2.0, 2.001,
                                   7.9, 8.0, 30.0, 700.0])
    def test_against_mpmath(self, x):
        want = float(mpmath.besselk(0, x))
        assert abs(float(sf._k0(np.array([x]))[0]) - want) <= 2e-15 * want

    @pytest.mark.parametrize("seam", [2.0, 8.0])
    def test_continuous_across_seams(self, seam):
        x = np.array([np.nextafter(seam, 0.0), seam, np.nextafter(seam, 3 * seam)])
        v = sf._k0(x)
        assert np.all(np.diff(v) < 0.0)  # strictly decreasing
        assert np.abs(np.diff(v)).max() <= 4e-15 * v[1]

    def test_exact_zeros_and_no_warning_far_out(self):
        r = np.geomspace(1e-3, 1e4, 5001)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            g = sf.green_profile(1.0, r)
        assert np.all(g[r > 746.0] == 0.0)
        assert np.all(g[r < 700.0] > 0.0)
        np.testing.assert_array_equal(g, special.k0(r) / (2.0 * math.pi))

