"""Ground-state solver tests.

Reference numbers come from two sources, noted inline:

* continuum values from an independent 1-D shooting integration of the
  radial profile equation (bisected amplitude, solve_ivp at rtol 1e-12,
  cross-checked against its own Pohozaev identity to 1e-9) -- these do
  not depend on this package's grids or quadratures;
* pinned regression values measured on the default grid, marked
  "pinned"; they guard against silent drift, not against grid bias.
"""

import dataclasses
import functools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpttrf, dpttrs

import hybrid_nls
from hybrid_nls import _kernels, solver
from hybrid_nls.energy import (
    HybridParams,
    _state_pieces,
    f_hybrid,
    lp_power,
    mass,
    plane_data,
    q_form_sigma,
)
from hybrid_nls.grid import RadialGrid, first_cell, make_grid
from hybrid_nls.solver import (
    _RATE_MARGIN,
    _TIE,
    GroundStateReport,
    SolverConfig,
    _auto_grading,
    _grid_for,
    _linear_solver,
    _lowest,
    _solve_two_plane,
    certify,
    extract_omega,
    omega_star,
    omega_star_grid,
    refine_config,
    solve_hybrid,
    solve_planar,
    solve_single,
)
from hybrid_nls.specfun import lambda_for_theta

from test_energy import random_state

EULER_GAMMA = 0.5772156649015329

# Free-plane energy coefficients E(mu) = -rho * mu^(2/(4-p)) from the
# shooting oracle (amplitudes u(0): 2.5287969, 2.3919564, 2.2880282).
RHO_CONTINUUM = {
    2.5: 8.9199220221e-2,
    3.0: 8.0636908651e-3,
    3.5: 2.2301390068e-5,
}

# Well-conditioned reference masses: mass 1 keeps the p=2.5 and p=3
# profiles inside the default box; the p=3.5 profile at mass 1 is far
# wider than the box, so its checks run at mass 16 (rate 0.73).
REFERENCE_MASS = {2.5: 1.0, 3.0: 1.0, 3.5: 16.0}


def planar_energy_continuum(p, mu):
    return -RHO_CONTINUUM[p] * mu ** (2.0 / (4.0 - p))


def ground_rate_inline(s1, s2, beta):
    """Bottom of the quadratic form's spectrum, assembled independently."""
    t = -0.5 * (s1 + s2) + math.hypot(0.5 * (s1 - s2), beta)
    return 4.0 * math.exp(4.0 * math.pi * t - 2.0 * EULER_GAMMA)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig()


@pytest.fixture(scope="module")
def planar3(cfg):
    return solve_planar(3.0, 1.0, cfg)


@pytest.fixture(scope="module")
def single_3_0(cfg):
    return solve_single(3.0, 0.0, 1.0, cfg)


class TestConfigContract:
    def test_defaults(self):
        c = SolverConfig()
        assert (c.R, c.N, c.grading) == (40.0, 2048, 1.01)
        assert c.max_iters == 50000
        assert c.grad_tol == 1e-6
        assert c.starts == (0.1, 0.5, 0.9)

    @pytest.mark.parametrize(
        "kw",
        [
            {"N": 8},
            {"R": -1.0},
            {"R": 0.0},
            {"R": float("nan")},
            {"R": float("inf")},
            {"grading": 0.5},
            {"grad_tol": 0.0},
            {"grading": 2.0},
            {"max_iters": 0},
            {"grad_tol": float("nan")},
            {"starts": (1.5,)},
            {"starts": ()},
            {"N": 8192, "grading": 1.2},
            {"grading": 1.9},
            {"starts": 0.5},
            {"starts": None},
            {"starts": [None]},
            {"starts": [0.5, "x"]},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)

    @pytest.mark.parametrize("name,value", [("N", 512.7), ("max_iters", 2.5)])
    def test_rejects_non_integral_counts(self, name, value):
        # N = 512.7 solved on a 512-cell grid; max_iters = 2.5 raised
        # TypeError inside the descent
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SolverConfig(**{name: value})

    def test_numpy_integer_counts_are_stored_as_int(self):
        c = SolverConfig(N=np.int64(512), max_iters=np.int32(7))
        assert type(c.N) is type(c.max_iters) is int
        assert c == SolverConfig(N=512, max_iters=7)

    def test_starts_are_stored_as_a_tuple_of_floats(self):
        c = SolverConfig(starts=[0.1, np.float64(0.5), 1])
        assert c.starts == (0.1, 0.5, 1.0) and type(c.starts) is tuple
        assert all(type(s) is float for s in c.starts)
        assert c == SolverConfig(starts=(0.1, 0.5, 1.0))
        assert hash(c) == hash(SolverConfig(starts=(0.1, 0.5, 1.0)))

    def test_frozen(self, cfg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.N = 4096  # type: ignore[misc]

    def test_refine_rule(self, cfg):
        fine = refine_config(cfg)
        assert fine.N == 2 * cfg.N
        assert fine.grading == pytest.approx(0.5 * (1.0 + cfg.grading), rel=1e-15)
        assert fine.R == cfg.R
        assert fine.starts == cfg.starts
        assert fine.grad_tol == cfg.grad_tol


class TestAutoGrading:
    """The grading that resolves the linear level, pinned bit for bit."""

    def test_default_grid_resolves_rate_one(self):
        assert _auto_grading(40.0, 2048, 1.01, 1.0) == 1.01

    def test_deep_rate_takes_the_bisection(self):
        lam = _RATE_MARGIN * omega_star(HybridParams(3, 3, -0.5, 2, 2, 1))
        g = _auto_grading(40.0, 2048, 1.01, lam)
        assert g == 1.010192265227707
        # the smallest grading that resolves lam: one ulp less does not
        assert RadialGrid.cell_resolves(first_cell(40.0, 2048, g), lam)
        assert not RadialGrid.cell_resolves(
            first_cell(40.0, 2048, math.nextafter(g, 1.0)), lam)

    def test_too_deep_rate_is_refused(self):
        with pytest.raises(ValueError, match=r"rate 1\.000e\+200 is too deep for an N=2048"):
            _auto_grading(40.0, 2048, 1.01, 1e200)

    def test_over_graded_cell_takes_the_bisection_down(self):
        # the README hybrid's rate at N = 8192: grading 1.01 makes its
        # first cell 1.9e-20
        g = _auto_grading(40.0, 8192, 1.01, 8089.0)
        assert g == 1.0038961351750317
        # the largest grading that is not over-graded: one ulp more is
        assert not RadialGrid.cell_over_graded(first_cell(40.0, 8192, g), 8089.0)
        assert RadialGrid.cell_over_graded(
            first_cell(40.0, 8192, math.nextafter(g, 2.0)), 8089.0)

    README = HybridParams(3, 3, 0, 1, 1, 1)
    SWEEP_ROW = HybridParams(3, 3, 0, 8, 0.0625, 1)

    @pytest.mark.parametrize("n,grading,lam", [
        (8192, 1.0025, (16.0 / 40.0) ** 2),  # fine_hard sigma6_n8192
        (32768, 1.000625, _RATE_MARGIN * lambda_for_theta(0.0)),  # single_n32768
        (8192, 1.0025, _RATE_MARGIN * omega_star(README)),  # n8192_refined
        (32768, 1.000625, _RATE_MARGIN * omega_star(README)),  # n32768_refined
        (8192, 1.0025, _RATE_MARGIN * omega_star(SWEEP_ROW)),  # cold_cli sweep
        (2048, 1.01, (16.0 / 40.0) ** 2),  # the default grid's smallest rate
    ])
    def test_grading_inside_the_band_is_kept(self, n, grading, lam):
        assert _auto_grading(40.0, n, grading, lam) == grading

    def test_readme_hybrid_at_n8192_is_certified_at_the_default_grading(self):
        r = solve_hybrid(self.README, SolverConfig(N=8192))
        assert r.converged and r.certificate.certified


class TestOmegaStarClosedForm:
    @pytest.mark.parametrize(
        "s1,s2,beta",
        [(0.0, 0.0, 1.0), (0.0, 1.0, 0.5), (-1.0, 1.0, 2.0), (0.3, -0.2, 0.05)],
    )
    def test_matches_independent_assembly(self, s1, s2, beta):
        P = HybridParams(3.0, 3.0, s1, s2, beta, 1.0)
        assert rel(omega_star(P), ground_rate_inline(s1, s2, beta)) < 1e-12

    def test_symmetric_in_plane_swap(self):
        a = omega_star(HybridParams(3.0, 3.0, -0.4, 1.3, 0.7, 1.0))
        b = omega_star(HybridParams(3.0, 3.0, 1.3, -0.4, 0.7, 1.0))
        assert rel(a, b) < 1e-14

    def test_beta_zero_is_stronger_interaction(self):
        # with no coupling the level is set by the smaller strength alone
        P = HybridParams(3.0, 3.0, 0.3, 1.0, 0.0, 1.0)
        expect = 4.0 * math.exp(4.0 * math.pi * (-0.3) - 2.0 * EULER_GAMMA)
        assert rel(omega_star(P), expect) < 1e-12

    def test_monotone_in_beta(self):
        vals = [
            omega_star(HybridParams(3.0, 3.0, 0.0, 0.0, b, 1.0))
            for b in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(x < y for x, y in zip(vals, vals[1:]))


class TestExtractOmega:
    def test_nulls_the_nehari_functional(self):
        grid = make_grid(12.0, 256, 1.02)
        rng = np.random.default_rng(7)
        P = HybridParams(2.5, 3.5, 0.3, -0.2, 0.8, 1.0)
        for _ in range(10):
            U = random_state(grid, rng)
            w = extract_omega(U, P)
            q_total, m, pt1, pt2 = _state_pieces(U, P)
            # I_w = Q + w m - |u1|^p1 - |u2|^p2, against its largest term
            i_omega = q_total + w * m - pt1 - pt2
            assert abs(i_omega) < 1e-12 * max(abs(q_total), pt1 + pt2)

    def test_zero_state_rejected(self):
        grid = make_grid(10.0, 128, 1.02)
        rng = np.random.default_rng(0)
        U = random_state(grid, rng)
        Z = dataclasses.replace(
            U,
            u1=dataclasses.replace(
                U.u1,
                phi=dataclasses.replace(U.u1.phi, values=np.zeros(grid.n_nodes)),
                q=0.0,
            ),
            u2=dataclasses.replace(
                U.u2,
                phi=dataclasses.replace(U.u2.phi, values=np.zeros(grid.n_nodes)),
                q=0.0,
            ),
        )
        with pytest.raises(ValueError):
            extract_omega(Z, HybridParams(3.0, 3.0, 0.0, 0.0, 1.0, 1.0))


class TestPlanarGroundStates:
    def test_reference_energies_match_shooting_oracle(self, cfg):
        for p, mu in REFERENCE_MASS.items():
            r = solve_planar(p, mu, cfg)
            assert r.converged, (p, mu)
            assert rel(r.energy, planar_energy_continuum(p, mu)) < 5e-4, (p, mu)

    def test_scaling_law_p3(self, cfg, planar3):
        for mu in (0.5, 2.0, 4.0):
            r = solve_planar(3.0, mu, cfg)
            assert r.converged
            assert rel(r.energy, planar3.energy * mu**2) < 2e-2

    def test_rate_matches_energy_slope(self, cfg):
        # E(mu) = -rho mu^a  =>  rate = 2 a rho mu^(a-1), a = 2/(4-p)
        for p, mu in REFERENCE_MASS.items():
            r = solve_planar(p, mu, cfg)
            a = 2.0 / (4.0 - p)
            expect = 2.0 * a * RHO_CONTINUUM[p] * mu ** (a - 1.0)
            assert rel(r.omega, expect) < 2e-3, (p, mu)

    def test_virial_identities(self, cfg):
        # both algebraic relations of the stationary profile:
        #   kinetic = ((p-2)/p) X   and   rate * mass = (2/p) X
        for p, mu in REFERENCE_MASS.items():
            r = solve_planar(p, mu, cfg)
            u = r.state.u1
            kin = q_form_sigma(u, 0.0)  # q = 0, so this is the h1 energy
            X = lp_power(u, p)
            assert rel(kin, (p - 2.0) / p * X) < 1e-3, (p, mu)
            assert rel(r.omega * mass(u), 2.0 / p * X) < 1e-3, (p, mu)

    def test_no_charge_and_no_vertex_residuals(self, planar3):
        assert planar3.q1 == 0.0 and planar3.q2 == 0.0
        assert planar3.boundary_residuals == (0.0, 0.0)
        assert planar3.mass2 == 0.0
        assert planar3.mass1 == pytest.approx(1.0, rel=1e-12)

    def test_profiles_positive_and_decreasing(self, planar3):
        u = np.asarray(planar3.profile_samples["u1"])
        assert np.all(u > 0.0)
        assert np.all(u[1:] <= u[:-1] * (1.0 + 1e-12))

    def test_el_residual_small(self, planar3):
        assert planar3.el_residual <= 1e-2

    def test_subcritical_range_enforced(self, cfg):
        with pytest.raises(ValueError):
            solve_planar(4.2, 1.0, cfg)
        with pytest.raises(ValueError):
            solve_planar(2.0, 1.0, cfg)


class TestSinglePlane:
    def test_pinned_reference_point(self, single_3_0):
        # pinned: default grid, measured 2026-08-18
        assert single_3_0.converged
        assert rel(single_3_0.energy, -8.9954996888e-01) < 1e-6
        assert rel(single_3_0.q1, 4.3543814490) < 1e-5
        assert rel(single_3_0.omega, 2.0893435853) < 1e-5

    def test_energy_increases_with_sigma(self, cfg, single_3_0):
        e1 = solve_single(3.0, 1.0, 1.0, cfg)
        e2 = solve_single(3.0, 2.0, 1.0, cfg)
        assert single_3_0.energy < e1.energy < e2.energy < 0.0
        assert e1.converged and e2.converged

    def test_rate_above_linear_level(self, cfg, single_3_0):
        for sigma, r in ((0.0, single_3_0), (1.0, solve_single(3.0, 1.0, 1.0, cfg))):
            floor = 4.0 * math.exp(-4.0 * math.pi * sigma - 2.0 * EULER_GAMMA)
            assert r.omega > floor

    def test_charge_positive_and_vertex_matched(self, single_3_0):
        assert single_3_0.q1 > 0.0
        assert single_3_0.q2 == 0.0
        r1, r2 = single_3_0.boundary_residuals
        assert abs(r1) <= 1e-3 * max(1.0, single_3_0.q1)
        assert r2 == 0.0

    def test_second_plane_stays_empty(self, single_3_0):
        assert single_3_0.mass2 == 0.0
        assert single_3_0.mass1 == pytest.approx(1.0, rel=1e-12)


class TestDecoupledHybrid:
    def test_matches_better_single_plane(self, cfg, single_3_0):
        r = solve_hybrid(HybridParams(3.0, 3.0, 0.0, 1.0, 0.0, 1.0), cfg)
        assert r.converged
        assert rel(r.energy, single_3_0.energy) < 1e-4
        assert r.mass2 <= 1e-6
        assert r.branches is None

    def test_power_asymmetric_decoupling(self, cfg):
        r = solve_hybrid(HybridParams(2.5, 3.5, 0.0, 0.0, 0.0, 1.0), cfg)
        s1 = solve_single(2.5, 0.0, 1.0, cfg)
        s2 = solve_single(3.5, 0.0, 1.0, cfg)
        best = min(s1.energy, s2.energy)
        assert rel(r.energy, best) < 1e-4
        assert min(r.mass1, r.mass2) <= 1e-6

    def test_symmetric_tie_reports_both_branches(self, cfg):
        r = solve_hybrid(HybridParams(3.0, 3.0, 0.5, 0.5, 0.0, 1.0), cfg)
        assert r.branches is not None and len(r.branches) == 2
        a, b = r.branches
        assert rel(a.energy, b.energy) < 1e-6
        assert a.mass1 == pytest.approx(1.0, rel=1e-9) and a.mass2 == 0.0
        assert b.mass2 == pytest.approx(1.0, rel=1e-9) and b.mass1 == 0.0
        assert r.energy == min(a.energy, b.energy)


# beta = 0 cases (p1, p2, sigma1, sigma2, mu): the parameters of two
# benchmark pool operations whose el_residual once failed (a near-empty
# plane), then a seeded draw over the parameter box
_u = random.Random(0).uniform
BETA0_DRAWN = [(3.382, 3.236, 1.291, 0.338, 1.944),
               (3.311, 2.66, 1.014, 1.021, 1.157)] + [
    tuple(round(_u(lo, hi), 3) for lo, hi in
          ((2.05, 3.95), (2.05, 3.95), (-2.0, 4.0), (-2.0, 4.0), (0.1, 10.0)))
    for _ in range(12)]
# box corners; at the symmetric two the two-plane multistart itself stops
# above the ground state (at the equal split), so only the one-sided
# comparison applies to corners
BETA0_CORNERS = [(3.95, 3.95, 4.0, 4.0, 10.0), (3.95, 3.95, -2.0, -2.0, 0.1),
                 (2.05, 3.95, -2.0, 4.0, 10.0), (3.95, 2.05, 4.0, -2.0, 0.1)]
# plane 1's multistart stalls unconverged far below plane 2's converged
# one, so the plane must be chosen by energy, not by convergence
BETA0_STALLED = [(3.566, 3.032, -0.661, 1.891, 4.009)]
BETA0_CASES = BETA0_DRAWN + BETA0_CORNERS + BETA0_STALLED


@functools.lru_cache(maxsize=None)
def beta0_pair(case):
    """solve_hybrid and the independent two-plane multistart at beta = 0.

    grad_tol 1e-9: at the default 1e-6 both descents stop with an energy
    error near 1e-11 relative (the second pool case: the two-plane run
    ends 9e-12 below the single plane), and 1e-8 does not shrink it
    below _TIE everywhere: at the symmetric corner (3.95, 3.95, 4, 4, 10)
    the shortcut ends 5.3e-12 relative above the two-plane run (with the
    projected step everywhere, 2.1e-11 below it, and 2.7e-11 above it at
    1e-6).  At 1e-9 the two agree there to 2e-14.
    """
    P = HybridParams(*case[:4], 0.0, case[4])
    cfg = SolverConfig(N=512, grad_tol=1e-9)
    return P, solve_hybrid(P, cfg), _solve_two_plane(P, cfg)


class TestUncoupledShortcut:
    """At beta = 0 solve_hybrid solves only the single planes; these
    checks hold it against a descent over every mass split."""

    @pytest.mark.parametrize("case", BETA0_CASES, ids=str)
    def test_never_above_two_plane_descent(self, case):
        P, r, two = beta0_pair(case)
        assert r.energy - two.energy <= _TIE * abs(two.energy)
        # the reported energy is the reported state's, plane by plane
        assert rel(f_hybrid(r.state, P), r.energy) < 1e-12

    @pytest.mark.parametrize("case", BETA0_DRAWN, ids=str)
    def test_matches_two_plane_descent(self, case):
        _, r, two = beta0_pair(case)
        assert rel(r.energy, two.energy) <= 1e-9

    @pytest.mark.parametrize("case", BETA0_CASES, ids=str)
    def test_exactly_one_plane_is_empty(self, case):
        _, r, _ = beta0_pair(case)
        assert (r.mass1 == 0.0) != (r.mass2 == 0.0)

    @pytest.mark.parametrize("case", BETA0_DRAWN[:2], ids=str)
    def test_pool_cases_converge_certified(self, cfg, case):
        r = solve_hybrid(HybridParams(*case[:4], 0.0, case[4]), cfg)
        assert r.converged
        assert r.el_residual <= 1e-2

    def test_near_tie_goes_to_the_first_plane(self):
        # plane 2 ends 3e-13 relative lower: within _TIE, so not roundoff
        # but the plane order decides
        r = solve_hybrid(HybridParams(3.0, 3.0, 0.5, 0.5 - 1e-13, 0.0, 1.0),
                         SolverConfig(N=512))
        a, b = r.branches
        assert 0.0 < a.energy - b.energy <= _TIE * abs(b.energy)
        assert r.mass2 == 0.0 and r.energy == a.energy

    def test_plane_choice_goes_by_energy(self):
        # an unconverged descent's energy still bounds its plane's minimum
        # from above, so a converged plane above it is not the ground state
        runs = [{"energy": -1.0, "stop": "converged"},
                {"energy": -2.0, "stop": "stalled"}]
        assert _lowest(runs) is runs[1]
        runs[1]["energy"] = -1.0 - 1e-13
        assert _lowest(runs) is runs[0]


class TestCoupledHybrid:
    def test_gap_positive_and_growing_in_beta(self, cfg, single_3_0):
        gaps = []
        for b in (0.5, 1.0, 2.0):
            r = solve_hybrid(HybridParams(3.0, 3.0, 0.0, 0.0, b, 1.0), cfg)
            assert r.converged
            gaps.append(single_3_0.energy - r.energy)
        assert all(g > 0.0 for g in gaps)
        assert gaps[0] < gaps[1] < gaps[2]
        # pinned: default grid, measured 2026-08-18
        assert rel(gaps[0], 3.407773e2) < 1e-4
        assert rel(gaps[1], 1.808832e5) < 1e-4
        assert rel(gaps[2], 5.177590e10) < 1e-4

    def test_symmetric_parameters_give_equal_charges(self, cfg):
        r = solve_hybrid(HybridParams(3.0, 3.0, 0.0, 0.0, 1.0, 1.0), cfg)
        assert r.q1 > 0.0
        assert abs(r.q1 - r.q2) <= 1e-8 * r.q1
        assert abs(r.mass1 - r.mass2) <= 1e-6

    @pytest.mark.parametrize("sigma2", [0.5, 1.0, 2.0])
    def test_weaker_plane_carries_less_charge(self, cfg, sigma2):
        r = solve_hybrid(HybridParams(3.0, 3.0, 0.0, sigma2, 1.0, 1.0), cfg)
        assert r.converged
        assert 0.0 < r.q2 < r.q1

    def test_rate_exceeds_linear_level_on_same_grid(self, cfg):
        P = HybridParams(3.0, 3.0, 0.0, 0.0, 1.0, 1.0)
        r = solve_hybrid(P, cfg)
        assert r.omega > omega_star_grid(P, cfg)

    @pytest.mark.parametrize("s1,s2,beta", [(0.0, 0.0, 1.0), (0.0, 1.0, 0.5)])
    def test_grid_rate_floor_matches_closed_form(self, cfg, s1, s2, beta):
        P = HybridParams(3.0, 3.0, s1, s2, beta, 1.0)
        assert rel(omega_star_grid(P, cfg), omega_star(P)) < 1e-3

    def test_multistart_tie_goes_to_the_first_start(self):
        # starts that reach one state differ by an ulp or two; the report
        # must not flip with the last bit of the arithmetic
        runs = [{"energy": -1.0, "stop": "converged", "iterations": 18},
                {"energy": -1.0 - 1e-15, "stop": "converged", "iterations": 17}]
        assert _lowest(runs) is runs[0]
        runs.append({"energy": -1.0 - 1e-9, "stop": "converged", "iterations": 9})
        assert _lowest(runs) is runs[2]

    def test_lower_unconverged_start_beats_converged_ones(self):
        # an unconverged start's energy bounds the minimum from above, so
        # a converged start above it is a higher critical point
        runs = [{"energy": -1.0, "stop": "converged"},
                {"energy": -2.0, "stop": "stalled"},
                {"energy": -2.0 - 1e-13, "stop": "stalled"},
                {"energy": -1.5, "stop": "converged"}]
        assert _lowest(runs) is runs[1]

    def test_one_sided_start_beats_converged_saddle(self):
        # beta = 0 near p = 4: the equal split converges at a saddle
        # (+0.0099) while the one-sided starts converge lower, through the
        # Newton endgame (preconditioned steps alone stop them unconverged)
        r = _solve_two_plane(HybridParams(3.95, 3.95, 4.0, 4.0, 0.0, 10.0),
                             SolverConfig(N=512))
        assert r.converged
        assert rel(r.energy, -5.088161e-3) < 1e-6  # pinned, N=512
        assert min(r.mass1, r.mass2) < 1e-12

    def test_unconverged_deep_state_beats_converged_weaker_plane(self):
        # start 0.1 converges on the weaker plane near -1.45e12; the other
        # starts reach the deep state on plane 1 and run out of progress
        r = solve_hybrid(HybridParams(3.95, 3.9, -2.0, -2.0, 0.01, 10.0),
                         SolverConfig(N=512))
        assert r.energy < -7e12
        assert r.mass1 > 0.99 * 10.0

    def test_sigma_1_3_half_critical_mass_finds_the_plane_2_state(self):
        # the default starts reach the 13-start answer, plane 2 holding
        # 0.930 of the mass; an earlier descent step stopped at a local
        # minimum here, E = -3.0881 with plane 2 holding 0.038
        from hybrid_nls.analysis import critical_mass

        cfg = SolverConfig(N=2048)
        mu = critical_mass(2.5, 3.5, cfg) / 2
        r = solve_hybrid(HybridParams(2.5, 3.5, 1.3, 1.3, 1.0, mu), cfg)
        assert r.energy <= -3.109  # pinned, N=2048: -3.1092679
        assert r.mass2 >= 0.9 * mu

    def test_multistart_sets_agree(self, cfg):
        P = HybridParams(2.5, 3.5, 0.0, 0.0, 1.0, 1.0)
        r1 = solve_hybrid(P, dataclasses.replace(cfg, starts=(0.2, 0.5, 0.8)))
        r2 = solve_hybrid(P, dataclasses.replace(cfg, starts=(0.1, 0.9)))
        assert r1.converged and r2.converged
        assert rel(r1.energy, r2.energy) < 1e-4

    def test_residuals_shrink_under_refinement(self, cfg):
        coarse = dataclasses.replace(cfg, N=1024, grading=1.02)
        P = HybridParams(3.0, 3.0, 0.0, 0.0, 1.0, 1.0)
        ra = solve_hybrid(P, coarse)
        rb = solve_hybrid(P, refine_config(coarse))
        assert rb.el_residual <= 0.6 * ra.el_residual
        ba = max(abs(x) for x in ra.boundary_residuals)
        bb = max(abs(x) for x in rb.boundary_residuals)
        assert bb <= 0.6 * ba


class TestCertificate:
    """A report is certified when its descent converged and every check
    passed; the first failure names the cause."""

    CFG = SolverConfig(N=512)

    def test_readme_hybrid_is_certified(self):
        r = solve_hybrid(HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, 1.0), self.CFG)
        cert = r.certificate
        assert cert.certified and cert.failed is None
        assert [c.name for c in cert.checks] == ["bound_state", "stationarity"]
        assert cert["bound_state"].value == r.omega
        assert cert["stationarity"].value == r.el_residual

    def test_state_of_the_box_fails_bound_state(self):
        r = solve_planar(3.9, 1.0, self.CFG)
        assert r.converged and rel(r.omega, -2.99e-3) < 1e-2
        assert not r.certificate.certified
        assert r.certificate.failed == "bound_state"
        assert not r.certificate["bound_state"].passed

    def test_unstationary_state_fails_stationarity(self):
        # plane 1 holds 2.5e-12 of the mass, and the field equation is
        # met only to 67% of its scale
        r = solve_hybrid(HybridParams(3.0, 3.0, 200.0, 200.0, 0.5, 1.0), self.CFG)
        assert r.converged and r.omega > 0.0 and r.mass1 < 1e-11
        assert rel(r.el_residual, 0.671) < 1e-2
        assert not r.certificate.certified
        assert r.certificate.failed == "stationarity"

    @pytest.mark.parametrize("omega,el_res,failed", [
        (1.0, 1e-2, None),
        (0.0, 0.0, "bound_state"),
        (math.nan, 0.0, "bound_state"),
        (-1.0, 1.0, "bound_state"),
        (1.0, 1.0000001e-2, "stationarity"),
        (1.0, math.nan, "stationarity"),
    ])
    def test_first_failed_check_in_order(self, omega, el_res, failed):
        assert certify(True, omega, el_res).failed == failed
        assert certify(False, omega, el_res).failed == "converged"
        assert not certify(False, omega, el_res).certified


class TestReportContract:
    def test_masses_sum_to_constraint(self, cfg):
        for P in (
            HybridParams(3.0, 3.0, 0.0, 0.5, 1.0, 1.0),
            HybridParams(2.5, 3.5, 0.3, -0.2, 0.8, 2.0),
        ):
            r = solve_hybrid(P, cfg)
            assert abs(r.mass1 + r.mass2 - P.mu) <= 1e-10 * P.mu

    def test_profile_samples_shape(self, planar3):
        s = planar3.profile_samples
        assert set(s) == {"r", "u1", "u2"}
        assert len(s["r"]) == len(s["u1"]) == len(s["u2"])
        assert all(b > a for a, b in zip(s["r"], s["r"][1:]))

    @pytest.mark.parametrize("n", [*range(2, 65), 256, 2048, 8192, 32768])
    def test_profile_sample_nodes_are_the_unique_geomspace(self, n,
                                                           monkeypatch):
        # nodes numbered by their radius: the sampled radii are the indices
        grid = types.SimpleNamespace(n_nodes=n + 1, r=np.arange(n + 1.0))
        monkeypatch.setattr(solver, "total_field",
                            lambda u: types.SimpleNamespace(values=grid.r))
        samples = solver._sample_profiles(grid, None, None)
        expected = np.unique(np.geomspace(1, n - 1, 64).astype(int))
        assert samples["r"] == samples["u1"] == [float(i) for i in expected]

    def test_as_dict_serializes(self, cfg):
        r = solve_hybrid(HybridParams(3.0, 3.0, 0.5, 0.5, 0.0, 1.0), cfg)
        d = r.as_dict()
        text = json.dumps(d, sort_keys=True)
        back = json.loads(text)
        assert back["energy"] == r.energy
        assert back["stop_reason"] == r.stop_reason == "converged"
        assert "state" not in back
        assert len(back["branches"]) == 2
        assert [b["stop_reason"] for b in back["branches"]] == ["converged"] * 2
        assert back["certificate"] == r.certificate.as_dict()
        assert back["certificate"]["certified"] is True
        assert isinstance(r, GroundStateReport)

    def test_iteration_accounting(self, planar3):
        assert planar3.iterations >= 1
        assert planar3.converged


class TestDescentHandoff:
    """The descent takes each iteration's gradient from the pieces of the
    accepted trial's energy evaluation, so a stale piece would show as a
    returned energy that is not the returned point's."""

    CASES = {
        "one-plane": (3.0, (0.5,), 0.0),
        "two-planes": (np.array([2.5, 3.5]), (0.3, -0.2), 0.8),
        "linear": (None, (0.0, 1.0), 0.5),
    }

    @pytest.mark.parametrize("p,sigmas,beta", CASES.values(), ids=CASES)
    def test_energy_is_a_fresh_evaluation_of_the_returned_point(
            self, p, sigmas, beta):
        cfg = SolverConfig(N=512)
        s1, s2 = (sigmas * 2)[:2]
        pd = solver._setup(
            omega_star(HybridParams(3.0, 3.0, s1, s2, beta, 1.0)), cfg)
        start = solver._initial_guess(pd, sigmas, beta, 1.0, 0.5)
        run = solver._descend(pd, p, sigmas, beta, 1.0, cfg, *start)
        assert run["stop"] == "converged" and run["iterations"] > 2
        phi, q = run["phi"], run["q"]
        energy = _kernels.plane_energy(
            phi, q, p, pd.theta + np.array(sigmas), pd)[0]
        coupling = beta * q[0] * q[1] if len(q) == 2 else 0.0
        assert float(energy.sum()) - coupling == run["energy"]



def _state_distance(pd, mu, a, b):
    """sqrt(mass(U_a - U_b) / mu) of two runs' plane-batched states."""
    dm = solver._mass(a["phi"] - b["phi"], a["q"] - b["q"], pd)
    return math.sqrt(max(dm, 0.0) / mu)


def _start_energy(pd, p, sigmas, beta, mu, phi, q):
    """Energy of a start scaled onto the sphere of mass mu, as the
    descent evaluates its first point."""
    c = math.sqrt(mu / solver._mass(phi, q, pd))
    sig_theta = pd.theta + (np.array(sigmas) if sigmas is not None else 0.0)
    e = _kernels.plane_energy(c * phi, c * q, p, sig_theta, pd)[0]
    return float(e.sum()) - (beta * c * c * q[0] * q[1] if len(q) == 2 else 0.0)


class TestScreenedMultistart:
    """The starts run in order, each screened against the converged
    states of the starts before it: a start stops as ``duplicate`` once
    it lies within _DUPLICATE of one of them, with an energy not below
    that state's."""

    CASES = {
        "one-plane": (3.0, (0.5,), 0.0, 1.0),
        "two-planes": (np.array([2.5, 3.5]), (0.3, -0.2), 0.8, 1.0),
        "linear": (None, (0.0, 1.0), 0.5, 1.0),
        "planar": (3.0, None, 0.0, 1.0),
        # criterion 8's 2 mu* hybrid, whose starts crawl into the Newton gate
        "crawling": (np.array([2.5, 3.5]), (6.0, 6.0), 1.0, 44.85319),
    }

    @staticmethod
    def _problem(p, sigmas, beta, mu, start):
        cfg = SolverConfig(N=512)
        if sigmas is None:
            pd = plane_data(_grid_for(1.0, cfg), 1.0)
        else:
            s1, s2 = (sigmas * 2)[:2]
            pd = solver._setup(
                omega_star(HybridParams(3.0, 3.0, s1, s2, beta, mu)), cfg)
        guess = solver._initial_guess(pd, sigmas, beta, mu, start)
        return (pd, p, sigmas, beta, mu, cfg), guess

    @staticmethod
    def _same_run(a, b):
        assert a["stop"] == b["stop"] == "converged"
        assert a["iterations"] == b["iterations"]
        assert a["energy"] == b["energy"]
        assert np.array_equal(a["phi"], b["phi"])
        assert np.array_equal(a["q"], b["q"])

    @pytest.mark.parametrize("start", [0.1, 0.9])
    @pytest.mark.parametrize("p,sigmas,beta,mu", CASES.values(), ids=CASES)
    def test_far_state_leaves_the_run_unchanged(self, p, sigmas, beta, mu,
                                                start):
        # a converged state far out in the box, below every energy: only
        # the distance keeps the start from joining it
        args, guess = self._problem(p, sigmas, beta, mu, start)
        pd = args[0]
        bump = np.exp(-(pd.grid.r - 30.0) ** 2)
        phi = np.tile(bump, (len(guess[1]), 1))
        q = np.zeros(len(guess[1]))
        far = {"phi": phi * math.sqrt(mu / solver._mass(phi, q, pd)), "q": q,
               "energy": -1e300, "stop": "converged"}
        whole = solver._descend(*args, *guess)
        assert _state_distance(pd, mu, whole, far) >= 1.0
        self._same_run(solver._descend(*args, *guess, near=[far]), whole)

    @pytest.mark.parametrize("start", [0.1, 0.9])
    @pytest.mark.parametrize("p,sigmas,beta,mu", CASES.values(), ids=CASES)
    def test_state_above_the_run_is_never_joined(self, p, sigmas, beta, mu,
                                                 start):
        # the run's own final state, its energy raised above the start's
        # (the descent only goes down): only the energy keeps it apart
        args, guess = self._problem(p, sigmas, beta, mu, start)
        whole = solver._descend(*args, *guess)
        e0 = _start_energy(*args[:5], *guess)
        assert e0 > whole["energy"]
        own = {**whole, "energy": e0 + 1e-9 * abs(e0)}
        self._same_run(solver._descend(*args, *guess, near=[own]), whole)

    def test_start_that_meets_its_tolerance_is_converged(self):
        # at a loose tolerance the start converges at once, on the very
        # state it is given: the convergence test comes first
        args, guess = self._problem(3.0, (0.5,), 0.0, 1.0, 0.5)
        args = (*args[:5], SolverConfig(N=512, grad_tol=1e3))
        whole = solver._descend(*args, *guess)
        assert whole["iterations"] == 1
        self._same_run(solver._descend(*args, *guess, near=[whole]), whole)

    def test_duplicate_rule_on_synthetic_runs(self, monkeypatch):
        # start 0 stalls, start 1 converges, start 2 joins it, start 3
        # converges elsewhere; a joined run's energy never counts
        cfg = SolverConfig(N=256, starts=(0.1, 0.3, 0.5, 0.9))
        pd = plane_data(_grid_for(1.0, cfg), 1.0)
        ends = iter([("stalled", -3.0), ("converged", -1.0),
                     ("duplicate", -10.0), ("converged", -2.0)])
        given = []

        def fake(pd_, p_, sigmas_, beta_, mu_, cfg_, phi, q, near=(), shift=None):
            given.append([r["energy"] for r in near])
            stop, energy = next(ends)
            return {"phi": phi, "q": q, "energy": energy, "iterations": 5,
                    "converged": stop == "converged", "stop": stop,
                    "omega_hat": 1.0}

        monkeypatch.setattr(solver, "_descend", fake)
        best = solver._solve_on_grid(pd, 3.0, None, 0.0, 1.0, cfg)
        # the stalled run is finished but never held; the joined one neither
        assert given == [[], [], [-1.0], [-1.0]]
        assert best["energy"] == -3.0 and best["stop"] == "stalled"

    def test_finds_the_lower_of_two_states(self):
        # start 0.1 ends on a state at -0.0075398 and 0.5 joins it; only
        # 0.9, finished on its own, reaches the ground state
        r = solve_hybrid(HybridParams(2.87, 2.919, 1.784, 1.116, 0.547, 0.556))
        assert r.converged
        assert rel(r.energy, -0.007976890972858195) < 1e-6

    def test_loose_screen_still_finds_the_ground_state(self, monkeypatch):
        # at a join distance of 0.5 start 0.5 joins 0.1's state sooner
        # (after 5 iterations at the default 0.3, 6 at 0.1), and 0.9
        # still finishes, on the ground state
        monkeypatch.setattr(solver, "_DUPLICATE", 0.5)
        runs = []
        descend = solver._descend

        def counted(*args, **kwargs):
            runs.append(descend(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(solver, "_descend", counted)
        r = solve_hybrid(HybridParams(2.87, 2.919, 1.784, 1.116, 0.547, 0.556))
        assert [x["stop"] for x in runs] == ["converged", "duplicate",
                                             "converged"]
        assert runs[1]["iterations"] < 9
        assert r.converged
        assert rel(r.energy, -0.007976890972858195) < 1e-6
        assert rel(runs[0]["energy"], -0.0075398) < 1e-4

    def test_sigma6_hybrid_finishes_both_regimes(self, monkeypatch):
        # criterion 8's 2 mu* hybrid (N=512): start 0.1 ends on the plane-2
        # state, 0.5 joins it, 0.9 ends on the plane-1 state; the joined
        # start, run alone from its shift, ends on the state it joined
        cfg = SolverConfig(N=512)
        P = HybridParams(2.5, 3.5, 6.0, 6.0, 1.0, 44.85319)
        calls = []
        descend = solver._descend

        def counted(*args, **kwargs):
            calls.append((args, kwargs, descend(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(solver, "_descend", counted)
        r = solve_hybrid(P, cfg)
        assert [c[2]["stop"] for c in calls] == ["converged", "duplicate",
                                                 "converged"]
        ends = [c[2] for c in calls if c[2]["stop"] == "converged"]
        pd = calls[0][0][0]
        assert _state_distance(pd, P.mu, *ends) > 1.0
        plane2 = [solver._mass(e["phi"][1:], e["q"][1:], pd) / P.mu for e in ends]
        assert sorted(f > 0.9 for f in plane2) == [False, True]
        args, kwargs, run = calls[1]
        (held,) = kwargs["near"]
        assert held is ends[0]
        assert _state_distance(pd, P.mu, run, held) <= solver._DUPLICATE
        whole = descend(*args, shift=kwargs["shift"])
        assert whole["stop"] == "converged"
        assert _state_distance(pd, P.mu, whole, held) < 1e-6
        assert rel(whole["energy"], held["energy"]) < 1e-12
        assert r.energy == min(e["energy"] for e in ends)


class TestInheritedShift:
    """A later start's preconditioner begins at the multiplier estimate
    of the last converged run before it, not at the linear level."""

    @pytest.mark.parametrize("p,sigmas,beta,mu",
                             TestScreenedMultistart.CASES.values(),
                             ids=TestScreenedMultistart.CASES)
    def test_linear_level_is_the_default_shift(self, p, sigmas, beta, mu):
        args, guess = TestScreenedMultistart._problem(p, sigmas, beta, mu, 0.1)
        whole = solver._descend(*args, *guess)
        TestScreenedMultistart._same_run(
            solver._descend(*args, *guess, shift=args[0].lam), whole)

    def test_shift_rule_on_synthetic_runs(self, monkeypatch):
        # start 0 stalls, 1 converges, 2 joins it, 3 converges elsewhere
        # at a negative multiplier, 4 converges at a tiny one
        cfg = SolverConfig(N=256, starts=(0.1, 0.3, 0.5, 0.7, 0.9))
        pd = plane_data(_grid_for(2.0, cfg), 2.0)
        ends = iter([("stalled", -3.0, 50.0), ("converged", -1.0, 7.0),
                     ("duplicate", -10.0, 8.0), ("converged", -2.0, -0.25),
                     ("converged", -2.5, 1e-30)])
        shifts = []

        def fake(pd_, p_, sigmas_, beta_, mu_, cfg_, phi, q, near=(), shift=None):
            shifts.append(shift)
            stop, energy, omega_hat = next(ends)
            return {"phi": phi, "q": q, "energy": energy, "iterations": 5,
                    "converged": stop == "converged", "stop": stop,
                    "omega_hat": omega_hat}

        monkeypatch.setattr(solver, "_descend", fake)
        solver._solve_on_grid(pd, 3.0, None, 0.0, 1.0, cfg)
        # an unconverged or joined run's estimate is never inherited
        assert shifts == [2.0, 2.0, 7.0, 7.0, 0.25]
        ends = iter([("converged", -1.0, 1e-30)] + [("converged", -1.0, 1.0)] * 4)
        shifts.clear()
        solver._solve_on_grid(pd, 3.0, None, 0.0, 1.0, cfg)
        assert shifts[:2] == [2.0, 1e-10]  # the refactor rule's floor

    def test_planar_start_joins_sooner_at_the_found_multiplier(self, monkeypatch):
        # omega = 0.0071 here, 140 times below the linear level 1 that
        # the planar starts begin at: start 0.5 at that level joins start
        # 0.1's state only after the refactor at iteration 10 moves its
        # shift there
        cfg = SolverConfig()
        pd = plane_data(_grid_for(1.0, cfg), 1.0)
        calls = []
        descend = solver._descend

        def counted(*args, **kwargs):
            calls.append((args, kwargs, descend(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(solver, "_descend", counted)
        solver._solve_on_grid(pd, 3.31, None, 0.0, 1.526, cfg)
        assert [c[2]["stop"] for c in calls] == ["converged", "duplicate",
                                                 "duplicate"]
        held = calls[0][2]
        assert rel(held["omega_hat"], solve_planar(3.31, 1.526).omega) < 1e-6
        args, kwargs, run = calls[1]
        assert kwargs["shift"] == abs(held["omega_hat"]) < pd.lam / 100
        at_lam = descend(*args, near=kwargs["near"], shift=pd.lam)
        assert at_lam["stop"] == "duplicate"
        assert (run["iterations"], at_lam["iterations"]) == (3, 11)
        # run alone from either shift, the start ends on the state it joined
        for shift in (kwargs["shift"], pd.lam):
            whole = descend(*args, shift=shift)
            assert whole["stop"] == "converged"
            assert _state_distance(pd, 1.526, whole, held) < 1e-4
            assert rel(whole["energy"], held["energy"]) < 1e-10


class TestEntryValidation:
    def test_infinite_mass_is_refused(self):
        with pytest.raises(ValueError, match="finite"):
            solve_planar(3.0, float("inf"))
        with pytest.raises(ValueError, match="finite"):
            solve_single(3.0, 0.0, float("inf"))
        with pytest.raises(ValueError, match="finite"):
            solve_hybrid(HybridParams(3.0, 3.0, 0.0, 0.0, float("inf"), 1.0))

    def test_unscalable_start_names_the_mass(self):
        # a start of zero mass has no scale onto the sphere
        cfg = SolverConfig(N=256)
        pd = plane_data(_grid_for(1.0, cfg), 1.0)
        zero = np.zeros((1, pd.grid.n_nodes))
        with pytest.raises(ValueError, match="mass 0.5"):
            solver._descend(pd, 3.0, None, 0.0, 0.5, cfg, zero, np.zeros(1))


class TestSmallMass:
    """The convergence test scales with sqrt(mu), as the projected
    gradient does, so a small mass is held to the same relative
    stationarity as mass 1.  Scaled by max(1, |omega| sqrt(mu)), these
    solves stopped as converged after 1, 4 and 1 iterations."""

    @pytest.mark.parametrize("solve", [
        lambda: solve_single(3.0, 0.0, 1e-12),  # el_residual was 0.284
        lambda: solve_hybrid(HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, 1e-16)),  # 0.012
    ], ids=["single", "hybrid"])
    def test_converges_to_a_stationary_state(self, solve):
        r = solve()
        assert r.converged
        assert r.iterations > 5
        assert r.el_residual <= 1e-2

    def test_box_mode_is_certified(self):
        # a tiny planar state is the box's linear Dirichlet mode, where
        # -Delta phi + omega phi nearly cancels; scaled by that sum taken
        # as one term, the certificate read 0.963
        r = solve_planar(3.0, 1e-12)
        assert r.converged and r.omega < 0.0
        assert r.el_residual <= 1e-2

    def test_smallest_normal_mass_reaches_a_report(self):
        # the retraction's guard is relative to mu: an absolute 1e-300
        # refused the start of every solve at this mass
        mu = 2.3e-308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports = [solve_planar(3.0, mu), solve_single(3.0, 0.0, mu),
                       solve_hybrid(HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, mu))]
        for r in reports:
            assert rel(r.mass1 + r.mass2, mu) <= 1e-10

    @pytest.mark.parametrize("solve,converged_iters,gives_out", [
        (lambda mu: solve_single(3.0, 0.0, mu), 17, ("line_search", 9)),
        (lambda mu: solve_hybrid(HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, mu)),
         18, ("no_progress", 14)),
    ], ids=["single", "hybrid"])
    def test_where_the_descent_gives_out(self, solve, converged_iters,
                                         gives_out):
        # down to mass 1e-150 the solves converge; at 1e-200 they stop
        # unconverged, and the report says so and why, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = solve(1e-150)
            assert r.converged and r.el_residual <= 1e-2
            assert r.iterations == converged_iters
            r = solve(1e-200)
        assert not r.converged
        assert (r.stop_reason, r.iterations) == gives_out
        assert rel(r.mass1 + r.mass2, 1e-200) <= 1e-10

    def test_tiny_mass_sits_at_the_linear_threshold(self):
        # at mass 1e-30 the |u|^p term is negligible: omega is the linear
        # level omega* = 361,578 (it was 216,868)
        P = HybridParams(3.0, 3.0, 0.0, 0.0, 1.0, 1e-30)
        r = solve_hybrid(P)
        assert r.converged and r.iterations > 5
        assert rel(r.omega, omega_star(P)) < 1e-3


class TestStartScale:
    def test_charged_start_fits_a_wide_box(self):
        # a start width capped at 1 in absolute units vanishes on every
        # node past the origin of this grid: a divide by zero, then
        # "cannot scale the start onto the sphere"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = solve_hybrid(HybridParams(3.0, 3.0, 10.0, 10.0, 0.5, 1.0),
                             SolverConfig(R=1e6, N=512))
        assert r.converged and r.el_residual <= 1e-2
        assert r.energy == pytest.approx(-1.6364e-4, rel=1e-3)
        assert r.omega == pytest.approx(4.964e-4, rel=1e-3)


def flat_covectors(pd, p, sigmas, beta, mu, x):
    """Energy, energy gradient, mass gradient and omega_hat at mass mu of
    the flat unknowns x, the rows (interior nodes, then the charge) of
    each plane in turn, assembled as the descent assembles them."""
    charged = sigmas is not None
    k = len(sigmas) if charged else 1
    n = pd.grid.n_nodes
    nin = n - 2
    stride = nin + charged
    sig_theta = pd.theta + (np.array(sigmas) if charged else 0.0)
    w, G = pd.grid.w_trapz[1:-1], pd.G[1:-1]
    x = x.reshape(k, stride)
    ph = np.zeros((k, n))
    ph[:, 1:-1] = x[:, :nin]
    ph[:, 0] = ph[:, 1]
    qq = x[:, nin].copy() if charged else np.zeros(k)
    e, qform, pterm, pieces = _kernels.plane_energy(ph, qq, p, sig_theta, pd)
    gphi = np.empty((k, n))
    gq, dmq = _kernels.plane_energy_grad(qq, pieces, sig_theta, pd, gphi)
    g, a = np.zeros((k, stride)), np.zeros((k, stride))
    g[:, :nin] = gphi[:, 1:-1]
    a[:, :nin] = 2.0 * w * (ph[:, 1:-1] + qq[:, None] * G)
    coupling = 0.0
    if charged:
        coupling = beta * qq[0] * qq[1] if k == 2 else 0.0
        g[:, nin] = gq - beta * qq[::-1] if k == 2 else gq
        a[:, nin] = dmq
    omega = (float((pterm - qform).sum()) + 2.0 * coupling) / mu
    return float(e.sum()) - coupling, g.ravel(), a.ravel(), omega


class TestNewtonStep:
    """The endgame's Newton direction against a dense KKT solve whose
    Hessian is central differences of the kernel gradient."""

    CASES = {
        "one-plane": (3.0, (0.5,), 0.0),
        "two-planes": (np.array([2.5, 3.5]), (0.3, -0.2), 0.8),
        "planar": (3.0, None, 0.0),
        # omega = 3.6e5: the profile and the Green kernel are exact zeros
        # over the outer part of the box
        "deep": (3.0, (-1.0,), 0.0),
    }

    @pytest.mark.parametrize("p,sigmas,beta", CASES.values(), ids=CASES)
    def test_matches_dense_finite_difference_kkt(self, p, sigmas, beta):
        cfg = SolverConfig(N=128, grading=1.02, max_iters=6)
        charged = sigmas is not None
        if charged:
            s1, s2 = (sigmas * 2)[:2]
            pd = solver._setup(
                omega_star(HybridParams(3.0, 3.0, s1, s2, beta, 1.0)), cfg)
        else:
            pd = plane_data(_grid_for(1.0, cfg), 1.0)
        start = solver._initial_guess(pd, sigmas, beta, 1.0, 0.5)
        run = solver._descend(pd, p, sigmas, beta, 1.0, cfg, *start)
        phi, q = run["phi"], run["q"]
        k, n = phi.shape
        nin = n - 2
        stride = nin + charged
        if sigmas == self.CASES["deep"][1]:
            # the tail that a cut of the Newton solve would leave out
            tail = (phi[:, 1:-1] == 0.0).all(axis=0) & (pd.G[1:-1] == 0.0)
            assert tail.sum() >= 20

        def covectors(x):
            return flat_covectors(pd, p, sigmas, beta, 1.0, x)[1:]

        x0 = np.zeros((k, stride))
        x0[:, :nin] = phi[:, 1:-1]
        if charged:
            x0[:, nin] = q
        x0 = x0.ravel()
        g, a, omega = covectors(x0)
        H = np.empty((x0.size, x0.size))
        for j in range(x0.size):
            # relative steps: |u|^(p-2) has a kink at u = 0, and deep
            # states' tails are exact zeros
            e = np.zeros(x0.size)
            e[j] = h = 1e-4 * max(abs(x0[j]), 1e-6 * np.abs(x0).max())
            gp, ap, _ = covectors(x0 + e)
            gm, am, _ = covectors(x0 - e)
            H[:, j] = (gp - gm + 0.5 * omega * (ap - am)) / (2.0 * h)
        H = 0.5 * (H + H.T)
        kkt = np.block([[H, a[:, None]], [a[None, :], np.zeros((1, 1))]])
        dense = np.linalg.solve(kkt, np.append(g, 0.0))[:-1]

        newton = solver._newton_solver(pd, phi, q, p, omega, sigmas, beta)
        pvec, slope = solver._tangent_direction(newton, np.stack([g, a]))
        assert slope > 0.0
        # measured: 2.6e-10 (one plane), 1.1e-9 (two planes), 1.8e-12
        # (planar), 3.4e-9 (deep)
        assert np.linalg.norm(pvec - dense) <= 1e-8 * np.linalg.norm(dense)


class TestResidualStep:
    """The preconditioned step of a resolved state: one solve along the
    Lagrangian residual r = g + (omega_hat/2) dM."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=24)
    @given(case=st.sampled_from(["one-plane", "two-planes", "planar"]),
           p=st.floats(2.1, 3.9),
           sigma=st.floats(0.0, 3.0),
           beta=st.floats(0.0, 1.0),
           log_mu=st.floats(-1.0, 1.0),
           log_shift=st.floats(-1.0, 1.0),
           seed=st.integers(0, 2**16))
    def test_slope_is_the_retracted_energy_derivative(
            self, case, p, sigma, beta, log_mu, log_shift, seed):
        # <r, A^-1 r> is minus the derivative at s = 0 of the energy along
        # the retracted path x - s A^-1 r, at a perturbed start on the sphere
        cfg = SolverConfig(N=128, grading=1.02)
        mu = 10.0 ** log_mu
        sigmas = {"one-plane": (sigma,), "two-planes": (sigma, 0.5),
                  "planar": None}[case]
        if sigmas is None:
            pd = plane_data(_grid_for(1.0, cfg), 1.0)
        elif len(sigmas) == 1:
            pd = solver._setup(lambda_for_theta(-sigma), cfg)
        else:
            pd = solver._setup(omega_star(
                HybridParams(p, p, sigma, 0.5, beta, mu)), cfg)
        phi, q = solver._initial_guess(pd, sigmas, beta, mu, 0.3)
        k, n = phi.shape
        nin, charged = n - 2, sigmas is not None
        phi *= 1.0 + 0.2 * np.random.default_rng(seed).uniform(-1, 1, phi.shape)
        x = np.zeros((k, nin + charged))
        x[:, :nin] = phi[:, 1:-1]
        if charged:
            x[:, nin] = q
        x = x.ravel()

        def retract(y):
            # ghost tie, Dirichlet pin and one rescale to mass mu
            ph = np.zeros((k, n))
            ph[:, 1:-1] = y.reshape(k, -1)[:, :nin]
            ph[:, 0] = ph[:, 1]
            qq = y.reshape(k, -1)[:, nin] if charged else np.zeros(k)
            return y * math.sqrt(mu / solver._mass(ph, qq, pd))

        x = retract(x)
        _, g, a, omega = flat_covectors(pd, p, sigmas, beta, mu, x)
        r = g + 0.5 * omega * a
        assert abs(r @ x) <= 1e-12 * np.linalg.norm(g) * np.linalg.norm(x)
        solve = _linear_solver(pd.grid, 10.0 ** log_shift * pd.lam, pd.theta,
                               sigmas, beta)
        pvec, slope = solver._residual_direction(solve, np.stack([g, a]), omega,
                                                 np.empty_like(g))
        assert slope == r @ pvec > 0.0
        # central differences over a step of 1e-5 of the state: measured
        # errors up to 7e-10, falling as h^2
        h = 1e-5 * np.linalg.norm(x) / np.linalg.norm(pvec)
        ends = [flat_covectors(pd, p, sigmas, beta, mu, retract(x - s * pvec))[0]
                for s in (h, -h)]
        assert rel(-(ends[0] - ends[1]) / (2.0 * h), slope) <= 1e-7

    README = HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, 1.0)
    WIDE = HybridParams(3.0, 3.0, 10.0, 10.0, 0.5, 1.0)

    @pytest.mark.parametrize("P,cfg,per_plane", [
        (README, SolverConfig(), 1),
        (WIDE, SolverConfig(R=1e6, N=512), 2),
    ], ids=["resolved", "wide-box"])
    def test_columns_per_step(self, monkeypatch, P, cfg, per_plane):
        # the README hybrid's first cell resolves its decay length, so each
        # step solves one column per plane; on the R = 1e6 box the first
        # cell spans about 60 and each step projects two columns a plane
        columns = []
        factor = solver._linear_solver

        def counting(grid, *args):
            solve = factor(grid, *args)

            def counted(rhs):
                columns.append(rhs.size // (grid.n_nodes - 1))
                return solve(rhs)
            return counted

        monkeypatch.setattr(solver, "_linear_solver", counting)
        r = solve_hybrid(P, cfg)
        assert r.converged
        assert len(columns) > 10 and set(columns) == {2 * per_plane}


class TestNewtonEndgame:
    """Iteration counts and stop reasons of the cases the preconditioned
    descent alone contracted slowly on (0.91-0.94 per iteration)."""

    def test_planar_near_p2_converges(self):
        # preconditioned steps alone: the stall rule stopped it unconverged
        # after 144 iterations, at a norm 1.5x its tolerance
        r = solve_planar(2.05, 1.0)
        assert r.converged and r.stop_reason == "converged"
        assert r.iterations <= 30

    def test_criterion_8_heavy_hybrid(self):
        # preconditioned steps alone: 138 iterations for the winning start
        from hybrid_nls.analysis import critical_mass

        mu = 2.0 * critical_mass(2.5, 3.5)
        r = solve_hybrid(HybridParams(2.5, 3.5, 6.0, 6.0, 1.0, mu))
        assert r.converged and r.stop_reason == "converged"
        assert r.iterations <= 60
        assert rel(r.energy, -109.89559722228817) < 1e-10  # pinned, 138 its

    def test_underresolved_deep_single_stops_without_progress(self):
        # the state keeps narrowing toward the first cell, so the grid, not
        # the problem, sets the answer: preconditioned steps alone ran all
        # 50,000 iterations and stopped with no reason given
        r = solve_single(3.86, -0.27, 61.3)
        assert not r.converged
        assert r.stop_reason == "no_progress"
        assert r.iterations < 500


def tridiagonal_entries(grid, shift):
    """Diagonal and off-diagonal of kinetic + shift*mass on the interior
    nodes 1..N-1, entry by entry."""
    n = grid.n_nodes
    cu, w = grid.c_h1, grid.w_trapz
    diag = np.zeros(n - 2)
    off = np.zeros(n - 3)
    for j in range(1, n - 1):
        i = j - 1
        diag[i] = shift * w[j] + cu[j] + (cu[j - 1] if j > 1 else 0.0)
        if j < n - 2:
            off[i] = -cu[j]
    return diag, off


def dense_linear_matrix(grid, shift, th, sigmas, beta=0.0):
    """Dense matrix of  kinetic + shift*mass + charge block, entry by entry.

    Unknowns are each plane's interior nodes 1..N-1 (node 0 is the ghost
    tied to node 1, node N is pinned), followed by that plane's charge
    when ``sigmas`` is given; the two charges couple through -beta.
    """
    diag, off = tridiagonal_entries(grid, shift)
    nin = diag.size
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    if sigmas is None:
        return T
    stride = nin + 1
    A = np.zeros((len(sigmas) * stride, len(sigmas) * stride))
    for i, sig in enumerate(sigmas):
        b = i * stride
        A[b:b + nin, b:b + nin] = T
        A[b + nin, b + nin] = sig + th
    if len(sigmas) == 2:
        A[nin, 2 * nin + 1] = A[2 * nin + 1, nin] = -beta
    return A


def dense_mass_matrix(pd):
    """Dense two-plane mass form in the layout of dense_linear_matrix:
    diag w on the interior nodes, w*G between them and the plane's
    charge, and the analytic |G|^2 on the charge."""
    w = pd.grid.w_trapz[1:-1]
    nin = w.size
    block = np.zeros((nin + 1, nin + 1))
    block[:nin, :nin] = np.diag(w)
    block[:nin, nin] = block[nin, :nin] = w * pd.G[1:-1]
    block[nin, nin] = pd.gl2
    return np.kron(np.eye(2), block)


class TestOmegaStarGridOracle:
    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("s1,s2,beta", [
        (0.0, 0.0, 1.0), (0.0, 1.0, 0.5), (-1.0, 1.0, 2.0), (0.3, -0.2, 0.0),
        (-3.0, 5.0, 0.7)])
    def test_matches_generalized_eigenvalue(self, n, s1, s2, beta):
        from scipy.linalg import eigh

        P = HybridParams(3.0, 3.0, s1, s2, beta, 1.0)
        cfg = SolverConfig(N=n)
        lam = max(_RATE_MARGIN * omega_star(P), (16.0 / cfg.R) ** 2)
        grid = _grid_for(lam, cfg)
        pd = plane_data(grid, lam)
        # (kinetic + lam*mass + charge block) - lam*mass is the form Q,
        # so the bottom of the pencil (A, M) is lam - omega_star_grid
        A = dense_linear_matrix(grid, lam, pd.theta, (s1, s2), beta)
        M = dense_mass_matrix(pd)
        low = eigh(A, M, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert rel(omega_star_grid(P, cfg), lam - low) < 1e-10

    def test_unconverged_descent_raises(self):
        P = HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(RuntimeError, match="after 2 iterations"):
            omega_star_grid(P, SolverConfig(N=256, max_iters=2))

    @pytest.mark.parametrize("s1, s2, beta, n, level", [
        (0.0, 1.0, 1.0, 2048, 2975.9411641467304),  # the README hybrid
        (-1.0, 1.0, 2.0, 4096, 2013972809153.8828),  # criterion 13's steep triple
    ])
    def test_level_is_the_recorded_one(self, s1, s2, beta, n, level):
        # recorded when the level ran its own one-start descent, before it
        # went through the multistart: the same call, so the same bits
        P = HybridParams(3.0, 3.0, s1, s2, beta, 1.0)
        assert omega_star_grid(P, SolverConfig(N=n)) == level


class TestLinearSolver:
    LAM = 50.0

    def test_dense_oracle_is_the_quadratic_form(self):
        grid = make_grid(40.0, 64, 1.01)
        shift = 0.3 * self.LAM
        A = dense_linear_matrix(grid, shift, 0.0, None)
        phi = np.random.default_rng(0).standard_normal(grid.n_nodes)
        phi[0], phi[-1] = phi[1], 0.0
        d = np.diff(phi)
        form = grid.c_h1 @ (d * d) + shift * (grid.w_trapz @ (phi * phi))
        v = phi[1:-1]
        assert rel(v @ A @ v, form) < 1e-12

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("sigmas,beta", [
        (None, 0.0), ((1.0,), 0.0), ((0.5, 1.5), 0.0), ((0.5, 1.5), 0.4)])
    def test_matches_dense_solve(self, n, sigmas, beta):
        grid = make_grid(40.0, n, 1.01)
        th = plane_data(grid, self.LAM).theta
        shift = 0.3 * self.LAM  # the descent refactors away from lam
        A = dense_linear_matrix(grid, shift, th, sigmas, beta)
        rhs = np.random.default_rng(n).standard_normal((2, A.shape[0]))
        got = _linear_solver(grid, shift, th, sigmas, beta)(rhs)
        want = np.linalg.solve(A, rhs.T).T
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("n,grading,shift,traps", [
        (8192, 1.0025, 2000.0, True), (2048, 1.01, 8089.0, False)])
    def test_leading_block_solve_is_exact(self, monkeypatch, n, grading,
                                          shift, traps):
        # a deep profile underflows to exact zeros well inside the box;
        # when the factor can trap, only the block those zeros leave
        # reachable is solved, and the result must not change at all
        grid = make_grid(40.0, n, grading)
        b = np.exp(-math.sqrt(shift / 3.0) * grid.r[1:-1])
        b[b < 1e-300] = 0.0
        d, e, _ = dpttrf(*tridiagonal_entries(grid, shift))
        want = dpttrs(d, e, b)[0]
        assert np.any((want != 0.0) & (np.abs(want) < np.finfo(float).tiny))
        lengths = []
        real = solver.pttrf

        def spy(d_, e_):
            mult, tri = real(d_, e_)

            def counted(rhs):
                lengths.append(len(rhs))
                return tri(rhs)

            return mult, counted

        monkeypatch.setattr(solver, "pttrf", spy)
        got = _linear_solver(grid, shift, 0.0, None)(b[None, :])
        assert (lengths[0] < b.size) if traps else (lengths == [b.size])
        np.testing.assert_array_equal(got[0], want)

    def test_indefinite_tridiagonal_raises(self):
        grid = make_grid(40.0, 64, 1.01)
        with pytest.raises(ArithmeticError, match="positive definite"):
            _linear_solver(grid, -1e6, 0.0, (1.0,))

    @pytest.mark.parametrize("sigmas,beta", [
        ((-1.0,), 0.0), ((-0.5, 1.5), 0.0), ((0.5, 1.5), 1.0),
        ((-1.0, -1.0), 0.1)])
    def test_indefinite_charge_block_raises(self, sigmas, beta):
        # the last case has a positive determinant but negative diagonal
        grid = make_grid(40.0, 64, 1.01)
        with pytest.raises(ArithmeticError, match="charge block"):
            _linear_solver(grid, self.LAM, 0.0, sigmas, beta)


def test_import_leaves_scipy_unloaded(tmp_path):
    # the package binds numpy's LAPACK and evaluates K0 itself, escapes
    # SVG text without xml.sax (which loads urllib.request, http, email
    # and ssl), writes out the origin cell's Gauss-Laguerre rule, and
    # samples profiles without np.unique (whose first call loads numpy.ma)
    code = f"""
import sys, hybrid_nls, hybrid_nls.cli
def loaded(*names):
    return [m for m in sys.modules if m in names or m.startswith(
        tuple(name + "." for name in names))]
print(loaded("scipy", "xml", "urllib.request", "http", "email", "ssl",
             "numpy.polynomial"))
hybrid_nls.cli.main(["solve", "--N", "256", "--formats", "json,csv,svg",
                     "--out", {str(tmp_path)!r}])
print(loaded("numpy.ma"))
"""
    src = os.path.dirname(os.path.dirname(hybrid_nls.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"  # after the import
    assert lines[-1] == "[]"  # after the solve
    assert (tmp_path / "profiles.svg").read_bytes().startswith(b"<svg")


def test_verify_leaves_numpy_random_unloaded(tmp_path):
    # criteria 9, 11 and 12 draw from the standard library's random
    # module: numpy.random costs about 6 MB and 15 ms per process
    code = f"""
import sys, hybrid_nls.cli
code = hybrid_nls.cli.main(["verify", "--fast", "--out", {str(tmp_path)!r}])
print(code, [m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"]])
"""
    src = os.path.dirname(os.path.dirname(hybrid_nls.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    assert proc.stdout.splitlines()[-1] == "1 []"


def test_descent_holds_few_state_arrays():
    # The README hybrid's traced peak, in units of one (2, N+1) state
    # array, grid and plane data included.  At N = 8192, grading 1.0025
    # it is 14.1 (14.0 at N = 32768, grading 1.000625).  A descent that
    # keeps its trial, retraction, direction and the gradient kernel's
    # temporaries alive across the line search, and the start's guess
    # through the whole descent, peaks at 20.6.
    cfg = SolverConfig(N=8192, grading=1.0025)
    P = HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, 1.0)
    tracemalloc.start()
    try:
        report = solve_hybrid(P, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.certificate.certified
    assert peak / (2 * (cfg.N + 1) * 8) < 16.0
