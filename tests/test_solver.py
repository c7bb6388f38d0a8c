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

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrf, dpttrs

import hybrid_nls
from hybrid_nls import _kernels, solver
from hybrid_nls.energy import (
    HybridParams,
    f_hybrid,
    lp_power,
    mass,
    plane_data,
    q_form_sigma,
)
from hybrid_nls.grid import make_grid
from hybrid_nls.solver import (
    _RATE_MARGIN,
    _TIE,
    GroundStateReport,
    SolverConfig,
    _grid_for,
    _linear_solver,
    _lowest,
    _solve_two_plane,
    extract_omega,
    omega_star,
    omega_star_grid,
    refine_config,
    solve_hybrid,
    solve_planar,
    solve_single,
)

from test_energy import kernel_args, random_state

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
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)

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
        from hybrid_nls.energy import action_functionals

        grid = make_grid(12.0, 256, 1.02)
        rng = np.random.default_rng(7)
        P = HybridParams(2.5, 3.5, 0.3, -0.2, 0.8, 1.0)
        for _ in range(10):
            U = random_state(grid, rng)
            w = extract_omega(U, P)
            acts = action_functionals(U, P, w)
            assert abs(acts.i_omega) < 1e-10 * max(1.0, abs(acts.s_omega))

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

    grad_tol 1e-8: at the default 1e-6 both descents stop with an energy
    error near 1e-11 relative (the second pool case: the two-plane run
    ends 9e-12 below the single plane), and tightening the tolerance
    shrinks it quadratically below _TIE.
    """
    P = HybridParams(*case[:4], 0.0, case[4])
    cfg = SolverConfig(N=512, grad_tol=1e-8)
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
        runs = [{"energy": -1.0, "converged": True},
                {"energy": -2.0, "converged": False}]
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
        runs = [{"energy": -1.0, "converged": True, "iterations": 18},
                {"energy": -1.0 - 1e-15, "converged": True, "iterations": 17}]
        assert _lowest(runs) is runs[0]
        runs.append({"energy": -1.0 - 1e-9, "converged": True, "iterations": 9})
        assert _lowest(runs) is runs[2]

    def test_lower_unconverged_start_beats_converged_ones(self):
        # an unconverged start's energy bounds the minimum from above, so
        # a converged start above it is a higher critical point
        runs = [{"energy": -1.0, "converged": True},
                {"energy": -2.0, "converged": False},
                {"energy": -2.0 - 1e-13, "converged": False},
                {"energy": -1.5, "converged": True}]
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
        grid, lam, pd = solver._setup(
            omega_star(HybridParams(3.0, 3.0, s1, s2, beta, 1.0)), cfg)
        start = solver._initial_guess(grid, pd, sigmas, beta, 1.0, 0.5,
                                      lam / _RATE_MARGIN)
        run = solver._descend(grid, lam, pd, p, sigmas, beta, 1.0, cfg, *start)
        assert run["converged"] and run["iterations"] > 2
        phi, q = run["phi"], run["q"]
        args = kernel_args(grid, lam, p, pd["theta"] + np.array(sigmas))
        energy = _kernels.plane_energy(phi, q, *args)[0]
        coupling = beta * q[0] * q[1] if len(q) == 2 else 0.0
        assert float(energy.sum()) - coupling == run["energy"]



def _state_distance(grid, pd, mu, a, b):
    """sqrt(mass(U_a - U_b) / mu) of two runs' plane-batched states."""
    w = grid.w_trapz
    dm = solver._mass(a["phi"] - b["phi"], a["q"] - b["q"], w, w * pd["G"], pd["gl2"])
    return math.sqrt(max(dm, 0.0) / mu)


class TestScreenedMultistart:
    """Each start pauses at _SCREEN times its tolerance; the multistart
    finishes the lowest paused start and every other one that is not
    within _DUPLICATE of a state it finished."""

    CASES = {
        "one-plane": (3.0, (0.5,), 0.0, 1.0),
        "two-planes": (np.array([2.5, 3.5]), (0.3, -0.2), 0.8, 1.0),
        "linear": (None, (0.0, 1.0), 0.5, 1.0),
        "planar": (3.0, None, 0.0, 1.0),
        # criterion 8's 2 mu* hybrid: start 0.1 pauses in the crawl, a few
        # iterations before the Newton gate opens
        "crawling": (np.array([2.5, 3.5]), (6.0, 6.0), 1.0, 44.85319),
    }

    @pytest.mark.parametrize("start", [0.1, 0.9])
    @pytest.mark.parametrize("p,sigmas,beta,mu", CASES.values(), ids=CASES)
    def test_resume_continues_the_run_exactly(self, p, sigmas, beta, mu, start):
        cfg = SolverConfig(N=512)
        if sigmas is None:
            lam = 1.0
            grid = _grid_for(lam, cfg)
            pd = plane_data(grid, lam)
        else:
            s1, s2 = (sigmas * 2)[:2]
            grid, lam, pd = solver._setup(
                omega_star(HybridParams(3.0, 3.0, s1, s2, beta, mu)), cfg)
        guess = solver._initial_guess(grid, pd, sigmas, beta, mu, start,
                                      lam / _RATE_MARGIN)
        args = (grid, lam, pd, p, sigmas, beta, mu, cfg)
        whole = solver._descend(*args, *guess)
        paused = solver._descend(*args, *guess, screen=True)
        assert paused["stop"] == "screened" and not paused["converged"]
        assert 1 <= paused["iterations"] < whole["iterations"]
        # the paused run keeps the state and scalars only
        assert all(not isinstance(x, np.ndarray) for x in paused["paused"])
        done = solver._descend(*args, paused["phi"], paused["q"],
                               paused=paused["paused"])
        assert done["stop"] == whole["stop"] == "converged"
        assert done["iterations"] == whole["iterations"]
        assert done["energy"] == whole["energy"]
        assert np.array_equal(done["phi"], whole["phi"])
        assert np.array_equal(done["q"], whole["q"])
        assert done["paused"] is None

    def test_duplicate_rule_on_synthetic_runs(self, monkeypatch):
        # four starts of a planar problem at mass 1: start 0 is the lowest
        # paused one, start 1 lies 0.09 from it and start 2 0.11, start 3
        # stopped before its screen
        cfg = SolverConfig(N=256, starts=(0.1, 0.3, 0.5, 0.9))
        grid = _grid_for(1.0, cfg)
        pd = plane_data(grid, 1.0)
        w = grid.w_trapz

        def unit(f):  # one plane of mass 1
            return f[None, :] / math.sqrt(f @ (f * w))

        base = unit(np.exp(-grid.r ** 2))
        bump = unit(np.exp(-(grid.r - 3.0) ** 2))

        def run(i, phi, energy, stop="screened"):
            return {"phi": phi, "q": np.zeros(1), "energy": energy,
                    "iterations": 5, "converged": False, "stop": stop,
                    "paused": (i,) if stop == "screened" else None}

        starts = iter([run(0, base, -1.0), run(1, base + 0.09 * bump, -0.9),
                       run(2, base + 0.11 * bump, -0.8),
                       run(3, base, -0.5, stop="stalled")])
        finished = []

        def fake(grid_, lam_, pd_, p_, sigmas_, beta_, mu_, cfg_, phi, q,
                 screen=False, paused=None):
            if paused is None:
                assert screen
                return next(starts)
            finished.append(paused[0])
            return {"phi": phi, "q": q, "energy": -2.0 - paused[0],
                    "iterations": 9, "converged": True, "stop": "converged",
                    "paused": None}

        monkeypatch.setattr(solver, "_descend", fake)
        best = solver._solve_on_grid(grid, 1.0, pd, 3.0, None, 0.0, 1.0, cfg)
        assert finished == [0, 2]  # lowest first; 1 joins 0, 3 was final
        assert best["energy"] == -4.0

    def test_loose_screen_still_finds_the_ground_state(self, monkeypatch):
        # at a screen of 1e5 the lowest paused start ends at -0.0075398;
        # only a start more than _DUPLICATE from it reaches the ground state
        monkeypatch.setattr(solver, "_SCREEN", 1e5)
        r = solve_hybrid(HybridParams(2.87, 2.919, 1.784, 1.116, 0.547, 0.556))
        assert r.converged
        assert rel(r.energy, -0.007976890972858195) < 1e-6

    def test_sigma6_hybrid_finishes_both_regimes(self, monkeypatch):
        # criterion 8's 2 mu* hybrid (N=512): starts 0.1 and 0.5 reach the
        # plane-2 state and 0.9 the plane-1 one; the skipped start, run
        # uninterrupted, ends on the state it was skipped for
        cfg = SolverConfig(N=512)
        P = HybridParams(2.5, 3.5, 6.0, 6.0, 1.0, 44.85319)
        calls = []
        descend = solver._descend

        def counted(*args, **kwargs):
            calls.append((args, kwargs, descend(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(solver, "_descend", counted)
        r = solve_hybrid(P, cfg)
        firsts = [c for c in calls if c[1].get("paused") is None]
        resumes = [c for c in calls if c[1].get("paused") is not None]
        assert [c[2]["stop"] for c in firsts] == ["screened"] * 3
        assert [c[2]["stop"] for c in resumes] == ["converged"] * 2
        ends = [c[2] for c in resumes]
        grid, pd = firsts[0][0][0], firsts[0][0][2]
        assert _state_distance(grid, pd, P.mu, *ends) > 1.0
        plane2 = [solver._mass(e["phi"][1:], e["q"][1:], grid.w_trapz,
                               grid.w_trapz * pd["G"], pd["gl2"]) / P.mu for e in ends]
        assert sorted(f > 0.9 for f in plane2) == [False, True]
        resumed = {id(c[1]["paused"]) for c in resumes}
        (skipped,) = [c for c in firsts if id(c[2]["paused"]) not in resumed]
        whole = descend(*skipped[0])
        assert whole["converged"]
        joined = min(ends, key=lambda e: _state_distance(grid, pd, P.mu, whole, e))
        assert _state_distance(grid, pd, P.mu, whole, joined) < 1e-6
        assert rel(whole["energy"], joined["energy"]) < 1e-12
        assert r.energy == min(e["energy"] for e in ends)


class TestEntryValidation:
    def test_infinite_mass_is_refused(self):
        with pytest.raises(ValueError, match="finite"):
            solve_planar(3.0, float("inf"))
        with pytest.raises(ValueError, match="finite"):
            solve_single(3.0, 0.0, float("inf"))
        with pytest.raises(ValueError, match="finite"):
            solve_hybrid(HybridParams(3.0, 3.0, 0.0, 0.0, float("inf"), 1.0))

    def test_unscalable_start_names_the_mass(self):
        # a subnormal mass passes validation; the start's mass underflows
        with pytest.raises(ValueError, match="mass 1e-310"):
            solve_planar(3.0, 1e-310, SolverConfig(N=256))


class TestNewtonStep:
    """The endgame's Newton direction against a dense KKT solve whose
    Hessian is central differences of the kernel gradient."""

    CASES = {
        "one-plane": (3.0, (0.5,), 0.0),
        "two-planes": (np.array([2.5, 3.5]), (0.3, -0.2), 0.8),
        "planar": (3.0, None, 0.0),
    }

    @pytest.mark.parametrize("p,sigmas,beta", CASES.values(), ids=CASES)
    def test_matches_dense_finite_difference_kkt(self, p, sigmas, beta):
        cfg = SolverConfig(N=128, grading=1.02, max_iters=6)
        charged = sigmas is not None
        if charged:
            s1, s2 = (sigmas * 2)[:2]
            grid, lam, pd = solver._setup(
                omega_star(HybridParams(3.0, 3.0, s1, s2, beta, 1.0)), cfg)
        else:
            lam = 1.0
            grid = _grid_for(lam, cfg)
            pd = plane_data(grid, lam)
        start = solver._initial_guess(grid, pd, sigmas, beta, 1.0, 0.5,
                                      lam / _RATE_MARGIN)
        run = solver._descend(grid, lam, pd, p, sigmas, beta, 1.0, cfg, *start)
        phi, q = run["phi"], run["q"]
        k, n = phi.shape
        nin = n - 2
        stride = nin + charged
        args = kernel_args(grid, lam, p,
                           pd["theta"] + (np.array(sigmas) if charged else 0.0))
        w, G = grid.w_trapz[1:-1], pd["G"][1:-1]

        def covectors(x):
            """Energy and mass gradients at the flat unknowns x, and omega."""
            x = x.reshape(k, stride)
            ph = np.zeros((k, n))
            ph[:, 1:-1] = x[:, :nin]
            ph[:, 0] = ph[:, 1]
            qq = x[:, nin].copy() if charged else np.zeros(k)
            _, qform, pterm, pieces = _kernels.plane_energy(ph, qq, *args)
            gphi = np.empty((k, n))
            gq, dmq = _kernels.plane_energy_grad(qq, pieces, *args, gphi)
            g, a = np.zeros((k, stride)), np.zeros((k, stride))
            g[:, :nin] = gphi[:, 1:-1]
            a[:, :nin] = 2.0 * w * (ph[:, 1:-1] + qq[:, None] * G)
            coupling = 0.0
            if charged:
                coupling = beta * qq[0] * qq[1] if k == 2 else 0.0
                g[:, nin] = gq - beta * qq[::-1] if k == 2 else gq
                a[:, nin] = dmq
            omega = float((pterm - qform).sum()) + 2.0 * coupling  # mass 1
            return g.ravel(), a.ravel(), omega

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

        newton = solver._newton_solver(grid, pd, phi, q, p, omega, sigmas, beta)
        pvec, slope = solver._tangent_direction(newton, np.stack([g, a]))
        assert slope > 0.0
        # measured: 3e-11 (one plane), 5e-10 (two planes), 1e-12 (planar)
        assert np.linalg.norm(pvec - dense) <= 1e-8 * np.linalg.norm(dense)



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


def dense_mass_matrix(grid, pd):
    """Dense two-plane mass form in the layout of dense_linear_matrix:
    diag w on the interior nodes, w*G between them and the plane's
    charge, and the analytic |G|^2 on the charge."""
    w = grid.w_trapz[1:-1]
    nin = w.size
    block = np.zeros((nin + 1, nin + 1))
    block[:nin, :nin] = np.diag(w)
    block[:nin, nin] = block[nin, :nin] = w * pd["G"][1:-1]
    block[nin, nin] = pd["gl2"]
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
        A = dense_linear_matrix(grid, lam, pd["theta"], (s1, s2), beta)
        M = dense_mass_matrix(grid, pd)
        low = eigh(A, M, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert rel(omega_star_grid(P, cfg), lam - low) < 1e-10

    def test_unconverged_descent_raises(self):
        P = HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(RuntimeError, match="after 2 iterations"):
            omega_star_grid(P, SolverConfig(N=256, max_iters=2))


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
        th = plane_data(grid, self.LAM)["theta"]
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

        def spy(d_, e_, b_):
            lengths.append(len(d_))
            return dpttrs(d_, e_, b_)

        monkeypatch.setattr(solver, "dpttrs", spy)
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


def test_import_leaves_scipy_sparse_unloaded():
    code = ("import sys, hybrid_nls; "
            "print([m for m in sys.modules if m.startswith('scipy.sparse')])")
    src = os.path.dirname(os.path.dirname(hybrid_nls.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    assert proc.stdout.strip() == "[]"
