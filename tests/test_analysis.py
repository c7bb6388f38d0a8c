"""Tests for the derived-quantity layer.

The free-plane coefficients are checked against the same shooting-oracle
constants as the solver tests; everything else is either an algebraic
property of the formulas or a qualitative trend with a frozen margin.
"""

import dataclasses
import gc
import math
import os
import tracemalloc

import numpy as np
import pytest

from hybrid_nls import analysis
from hybrid_nls.analysis import (
    SweepRow,
    SweepTable,
    critical_mass,
    monotone_radial_check,
    rho,
    rho_detail,
    sweep,
)
from hybrid_nls.energy import HybridParams
from hybrid_nls.grid import RadialField, make_grid
from hybrid_nls.solver import SolverConfig, certify, solve_hybrid, solve_planar

from test_solver import RHO_CONTINUUM


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig()


@pytest.fixture(scope="module")
def sigma2_table(cfg):
    P = HybridParams(3.0, 3.0, 0.0, 1.0, 0.0625, 1.0)
    return sweep(P, "sigma2", (1.0, 2.0, 4.0, 8.0), cfg)


@pytest.fixture(scope="module")
def common_sigma_table(cfg):
    mustar = critical_mass(2.5, 3.5, cfg)
    P = HybridParams(2.5, 3.5, 0.0, 0.0, 1.0, mustar / 2)
    return sweep(P, "sigma_common", (2.0, 4.0, 6.0), cfg)


class TestRho:
    def test_positive_and_matches_shooting_oracle(self, cfg):
        for p, expect in RHO_CONTINUUM.items():
            val = rho(p, cfg)
            assert val > 0.0
            assert abs(val - expect) / expect < 5e-4, p

    def test_consistency_with_direct_solves(self, cfg):
        # E(mu) = -rho mu^2 at p=3, checked at masses away from the
        # reference point
        r3 = rho(3.0, cfg)
        for mu in (0.5, 2.0):
            r = solve_planar(3.0, mu, cfg)
            assert abs(r.energy + r3 * mu**2) / abs(r.energy) < 2e-2

    def test_cached_per_config(self, cfg, monkeypatch):
        first = rho_detail(2.5, cfg)

        def no_solve(p, mu, cfg=None):
            raise AssertionError(f"rho({p}) solved again at mass {mu}")

        monkeypatch.setattr(analysis, "solve_planar", no_solve)
        assert rho_detail(2.5, cfg) == first
        assert rho(2.5, cfg) == first.value

    def test_uncertified_reference_raises(self, monkeypatch):
        # a converged reference that fails a check is no free-plane state
        def uncertified(p, mu, cfg=None):
            r = solve_planar(p, mu, cfg)
            return dataclasses.replace(r, certificate=certify(True, r.omega, 1.0))

        monkeypatch.setattr(analysis, "_RHO_CACHE", {})
        with pytest.raises(RuntimeError, match="not certified.*failed stationarity"):
            rho_detail(3.0, SolverConfig(N=512), uncertified)

    def test_list_of_starts_keys_the_cache(self):
        # the config's starts are hashed into rho's cache key
        listed = SolverConfig(N=512, starts=[0.1, 0.9])
        assert rho(3.0, listed) == rho(3.0, SolverConfig(N=512, starts=(0.1, 0.9)))
        with pytest.raises(ValueError):
            SolverConfig(N=512, starts=0.5)

    def test_cache_keeps_numbers_not_reports(self):
        # a held reference report would keep its state, plane and grid:
        # about 26 KB per power at N = 256
        cfg = SolverConfig(N=256)
        here = os.path.join(os.path.dirname(analysis.__file__), "*")
        tracemalloc.start()
        try:
            for p in np.linspace(2.2, 3.3, 20):
                rho(float(p), cfg)
            gc.collect()
            snap = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(st.size for st in snap.filter_traces(
            [tracemalloc.Filter(True, here)]).statistics("filename"))
        assert held < 100_000

    def test_reference_mass_adapts_for_wide_states(self, cfg):
        # the mass-1 profile fits the box for the lower powers but not
        # for p=3.5, whose reference solve must move to a larger mass
        assert rho_detail(2.5, cfg).reference_mass == 1.0
        assert rho_detail(3.0, cfg).reference_mass == 1.0
        d = rho_detail(3.5, cfg)
        assert d.reference_mass > 1.0
        ref = solve_planar(3.5, d.reference_mass, cfg)
        assert ref.converged
        assert ref.omega >= 0.02
        assert d.energy == ref.energy
        assert d.value == -ref.energy / d.reference_mass**4.0

    def test_default_config_is_default(self):
        assert rho(3.0) == rho(3.0, SolverConfig())

    FINE = SolverConfig(N=8192, grading=1.0025)

    def test_reference_too_deep_for_the_grid_moves_to_a_smaller_mass(self, cfg):
        # at mass 16, p = 3.98 has omega = 1.8e11: the default grid's
        # first cell is 0.56 decay lengths, and rho came out 14x too small
        d = rho_detail(3.98, cfg)
        assert 1.0 < d.reference_mass < 16.0
        ref = solve_planar(3.98, d.reference_mass, cfg)
        assert math.sqrt(ref.omega) * ref.state.grid.h[0] <= 0.05
        assert math.isclose(d.value, rho(3.98, self.FINE), rel_tol=1e-4)
        assert math.isclose(critical_mass(2.5, 3.98, cfg),
                            critical_mass(2.5, 3.98, self.FINE), rel_tol=1e-6)

    @pytest.mark.parametrize("p,rel", [(3.9, 1e-3), (3.95, 5e-3)])
    def test_coarse_grid_reference_stays_resolved(self, p, rel):
        # at N = 512 the mass-16 references had r1 sqrt(omega) = 0.084
        # and 0.64, and rho was 2% and 76% low
        assert math.isclose(rho(p, SolverConfig(N=512)), rho(p, self.FINE),
                            rel_tol=rel)

    def test_reference_out_of_band_after_three_passes_raises(self):
        with pytest.raises(RuntimeError, match=r"p=3\.96 .* at mass 13\.0.*omega 44\."):
            rho(3.96, SolverConfig(N=512))


class TestCriticalMass:
    def test_equal_powers_rejected(self, cfg):
        with pytest.raises(ValueError):
            critical_mass(3.0, 3.0, cfg)

    def test_equal_coefficients_give_unit_mass(self, cfg, monkeypatch):
        monkeypatch.setattr(analysis, "rho", lambda p, c=None: 0.37)
        assert critical_mass(2.5, 3.5, cfg) == pytest.approx(1.0, rel=1e-15)

    def test_free_plane_energy_is_the_scaling_law(self, cfg):
        assert analysis.free_plane_energy(3.5, 2.0, cfg) == -rho(3.5, cfg) * 2.0**4
        assert analysis.free_plane_energy(3.0, 0.5) == -rho(3.0) * 0.25

    def test_root_property(self, cfg):
        mustar = critical_mass(2.5, 3.5, cfg)
        lhs = rho(2.5, cfg) * mustar ** (2.0 / 1.5)
        rhs = rho(3.5, cfg) * mustar ** (2.0 / 0.5)
        assert abs(lhs - rhs) / lhs < 1e-6

    def test_energy_curves_cross_at_critical_mass(self, cfg):
        mustar = critical_mass(2.5, 3.5, cfg)

        def free(p, mu):
            return -rho(p, cfg) * mu ** (2.0 / (4.0 - p))

        assert free(2.5, mustar / 2) < free(3.5, mustar / 2)
        assert free(3.5, 2 * mustar) < free(2.5, 2 * mustar)

    def test_order_of_powers_is_irrelevant(self, cfg):
        a = critical_mass(2.5, 3.5, cfg)
        b = critical_mass(3.5, 2.5, cfg)
        assert abs(a - b) / a < 1e-12

    def test_frozen_value(self, cfg):
        # pinned: default grid, measured 2026-08-18 (shooting oracle
        # puts the continuum value at 22.427)
        assert critical_mass(2.5, 3.5, cfg) == pytest.approx(22.426, rel=1e-3)


class TestSweepSigma2:
    def test_rows_complete_and_ordered(self, sigma2_table):
        assert [r.value for r in sigma2_table.rows] == [1.0, 2.0, 4.0, 8.0]
        assert all(r.converged for r in sigma2_table.rows)
        assert sigma2_table.parameter == "sigma2"
        assert sigma2_table.errors == ()

    def test_mass_migrates_to_first_plane(self, sigma2_table):
        fracs = [r.mass1 / sigma2_table.mu for r in sigma2_table.rows]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] >= 0.99

    def test_charge_ordering_along_sweep(self, sigma2_table):
        for r in sigma2_table.rows:
            assert r.q2 < r.q1

    def test_energy_approaches_single_plane_level(self, sigma2_table):
        e_ref = sigma2_table.references["single_plane_1"]
        gaps = [abs(r.energy - e_ref) for r in sigma2_table.rows]
        assert gaps[-1] <= 0.01 * abs(e_ref)
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    def test_preconditions(self, cfg, monkeypatch):
        def no_solve(P, cfg):
            raise AssertionError("a bad sweep must fail before any solve")

        monkeypatch.setattr(analysis, "solve_hybrid", no_solve)
        P = HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sweep(P, "sigma2", (), cfg)
        with pytest.raises(ValueError):
            sweep(P, "sigma2", (2.0, 1.0), cfg)
        with pytest.raises(ValueError, match="mode"):
            sweep(P, "sigma1", (1.0, 2.0), cfg)
        with pytest.raises(ValueError, match="coupling"):
            sweep(P, "beta", (-1.0, 2.0), cfg)


class TestSweepCommonSigma:
    def test_references_present(self, common_sigma_table):
        assert set(common_sigma_table.references) == {
            "free_plane_1",
            "free_plane_2",
            "critical_mass",
        }
        assert common_sigma_table.references["free_plane_1"] < 0.0

    def test_mass_concentrates_on_lighter_power(self, common_sigma_table):
        last = common_sigma_table.rows[-1]
        assert last.converged
        assert last.mass1 / common_sigma_table.mu >= 0.95

    def test_charges_decay_along_sweep(self, common_sigma_table):
        q1s = [r.q1 for r in common_sigma_table.rows]
        q2s = [r.q2 for r in common_sigma_table.rows]
        assert all(b < a for a, b in zip(q1s, q1s[1:]))
        assert all(b < a for a, b in zip(q2s, q2s[1:]))

    def test_energy_nondecreasing_in_sigma(self, common_sigma_table):
        energies = [r.energy for r in common_sigma_table.rows]
        assert all(b >= a for a, b in zip(energies, energies[1:]))


class TestSweepTableType:
    def test_rejects_unsorted_rows(self):
        row = SweepRow(1.0, -1.0, 0.6, 0.4, 0.1, 0.1, 0.5, True)
        row2 = dataclasses.replace(row, value=0.5)
        with pytest.raises(ValueError):
            SweepTable("sigma2", 1.0, (row, row2), {})

    def test_rejects_mass_leak(self):
        row = SweepRow(1.0, -1.0, 0.6, 0.3, 0.1, 0.1, 0.5, True)
        with pytest.raises(ValueError):
            SweepTable("sigma2", 1.0, (row,), {})
        # a mass sweep holds each row to its own value, not to the base mass
        row = SweepRow(2.0, -1.0, 0.6, 0.4, 0.1, 0.1, 0.5, True)
        with pytest.raises(ValueError):
            SweepTable("mu", 1.0, (row,), {})
        SweepTable("mu", 1.0, (dataclasses.replace(row, value=1.0),), {})

    def test_as_rows_round_trip(self):
        row = SweepRow(1.0, -1.0, 0.6, 0.4, 0.1, 0.1, 0.5, True)
        t = SweepTable("sigma2", 1.0, (row,), {"single_plane_1": -1.1})
        (d,) = t.as_rows()
        assert d == dataclasses.asdict(row)
        assert tuple(d) == SweepTable.COLUMNS


class TestMonotoneCheck:
    def test_decreasing_passes(self):
        ok, viol = monotone_radial_check(np.exp(-np.linspace(0, 5, 200)))
        assert ok and viol == 0

    def test_oscillation_counted(self):
        r = np.linspace(0, 10, 400)
        ok, viol = monotone_radial_check(np.sin(r))
        assert not ok
        assert viol > 100

    def test_tiny_wiggle_tolerated(self):
        v = np.exp(-np.linspace(0, 5, 200))
        v[50] = v[49] * (1.0 - 1e-15)
        v[51] = v[50]
        ok, viol = monotone_radial_check(v)
        assert ok and viol == 0

    def test_ground_state_profiles_pass(self, cfg):
        r = solve_hybrid(HybridParams(3.0, 3.0, 0.0, 0.5, 1.0, 1.0), cfg)
        for key in ("u1", "u2"):
            ok, viol = monotone_radial_check(r.profile_samples[key])
            assert ok, (key, viol)

    def test_accepts_radial_field(self):
        grid = make_grid(10.0, 128, 1.02)
        f = RadialField(grid, np.exp(-grid.r))
        ok, viol = monotone_radial_check(f)
        assert ok and viol == 0
