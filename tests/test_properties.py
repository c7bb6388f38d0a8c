"""Property tests of the ground-state solver over the parameter box.

Scale covariance: for equal powers p the problem on the box of radius
L*R, with interaction strengths sigma_i + log(L)/(2 pi) and target mass
L^(2(p-4)/(p-2)) mu, is the dilate u(r) -> L^(-2/(p-2)) u(r/L) of the
problem at (R, sigma_i, mu).  The graded mesh scales with R, so the two
discrete problems are the same up to the factors below, on every grid:
energy L^(-4/(p-2)), rate L^-2 and charges L^(-2/(p-2)).  The planar law
E = -rho mu^(2/(4-p)) of verify criterion 1 is its sigma-free case.

Start charges: ``_setup`` decomposes at lam >= e omega*, so the charge
matrix [[s1+th, -beta], [-beta, s2+th]] at th = theta(lam) keeps its
smallest eigenvalue theta(lam) - theta(omega*) >= 1/(4 pi), and the
charges ``_initial_guess`` solves from it come out positive.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_nls import solver
from hybrid_nls.energy import HybridParams
from hybrid_nls.solver import SolverConfig, omega_star, solve_hybrid
from hybrid_nls.specfun import lambda_for_theta

CFG = SolverConfig(N=512, grad_tol=1e-10)


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


@settings(derandomize=True, deadline=None, database=None, max_examples=32)
@given(p=st.floats(2.1, 3.9),
       sigma1=st.floats(-1.0, 3.0),
       sigma2=st.floats(-1.0, 3.0),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       log_mu=st.floats(-1.0, 1.0),
       log_L=st.floats(-2.0, 1.0))
def test_scale_covariance(p, sigma1, sigma2, beta, log_mu, log_L):
    L, mu = 10.0 ** log_L, 10.0 ** log_mu
    shift = math.log(L) / (2.0 * math.pi)
    a = solve_hybrid(HybridParams(p, p, sigma1, sigma2, beta, mu), CFG)
    b = solve_hybrid(
        HybridParams(p, p, sigma1 + shift, sigma2 + shift, beta,
                     L ** (2.0 * (p - 4.0) / (p - 2.0)) * mu),
        SolverConfig(R=L * CFG.R, N=CFG.N, grad_tol=CFG.grad_tol))
    # converged is not asked: at this tolerance 16 of the 64 solves stop
    # no_progress or line_search, and in 12 of the 32 pairs the two boxes
    # stop for different reasons
    assert rel(b.energy * L ** (4.0 / (p - 2.0)), a.energy) <= 1e-12
    assert rel(b.omega * L ** 2, a.omega) <= 1e-6
    # each charge against the larger one: the stop bounds the state as a
    # whole, and a plane holding 4e-7 of the mass had its own charge
    # differ by 2e-6 of itself (2e-8 of the larger charge)
    charge, q_max = L ** (2.0 / (p - 2.0)), max(a.q1, a.q2)
    assert abs(b.q1 * charge - a.q1) <= 1e-6 * q_max
    assert abs(b.q2 * charge - a.q2) <= 1e-6 * q_max
    assert abs(b.mass1 / (b.mass1 + b.mass2)
               - a.mass1 / (a.mass1 + a.mass2)) <= 1e-6


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(p1=st.floats(2.05, 3.95),
       p2=st.floats(2.05, 3.95),
       sigma1=st.floats(-3.0, 20.0),
       sigma2=st.floats(-3.0, 20.0),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 2.5)),
       log_mu=st.floats(-3.0, 3.0))
def test_start_charges_are_positive(p1, p2, sigma1, sigma2, beta, log_mu):
    # the census box at the census's N
    cfg = SolverConfig(N=512)
    P = HybridParams(p1, p2, sigma1, sigma2, beta, 10.0 ** log_mu)
    margin = (1.0 - 1e-12) / (4.0 * math.pi)
    two = solver._setup(omega_star(P), cfg)
    one = solver._setup(lambda_for_theta(-sigma1), cfg)
    charges = np.array([[sigma1 + two.theta, -beta], [-beta, sigma2 + two.theta]])
    assert np.linalg.eigvalsh(charges)[0] >= margin
    assert sigma1 + one.theta >= margin
    # the two-plane start, the beta = 0 shortcut's two single planes on
    # the two-plane grid, and a single plane on its own grid
    for pd, sigmas in ((two, (sigma1, sigma2)), (two, (sigma1,)),
                       (two, (sigma2,)), (one, (sigma1,))):
        for start in (0.1, 0.5, 0.9):
            q = solver._initial_guess(pd, sigmas, beta, P.mu, start)[1]
            assert np.all(np.isfinite(q)) and np.all(q > 0.0), (sigmas, start, q)
