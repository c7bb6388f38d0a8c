"""Ground states of coupled NLS equations on two planes joined at a point.

The package computes normalized (fixed-mass) ground states of the
focusing, mass-subcritical nonlinear Schrodinger energy on a "hybrid"
of two planes glued through a point interaction, plus the planar and
single-plane baselines needed to study decoupling, coupling gaps,
charge ordering and mass concentration.

Layers, bottom up:

* :mod:`hybrid_nls.specfun` — Green-kernel closed forms.
* :mod:`hybrid_nls.grid` — graded radial mesh and quadratures.
* :mod:`hybrid_nls.energy` — discrete energies, gradients, residuals.
* :mod:`hybrid_nls.solver` — projected-gradient ground-state solves.
* :mod:`hybrid_nls.analysis` — derived quantities and sweeps.
* :mod:`hybrid_nls.verify` — the numbered verification suite.
* :mod:`hybrid_nls.cli` — the ``hybrid-nls`` command.
"""

from hybrid_nls.analysis import (
    RhoDetail,
    SweepRow,
    SweepTable,
    critical_mass,
    monotone_radial_check,
    rho,
    rho_detail,
    sweep,
)
from hybrid_nls.energy import (
    ChargedField,
    HybridGradient,
    HybridParams,
    HybridState,
    PlaneData,
    f_hybrid,
    f_single,
    plane_data,
    total_field,
)
from hybrid_nls.grid import RadialField, RadialGrid, make_grid
from hybrid_nls.solver import (
    GroundStateReport,
    SolverConfig,
    extract_omega,
    omega_star,
    omega_star_grid,
    refine_config,
    solve_hybrid,
    solve_planar,
    solve_single,
)
from hybrid_nls.specfun import (
    EULER_GAMMA,
    green_l2_norm_sq,
    lambda_for_theta,
    theta,
)
from hybrid_nls.verify import CriterionResult, VerifyReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "ChargedField",
    "CriterionResult",
    "EULER_GAMMA",
    "GroundStateReport",
    "HybridGradient",
    "HybridParams",
    "HybridState",
    "PlaneData",
    "RadialField",
    "RadialGrid",
    "RhoDetail",
    "SolverConfig",
    "SweepRow",
    "SweepTable",
    "VerifyReport",
    "critical_mass",
    "extract_omega",
    "f_hybrid",
    "f_single",
    "green_l2_norm_sq",
    "lambda_for_theta",
    "make_grid",
    "monotone_radial_check",
    "omega_star",
    "omega_star_grid",
    "plane_data",
    "refine_config",
    "rho",
    "rho_detail",
    "run_suite",
    "solve_hybrid",
    "solve_planar",
    "solve_single",
    "sweep",
    "theta",
    "total_field",
    "__version__",
]
