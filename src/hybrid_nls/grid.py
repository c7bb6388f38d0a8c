"""Radial discretization of the plane.

A radial function f(r) on the disk [0, R] stands in for a radially
symmetric function on R^2 with measure 2 pi r dr.  The mesh is graded
geometrically toward the origin (the charge carries a -log(r)/(2 pi)
singularity there) and uniform further out:

    cells  h_k = h0 * g^k            for k < N/2,
    cells  h_k = h0 * g^(N/2)        for k >= N/2,

with g the grading ratio and h0 fixed by sum(h_k) = R.  A grading whose
h0 squares below the smallest normal double (h0 < ~1.5e-154) is refused:
the cell areas and the Laplacian's 1/h0^2 would leave the double range.

Two weight vectors are precomputed per grid:

* ``w_trapz``  — cell-wise trapezoid weights for 2 pi int f r dr; this
  is the inner product the energy module and the solver metric use
  (one self-consistent discrete quadratic form).
* ``c_h1``     — per-cell coefficients 2 pi r_mid / h for the H^1
  seminorm  sum_k c_k (f_{k+1} - f_k)^2.

The first cell is special: quadrature of |u|^p with a logarithmically
singular u is done by an 8-point Gauss-Laguerre rule in the variable
r = r_1 e^{-z/2} (see :func:`origin_cell_rule`), never by trapezoid.
That rule is accurate for |a + b log r|^p, so it needs a first cell
across which the state's decay is small (:data:`RESOLUTION`), but not
vanishingly so (:data:`FINEST`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RESOLUTION",
    "FINEST",
    "RadialGrid",
    "RadialField",
    "make_grid",
    "first_cell",
    "check_mesh",
    "eval_at_origin",
    "radial_laplacian",
    "origin_cell_rule",
]

#: A first cell h0 resolves a decay rate lam >= 0 when h0 * sqrt(lam) <=
#: RESOLUTION: across it a profile decaying as exp(-sqrt(lam) r) changes
#: by at most 5%.  Read by the solver's grading and step choice and by
#: ``analysis.rho_detail``.
RESOLUTION = 0.05

#: A first cell h0 is over-graded for a decay rate lam > 0 when h0 *
#: sqrt(lam) < FINEST, the other end of the band whose top is
#: RESOLUTION.  The README hybrid at N = 8192 stalls at h0 * sqrt(lam)
#: <= 1e-8 and converges in 18 iterations from 3e-8 up; 1e-7 keeps a
#: factor 3 of that.  Read by the solver's grading.
FINEST = 1e-7


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Graded radial mesh on [0, R] with precomputed quadrature data.

    ``r`` holds the N+1 nodes with r[0] = 0 and r[N] = R.  Instances are
    immutable; fields are documented in the module docstring.  A grid
    compares and hashes by identity: planes share a mesh when they hold
    one grid object.
    """

    r: np.ndarray
    R: float
    n_cells: int
    grading: float
    h: np.ndarray = field(repr=False)
    w_trapz: np.ndarray = field(repr=False)
    c_h1: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @staticmethod
    def cell_resolves(h0: float, rate: float) -> bool:
        """Whether a first cell of width ``h0`` resolves ``rate`` (see
        :data:`RESOLUTION`); rate 0 has no decay and is always resolved."""
        return rate == 0.0 or h0 <= RESOLUTION / math.sqrt(rate)

    @staticmethod
    def cell_over_graded(h0: float, rate: float) -> bool:
        """Whether a first cell of width ``h0`` is too fine for ``rate``
        (see :data:`FINEST`); rate 0 sets no scale and never is."""
        return rate > 0.0 and h0 * math.sqrt(rate) < FINEST

    def resolves(self, rate: float) -> bool:
        """Whether this grid's first cell resolves ``rate``."""
        return self.cell_resolves(self.h[0], rate)


@dataclass(eq=False)
class RadialField:
    """Real values of a radial function sampled on the grid nodes;
    compared by identity, as its grid is."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"field has {vals.shape} values, grid expects ({self.grid.n_nodes},)"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        self.values = vals


def first_cell(R: float, n: int, g: float) -> float:
    """First-cell width h0 of make_grid(R, n, g), overflow-safe in g."""
    m = n // 2
    if g <= 1.0:
        return R / n
    log_gm = m * math.log(g)
    if log_gm > 600.0:
        log_span = log_gm + math.log(1.0 / (g - 1.0) + (n - m))
        return R * math.exp(-log_span)
    gm = g**m
    span = (gm - 1.0) / (g - 1.0) + (n - m) * gm
    return R / span


def check_mesh(R: float, n: int, g: float) -> None:
    """Raise ValueError unless make_grid(R, n, g) can be built: R finite
    and > 0, at least 64 cells, g in [1, 2), and a first cell whose
    square is a normal double."""
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be finite and > 0, got {R}")
    if n < 64:
        raise ValueError(f"need at least 64 cells, got {n}")
    if not 1.0 <= g < 2.0:
        raise ValueError(f"grading ratio must be in [1, 2), got {g}")
    h0 = first_cell(R, n, g)
    if not h0 * h0 >= sys.float_info.min:
        raise ValueError(
            f"grading {g} makes an N={n} first cell of {h0:.3g}, whose "
            "square underflows; lower the grading or N")


def make_grid(R: float, n: int, grading: float = 1.01) -> RadialGrid:
    """Build the graded radial mesh.

    Parameters
    ----------
    R : float
        Truncation radius (finite, > 0).  Fields are treated as zero beyond R.
    n : int
        Number of cells (>= 64); the grid has n + 1 nodes.
    grading : float
        Geometric ratio >= 1 applied to the inner half of the cells;
        1 gives a uniform mesh.  Must stay < 2, and small enough that
        the first cell's square is a normal double.

    Returns
    -------
    RadialGrid
    """
    R, n, grading = float(R), int(n), float(grading)
    check_mesh(R, n, grading)

    m = n // 2
    ratios = grading ** np.arange(m, dtype=np.float64)
    h0 = R / (ratios.sum() + (n - m) * grading**m)
    h = np.concatenate([h0 * ratios, np.full(n - m, h0 * grading**m)])

    r = np.concatenate([[0.0], np.cumsum(h)])
    r[-1] = R  # absorb cumsum rounding at the far end
    h = np.diff(r)

    w_trapz = np.zeros(n + 1)
    w_trapz[1:] += np.pi * r[1:] * h
    w_trapz[:-1] += np.pi * r[:-1] * h

    r_mid = 0.5 * (r[:-1] + r[1:])
    c_h1 = 2.0 * np.pi * r_mid / h

    grid = RadialGrid(
        r=r,
        R=R,
        n_cells=n,
        grading=grading,
        h=h,
        w_trapz=w_trapz,
        c_h1=c_h1,
    )
    for arr in (grid.r, grid.h, grid.w_trapz, grid.c_h1):
        arr.flags.writeable = False
    return grid


def _values(f: RadialField) -> tuple[RadialGrid, np.ndarray]:
    if not isinstance(f, RadialField):
        raise TypeError("expected a RadialField")
    return f.grid, f.values


def eval_at_origin(f: RadialField) -> float:
    """Value at r = 0 by quadratic extrapolation.

    Uses the three smallest *positive* nodes: the node stored at r = 0
    may hold a placeholder (e.g. for fields involving the log-singular
    Green kernel), so genuine extrapolation is required.
    """
    grid, vals = _values(f)
    ra, rb, rc = grid.r[1], grid.r[2], grid.r[3]
    fa, fb, fc = vals[1], vals[2], vals[3]
    la = rb * rc / ((rb - ra) * (rc - ra))
    lb = ra * rc / ((ra - rb) * (rc - rb))
    lc = ra * rb / ((ra - rc) * (rb - rc))
    return float(la * fa + lb * fb + lc * fc)


def radial_laplacian(f: RadialField) -> RadialField:
    """Discrete f'' + f'/r — the radial Laplacian in two dimensions.

    Second-order three-point differences on the nonuniform mesh at
    interior nodes.  At r = 0 regularity (f'(0) = 0) gives
    Delta f(0) ~= 4 (f_1 - f_0)/r_1^2; at r = R the parabola through
    the last three nodes is differentiated one-sidedly.
    """
    grid, vals = _values(f)
    r = grid.r
    out = np.empty_like(vals)

    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    denom = hm * hp * (hm + hp)
    f_m, f_0, f_p = vals[:-2], vals[1:-1], vals[2:]
    fpp = 2.0 * (hm * f_p - (hm + hp) * f_0 + hp * f_m) / denom
    fp = (hm * hm * f_p + (hp * hp - hm * hm) * f_0 - hp * hp * f_m) / denom
    out[1:-1] = fpp + fp / r[1:-1]

    out[0] = 4.0 * (vals[1] - vals[0]) / (r[1] * r[1])

    ra, rb, rc = r[-3], r[-2], r[-1]
    fa, fb, fc = vals[-3], vals[-2], vals[-1]
    # parabola coefficients through the last three nodes
    d1 = (fb - fa) / (rb - ra)
    d2 = ((fc - fb) / (rc - rb) - d1) / (rc - ra)
    fpp_end = 2.0 * d2
    fp_end = d1 + d2 * (2.0 * rc - ra - rb)
    out[-1] = fpp_end + fp_end / rc

    return RadialField(grid, out)


# 8-point Gauss-Laguerre rule, fixed once for all origin cells: the
# values of numpy.polynomial.laguerre.laggauss(8), written out so that
# the import does not load numpy.polynomial
_LAG_Z = np.array([
    0.17027963230510093, 0.90370177679938, 2.251086629866131,
    4.266700170287659, 7.0459054023934655, 10.758516010180996,
    15.740678641278004, 22.863131736889265])
_LAG_W = np.array([
    0.36918858934163495, 0.4187867808143447, 0.17579498663717255,
    0.033343492261215794, 0.0027945362352256834, 9.076508773358139e-05,
    8.48574671627257e-07, 1.0480011748715153e-09])
_LAG_Z.flags.writeable = False
_LAG_W.flags.writeable = False


def origin_cell_rule(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray, float]:
    """Log-adapted quadrature for the first cell [0, r_1].

    Substituting r = r_1 e^{-z/2} turns 2 pi int_0^{r_1} f(r) r dr into
    pi r_1^2 int_0^inf f(r_1 e^{-z/2}) e^{-z} dz, which an 8-point
    Gauss-Laguerre rule integrates with all weights positive.  Returns
    ``(z_nodes, weights, area)`` with ``area = pi r_1^2``; the radii to
    evaluate at are ``r_1 * exp(-z_nodes / 2)`` and the cell integral is
    ``area * sum(weights * f(radii))``.  Exact for f constant
    (weights sum to 1) and accurate for |a + b log r|^p integrands.
    """
    r1 = grid.r[1]
    return _LAG_Z, _LAG_W, float(np.pi * r1 * r1)
