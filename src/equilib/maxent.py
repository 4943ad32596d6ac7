"""Maximum-entropy fitting under a single u-moment consistency condition.

Given a potential function u(x) and a target moment m, find the multiplier
lambda such that the equilibrium density k(lambda) e^(-lambda u(x)) has
E[u] = m.  The solver is bracketed Newton (Numerical Recipes, 3rd ed.,
9.4 rtsafe) on g(lambda) = E_lambda[d] - (m - min u) for d = u - min u,
with g'(lambda) = -Var_lambda[d]: each step moves one end of the bracket
by the sign of g and takes the Newton point if strictly inside it, else
the midpoint; the loop ends when that is an end, as no float is left.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (FormatError, MomentRangeError, PotentialError,
                     SampleError, require_integer, require_real)
from .grid import Grid
from .potential import (EquilibriumDensity, NormalizedPotentialTable,
                        TabulatedPotential, eval_potential, normalize,
                        normalized_potential)

RANGE_MARGIN = 1e-9


@dataclass(frozen=True)
class MaxEntProblem:
    u: object                 # potential spec for u(x)
    grid: Grid
    target_moment: float
    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        require_real(self.target_moment, "target_moment", FormatError)
        require_real(self.tol, "tol", FormatError, positive=True)
        require_integer(self.max_iter, "max_iter", FormatError, 1)


@dataclass(frozen=True)
class MaxEntSolution:
    lam: float
    density: EquilibriumDensity
    normalized_potential: NormalizedPotentialTable
    iterations: int
    residual: float
    converged: bool


def u_moment(f: EquilibriumDensity, u) -> float:
    """E_f[u(X)] by the grid's quadrature rule."""
    uvals = eval_potential(u, f.grid)
    return f.grid.quadrature(uvals * f.values)


def sample_u_moment(samples, u) -> float:
    """Arithmetic mean of u over the sample."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise SampleError("empty sample set")
    if not hasattr(u, "at"):
        raise SampleError(f"{type(u).__name__} has no pointwise form for a "
                          "sample moment; pass the target moment (--moment)")
    # a far sample overflows u or the sum to +-inf (or inf - inf to NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(u.at(samples), dtype=float)
        mean = float(np.mean(vals))
    if not np.all(np.isfinite(vals)):  # overflow: at() raises off u's domain
        x = samples.flat[np.argmin(np.isfinite(vals))]
        raise SampleError(f"u is not finite at the sample x = {x:g}")
    if not np.isfinite(mean):
        raise SampleError("the sample mean of u exceeds the float range")
    return mean


def _moment_and_var(lam: float, uvals: np.ndarray, grid: Grid):
    """E[u], Var[u] and the density k(lambda) e^(-lambda u) on the grid."""
    f = normalize(TabulatedPotential(grid=grid, values=lam * uvals), grid)
    mean = grid.quadrature(uvals * f.values)
    var = grid.quadrature(uvals * uvals * f.values) - mean * mean
    return mean, var, f


def solve_maxent(p: MaxEntProblem) -> MaxEntSolution:
    uvals = eval_potential(p.u, p.grid)
    umin, umax = float(np.min(uvals)), float(np.max(uvals))
    if not np.isfinite(umax - umin):
        raise PotentialError("u spans more than the float range on this grid")
    margin = RANGE_MARGIN * max(umax - umin, 1.0)
    if not (umin + margin < p.target_moment < umax - margin):
        raise MomentRangeError(
            f"target moment {p.target_moment} outside attainable range "
            f"({umin}, {umax})"
        )

    # moments of d = u - min u, so an offset in u does not cancel
    d = uvals - umin
    target = p.target_moment - umin
    lam, lo, hi = 0.0, -np.inf, np.inf
    mean, var, f = _moment_and_var(lam, d, p.grid)
    g = mean - target
    iterations = 0
    while iterations < p.max_iter and abs(g) > p.tol:
        # E_lambda[d] falls as lambda grows: g > 0 means lambda is too small
        if g > 0:
            lo = lam
        else:
            hi = lam
        # the range check makes u non-constant, so Var > 0 at lambda = 0 and
        # a Newton step from a one-sided bracket lands inside it: the
        # midpoint is taken only once both ends are finite
        step = lam + g / var
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step in (lo, hi):  # no float is left strictly inside the bracket
            break
        iterations += 1
        lam = step
        mean, var, f = _moment_and_var(lam, d, p.grid)
        g = mean - target

    converged = abs(g) <= p.tol
    upot = normalized_potential(
        TabulatedPotential(grid=p.grid, values=lam * d), p.grid
    )
    return MaxEntSolution(
        lam=lam,
        # ln Omega of e^(-lambda u) = ln Omega of e^(-lambda d) - lambda min u
        density=replace(f, log_omega=f.log_omega - lam * umin),
        normalized_potential=upot,
        iterations=iterations,
        residual=abs(g),
        converged=converged,
    )
