"""Maximum-entropy fitting under a single u-moment consistency condition.

Given a potential function u(x) and a target moment m, find the multiplier
lambda such that the equilibrium density k(lambda) e^(-lambda u(x)) has
E[u] = m.  The solver is damped Newton on g(lambda) = E_lambda[u] - m with
the analytic derivative g'(lambda) = -Var_lambda[u], falling back to
bisection on a bracket grown by doubling when Newton stalls.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, MomentRangeError, SampleError
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
    lambda_init: float = 0.0
    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        for name in ("target_moment", "lambda_init", "tol"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise FormatError(f"{name} must be finite, got {value!r}")
        if not self.tol > 0:
            raise FormatError(f"tol must be positive, got {self.tol!r}")
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise FormatError(
                f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class MaxEntSolution:
    lam: float
    k: float
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
    vals = np.asarray(u.at(samples), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise SampleError("sample outside the domain of u")
    return float(np.mean(vals))


def _moment_and_var(lam: float, uvals: np.ndarray, grid: Grid):
    """E[u], Var[u] and the density k(lambda) e^(-lambda u) on the grid."""
    f = normalize(TabulatedPotential(grid=grid, values=lam * uvals), grid)
    mean = grid.quadrature(uvals * f.values)
    var = grid.quadrature(uvals * uvals * f.values) - mean * mean
    return mean, var, f


def solve_maxent(p: MaxEntProblem) -> MaxEntSolution:
    uvals = eval_potential(p.u, p.grid)
    umin, umax = float(np.min(uvals)), float(np.max(uvals))
    margin = RANGE_MARGIN * max(umax - umin, 1.0)
    if not (umin + margin < p.target_moment < umax - margin):
        raise MomentRangeError(
            f"target moment {p.target_moment} outside attainable range "
            f"({umin}, {umax})"
        )

    lam = float(p.lambda_init)
    mean, var, f = _moment_and_var(lam, uvals, p.grid)
    g = mean - p.target_moment
    iterations = 0
    # E_lambda[u] is strictly decreasing in lambda, so g brackets track sign
    lo = hi = None  # lo: g > 0 (lambda too small), hi: g < 0
    step_scale = 1.0

    while iterations < p.max_iter and abs(g) > p.tol:
        iterations += 1
        if g > 0:
            lo = lam
        else:
            hi = lam
        took_newton = False
        if var > 0:
            cand = lam + g / var
            if lo is not None and hi is not None:
                took_newton = lo < cand < hi
            else:
                took_newton = np.isfinite(cand)
        if took_newton:
            new_lam = cand
        elif lo is not None and hi is not None:
            new_lam = 0.5 * (lo + hi)
        else:
            # grow a bracket by doubling away from the start
            step_scale = max(2.0 * step_scale, 1.0)
            new_lam = lam + (step_scale if g > 0 else -step_scale)

        new_mean, new_var, new_f = _moment_and_var(new_lam, uvals, p.grid)
        new_g = new_mean - p.target_moment
        # damp Newton steps that fail to reduce |g|
        halvings = 0
        while took_newton and abs(new_g) >= abs(g) and halvings < 50:
            new_lam = 0.5 * (lam + new_lam)
            new_mean, new_var, new_f = _moment_and_var(new_lam, uvals, p.grid)
            new_g = new_mean - p.target_moment
            halvings += 1
        lam, g, var, f = new_lam, new_g, new_var, new_f

    converged = abs(g) <= p.tol
    upot = normalized_potential(
        TabulatedPotential(grid=p.grid, values=lam * uvals), p.grid
    )
    return MaxEntSolution(
        lam=lam,
        k=f.k,
        density=f,
        normalized_potential=upot,
        iterations=iterations,
        residual=abs(g),
        converged=converged,
    )
