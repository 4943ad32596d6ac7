"""Core transforms between potentials, densities and intensities.

The six fundamental maps implemented here:

* ``normalize``            potential U       -> equilibrium density k e^(-U)
* ``normalized_potential`` potential U       -> U - ln k
* ``potential_of_density`` density f         -> -ln f
* ``stochastic_intensity`` density f         -> -f'/f
* ``causal_intensity``     potential U       -> -U'
* ``density_from_intensity`` intensity E     -> density e^(int E dx + c)

plus ``equilibrium_residual``, the pointwise force-balance check
E_s + E_c -> 0 that characterizes equilibrium pairs.

Derivatives and their inverse come from the grid, so no transform
branches on the grid kind.  On lattices the difference is forward,
E_s(x) = -(ln f(x+1) - ln f(x)) and E_c(x) = -(U(x+1) - U(x)), masked at
the last point, and its inverse is the cumulative sum.

Every table (potential, density, normalized potential, intensity) is a
frozen copy of its values on a grid.  NaN marks a masked point, where a
transform has no defined value; a table's ``mask`` is derived from its
values as ``isnan(values)`` and is never stored apart from them.  The one
density floor is absolute: the transforms mask f <= 1e-300, as ln f of a
normal float is good to ~1e-16 however far below the peak.  The kernel
estimate zeroes its own round-off, every cell at or below 1e-12 of its peak.

A "potential spec" is any object with a ``values_on(grid)`` method
returning the tabulated potential; objects may additionally provide
``intensity(x)`` (the closed-form -U' at any points), ``euler_map(dt)``
(the simulator's Euler step x -> x + dt * intensity(x), as a map
``(x, out) -> out`` that writes into ``out``; off the grid it may write
NaN or inf, but it must not raise and must end in bounded time) and
``at(x)`` (pointwise evaluation off the grid).
``TabulatedPotential``, ``PolynomialPotential``, ``PearsonPotential`` and
the catalog families themselves are potential specs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonNormalizableError, PotentialError, require_real
from .grid import Grid

DENSITY_FLOOR_ABS = 1e-300  # the density floor (see the module docstring)


# ---------------------------------------------------------------------------
# Tables


@dataclass(frozen=True)
class _Table:
    """Values on a grid, copied and frozen; NaN marks a masked point."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise PotentialError(
                f"expected {self.grid.n_points} values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def mask(self) -> np.ndarray:
        """True where the value is masked (NaN)."""
        return np.isnan(self.values)


@dataclass(frozen=True)
class TabulatedPotential(_Table):
    """Potential spec given by its finite values on a fixed grid."""

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.values)):
            raise PotentialError("tabulated potential has non-finite values")

    def values_on(self, grid: Grid) -> np.ndarray:
        self.grid.require_same(grid, "tabulated potential and target grid")
        return self.values

    def at(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.grid.lower) or np.any(x > self.grid.upper):
            raise PotentialError("evaluation point outside tabulated domain")
        return np.interp(x, self.grid.points, self.values)


@dataclass(frozen=True)
class PolynomialPotential:
    """Polynomial potential sum_j coeffs[j] * x**j (ascending order)."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = self.coeffs
        if isinstance(coeffs, (str, dict)) or not np.iterable(coeffs):
            raise PotentialError(f"coeffs must be a list, got {coeffs!r}")
        if len(coeffs) == 0:
            raise PotentialError("a polynomial needs at least one coefficient")
        for j, c in enumerate(coeffs):
            require_real(c, f"coeffs[{j}]", PotentialError)
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))
        with np.errstate(over="ignore"):  # an inf in U' is masked where used
            d = np.polynomial.polynomial.polyder(self.coeffs).tolist()
        object.__setattr__(self, "_dcoeffs", d)

    def at(self, x):
        x = np.asarray(x, dtype=float)
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    def values_on(self, grid: Grid) -> np.ndarray:
        return self.at(grid.points)

    def intensity(self, x):
        """-U'(x), as -polyval(x, U')."""
        x = np.asarray(x, dtype=float)
        return -np.polynomial.polynomial.polyval(x, self._dcoeffs)

    def euler_map(self, dt):
        """x + dt * intensity(x) as the map ``(x, out) -> out``: in-place
        Horner on q = x - dt U', with the bits of polyval(x, q) but for the
        sign of a zero (zero terms are skipped; constants are 0-d arrays)."""
        q = [-dt * c for c in self._dcoeffs] + [0.0]
        q[1] += 1.0
        # out = x * q[top]; then per lower power j, times x (None; the first
        # is the one above) and plus q[j] where it is not 0
        top = max(j for j, c in enumerate(q) if c or j == 1)
        ops = [op for c in reversed(q[:top]) for op in (None, c) if op != 0]
        steps = [None if c is None else np.array(c) for c in ops[1:]]
        lead, multiply, add = np.array(q[top]), np.multiply, np.add

        def advance(x, out):
            multiply(x, lead, out)
            for c in steps:
                if c is None:
                    multiply(out, x, out)
                else:
                    add(out, c, out)
            return out
        return advance


@dataclass(frozen=True)
class EquilibriumDensity(_Table):
    """Normalized density (continuous) or pmf (lattice) on a grid.

    ``log_omega`` is ln Omega = -ln k, the log statistical sum of the
    generating potential (Omega leaves the float range once |min U| > ~700).
    Densities built directly from data (histograms, estimates) use the
    gauge log_omega = 0 (``from_table``).
    """

    log_omega: float

    def __post_init__(self):
        super().__post_init__()
        require_real(self.log_omega, "log_omega", NonNormalizableError)
        vals = self.values
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise NonNormalizableError("density values must be finite and >= 0")
        total = self.grid.quadrature(vals)
        if abs(total - 1.0) > 1e-9:
            raise NonNormalizableError(f"density quadrature is {total}, not 1")

    @classmethod
    def from_table(cls, grid: Grid, values) -> "EquilibriumDensity":
        """Normalize a raw table, which is a density up to scale."""
        values = np.asarray(values, dtype=float)
        with np.errstate(over="ignore"):
            total = grid.quadrature(values)
        if not DENSITY_FLOOR_ABS <= total < np.inf:  # tiny or inf: rescale
            peak = np.max(values)
            if not 0.0 < peak < np.inf:
                raise NonNormalizableError("density has zero or non-finite "
                                           f"mass ({total}) on this grid")
            values = values / peak
            total = grid.quadrature(values)
        return cls(grid=grid, values=values / total, log_omega=0.0)


@dataclass(frozen=True)
class NormalizedPotentialTable(_Table):
    """Tabulated normalized potential U_tilde = -ln f."""


@dataclass(frozen=True)
class IntensityTable(_Table):
    """Signed field values on a grid; kind is 'stochastic' or 'causal'."""

    kind: str

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in ("stochastic", "causal"):
            raise PotentialError(f"unknown intensity kind {self.kind!r}")


@dataclass(frozen=True)
class ResidualReport(_Table):
    """Force-balance residual E_s + E_c; NaN where either side is masked."""

    @property
    def max_abs(self) -> float:
        """Largest |E_s + E_c| over the unmasked points; NaN if none is."""
        live = np.abs(self.values[~self.mask])
        return float(np.max(live)) if live.size else np.nan


# ---------------------------------------------------------------------------
# Helpers


def eval_potential(U, grid: Grid) -> np.ndarray:
    """Tabulate a potential spec on a grid; non-finite raises, unwarned."""
    with np.errstate(all="ignore"):
        vals = np.asarray(U.values_on(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = grid.points[~np.isfinite(vals)][0]
        raise PotentialError(f"potential is non-finite at x = {bad}")
    return vals


# ---------------------------------------------------------------------------
# The transforms


def _log_partition(U, grid: Grid):
    """U - m for m = min U on the grid, m, e^-(U - m) and its sum Omega e^m.

    The shift by m (the density is invariant to it) keeps the sum finite.
    """
    vals = eval_potential(U, grid)
    vmin = float(np.min(vals))
    with np.errstate(over="ignore"):  # inf, correctly rounded; e^-inf = 0
        shifted = vals - vmin
    expv = np.exp(-shifted)
    omega_shifted = grid.quadrature(expv)
    if not (omega_shifted > 0.0 and np.isfinite(omega_shifted)):
        raise NonNormalizableError(
            "statistical sum vanished or overflowed on this grid"
        )
    return shifted, vmin, expv, omega_shifted


def normalize(U, grid: Grid) -> EquilibriumDensity:
    """Equilibrium density k e^(-U) on the grid, with ln Omega = -ln k."""
    _, vmin, expv, omega_shifted = _log_partition(U, grid)
    return EquilibriumDensity(grid=grid, values=expv / omega_shifted,
                              log_omega=float(np.log(omega_shifted)) - vmin)


def normalized_potential(U, grid: Grid) -> NormalizedPotentialTable:
    """U - ln k, with k the normalizing constant of e^(-U) on the grid."""
    shifted, _, _, omega_shifted = _log_partition(U, grid)
    return NormalizedPotentialTable(
        grid=grid, values=shifted + np.log(omega_shifted)
    )


def potential_of_density(f: EquilibriumDensity) -> NormalizedPotentialTable:
    """-ln f pointwise; NaN (masked) below the density floor."""
    ok = f.values > DENSITY_FLOOR_ABS
    vals = np.full(f.grid.n_points, np.nan)
    vals[ok] = -np.log(f.values[ok])
    return NormalizedPotentialTable(grid=f.grid, values=vals)


def stochastic_intensity(f: EquilibriumDensity) -> IntensityTable:
    """-f'/f; masked wherever the difference rule reads a floored density."""
    low = f.values <= DENSITY_FLOOR_ABS
    vals = -f.grid.log_derivative(np.where(low, np.nan, f.values))
    return IntensityTable(grid=f.grid, values=vals, kind="stochastic")


def causal_intensity(U, grid: Grid) -> IntensityTable:
    """-dU/dx: closed form when the potential provides one, else the grid's
    difference rule; masked where it is not finite, with no float warning."""
    with np.errstate(all="ignore"):
        if hasattr(U, "intensity"):
            vals = np.asarray(U.intensity(grid.points), dtype=float)
        else:
            vals = -grid.derivative(eval_potential(U, grid))
    return IntensityTable(grid=grid, kind="causal",
                          values=np.where(np.isfinite(vals), vals, np.nan))


def density_from_intensity(E: IntensityTable) -> EquilibriumDensity:
    """Density e^(int E dx + c); c is absorbed by normalization.

    ln f is the grid's antiderivative of E_c = -E_s; every point that it
    reads must be unmasked and finite.
    """
    slopes = E.values if E.kind == "causal" else -E.values
    log_f = E.grid.antiderivative(slopes)
    if not np.all(np.isfinite(log_f)):
        raise PotentialError("intensity has masked or non-finite points")
    return normalize(TabulatedPotential(grid=E.grid, values=-log_f), E.grid)


def equilibrium_residual(f: EquilibriumDensity, U) -> ResidualReport:
    """Pointwise E_s + E_c, NaN where either intensity is masked; zero (to
    truncation error) at equilibrium."""
    return ResidualReport(grid=f.grid, values=stochastic_intensity(f).values
                          + causal_intensity(U, f.grid).values)
