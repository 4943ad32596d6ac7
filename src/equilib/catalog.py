"""Closed-form potential/intensity/density triples for the standard families.

``FAMILIES`` names the families for the CLI and JSON specs, and
``make_family`` builds one from its fields, which must be finite real
numbers.  Each family exposes

* ``potential(x)``             an (unnormalized) potential U with f = k e^(-U)
* ``normalized_potential(x)``  U_tilde = -ln f, exact closed form
* ``intensity(x)``             causal intensity -dU_tilde/dx
* ``density(x)``               e^(-U_tilde), shared by all families
* ``default_grid()``           a support truncated so that the lost tail
                               mass is below 1e-10

and is itself a potential spec (``values_on``, ``intensity_on`` and ``at``
over ``potential`` and ``intensity``), so it goes to the transforms as is.
The module also holds the Pearson-system generator, whose density is the
normalized integral of its causal intensity on a grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np
from scipy import special as sp_special
from scipy import stats as sp_stats

from .errors import (FormatError, NonNormalizableError, PotentialError,
                     SupportError)
from .grid import CONTINUOUS, LATTICE, Grid, build_grid
from .potential import EquilibriumDensity, normalize
from .special import digamma

DEFAULT_POINTS = 4001
TAIL_MASS = 1e-10


def _asfloat(x):
    return np.asarray(x, dtype=float)


class _Family:
    """Base of the closed-form families: checked fields, one density."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise SupportError(
                    f"{f.name} must be a finite real number, got {value!r}")

    def density(self, x):
        return np.exp(-self.normalized_potential(x))

    # the potential-spec protocol over the closed forms

    def values_on(self, grid: Grid):
        return self.potential(grid.points)

    def intensity_on(self, grid: Grid):
        return self.intensity(grid.points)

    def at(self, x):
        return self.potential(x)

    def _check(self, x):
        """x as floats, on the support x >= 0 unless a family narrows it."""
        x = _asfloat(x)
        if np.any(x < 0):
            raise SupportError(f"{type(self).__name__} support is x >= 0")
        return x


@dataclass(frozen=True)
class UniformLattice(_Family):
    """Uniform pmf on an N-point lattice; zero causal intensity."""

    n: int

    def __post_init__(self):
        super().__post_init__()
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise SupportError("n must be a positive integer")

    def potential(self, x):
        return np.zeros_like(_asfloat(x))

    def normalized_potential(self, x):
        return np.full_like(_asfloat(x), math.log(self.n))

    def intensity(self, x):
        return np.zeros_like(_asfloat(x))

    def default_grid(self, n_points: int | None = None) -> Grid:
        return build_grid(LATTICE, 1, self.n, self.n)


@dataclass(frozen=True)
class Exponential(_Family):
    """Exp(a): constant causal intensity -a on x >= 0."""

    a: float

    def __post_init__(self):
        super().__post_init__()
        if not self.a > 0:
            raise SupportError("rate a must be positive")

    def potential(self, x):
        return self.a * self._check(x)

    def normalized_potential(self, x):
        return self.a * self._check(x) - math.log(self.a)

    def intensity(self, x):
        return np.full_like(self._check(x), -self.a)

    def default_grid(self, n_points: int = DEFAULT_POINTS) -> Grid:
        return build_grid(CONTINUOUS, 0.0, 40.0 / self.a, n_points)


@dataclass(frozen=True)
class Normal(_Family):
    """n(mu, sigma): linear causal intensity, harmonic-oscillator potential."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        # sigma**2 is a divisor and a log argument below
        if not (self.sigma > 0 and 0 < self.sigma * self.sigma < math.inf):
            raise SupportError("sigma must be positive and sigma**2 finite "
                               "and nonzero")

    @classmethod
    def from_b(cls, b: float) -> "Normal":
        """Intensity parameterization E_c(x) = -b x, i.e. n(0, sqrt(1/b))."""
        if not b > 0:
            raise SupportError("b must be positive")
        return cls(mu=0.0, sigma=math.sqrt(1.0 / b))

    def potential(self, x):
        z = _asfloat(x) - self.mu
        return z * z / (2.0 * self.sigma ** 2)

    def normalized_potential(self, x):
        return self.potential(x) + 0.5 * math.log(2.0 * math.pi
                                                  * self.sigma ** 2)

    def intensity(self, x):
        return -(_asfloat(x) - self.mu) / self.sigma ** 2

    def default_grid(self, n_points: int = DEFAULT_POINTS) -> Grid:
        return build_grid(CONTINUOUS, self.mu - 8.0 * self.sigma,
                          self.mu + 8.0 * self.sigma, n_points)


@dataclass(frozen=True)
class LinearConstant(_Family):
    """Superposed intensities -a - b x: density k e^(-a x - b x^2 / 2).

    Completing the square identifies it with n(-a/b, sqrt(1/b)).
    """

    a: float
    b: float

    def __post_init__(self):
        super().__post_init__()
        if not self.b > 0:
            raise SupportError("b must be positive")

    def as_normal(self) -> Normal:
        return Normal(mu=-self.a / self.b, sigma=math.sqrt(1.0 / self.b))

    def potential(self, x):
        x = _asfloat(x)
        return self.a * x + self.b * x * x / 2.0

    def normalized_potential(self, x):
        x = _asfloat(x)
        z = x + self.a / self.b
        return self.b * z * z / 2.0 + 0.5 * math.log(2.0 * math.pi / self.b)

    def intensity(self, x):
        return -self.a - self.b * _asfloat(x)

    def default_grid(self, n_points: int = DEFAULT_POINTS) -> Grid:
        return self.as_normal().default_grid(n_points)


@dataclass(frozen=True)
class Poisson(_Family):
    """Poi(lam) on the integer lattice; digamma-form causal intensity."""

    lam: float

    def __post_init__(self):
        super().__post_init__()
        if not self.lam > 0:
            raise SupportError("lambda must be positive")

    def potential(self, x):
        x = self._check(x)
        return -x * math.log(self.lam) + sp_special.gammaln(x + 1.0)

    def normalized_potential(self, x):
        return self.lam + self.potential(x)

    def intensity(self, x):
        x = self._check(x)
        return -digamma(x + 1.0) + math.log(self.lam)

    def default_grid(self, n_points: int | None = None) -> Grid:
        bound = self.lam + 10.0 * math.sqrt(self.lam)
        if bound > 2.0 ** 53:  # integers above this are not exact floats
            raise SupportError("lambda is too large for a default lattice; "
                               "pass an explicit grid")
        upper = max(30, math.ceil(bound))
        while sp_stats.poisson.sf(upper, self.lam) > TAIL_MASS:
            upper *= 2
        return build_grid(LATTICE, 0, upper, upper + 1)


@dataclass(frozen=True)
class Gamma(_Family):
    """Gamma(alpha, beta) with intensity -(1-alpha)/x - 1/beta on x > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.alpha > 0 and self.beta > 0):
            raise SupportError("alpha and beta must be positive")

    @classmethod
    def from_intensity(cls, a: float, b: float) -> "Gamma":
        """Intensity form E_c(x) = -a/x - b; requires a < 1 for a valid shape."""
        if not a < 1:
            raise SupportError("intensity form needs a < 1 (shape 1 - a > 0)")
        if not b > 0:
            raise SupportError("b must be positive")
        return cls(alpha=1.0 - a, beta=1.0 / b)

    def _check(self, x):
        x = _asfloat(x)
        lowest_ok = 0.0 if self.alpha == 1.0 else np.nextafter(0.0, 1.0)
        if np.any(x < lowest_ok):
            raise SupportError("gamma support is x > 0")
        return x

    def _log_term(self, x):
        if self.alpha == 1.0:
            return np.zeros_like(x)
        return (1.0 - self.alpha) * np.log(x)

    def potential(self, x):
        x = self._check(x)
        return self._log_term(x) + x / self.beta

    def normalized_potential(self, x):
        const = float(sp_special.gammaln(self.alpha)) \
            + self.alpha * math.log(self.beta)
        return self.potential(x) + const

    def intensity(self, x):
        x = self._check(x)
        return -(1.0 - self.alpha) / x - 1.0 / self.beta

    def default_grid(self, n_points: int = DEFAULT_POINTS) -> Grid:
        upper = self.beta * (self.alpha + 10.0 * math.sqrt(self.alpha) + 15.0)
        while sp_special.gammaincc(self.alpha, upper / self.beta) > TAIL_MASS:
            upper *= 2.0
        # keep the grid off the x = 0 singularity of the log term
        lower = 0.5 * upper / (n_points - 1)
        return build_grid(CONTINUOUS, lower, upper, n_points)


FAMILIES = {"uniform": UniformLattice, "exponential": Exponential,
            "normal": Normal, "linear_constant": LinearConstant,
            "linear-constant": LinearConstant, "poisson": Poisson,
            "gamma": Gamma}


def make_family(name: str, params: dict) -> _Family:
    """Build the family ``name`` from its fields; None values take defaults."""
    cls = FAMILIES.get(name)
    if cls is None:
        raise FormatError(f"unknown family {name!r}")
    given = {k: v for k, v in params.items() if v is not None}
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.name not in given]
    if missing:
        raise FormatError(f"family {name!r} is missing {missing}")
    return cls(**given)


# ---------------------------------------------------------------------------
# Pearson system


@dataclass(frozen=True)
class PearsonParams:
    """Parameters of f'/f = s (x - a) / (b0 + b1 x + b2 x^2).

    sign="paper" takes the right-hand side literally as the causal
    intensity; sign="standard" negates it, the convention under which
    b0 > 0, b1 = b2 = 0 yields normalizable (normal) densities.
    """

    a: float
    b0: float
    b1: float
    b2: float
    sign: str = "standard"

    def __post_init__(self):
        if self.sign not in ("standard", "paper"):
            raise PotentialError(f"unknown Pearson sign {self.sign!r}")

    def denominator(self, x):
        x = _asfloat(x)
        return self.b0 + self.b1 * x + self.b2 * x * x


def pearson_intensity(p: PearsonParams):
    """Causal intensity function of the Pearson parameter set."""
    s = -1.0 if p.sign == "standard" else 1.0

    def ec(x):
        x = _asfloat(x)
        den = p.denominator(x)
        if np.any(den == 0.0):
            raise PotentialError("Pearson denominator vanishes at a point")
        return s * (x - p.a) / den

    return ec


@dataclass(frozen=True)
class PearsonPotential:
    """Potential spec obtained by integrating a Pearson intensity."""

    params: PearsonParams

    def intensity_on(self, grid: Grid):
        den = self.params.denominator(grid.points)
        if np.any(den == 0.0) or np.any(np.sign(den[1:]) != np.sign(den[:-1])):
            raise PotentialError(
                "Pearson denominator has a root inside the domain")
        return pearson_intensity(self.params)(grid.points)

    def values_on(self, grid: Grid):
        ec = self.intensity_on(grid)
        # an outward-pointing log-density slope at a grid edge means the
        # implied density keeps growing beyond the grid; reject rather than
        # truncate a non-normalizable tail
        if ec[0] < 0.0 or ec[-1] > 0.0:
            raise NonNormalizableError(
                "Pearson density grows toward a grid boundary; the "
                "intensity does not generate a normalizable density on "
                "this support"
            )
        return -grid.antiderivative(ec)


def pearson_density(p: PearsonParams, grid: Grid) -> EquilibriumDensity:
    """Grid density generated by the Pearson intensity.

    The log-density slope is the intensity itself; if it points outward at
    either grid edge the implied density keeps growing beyond the grid, so
    the truncation would silently hide a non-normalizable tail.  Such
    parameter sets are rejected instead.
    """
    if grid.kind != CONTINUOUS:
        raise PotentialError("Pearson densities need a continuous grid")
    return normalize(PearsonPotential(p), grid)


# ---------------------------------------------------------------------------
# Functional front end


def catalog_equilibrium(family: _Family,
                        grid: Grid | None = None) -> EquilibriumDensity:
    """Numeric equilibrium density of the family's potential on a grid."""
    if grid is None:
        grid = family.default_grid()
    return normalize(family, grid)
