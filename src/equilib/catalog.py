"""Closed-form potential/intensity/density triples for the standard families.

``FAMILIES`` names the families for the CLI and JSON specs, and
``make_family`` builds one from its fields, checked by
``errors.require_real`` and ``require_integer``.  Each family exposes

* ``potential(x)``             an (unnormalized) potential U with f = k e^(-U)
* ``normalized_potential(x)``  U_tilde = -ln f, exact closed form
* ``intensity(x)``             causal intensity -dU_tilde/dx
* ``density(x)``               e^(-U_tilde), shared by all families
* ``default_grid()``           a support truncated so that the lost tail
                               mass is below 1e-10; the Poisson and Gamma
                               tails are ``special.incomplete_gamma``,
                               consulted only where a sub-gamma bound
                               does not already settle them

and is itself a potential spec (``values_on``, ``intensity``,
``scaled_intensity`` and ``at``), so it goes to the transforms and the
simulator as is.  Each family writes its -U' once, in place and without
the support check, in ``scaled_intensity(x, scale, out)``; ``intensity`` is
the check plus that at scale 1.
The Poisson potential takes ln Gamma from ``special.gammaln``.  The module
also holds the Pearson-system generator, whose density is the normalized
integral of its causal intensity on a grid.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import (FormatError, NonNormalizableError, PotentialError,
                     SupportError, require_integer, require_real)
from .grid import CONTINUOUS, LATTICE, Grid, build_grid
from .potential import EquilibriumDensity, normalize
from .special import digamma, gammaln, incomplete_gamma

DEFAULT_POINTS = 4001
TAIL_MASS = 1e-10
# the exact tails take O(sqrt(v)) terms near the mean; see _tail_negligible
_EXACT_TAIL_MAX = 1e6


def _tail_negligible(t, v, c, exact):
    """Whether a right tail P(X - E[X] >= t) is at most TAIL_MASS.

    X - E[X] is sub-gamma with variance factor v and scale c, so the tail
    is at most exp(-t^2 / (2 (v + c t))) (Boucheron, Lugosi and Massart,
    "Concentration Inequalities", 2013, sec. 2.4).  The exact tail
    ``exact()`` decides only where that bound does not, and only for
    v <= _EXACT_TAIL_MAX; beyond it an undecided tail counts as heavy.
    """
    if t > 0 and t * (t / (v + c * t)) >= -2.0 * math.log(TAIL_MASS):
        return True
    return v <= _EXACT_TAIL_MAX and exact() <= TAIL_MASS


def _asfloat(x):
    return np.asarray(x, dtype=float)


class _Family:
    """Base of the closed-form families: checked fields, one density."""

    _positive = ()  # names of the real fields that must also be > 0
    _lowest = -math.inf  # the support is x >= _lowest

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                require_integer(value, f.name, SupportError, 1)
            else:
                require_real(value, f.name, SupportError,
                             positive=f.name in self._positive)

    def density(self, x):
        return np.exp(-self.normalized_potential(x))

    # the potential-spec protocol over the closed forms

    def values_on(self, grid: Grid):
        return self.potential(grid.points)

    def intensity(self, x):
        x = self._check(x)
        return self.scaled_intensity(x, 1.0, np.empty_like(x))

    def at(self, x):
        return self.potential(x)

    def _check(self, x):
        """x as floats, on the support x >= _lowest."""
        x = _asfloat(x)
        if np.any(x < self._lowest):
            raise SupportError(
                f"{type(self).__name__} support is x >= {self._lowest:g}")
        return x


@dataclass(frozen=True)
class UniformLattice(_Family):
    """Uniform pmf on an N-point lattice; zero causal intensity."""

    n: int

    def potential(self, x):
        return np.zeros_like(_asfloat(x))

    def normalized_potential(self, x):
        return np.full_like(_asfloat(x), math.log(self.n))

    def scaled_intensity(self, x, scale, out):
        return np.multiply(0.0, scale, out)

    def default_grid(self) -> Grid:
        return build_grid(LATTICE, 1, self.n, self.n)


@dataclass(frozen=True)
class Exponential(_Family):
    """Exp(a): constant causal intensity -a on x >= 0."""

    a: float
    _positive = ("a",)
    _lowest = 0.0

    def __post_init__(self):
        super().__post_init__()
        # scaled_intensity's constant, 0-d: a float operand costs a
        # conversion on every call
        object.__setattr__(self, "_neg_a", np.array(-self.a, dtype=float))

    def potential(self, x):
        return self.a * self._check(x)

    def normalized_potential(self, x):
        return self.a * self._check(x) - math.log(self.a)

    def scaled_intensity(self, x, scale, out):
        return np.multiply(self._neg_a, scale, out)

    def default_grid(self) -> Grid:
        return build_grid(CONTINUOUS, 0.0, 40.0 / self.a, DEFAULT_POINTS)


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
        require_real(b, "b", SupportError, positive=True)
        return cls(mu=0.0, sigma=math.sqrt(1.0 / b))

    def potential(self, x):
        z = _asfloat(x) - self.mu
        return z * z / (2.0 * self.sigma ** 2)

    def normalized_potential(self, x):
        return self.potential(x) + 0.5 * math.log(2.0 * math.pi
                                                  * self.sigma ** 2)

    def scaled_intensity(self, x, scale, out):
        np.subtract(x, self.mu, out)
        np.divide(out, -self.sigma ** 2, out)
        return np.multiply(out, scale, out)

    def default_grid(self) -> Grid:
        return build_grid(CONTINUOUS, self.mu - 8.0 * self.sigma,
                          self.mu + 8.0 * self.sigma, DEFAULT_POINTS)


@dataclass(frozen=True)
class LinearConstant(_Family):
    """Superposed intensities -a - b x: density k e^(-a x - b x^2 / 2).

    Completing the square identifies it with n(-a/b, sqrt(1/b)).
    """

    a: float
    b: float
    _positive = ("b",)

    def as_normal(self) -> Normal:
        return Normal(mu=-self.a / self.b, sigma=math.sqrt(1.0 / self.b))

    def potential(self, x):
        x = _asfloat(x)
        return self.a * x + self.b * x * x / 2.0

    def normalized_potential(self, x):
        x = _asfloat(x)
        z = x + self.a / self.b
        return self.b * z * z / 2.0 + 0.5 * math.log(2.0 * math.pi / self.b)

    def scaled_intensity(self, x, scale, out):
        np.multiply(x, self.b, out)
        np.subtract(-self.a, out, out)
        return np.multiply(out, scale, out)

    def default_grid(self) -> Grid:
        return self.as_normal().default_grid()


@dataclass(frozen=True)
class Poisson(_Family):
    """Poi(lam) on the integer lattice; digamma-form causal intensity."""

    lam: float
    _positive = ("lam",)
    _lowest = 0.0

    def potential(self, x):
        x = self._check(x)
        return -x * math.log(self.lam) + gammaln(x + 1.0)

    def normalized_potential(self, x):
        return self.lam + self.potential(x)

    def scaled_intensity(self, x, scale, out):
        np.subtract(math.log(self.lam), digamma(x + 1.0), out)
        return np.multiply(out, scale, out)

    def default_grid(self) -> Grid:
        bound = self.lam + 10.0 * math.sqrt(self.lam)
        if bound > 2.0 ** 53:  # integers above this are not exact floats
            raise SupportError("lambda is too large for a default lattice; "
                               "pass an explicit grid")
        upper = max(30, math.ceil(bound))
        # P(X > upper) = P(upper + 1, lam); Bernstein: c = 1/3
        while not _tail_negligible(
                upper + 1 - self.lam, self.lam, 1.0 / 3.0,
                lambda: incomplete_gamma(upper + 1, self.lam)[0]):
            upper *= 2
        return build_grid(LATTICE, 0, upper, upper + 1)


@dataclass(frozen=True)
class Gamma(_Family):
    """Gamma(alpha, beta) with intensity -(1-alpha)/x - 1/beta on x > 0."""

    alpha: float
    beta: float
    _positive = ("alpha", "beta")

    def __post_init__(self):
        super().__post_init__()
        # intensity's two constants as 0-d arrays, for scaled_intensity
        object.__setattr__(self, "_drift", (
            np.array(-(1.0 - self.alpha), dtype=float),
            np.array(1.0 / self.beta, dtype=float)))

    @classmethod
    def from_intensity(cls, a: float, b: float) -> "Gamma":
        """Intensity form E_c(x) = -a/x - b; requires a < 1 for a valid shape."""
        if not a < 1:
            raise SupportError("intensity form needs a < 1 (shape 1 - a > 0)")
        require_real(b, "b", SupportError, positive=True)
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
        const = math.lgamma(self.alpha) + self.alpha * math.log(self.beta)
        return self.potential(x) + const

    def scaled_intensity(self, x, scale, out):
        shape, rate = self._drift
        if self.alpha == 1.0:  # no log term: E_c(0) is -1/beta, not -0/0
            return np.multiply(-rate, scale, out)
        np.divide(shape, x, out)
        np.subtract(out, rate, out)
        return np.multiply(out, scale, out)

    def default_grid(self) -> Grid:
        upper = self.beta * (self.alpha + 10.0 * math.sqrt(self.alpha) + 15.0)
        # P(X > upper) = Q(alpha, upper / beta); X / beta is sub-gamma with
        # v = alpha, c = 1
        while math.isfinite(upper) and not _tail_negligible(
                upper / self.beta - self.alpha, self.alpha, 1.0,
                lambda: incomplete_gamma(self.alpha, upper / self.beta)[1]):
            upper *= 2.0
        if not math.isfinite(upper):
            raise SupportError("alpha * beta is too large for a default grid; "
                               "pass an explicit grid")
        # keep the grid off the x = 0 singularity of the log term
        lower = 0.5 * upper / (DEFAULT_POINTS - 1)
        return build_grid(CONTINUOUS, lower, upper, DEFAULT_POINTS)


FAMILIES = {"uniform": UniformLattice, "exponential": Exponential,
            "normal": Normal, "linear_constant": LinearConstant,
            "linear-constant": LinearConstant, "poisson": Poisson,
            "gamma": Gamma}


def make_family(name: str, params: dict) -> _Family:
    """Build the family ``name`` from its fields; None values take defaults,
    and a name that is not one of its fields is a FormatError."""
    cls = FAMILIES.get(name)
    if cls is None:
        raise FormatError(f"unknown family {name!r}")
    unknown = sorted(set(params) - {f.name for f in fields(cls)})
    if unknown:
        raise FormatError(f"family {name!r} has no fields {unknown}")
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
        for name in ("a", "b0", "b1", "b2"):
            require_real(getattr(self, name), name, PotentialError)
        if self.sign not in ("standard", "paper"):
            raise PotentialError(f"unknown Pearson sign {self.sign!r}")

    def denominator(self, x):
        x = _asfloat(x)
        return self.b0 + self.b1 * x + self.b2 * x * x


@dataclass(frozen=True)
class PearsonPotential:
    """Potential spec obtained by integrating a Pearson intensity."""

    params: PearsonParams

    def intensity(self, x):
        p = self.params
        x = _asfloat(x)
        den = p.denominator(x)
        if not (np.all(den > 0.0) or np.all(den < 0.0)):
            raise PotentialError(
                "Pearson denominator has a root inside the domain")
        s = -1.0 if p.sign == "standard" else 1.0
        return s * (x - p.a) / den

    def values_on(self, grid: Grid):
        ec = self.intensity(grid.points)
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
    """Grid density generated by the Pearson intensity; a slope pointing
    outward at a grid edge is rejected (see ``PearsonPotential``)."""
    if grid.kind != CONTINUOUS:
        raise PotentialError("Pearson densities need a continuous grid")
    return normalize(PearsonPotential(p), grid)
