"""Closed-form potential/intensity/density triples for the standard families.

``FAMILIES`` names the families for the CLI; ``SPECS`` adds the Pearson
and polynomial specs to them, the one registry of JSON potential specs,
and ``make_family`` builds any of them from its fields, each checked by
``errors.require_real`` or ``require_integer``.  Each family exposes

* ``potential(x)``             an (unnormalized) potential U with f = k e^(-U)
* ``normalized_potential(x)``  U_tilde = -ln f, exact closed form
* ``intensity(x)``             causal intensity -dU_tilde/dx
* ``density(x)``               e^(-U_tilde), shared by all families
* ``default_grid()``           a support truncated so that the lost tail
                               mass is below 1e-10: the Chernoff bound
                               settles every Poisson tail; a sub-gamma
                               bound settles the Gamma tail, else
                               ``_gamma_tail`` does, on the small domain
                               that reaches it

and is itself a potential spec (``values_on``, ``intensity``,
``euler_map`` and ``at``), so it goes to the transforms and the simulator
as is.  Each family writes its -U' once, in place and without the support
check, in ``scaled_intensity(x, scale, out)``; ``intensity`` is the check
plus that at scale 1, and ``euler_map(dt)`` is that at scale dt plus x,
so no drift raises (Poisson's psi is the unchecked ``special._digamma``):
off the support it may give NaN or inf.  The module also holds ``PearsonPotential``, the Pearson system: minus the integral of
its causal intensity on a grid, so that ``normalize(PearsonPotential(...),
grid)`` is its density on either grid kind.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import (FormatError, NonNormalizableError, PotentialError,
                     SupportError, require_integer, require_real)
from .grid import CONTINUOUS, LATTICE, Grid, build_grid
from .potential import PolynomialPotential
from .special import _digamma, gammaln

DEFAULT_POINTS = 4001
TAIL_MASS = 1e-10
# _gamma_tail holds only for small a.  The bound decides every tail with
# a >= 22.9 at its first offset, but above a ~ 1e34 that offset rounds
# away (t = 0), and there the cap decides: an undecided tail counts as heavy.
_EXACT_TAIL_MAX = 32.0


def _tail_negligible(a, x):
    """Whether Q(a, x) = P(X >= x), X ~ Gamma(a, 1), is at most TAIL_MASS.

    X - a is sub-gamma with variance factor a and scale 1, so the tail is
    at most exp(-t^2 / (2 (a + t))) at t = x - a (Boucheron, Lugosi and
    Massart, "Concentration Inequalities", 2013, sec. 2.4).  The exact
    ``_gamma_tail`` decides only where that bound does not, and only for
    a <= _EXACT_TAIL_MAX; beyond it an undecided tail counts as heavy.
    """
    t = x - a
    if t > 0 and t * (t / (a + t)) >= -2.0 * math.log(TAIL_MASS):
        return True
    return a <= _EXACT_TAIL_MAX and _gamma_tail(a, x) <= TAIL_MASS


def _chernoff_negligible(n, lam):
    """Whether P(X >= n), X ~ Poi(lam), is at most TAIL_MASS by the Chernoff
    bound e^(-lam) (e lam / n)^n for n > lam (Boucheron, Lugosi and
    Massart, 2013, sec. 2.2), in logs: n log1p((n - lam) / lam) - (n - lam)
    at least -ln TAIL_MASS."""
    t = n - lam
    return t > 0 and n * math.log1p(t / lam) - t >= -math.log(TAIL_MASS)


def _gamma_tail(a, x):
    """Q(a, x) = Gamma(a, x) / Gamma(a) for x > a + 1: the modified Lentz
    continued fraction (Numerical Recipes, 3rd ed., sec. 6.2) times the plain
    prefactor exp(a ln x - x - lgamma(a)), which cancels for large a."""
    b = x + 1.0 - a
    c, d = math.inf, 1.0 / b  # c = 1/0: the fraction has no leading term
    h, i, delta = d, 0, 0.0
    while abs(delta - 1.0) > 2.0 ** -52:
        i += 1
        an, b = i * (a - i), b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
    return math.exp(a * math.log(x) - x - math.lgamma(a)) * h


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
        object.__setattr__(self, "_drift",
                           tuple(map(_asfloat, self._constants())))

    def _constants(self):  # scaled_intensity's, made 0-d arrays above
        return ()

    def density(self, x):
        return np.exp(-self.normalized_potential(x))

    # the potential-spec protocol over the closed forms

    def values_on(self, grid: Grid):
        return self.potential(grid.points)

    def intensity(self, x):
        x = self._check(x)
        return self.scaled_intensity(x, 1.0, np.empty_like(x))

    def euler_map(self, dt):
        """x + dt * intensity(x), unchecked, as the map ``(x, out) -> out``."""
        dt = np.array(dt)
        return lambda x, out: np.add(x, self.scaled_intensity(x, dt, out), out)

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

    def _constants(self):
        return (-self.a,)

    def potential(self, x):
        return self.a * self._check(x)

    def normalized_potential(self, x):
        return self.a * self._check(x) - math.log(self.a)

    def scaled_intensity(self, x, scale, out):
        return np.multiply(self._drift[0], scale, out)

    def default_grid(self) -> Grid:
        return build_grid(CONTINUOUS, 0.0, 40.0 / self.a, DEFAULT_POINTS)


@dataclass(frozen=True)
class Normal(_Family):
    """n(mu, sigma): linear causal intensity, harmonic-oscillator potential."""

    mu: float = 0.0
    sigma: float = 1.0

    def _constants(self):
        # sigma**2 is a log argument and a divisor below: normal, so that
        # 1 / sigma**2 is finite
        if not (self.sigma > 0 and sys.float_info.min <= self.sigma
                * self.sigma < math.inf):
            raise SupportError("sigma must be positive and sigma**2 finite "
                               "and normal")
        return self.mu, -self.sigma ** 2

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
        np.subtract(x, self._drift[0], out)
        np.divide(out, self._drift[1], out)
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

    def _constants(self):
        return self.b, -self.a

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
        np.multiply(x, self._drift[0], out)
        np.subtract(self._drift[1], out, out)
        return np.multiply(out, scale, out)

    def default_grid(self) -> Grid:
        return self.as_normal().default_grid()


@dataclass(frozen=True)
class Poisson(_Family):
    """Poi(lam) on the integer lattice; digamma-form causal intensity."""

    lam: float
    _positive = ("lam",)
    _lowest = 0.0

    def _constants(self):
        return (math.log(self.lam),)

    def potential(self, x):
        x, log_lam = self._check(x), math.log(self.lam)
        # -inf + inf past x ~ 2.5e305, where ln Gamma(x+1) ~ x (ln x - 1)
        with np.errstate(all="ignore"):
            u = -x * log_lam + gammaln(x + 1.0)
            if np.isnan(u).any():
                u = np.where(np.isnan(u), x * (np.log(x) - 1.0 - log_lam), u)
        return u

    def normalized_potential(self, x):
        return self.lam + self.potential(x)

    def scaled_intensity(self, x, scale, out):
        np.subtract(self._drift[0], _digamma(x + 1.0), out)
        return np.multiply(out, scale, out)

    def default_grid(self) -> Grid:
        bound = self.lam + 10.0 * math.sqrt(self.lam)
        if bound > 2.0 ** 53:  # integers above this are not exact floats
            raise SupportError("lambda is too large for a default lattice; "
                               "pass an explicit grid")
        upper = max(30, math.ceil(bound))
        # P(X > upper) = P(X >= upper + 1)
        while not _chernoff_negligible(upper + 1, self.lam):
            upper *= 2
        return build_grid(LATTICE, 0, upper, upper + 1)


@dataclass(frozen=True)
class Gamma(_Family):
    """Gamma(alpha, beta) with intensity -(1-alpha)/x - 1/beta on x > 0."""

    alpha: float
    beta: float
    _positive = ("alpha", "beta")

    def _constants(self):
        return -(1.0 - self.alpha), 1.0 / self.beta

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
        try:  # lgamma overflows for alpha above ~2.6e305
            const = math.lgamma(self.alpha)
        except OverflowError:
            raise SupportError("ln Gamma(alpha) overflows a float") from None
        const += self.alpha * math.log(self.beta)
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
        # P(X > upper) = Q(alpha, upper / beta)
        while math.isfinite(upper) and not _tail_negligible(
                self.alpha, upper / self.beta):
            upper *= 2.0
        if not math.isfinite(upper):
            raise SupportError("alpha * beta is too large for a default grid; "
                               "pass an explicit grid")
        # keep the grid off the x = 0 singularity of the log term
        lower = 0.5 * upper / (DEFAULT_POINTS - 1)
        return build_grid(CONTINUOUS, lower, upper, DEFAULT_POINTS)


# ---------------------------------------------------------------------------
# Pearson system


@dataclass(frozen=True)
class PearsonPotential:
    """Potential spec of causal intensity s (x - a) / (b0 + b1 x + b2 x^2).

    sign="paper" takes the form literally (s = 1); sign="standard" negates
    it (s = -1), the convention under which b0 > 0, b1 = b2 = 0 yields
    normalizable (normal) densities.  The potential is minus the grid's
    antiderivative of the intensity, so on a lattice ln f(x+1) - ln f(x)
    is the intensity at x.
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

    def intensity(self, x):
        x = _asfloat(x)
        den = self.b0 + self.b1 * x + self.b2 * x * x
        if not (np.all(den > 0.0) or np.all(den < 0.0)):
            raise PotentialError(
                "Pearson denominator has a root inside the domain")
        s = -1.0 if self.sign == "standard" else 1.0
        return s * (x - self.a) / den

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


# ---------------------------------------------------------------------------
# The registry of JSON potential specs


FAMILIES = {"uniform": UniformLattice, "exponential": Exponential,
            "normal": Normal, "linear_constant": LinearConstant,
            "linear-constant": LinearConstant, "poisson": Poisson,
            "gamma": Gamma}
SPECS = {**FAMILIES, "pearson": PearsonPotential,
         "polynomial": PolynomialPotential}


def make_family(name: str, params: dict):
    """Build the spec ``name`` of SPECS from its fields.  An unset field
    takes its default; a name that is not one of its fields, or a missing
    one, is a FormatError, and the class checks the values."""
    cls = SPECS.get(name)
    if cls is None:
        raise FormatError(f"unknown family {name!r}")
    unknown = sorted(set(params) - {f.name for f in fields(cls)})
    if unknown:
        raise FormatError(f"family {name!r} has no fields {unknown}")
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.name not in params]
    if missing:
        raise FormatError(f"family {name!r} is missing {missing}")
    return cls(**params)
