"""1-D supports: uniform continuous grids and integer lattices.

All tabulated quantities in the library live on a :class:`Grid`, and the
grid is the only place that knows how each kind integrates and
differentiates.  Continuous grids use trapezoid quadrature, a second-order
difference stencil and its inverse, the cumulative trapezoid.  Lattices
use plain summation, the forward difference v(x+1) - v(x), undefined (NaN)
at the last point, and its inverse, the cumulative sum.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError

CONTINUOUS = "continuous"
LATTICE = "lattice"


@dataclass(frozen=True)
class Grid:
    """Discretized 1-D support.

    Parameters
    ----------
    kind : {"continuous", "lattice"}
        Uniform continuous grid or consecutive-integer lattice.
    lower, upper : float
        Support bounds, ``lower < upper``.
    n_points : int
        Number of grid points, at least 3.
    """

    kind: str
    lower: float
    upper: float
    n_points: int

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, LATTICE):
            raise GridError(f"unknown grid kind {self.kind!r}")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise GridError("grid bounds must be finite")
        if not self.lower < self.upper:
            raise GridError(
                f"reversed or empty bounds: lower={self.lower}, upper={self.upper}"
            )
        if (isinstance(self.n_points, bool)
                or not isinstance(self.n_points, numbers.Integral)):
            raise GridError(
                f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 3:
            raise GridError(f"need at least 3 points, got {self.n_points}")
        if self.kind == LATTICE:
            if self.lower != int(self.lower) or self.upper != int(self.upper):
                raise GridError("lattice bounds must be integers")
            expected = int(self.upper) - int(self.lower) + 1
            if self.n_points != expected:
                raise GridError(
                    f"lattice from {self.lower} to {self.upper} has {expected} "
                    f"points, got n_points={self.n_points}"
                )

    @property
    def spacing(self) -> float:
        if self.kind == LATTICE:
            return 1.0
        return (self.upper - self.lower) / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        if self.kind == LATTICE:
            pts = np.arange(int(self.lower), int(self.upper) + 1, dtype=float)
        else:
            pts = np.linspace(self.lower, self.upper, self.n_points)
        pts.setflags(write=False)
        return pts

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights: trapezoid for continuous, ones for lattice."""
        if self.kind == LATTICE:
            w = np.ones(self.n_points)
        else:
            w = np.full(self.n_points, self.spacing)
            w[0] = w[-1] = 0.5 * self.spacing
        w.setflags(write=False)
        return w

    def quadrature(self, values: np.ndarray) -> float:
        """Integrate (continuous) or sum (lattice) tabulated values."""
        values = np.asarray(values)
        if values.shape != (self.n_points,):
            raise GridError(
                f"expected {self.n_points} values, got shape {values.shape}"
            )
        return float(self.weights @ values)

    def derivative(self, values: np.ndarray) -> np.ndarray:
        """dv/dx: second order, central inside and one-sided at the ends;
        on lattices v(x+1) - v(x), NaN at the last point."""
        v = np.asarray(values, dtype=float)
        if self.kind == LATTICE:
            return np.append(v[1:] - v[:-1], np.nan)
        d = np.empty_like(v)
        h2 = 2.0 * self.spacing
        d[1:-1] = (v[2:] - v[:-2]) / h2
        d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / h2
        d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / h2
        return d

    def log_derivative(self, values: np.ndarray) -> np.ndarray:
        """d ln v / dx of positive values: v'/v; on lattices the forward
        difference of ln v."""
        if self.kind == LATTICE:
            return self.derivative(np.log(values))
        return self.derivative(values) / values

    def antiderivative(self, slopes: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`derivative`, zero at the first point; on
        lattices it never reads the undefined last slope."""
        s = np.asarray(slopes, dtype=float)
        steps = (s[:-1] if self.kind == LATTICE
                 else 0.5 * self.spacing * (s[1:] + s[:-1]))
        return np.concatenate(([0.0], np.cumsum(steps)))

    def same_as(self, other: "Grid") -> bool:
        return (
            self.kind == other.kind
            and self.lower == other.lower
            and self.upper == other.upper
            and self.n_points == other.n_points
        )

    def require_same(self, other: "Grid", what: str = "operands"):
        if not self.same_as(other):
            raise GridError(f"{what} live on different grids")


def build_grid(kind: str, lower: float, upper: float, n_points: int) -> Grid:
    """Construct a validated grid. See :class:`Grid` for the invariants."""
    return Grid(kind=kind, lower=float(lower), upper=float(upper),
                n_points=n_points)
