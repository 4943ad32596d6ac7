"""Exception types shared across the library, and the one rule for
numeric fields: a real is a finite ``numbers.Real`` and a count a
``numbers.Integral``, never a ``bool``; each check raises its caller's
error class.
"""

import math
import numbers


class EquilibError(ValueError):
    """Base class for all library errors."""


class GridError(EquilibError):
    """Invalid grid construction or mismatched grids."""


class PotentialError(EquilibError):
    """Potential is non-finite or otherwise unusable on the requested grid."""


class SupportError(EquilibError):
    """Evaluation point lies outside a family's natural support."""


class NonNormalizableError(EquilibError):
    """The statistical sum is zero, infinite or NaN on the given grid."""


class MomentRangeError(EquilibError):
    """Target moment is outside the attainable range on the grid."""


class SampleError(EquilibError):
    """Sample set is empty, too small, or entirely out of range."""


class StabilityError(EquilibError):
    """Time step violates the explicit-integrator stability guard."""


class FormatError(EquilibError):
    """Malformed CSV table, JSON spec or command-line parameters."""


def require_real(value, name: str, error: type, positive: bool = False):
    """Raise ``error`` unless ``value`` is a finite real (> 0 if ``positive``)."""
    try:
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value) and (value > 0 or not positive))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        what = "positive and finite" if positive else "a finite real number"
        raise error(f"{name} must be {what}, got {value!r}")


def require_integer(value, name: str, error: type, minimum: int):
    """Raise ``error`` unless ``value`` is an integer >= ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
