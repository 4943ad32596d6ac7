"""Exception types shared across the library."""


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
