"""Gamma-function evaluations for the catalog, in NumPy alone.

* ``digamma(x)``  psi(x), behind the Poisson-family intensity.
* ``gammaln(x)``  ln Gamma(x), behind the Poisson-family potential.

``digamma`` and ``gammaln`` share one structure: the recurrence
f(x+1) = f(x) + g(x) pushes the argument above 10, then an asymptotic
(Bernoulli-number) series finishes.  ``digamma`` is accurate to 1e-13 in
absolute terms, comfortably inside the 1e-12 budget the catalog
consistency checks require.  ``gammaln`` is 0 at 1 and 2 exactly and
accurate to 1e-13 relative where |ln Gamma| > 0.1; nearer its zeros the
error is below 1e-14 in absolute terms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SupportError

_SHIFT = 10.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _positive(x, message):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise SupportError(message)
    return x


def _shift_up(x, step):
    """y >= _SHIFT reached from x by unit steps, and -sum(step(x + i))."""
    acc = np.zeros_like(x)
    y = x.copy()
    small = y < _SHIFT
    while small.any():
        acc[small] -= step(y[small])
        y[small] += 1.0
        small = y < _SHIFT
    return y, acc


def _out(x, out):
    return float(out) if x.ndim == 0 else out


def digamma(x):
    """psi(x) for real x > 0 (scalar or array)."""
    x = _positive(x, "digamma requires finite x > 0")
    y, acc = _shift_up(np.atleast_1d(x), np.reciprocal)
    inv2 = 1.0 / (y * y)
    tail = inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (
        1.0 / 252 - inv2 * (1.0 / 240 - inv2 * (1.0 / 132)))))
    return _out(x, (acc + np.log(y) - 0.5 / y - tail).reshape(x.shape))


def _stirling_tail(y):
    """ln Gamma(y) - (y - 1/2) ln y + y - ln(2 pi)/2 for y >= _SHIFT."""
    r = 1.0 / y
    r2 = r * r
    return r * (1.0 / 12 - r2 * (1.0 / 360 - r2 * (1.0 / 1260 - r2 * (
        1.0 / 1680 - r2 * (1.0 / 1188 - r2 * (691.0 / 360360))))))


def gammaln(x):
    """ln Gamma(x) for real x > 0 (scalar or array)."""
    x = _positive(x, "gammaln requires finite x > 0")
    y, acc = _shift_up(np.atleast_1d(x), np.log)
    out = acc + (y - 0.5) * np.log(y) - y + _HALF_LOG_2PI + _stirling_tail(y)
    return _out(x, np.where((x == 1.0) | (x == 2.0), 0.0,
                            out.reshape(x.shape)))
