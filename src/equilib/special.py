"""Gamma-function evaluations for the catalog, in NumPy alone.

* ``digamma(x)``  psi(x), behind the Poisson-family intensity.
* ``gammaln(x)``  ln Gamma(x), behind the Poisson-family potential.

Both take one fixed shift, f(x) = f(x + 10) - sum_{k<10} g(x + k) (g = 1/x
for psi, ln x for ln Gamma), then an asymptotic (Bernoulli-number) series,
so a call makes the same ufunc calls whatever its input.  ``digamma`` errs
by under 1e-14 max(1, |psi|), inside the catalog checks' 1e-12 budget.
``gammaln`` is 0 at 1 and 2 exactly and accurate to 1e-13 relative where
|ln Gamma| > 0.1; near 1, 2 and 3 its absolute error is up to about
1.3e-14, from the shift's cancellation.  The public functions check the
support, finite x > 0; off it the unchecked ``_digamma`` of the Poisson
drift returns NaN or inf, in the same time, and never raises.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SupportError

_SHIFT = 10
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _positive(x, message):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise SupportError(message)
    return x


def _shifted(x, step):
    """x + _SHIFT and -sum(step(x + k)) over k < _SHIFT, for every point."""
    acc, term = np.zeros_like(x), np.empty_like(x)
    for k in range(_SHIFT):
        np.subtract(acc, step(np.add(x, k, term), term), acc)
    return x + _SHIFT, acc


def _out(x, out):
    return float(out) if x.ndim == 0 else out


def _digamma(x):
    """psi(x) for float arrays, unchecked."""
    y, acc = _shifted(x, np.reciprocal)
    r = 1.0 / y
    r2 = r * r  # underflows to 0, where 1 / (y * y) would overflow first
    tail = r2 * (1.0 / 12 - r2 * (1.0 / 120 - r2 * (
        1.0 / 252 - r2 * (1.0 / 240 - r2 * (1.0 / 132)))))
    return acc + np.log(y) - 0.5 * r - tail


def digamma(x):
    """psi(x) for real x > 0 (scalar or array)."""
    x = _positive(x, "digamma requires finite x > 0")
    return _out(x, _digamma(x))


def gammaln(x):
    """ln Gamma(x) for real x > 0 (scalar or array)."""
    x = _positive(x, "gammaln requires finite x > 0")
    y, acc = _shifted(x, np.log)
    r = 1.0 / y
    r2 = r * r  # the tail is ln Gamma(y) - (y - 1/2) ln y + y - ln(2 pi)/2
    tail = r * (1.0 / 12 - r2 * (1.0 / 360 - r2 * (1.0 / 1260 - r2 * (
        1.0 / 1680 - r2 * (1.0 / 1188 - r2 * (691.0 / 360360))))))
    out = acc + (y - 0.5) * np.log(y) - y + _HALF_LOG_2PI + tail
    return _out(x, np.where((x == 1.0) | (x == 2.0), 0.0, out))
