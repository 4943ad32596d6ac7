"""Gamma-function evaluations for the catalog, in NumPy alone.

* ``digamma(x)``  psi(x), behind the Poisson-family intensity.
* ``gammaln(x)``  ln Gamma(x), behind the Poisson-family potential.
* ``incomplete_gamma(a, x)``  the regularized incomplete gamma pair
  (P, Q), behind the Poisson and Gamma tails of the default grids.

``digamma`` and ``gammaln`` share one structure: the recurrence
f(x+1) = f(x) + g(x) pushes the argument above 10, then an asymptotic
(Bernoulli-number) series finishes.  ``digamma`` is accurate to 1e-13 in
absolute terms, comfortably inside the 1e-12 budget the catalog
consistency checks require.  ``gammaln`` is 0 at 1 and 2 exactly and
accurate to 1e-13 relative where |ln Gamma| > 0.1; nearer its zeros the
error is below 1e-14 in absolute terms.

``incomplete_gamma`` sums the power series for x < a + 1 and evaluates the
continued fraction by the modified Lentz method otherwise (DLMF 8.7.1,
8.9.2; Numerical Recipes, 3rd ed., sec. 6.2).  The common prefactor
x^a e^(-x) / Gamma(a) is formed as a log1pmx((x - a)/a) + ln(a/(2 pi))/2
- stirlerr(a), which keeps it accurate for large a where the naive
exp(a ln x - x - ln Gamma(a)) cancels.  Both expansions take O(sqrt(a))
terms when x is near a, so large a near the mean is slow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SupportError

_SHIFT = 10.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = 2.0 ** -53
_TINY = 1e-300
# 1/(2j + 3) for the log1pmx series; 17 terms reach 1e-17 for |t| < 1/2
_LOG1PMX_COEFFS = 1.0 / np.arange(3.0, 37.0, 2.0)


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


def _stirlerr(a):
    """ln Gamma(a + 1) - (a + 1/2) ln a + a - ln(2 pi)/2 for arrays a > 0."""
    big, small = np.maximum(a, _SHIFT), np.minimum(a, _SHIFT)
    return np.where(a >= _SHIFT, _stirling_tail(big),
                    gammaln(small) - (small - 0.5) * np.log(small) + small
                    - _HALF_LOG_2PI)


def _log_prefactor(a, x):
    """ln(x^a e^(-x) / Gamma(a)) for arrays a > 0, x >= 0."""
    with np.errstate(over="ignore", divide="ignore"):
        t = (x - a) / a
        # ln(x / a), also where t overflows because a is tiny
        log_ratio = np.where(np.isinf(t), np.log(x) - np.log(a), np.log1p(t))
    near = np.abs(t) < 0.5
    # ln(1 + t) - t = -t u + 2 u^3 sum_j u^(2j) / (2j + 3), u = t / (2 + t)
    tn = np.where(near, t, 0.0)
    u = tn / (2.0 + tn)
    series = -tn * u + 2.0 * u ** 3 * np.polynomial.polynomial.polyval(
        u * u, _LOG1PMX_COEFFS)
    body = np.where(near, a * series, a * log_ratio - (x - a))
    return body + 0.5 * np.log(a / (2.0 * math.pi)) - _stirlerr(a)


def _power_series(a, x):
    """sum_n x^n / (a (a+1) ... (a+n)), so that P = prefactor * sum."""
    total = 1.0 / a
    term, ap, xs, idx = total.copy(), a.copy(), x, np.arange(a.size)
    while idx.size:
        ap = ap + 1.0
        term = term * (xs / ap)
        total[idx] += term
        # NaN compares False, so it cannot keep the loop alive
        keep = np.abs(term) >= _EPS * total[idx]
        term, ap, xs, idx = term[keep], ap[keep], xs[keep], idx[keep]
    return total


def _continued_fraction(a, x):
    """Modified Lentz value of the fraction with Q = prefactor * value."""
    out = np.empty_like(a)
    b = x + 1.0 - a
    c = np.full_like(a, 1.0 / _TINY)
    d = 1.0 / b
    h, idx, i = d.copy(), np.arange(a.size), 0
    while idx.size:
        i += 1
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        delta = d * c
        h = h * delta
        keep = np.abs(delta - 1.0) >= _EPS
        out[idx[~keep]] = h[~keep]
        a, b, c, d, h, idx = (v[keep] for v in (a, b, c, d, h, idx))
    return out


def incomplete_gamma(a, x):
    """Regularized incomplete gamma functions (P(a, x), Q(a, x)).

    P = gamma(a, x) / Gamma(a) and Q = 1 - P, for finite a > 0 and x >= 0
    (scalars or arrays, broadcast together).  Whichever of P and Q the
    expansion yields is returned as computed and the other is 1 minus it.
    P(k + 1, lam) is the Poisson(lam) tail mass above k.
    """
    a = _positive(a, "incomplete_gamma requires finite a > 0")
    a, x = np.broadcast_arrays(a, np.asarray(x, dtype=float))
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise SupportError("incomplete_gamma requires finite x >= 0")
    a1, x1 = np.atleast_1d(a).ravel(), np.atleast_1d(x).ravel()
    lower = x1 < a1 + 1.0
    pre = np.exp(_log_prefactor(a1, x1))
    p = np.empty_like(a1)
    q = np.empty_like(a1)
    p[lower] = pre[lower] * _power_series(a1[lower], x1[lower])
    q[lower] = 1.0 - p[lower]
    q[~lower] = pre[~lower] * _continued_fraction(a1[~lower], x1[~lower])
    p[~lower] = 1.0 - q[~lower]
    return _out(a, p.reshape(a.shape)), _out(a, q.reshape(a.shape))
