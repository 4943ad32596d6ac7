import math

import numpy as np
import pytest
import scipy.special

from equilib import Gamma, Poisson, SupportError, digamma, gammaln, special
from equilib.catalog import (_EXACT_TAIL_MAX, DEFAULT_POINTS, TAIL_MASS,
                             _chernoff_negligible, _gamma_tail,
                             _tail_negligible)

EULER_GAMMA = 0.5772156649015329


def test_digamma_at_one_is_minus_euler_gamma():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)


def test_digamma_recurrence():
    # psi(x + 1) = psi(x) + 1/x, checked off the shift lattice
    for x in [0.1, 0.7, 2.3, 9.5, 25.0]:
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x,
                                                 abs=1e-12)


def test_digamma_against_library_oracle():
    xs = np.concatenate([np.linspace(1e-3, 1, 200),
                         np.linspace(1, 500, 500)])
    assert np.max(np.abs(digamma(xs) - scipy.special.digamma(xs))) < 1e-12


def test_digamma_half_integer_closed_form():
    # psi(1/2) = -gamma - 2 ln 2
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * np.log(2),
                                         abs=1e-12)


def test_digamma_rejects_nonpositive():
    with pytest.raises(SupportError):
        digamma(0.0)
    with pytest.raises(SupportError):
        digamma(-1.5)


# ---------------------------------------------------------------------------
# gammaln


GAMMALN_XS = np.concatenate([np.geomspace(1e-300, 1e300, 601),
                             np.linspace(1e-3, 30.0, 3001),
                             np.arange(1.0, 5002.0)])


def test_gammaln_against_library_oracle():
    ref = scipy.special.gammaln(GAMMALN_XS)
    err = np.abs(gammaln(GAMMALN_XS) - ref)
    # relative 1e-13, and absolute 1e-13 near the zeros at 1 and 2
    assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    big = np.abs(ref) > 0.1
    assert np.max(err[big] / np.abs(ref[big])) < 1e-13


def test_gammaln_shapes():
    assert isinstance(gammaln(4.0), float)
    assert gammaln(4.0) == pytest.approx(math.log(6.0), rel=1e-15)
    assert isinstance(gammaln(np.float64(0.5)), float)
    grid = GAMMALN_XS[:600].reshape(20, 30)
    got = gammaln(grid)
    assert got.shape == (20, 30)
    assert np.array_equal(got.ravel(), gammaln(grid.ravel()))
    assert gammaln(np.array([7.5])).shape == (1,)


def test_gammaln_is_zero_at_one_and_two():
    assert gammaln(1.0) == 0.0 and gammaln(2.0) == 0.0
    assert np.array_equal(gammaln(np.array([1.0, 2.0])), [0.0, 0.0])


@pytest.mark.parametrize("x", [0.0, -1.0, np.nan, np.inf])
def test_gammaln_rejects_outside_support(x):
    with pytest.raises(SupportError):
        gammaln(x)


def _ufunc_calls(f, x, monkeypatch):
    """The ufunc calls, in order, that f(x) makes on x and what it derives
    from x, past the support check."""
    calls = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls.append((ufunc.__name__, method))
            plain = [np.asarray(a) for a in inputs]
            out = kwargs.get("out")
            if out is not None:
                kwargs["out"] = tuple(np.asarray(o) for o in out)
            result = getattr(ufunc, method)(*plain, **kwargs)
            return out[0] if out is not None else \
                np.asarray(result).view(Counted)

    positive = special._positive
    with monkeypatch.context() as m:
        m.setattr(special, "_positive",
                  lambda x, message: (positive(x, message), x)[1])
        f(np.asarray(x, dtype=float).view(Counted))
    return calls


@pytest.mark.parametrize("f", [digamma, gammaln])
def test_cost_does_not_depend_on_the_input(f, monkeypatch):
    # one fixed shift: the same ufunc calls for points below the shift,
    # above it, across it and across the float range
    inputs = [np.full(64, 1e-3), np.full(64, 50.0),
              np.linspace(1e-3, 30.0, 64), np.geomspace(1e-300, 1e300, 64),
              np.arange(1.0, 65.0)]
    calls = [_ufunc_calls(f, x, monkeypatch) for x in inputs]
    assert len(calls[0]) > special._SHIFT
    assert all(c == calls[0] for c in calls)


# ---------------------------------------------------------------------------
# the default grids' tail tests: the Poisson Chernoff bound at any n, and
# the Gamma exact tail over the domain that reaches it, a at most
# _EXACT_TAIL_MAX and the tail at least 15 past the mean


def _assert_relative(got, ref):
    if ref > 1e-290:  # below it the tails lose digits to subnormals
        assert abs(got - ref) <= 1e-12 * ref, (got, ref)
    else:
        assert got <= 1e-280, (got, ref)


def _assert_chernoff_decision(n, lam, ref):
    """A tail that the Chernoff test calls negligible is so, and the bound
    it tests is one: it is at least the tail."""
    bound = math.exp(-(n * math.log1p((n - lam) / lam) - (n - lam)))
    assert ref <= bound * (1.0 + 1e-9), (n, lam, ref, bound)
    if _chernoff_negligible(n, lam):
        assert ref <= TAIL_MASS, (n, lam, ref)


def test_poisson_tail_against_library_oracle():
    lams = np.concatenate([np.geomspace(1e-9, 1e15, 300),
                           np.linspace(5.5, 8.2, 28)])
    for lam in map(float, lams):
        first = max(31, math.ceil(lam + 10.0 * math.sqrt(lam)) + 1)
        for n in {31, 61, 121, first, 2 * first}:
            if n > lam:
                # P(X >= n) = P(X > n - 1)
                _assert_chernoff_decision(
                    n, lam, scipy.special.pdtrc(n - 1, lam))


@pytest.mark.parametrize("a", np.geomspace(1e-3, 1e6, 28))
def test_incomplete_gamma_against_library_oracle(a):
    # Gamma(a, beta)'s tail test at offsets from 15 past the mean to twice
    # the grid's first upper: Q(a, x) from _gamma_tail where it is used, a
    # tail called negligible is so, and below the cap the call is exact
    a = float(a)
    first = a + 10.0 * math.sqrt(a) + 15.0
    for x in map(float, np.linspace(a + 15.0, 2.0 * first, 151)):
        ref = scipy.special.gammaincc(a, x)
        if a <= _EXACT_TAIL_MAX:
            _assert_relative(_gamma_tail(a, x), ref)
        negligible = _tail_negligible(a, x)
        if negligible:
            assert ref <= TAIL_MASS * (1.0 + 1e-12), (x, ref)
        elif a <= _EXACT_TAIL_MAX:
            assert ref > TAIL_MASS * (1.0 - 1e-12), (x, ref)


@pytest.mark.parametrize("lam", [0.1, 3.0, 50.0, 1e3, 1e6])
def test_poisson_tail_is_lower_incomplete_gamma(lam):
    # P(X >= n) = P(n, lam), at n from just past the mean to twice the
    # grid's first upper, with the tail test judged against it
    first = max(30, math.ceil(lam + 10.0 * math.sqrt(lam)))
    ns = np.unique(np.round(np.linspace(math.floor(lam) + 1, 2 * first + 1,
                                        400)))
    decided = 0
    for n in map(int, ns):
        ref = scipy.special.gammainc(n, lam)
        _assert_chernoff_decision(n, lam, ref)
        decided += _chernoff_negligible(n, lam)
    assert 0 < decided < len(ns)


def test_gamma_tail_against_library_oracle():
    alphas = np.concatenate([[5e-324], np.geomspace(1e-300, 1e-3, 30),
                             np.geomspace(1e-3, _EXACT_TAIL_MAX, 200)])
    for a in map(float, alphas):
        first = a + 10.0 * math.sqrt(a) + 15.0
        for x in np.linspace(a + 15.0, 2.0 * first, 25):
            _assert_relative(_gamma_tail(a, float(x)),
                             scipy.special.gammaincc(a, x))


# ---------------------------------------------------------------------------
# default grids against the same loops run with SciPy's tails


def _scipy_poisson_grid(lam):
    upper = max(30, math.ceil(lam + 10.0 * math.sqrt(lam)))
    while scipy.special.pdtrc(upper, lam) > TAIL_MASS:
        upper *= 2
    return 0, upper, upper + 1


def _scipy_gamma_grid(alpha, beta):
    upper = beta * (alpha + 10.0 * math.sqrt(alpha) + 15.0)
    while scipy.special.gammaincc(alpha, upper / beta) > TAIL_MASS:
        upper *= 2.0
    return 0.5 * upper / (DEFAULT_POINTS - 1), upper, DEFAULT_POINTS


@pytest.mark.parametrize("lam", np.geomspace(1e-6, 2.0 ** 52, 80))
def test_poisson_default_grid_matches_scipy_loop(lam):
    grid = Poisson(lam).default_grid()
    assert (grid.lower, grid.upper, grid.n_points) == _scipy_poisson_grid(lam)


@pytest.mark.parametrize("alpha", np.geomspace(1e-6, 1e12, 16))
def test_gamma_default_grid_matches_scipy_loop(alpha):
    for beta in np.geomspace(1e-6, 1e6, 7):
        grid = Gamma(alpha, beta).default_grid()
        assert (grid.lower, grid.upper, grid.n_points) == \
            _scipy_gamma_grid(alpha, beta)


def test_default_grids_match_scipy_loops_where_the_exact_tail_decides():
    # dense where the bound cannot settle the first upper: lam up to 6.5 and
    # alpha up to 22.9, the exact tail's whole domain
    for lam in np.linspace(5.5, 8.2, 271):
        grid = Poisson(lam).default_grid()
        assert (grid.lower, grid.upper, grid.n_points) == \
            _scipy_poisson_grid(lam)
    for alpha in np.concatenate([np.linspace(0.03, 0.2, 69),
                                 np.linspace(15.0, 32.0, 69)]):
        for beta in (0.5, 1.0, 4.0):
            grid = Gamma(alpha, beta).default_grid()
            assert (grid.lower, grid.upper, grid.n_points) == \
                _scipy_gamma_grid(alpha, beta)
