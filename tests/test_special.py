import math

import numpy as np
import pytest
import scipy.special

from equilib import (Gamma, Poisson, SupportError, digamma, gammaln,
                     incomplete_gamma)
from equilib.catalog import DEFAULT_POINTS, TAIL_MASS

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


# ---------------------------------------------------------------------------
# incomplete gamma


@pytest.mark.parametrize("a", np.geomspace(1e-3, 1e6, 28))
def test_incomplete_gamma_against_library_oracle(a):
    x = np.linspace(0.0, 3.0 * a, 151)
    p, q = incomplete_gamma(a, x)
    for got, ref in ((p, scipy.special.gammainc(a, x)),
                     (q, scipy.special.gammaincc(a, x))):
        assert np.max(np.abs(got - ref)) <= 1e-12
        big = ref > 1e-100
        assert np.all(np.abs(got - ref)[big] <= 1e-6 * ref[big])


@pytest.mark.parametrize("lam", [0.1, 3.0, 50.0, 1e3, 1e6])
def test_poisson_tail_is_lower_incomplete_gamma(lam):
    k = math.floor(lam) + np.arange(2000.0)
    ref = scipy.special.pdtrc(k, lam)
    got = incomplete_gamma(k + 1.0, lam)[0]
    assert np.max(np.abs(got - ref)) <= 1e-12
    big = ref > 1e-100
    assert np.all(np.abs(got - ref)[big] <= 1e-6 * ref[big])


def test_incomplete_gamma_shapes_and_edges():
    p, q = incomplete_gamma(2.0, 1.0)
    assert isinstance(p, float) and isinstance(q, float)
    assert p == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-14)
    assert p + q == pytest.approx(1.0, abs=1e-15)
    assert incomplete_gamma(3.0, 0.0) == (0.0, 1.0)
    p, q = incomplete_gamma(np.array([[0.5], [5.0]]), np.array([0.1, 4.0, 9.0]))
    assert p.shape == q.shape == (2, 3)
    assert np.allclose(p, scipy.special.gammainc([[0.5], [5.0]],
                                                 [0.1, 4.0, 9.0]),
                       rtol=1e-13, atol=0)
    # an underflowing shape leaves the prefactor finite
    assert incomplete_gamma(1e-320, 15.0) == (1.0, 0.0)


@pytest.mark.parametrize("a, x", [(0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0),
                                  (np.inf, 1.0), (1.0, -1.0), (1.0, np.nan),
                                  (1.0, np.inf)])
def test_incomplete_gamma_rejects_outside_support(a, x):
    with pytest.raises(SupportError):
        incomplete_gamma(a, x)


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
