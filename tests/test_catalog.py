import math
import sys

import numpy as np
import pytest

from equilib import (Exponential, Gamma, IntensityTable, LinearConstant,
                     NonNormalizableError, Normal, PearsonPotential, Poisson,
                     PolynomialPotential, PotentialError, SupportError,
                     UniformLattice, build_grid, catalog,
                     density_from_intensity, equilibrium_residual, normalize,
                     stochastic_intensity)
from equilib.catalog import FAMILIES, SPECS, make_family
from equilib.errors import FormatError
from equilib.special import digamma

EULER_GAMMA = 0.5772156649015329

CONTINUOUS_FAMILIES = [
    Exponential(a=2.0),
    Normal(mu=0.0, sigma=1.0),
    Normal(mu=1.5, sigma=0.5),
    LinearConstant(a=2.0, b=1.0),
    Gamma(alpha=0.5, beta=1.0),
    Gamma(alpha=3.0, beta=2.0),
]
ALL_FAMILIES = CONTINUOUS_FAMILIES + [UniformLattice(8), Poisson(2.0)]


# ---------------------------------------------------------------------------
# closed-form intensity values


def test_normal_intensity_linear():
    assert Normal.from_b(1.0).intensity(2.5) == pytest.approx(-2.5)


def test_uniform_intensity_zero():
    assert UniformLattice(10).intensity(3.0) == 0.0


def test_poisson_intensity_at_zero_is_euler_gamma():
    # -psi(1) + ln(1) = Euler-Mascheroni constant
    assert Poisson(1.0).intensity(0.0) == pytest.approx(
        EULER_GAMMA, abs=1e-12)


def test_exponential_intensity_constant():
    assert Exponential(3.0).intensity(1.7) == pytest.approx(-3.0)


def test_gamma_intensity_form():
    fam = Gamma(alpha=0.5, beta=1.0)
    # -(1 - alpha)/x - 1/beta
    assert fam.intensity(2.0) == pytest.approx(-0.25 - 1.0)


# each family's -U' as an allocating expression, written apart from the
# catalog's in-place scaled_intensity, from which intensity derives
ORACLE_INTENSITY = {
    UniformLattice: lambda f, x: np.zeros_like(x),
    Exponential: lambda f, x: np.full_like(x, -f.a),
    Normal: lambda f, x: -(x - f.mu) / f.sigma ** 2,
    LinearConstant: lambda f, x: -f.a - f.b * x,
    Poisson: lambda f, x: -digamma(x + 1.0) + math.log(f.lam),
    Gamma: lambda f, x: -(1.0 - f.alpha) / x - 1.0 / f.beta,
}
# one member of each FAMILIES entry (a new family needs a line), plus
# Gamma's alpha = 1, whose support takes x = 0; sigma**2 is not a power of
# two, so dividing by it differs from multiplying by its reciprocal
ORACLE_FIELDS = {"uniform": {"n": 6}, "exponential": {"a": 1.5},
                 "normal": {"mu": -1.0, "sigma": 1.7},
                 "linear_constant": {"a": 1.0, "b": 0.5},
                 "linear-constant": {"a": -2.0, "b": 3.0},
                 "poisson": {"lam": 3.5}, "gamma": {"alpha": 0.3, "beta": 2.0}}
ORACLE_MEMBERS = [make_family(name, ORACLE_FIELDS[name])
                  for name in FAMILIES] + [Gamma(1.0, 2.0)]


@pytest.mark.parametrize("fam", ORACLE_MEMBERS, ids=repr)
def test_intensity_has_the_bits_of_the_closed_form(fam):
    g = fam.default_grid()
    rng = np.random.default_rng(16)
    zero = ([fam.mu] if isinstance(fam, Normal) else
            [-fam.a / fam.b] if isinstance(fam, LinearConstant) else [])
    x = np.concatenate(([g.lower, g.upper, -0.0, 0.0], zero,
                        g.lower + (g.upper - g.lower) * rng.random(2000)))
    if isinstance(fam, Gamma):  # 0 / 0 at x = 0 when alpha = 1
        x = x[x > 0.0]
    want = ORACLE_INTENSITY[type(fam)](fam, x)
    assert np.array_equal(fam.intensity(x).view(np.uint64),
                          want.view(np.uint64))


@pytest.mark.parametrize("fam", ORACLE_MEMBERS, ids=repr)
def test_scalar_intensity_is_a_0d_float_array(fam):
    got = fam.intensity(1.0)
    assert isinstance(got, np.ndarray) and got.shape == ()
    assert got.dtype == np.float64
    want = np.float64(ORACLE_INTENSITY[type(fam)](fam, np.asarray(1.0)))
    assert got.view(np.uint64) == want.view(np.uint64)


# ---------------------------------------------------------------------------
# closed-form normalized potentials and densities


def test_exponential_normalized_potential_at_zero():
    assert Exponential(2.0).normalized_potential(0.0) == \
        pytest.approx(-math.log(2.0), abs=1e-14)


def test_poisson_potential_matches_pmf_oracle():
    lam = 2.0
    xs = np.arange(0, 20)
    # independent oracle: pmf = lam^x e^(-lam) / x!
    pmf = np.array([lam ** x * math.exp(-lam) / math.factorial(x)
                    for x in xs])
    vals = Poisson(lam).density(xs.astype(float))
    assert np.max(np.abs(vals - pmf)) < 1e-14
    assert Poisson(2.0).density(3.0) == pytest.approx(
        math.exp(-2.0) * 8.0 / 6.0, abs=1e-14)


def test_gamma_shape_one_degenerates_to_exponential():
    xs = np.linspace(0.0, 20.0, 500)
    gamma_vals = Gamma(alpha=1.0, beta=1.0).density(xs)
    exp_vals = Exponential(1.0).density(xs)
    assert np.max(np.abs(gamma_vals - exp_vals)) < 1e-12


def test_gamma_exp_potential_identity():
    # Gamma(1,1) at x = 3: U_tilde = 3, density e^(-3)
    assert Gamma(1.0, 1.0).normalized_potential(3.0) == \
        pytest.approx(3.0, abs=1e-14)
    assert Gamma(1.0, 1.0).density(3.0) == pytest.approx(
        math.exp(-3.0), abs=1e-15)


def test_normal_density_at_mode():
    assert Normal.from_b(1.0).density(0.0) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), abs=1e-15)


def test_uniform_density():
    assert UniformLattice(4).density(2.0) == pytest.approx(0.25)


@pytest.mark.parametrize("fam", ALL_FAMILIES,
                         ids=lambda f: type(f).__name__)
def test_potential_density_consistency(fam):
    grid = fam.default_grid()
    x = grid.points
    lhs = fam.normalized_potential(x)
    rhs = -np.log(fam.density(x))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_linear_constant_completes_to_normal():
    fam = LinearConstant(a=2.0, b=1.0)
    normal = fam.as_normal()
    assert normal.mu == pytest.approx(-2.0)
    assert normal.sigma == pytest.approx(1.0)
    xs = np.linspace(-8.0, 4.0, 400)
    assert np.max(np.abs(fam.density(xs) - normal.density(xs))) < 1e-12


# ---------------------------------------------------------------------------
# analytic vs numeric routes


@pytest.mark.parametrize("fam", [Exponential(1.0), Normal(0, 1),
                                 LinearConstant(1.0, 1.0), Gamma(3.0, 1.0)],
                         ids=lambda f: type(f).__name__)
def test_analytic_intensity_matches_numeric(fam):
    if isinstance(fam, Gamma):
        grid = build_grid("continuous", 0.5, 16.5, 4001)
    else:
        grid = fam.default_grid()
    f = normalize(fam, grid)
    es = stochastic_intensity(f)
    interior = ~es.mask
    interior[0] = interior[-1] = False
    diff = np.abs(es.values[interior]
                  - (-fam.intensity(grid.points[interior])))
    assert np.max(diff) < 100.0 * grid.spacing ** 2


def test_poisson_lattice_log_difference():
    lam = 2.0
    fam = Poisson(lam)
    grid = fam.default_grid()
    f = normalize(fam, grid)
    es = stochastic_intensity(f)
    ok = ~es.mask
    x = grid.points[ok]
    # forward log-difference of the pmf is ln((x+1)/lam) exactly
    assert np.allclose(es.values[ok], np.log((x + 1.0) / lam), atol=1e-9)


# ---------------------------------------------------------------------------
# support checks


def test_gamma_rejects_nonpositive_argument():
    with pytest.raises(SupportError):
        Gamma(0.5, 1.0).normalized_potential(0.0)


@pytest.mark.parametrize("fam", [Exponential(2.0), Poisson(3.0)],
                         ids=repr)
def test_nonnegative_support_rejects_negative_x(fam):
    for x in (-1e-300, np.array([1.0, -0.5])):
        with pytest.raises(SupportError, match="support is x >= 0"):
            fam.intensity(x)
        with pytest.raises(SupportError):
            fam.potential(x)
    assert np.all(np.isfinite(fam.intensity(np.array([-0.0, 0.0]))))


def test_gamma_support_takes_zero_only_at_shape_one():
    for x in (0.0, -0.0, np.array([1.0, 0.0])):
        with pytest.raises(SupportError, match="gamma support"):
            Gamma(0.3, 2.0).intensity(x)
    # alpha = 1 passes the check at 0: U is x / beta there
    assert Gamma(1.0, 2.0).potential(np.array([0.0, -0.0])).tolist() == \
        [0.0, 0.0]


def test_gamma_shape_one_intensity_at_zero_is_minus_rate():
    # alpha = 1 has no log term, so E_c(0) = -1/beta rather than -0/0
    fam = Gamma(1.0, 2.0)
    assert fam.intensity(0.0) == -0.5
    assert fam.intensity(np.array([-0.0, 0.0, 3.0])).tolist() == [-0.5] * 3


@pytest.mark.parametrize("fam", [Normal(1.0, 2.0), LinearConstant(1.0, 0.5),
                                 UniformLattice(4)], ids=repr)
def test_unbounded_support_takes_negative_x(fam):
    x = np.array([-3.5, -1e-300, -0.0])
    want = ORACLE_INTENSITY[type(fam)](fam, x)
    assert np.array_equal(fam.intensity(x).view(np.uint64),
                          want.view(np.uint64))


def test_normal_needs_a_normal_sigma_squared():
    # a subnormal sigma**2 overflows 1 / sigma**2
    for sigma in (1e-160, 1.4e-154):
        with pytest.raises(SupportError, match="sigma"):
            Normal(sigma=sigma)
    assert Normal(sigma=1.5e-154).sigma ** 2 >= sys.float_info.min


def test_gamma_rejects_bad_shape():
    with pytest.raises(SupportError):
        Gamma(alpha=-1.0, beta=1.0)
    with pytest.raises(SupportError):
        Gamma.from_intensity(a=1.5, b=1.0)


def test_gamma_from_intensity_mapping():
    fam = Gamma.from_intensity(a=0.5, b=2.0)
    assert fam.alpha == pytest.approx(0.5)
    assert fam.beta == pytest.approx(0.5)


def test_default_grids_capture_mass():
    for fam in CONTINUOUS_FAMILIES:
        grid = fam.default_grid()
        mass = grid.quadrature(fam.density(grid.points))
        # truncated tails are < 1e-10; the residual deviation is trapezoid
        # boundary bias, O(h^2) where the density meets an endpoint.  A
        # shape < 1 gamma diverges (integrably) at 0, so the spacing/2
        # cutoff inevitably loses O(sqrt(spacing)) mass there.
        tol = 0.07 if isinstance(fam, Gamma) and fam.alpha < 1 else 1e-4
        assert abs(mass - 1.0) < tol, type(fam).__name__


# ---------------------------------------------------------------------------
# Pearson system


def test_pearson_standard_sign_normal_intensity():
    p = PearsonPotential(a=0.0, b0=1.0, b1=0.0, b2=0.0, sign="standard")
    grid = build_grid("continuous", 0.0, 4.0, 5)  # grid.points[2] == 2.0
    assert p.intensity(grid.points)[2] == \
        pytest.approx(-2.0)


def test_pearson_paper_sign_literal():
    p = PearsonPotential(a=0.0, b0=1.0, b1=0.0, b2=0.0, sign="paper")
    grid = build_grid("continuous", 0.0, 4.0, 5)  # grid.points[2] == 2.0
    assert p.intensity(grid.points)[2] == \
        pytest.approx(2.0)


def test_pearson_denominator_root_rejected():
    p = PearsonPotential(a=0.0, b0=-1.0, b1=0.0, b2=1.0)
    grid = build_grid("continuous", 0.0, 2.0, 201)  # root at x = 1
    with pytest.raises(PotentialError):
        normalize(p, grid)


def test_pearson_denominator_sign_change_rejected():
    # the root x = 1 falls between grid points; one point is fine
    p = PearsonPotential(a=0.0, b0=-1.0, b1=0.0, b2=1.0)
    with pytest.raises(PotentialError, match="root"):
        p.intensity(build_grid("continuous", 0.0, 2.0, 200).points)
    assert p.intensity(2.0) == pytest.approx(-2.0 / 3.0)


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (2.0, 0.5)])
def test_pearson_recovers_normal(mu, sigma):
    p = PearsonPotential(a=mu, b0=sigma ** 2, b1=0.0, b2=0.0)
    grid = build_grid("continuous", mu - 8 * sigma, mu + 8 * sigma, 4001)
    f = normalize(p, grid)
    exact = Normal(mu, sigma).density(grid.points)
    assert np.max(np.abs(f.values - exact)) < 1e-6


def test_pearson_paper_sign_not_normalizable():
    p = PearsonPotential(a=0.0, b0=1.0, b1=0.0, b2=0.0, sign="paper")
    grid = build_grid("continuous", -8.0, 8.0, 4001)
    with pytest.raises(NonNormalizableError):
        normalize(p, grid)


def test_catalog_equilibrium_matches_closed_form():
    for fam in [Exponential(1.0), Normal(0, 1)]:
        f = normalize(fam, fam.default_grid())
        exact = fam.density(f.grid.points)
        assert np.max(np.abs(f.values - exact)) < 2e-5, type(fam).__name__


# ---------------------------------------------------------------------------
# family registry and field checks


@pytest.mark.parametrize("cls, fields", [
    (UniformLattice, {"n": 8}),
    (Exponential, {"a": 2.0}),
    (Normal, {"mu": 0.0, "sigma": 1.0}),
    (LinearConstant, {"a": 1.0, "b": 2.0}),
    (Poisson, {"lam": 2.0}),
    (Gamma, {"alpha": 2.0, "beta": 1.0}),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1",
                                 None])
def test_families_reject_non_finite_or_non_real_fields(cls, fields, bad):
    for name in fields:
        with pytest.raises(SupportError, match=name):
            cls(**dict(fields, **{name: bad}))


@pytest.mark.parametrize("n", [2.5, 8.0, "8", 0, -3])
def test_uniform_lattice_needs_a_positive_integer(n):
    with pytest.raises(SupportError):
        UniformLattice(n)


def test_uniform_lattice_accepts_numpy_integers():
    assert UniformLattice(np.int64(8)) == UniformLattice(8)


def test_registry_holds_both_linear_constant_spellings():
    assert FAMILIES["linear_constant"] is FAMILIES["linear-constant"] \
        is LinearConstant
    assert set(FAMILIES.values()) == {UniformLattice, Exponential, Normal,
                                      LinearConstant, Poisson, Gamma}


def test_make_family_applies_defaults_and_rejects_none():
    assert make_family("normal", {}) == Normal(0.0, 1.0)
    assert make_family("normal", {"sigma": 2.0}) == Normal(0.0, 2.0)
    with pytest.raises(SupportError, match="mu"):
        make_family("normal", {"mu": None, "sigma": 2.0})
    assert make_family("linear-constant", {"a": 1.0, "b": 2.0}) == \
        LinearConstant(1.0, 2.0)


def test_make_family_builds_every_spec_of_the_registry():
    assert SPECS == {**FAMILIES, "pearson": PearsonPotential,
                     "polynomial": PolynomialPotential}
    assert make_family("pearson", {"a": 0.5, "b0": 2, "b1": 0, "b2": 0}) == \
        PearsonPotential(0.5, 2.0, 0.0, 0.0, "standard")
    assert make_family("polynomial", {"coeffs": [0, 1]}) == \
        PolynomialPotential((0.0, 1.0))
    with pytest.raises(PotentialError, match="sign"):
        make_family("pearson", {"a": 0, "b0": 1, "b1": 0, "b2": 0,
                                "sign": None})


def test_make_family_reports_missing_and_unknown():
    with pytest.raises(FormatError, match="alpha"):
        make_family("gamma", {"beta": 1.0})
    with pytest.raises(SupportError, match="alpha"):
        make_family("gamma", {"beta": 1.0, "alpha": None})
    with pytest.raises(FormatError, match=r"missing \['b2'\]"):
        make_family("pearson", {"a": 0, "b0": 1, "b1": 0})
    with pytest.raises(FormatError, match="unknown family"):
        make_family("cauchy", {})
    with pytest.raises(FormatError, match=r"no fields \['n'\]"):
        make_family("normal", {"n": 5})


def test_poisson_default_grid_rejects_inexact_lattice():
    # the bound is checked before any lattice is allocated
    with pytest.raises(SupportError, match="explicit grid"):
        Poisson(1e300).default_grid()
    with pytest.raises(SupportError, match="explicit grid"):
        Poisson(2.0 ** 54).default_grid()


@pytest.mark.parametrize("fam", [Poisson(1e12), Poisson(2.0 ** 52),
                                 Gamma(1e12, 1.0), Gamma(1e200, 1.0)],
                         ids=repr)
def test_extreme_default_grids_come_from_the_tail_bound(fam, monkeypatch):
    # the closed-form bound decides, so the exact Gamma tail never runs
    def no_exact_tail(*args):
        raise AssertionError("exact tail evaluated")

    monkeypatch.setattr(catalog, "_gamma_tail", no_exact_tail)
    grid = fam.default_grid()
    assert math.isfinite(grid.lower) and math.isfinite(grid.upper)
    assert "points" not in vars(grid)  # no lattice or grid was allocated
    mean = fam.lam if isinstance(fam, Poisson) else fam.alpha * fam.beta
    assert grid.upper > mean


def test_exact_tails_run_only_on_their_small_domain(monkeypatch):
    # the Chernoff bound decides every Poisson tail; the exact Gamma tail is
    # accurate only for a <= _EXACT_TAIL_MAX and t >= 15, and the sweep
    # reaches it for small alpha, where it doubles the first upper
    calls = []

    def spy(a, x):
        calls.append((a, x - a))
        return gamma_tail(a, x)

    gamma_tail = catalog._gamma_tail
    monkeypatch.setattr(catalog, "_gamma_tail", spy)
    for lam in np.concatenate([np.linspace(5.5, 8.2, 271),
                               np.geomspace(1e-9, 1e15, 97)]):
        Poisson(float(lam)).default_grid()
    assert not calls
    doublings = set()
    for alpha in np.concatenate([np.linspace(0.03, 0.2, 69),
                                 np.geomspace(1e-12, 1e300, 151)]):
        for beta in (0.5, 1.0, 4.0):
            first = beta * (alpha + 10.0 * math.sqrt(alpha) + 15.0)
            doublings.add(Gamma(float(alpha), beta).default_grid().upper
                          / first)
    assert calls
    assert {1.0, 2.0} <= doublings
    assert all(a <= catalog._EXACT_TAIL_MAX and t >= 15.0 for a, t in calls)


@pytest.mark.parametrize("alpha, beta", [(1e308, 1.0), (1.0, 1e308)])
def test_gamma_default_grid_rejects_overflowing_scale(alpha, beta):
    with pytest.raises(SupportError, match="explicit grid"):
        Gamma(alpha, beta).default_grid()


def test_pearson_density_equals_integrated_intensity():
    p = PearsonPotential(a=0.5, b0=2.0, b1=0.1, b2=0.0)
    grid = build_grid("continuous", -6.0, 7.0, 1301)
    table = IntensityTable(grid=grid, kind="causal",
                           values=p.intensity(grid.points))
    expected = density_from_intensity(table)
    got = normalize(p, grid)
    assert np.array_equal(got.values, expected.values)
    assert got.log_omega == expected.log_omega


def test_pearson_lattice_pmf_is_an_exact_equilibrium_pair():
    # on a lattice ln f(x+1) - ln f(x) is the intensity at x, so the
    # forward-difference E_s cancels E_c at every unmasked point
    p = PearsonPotential(a=0.5, b0=2.0, b1=0.1, b2=0.0)
    f = normalize(p, build_grid("lattice", -6, 6, 13))
    assert equilibrium_residual(f, p).max_abs <= 1e-12
