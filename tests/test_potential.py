import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilib import (EquilibriumDensity, Exponential, IntensityTable, Normal,
                     NormalizedPotentialTable, Poisson, PotentialError,
                     TabulatedPotential, build_grid, causal_intensity,
                     density_from_intensity, equilibrium_residual,
                     eval_potential, normalize, normalized_potential,
                     potential_of_density, stochastic_intensity)

SQRT_2PI = 2.5066282746310002  # sqrt(2*pi)


def harmonic(grid):
    return TabulatedPotential(grid=grid, values=grid.points ** 2 / 2.0)


# ---------------------------------------------------------------------------
# tables

TABLES = {
    "TabulatedPotential": lambda g, v: TabulatedPotential(grid=g, values=v),
    "EquilibriumDensity": lambda g, v: EquilibriumDensity(
        grid=g, values=v, omega=1.0, k=1.0),
    "NormalizedPotentialTable": lambda g, v: NormalizedPotentialTable(
        grid=g, values=v),
    "IntensityTable": lambda g, v: IntensityTable(grid=g, values=v,
                                                  kind="causal"),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_copies_and_freezes_values(name):
    g = build_grid("lattice", 0, 3, 4)
    values = np.full(4, 0.25)
    table = TABLES[name](g, values)
    values[0] = 1.0  # the caller's array stays writable
    assert table.values[0] == 0.25
    with pytest.raises(ValueError):
        table.values[0] = 1.0


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("n", [3, 5])
def test_table_rejects_wrong_length(name, n):
    g = build_grid("lattice", 0, 3, 4)
    with pytest.raises(PotentialError, match="expected 4 values"):
        TABLES[name](g, np.full(n, 1.0 / n))


def test_table_mask_is_nan():
    g = build_grid("continuous", 0, 1, 5)
    e = IntensityTable(grid=g, values=[0.0, np.nan, 1.0, np.nan, 2.0],
                       kind="stochastic")
    assert e.mask.tolist() == [False, True, False, True, False]
    assert NormalizedPotentialTable(grid=g, values=np.zeros(5)).mask.sum() == 0


# ---------------------------------------------------------------------------
# eval_potential


def test_eval_exponential_potential_value():
    g = build_grid("continuous", 0, 10, 1001)
    vals = eval_potential(Exponential(a=2.0), g)
    i = np.argmin(np.abs(g.points - 1.0))
    assert vals[i] == pytest.approx(2.0, abs=1e-12)


def test_eval_tabulated_passthrough():
    g = build_grid("continuous", 0, 1, 11)
    vals = np.sin(g.points)
    out = eval_potential(TabulatedPotential(grid=g, values=vals), g)
    assert np.array_equal(out, vals)


def test_tabulated_rejects_nonfinite():
    g = build_grid("continuous", 0, 1, 11)
    bad = np.zeros(11)
    bad[3] = np.inf
    with pytest.raises(PotentialError):
        TabulatedPotential(grid=g, values=bad)


# ---------------------------------------------------------------------------
# normalize


def test_uniform_lattice_statistical_sum():
    g = build_grid("lattice", 1, 4, 4)
    f = normalize(TabulatedPotential(grid=g, values=np.zeros(4)), g)
    assert f.omega == pytest.approx(4.0, abs=1e-14)
    assert f.k == pytest.approx(0.25, abs=1e-14)
    assert np.allclose(f.values, 0.25, atol=1e-14)


def test_harmonic_statistical_sum_is_sqrt_2pi():
    g = build_grid("continuous", -8, 8, 4001)
    f = normalize(harmonic(g), g)
    # quadrature oracle of int exp(-x^2/2): trapezoid on a rapidly decaying
    # integrand is spectrally accurate, so the closed form is hit hard
    assert f.omega == pytest.approx(SQRT_2PI, abs=1e-10)


def test_exponential_statistical_sum():
    g = build_grid("continuous", 0, 40, 4001)
    f = normalize(TabulatedPotential(grid=g, values=g.points), g)
    # int_0^inf e^(-x) dx = 1; truncation below e^(-40), trapezoid O(h^2)
    assert f.omega == pytest.approx(1.0, abs=1e-5)


def test_density_always_normalized():
    g = build_grid("continuous", -8, 8, 2001)
    f = normalize(harmonic(g), g)
    assert abs(g.quadrature(f.values) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# normalized_potential


def test_uniform_normalized_potential_is_log_n():
    g = build_grid("lattice", 1, 8, 8)
    table = normalized_potential(TabulatedPotential(grid=g,
                                                    values=np.zeros(8)), g)
    assert np.allclose(table.values, np.log(8.0), atol=1e-13)


def test_linear_normalized_potential():
    fam = Exponential(a=2.0)
    g = fam.default_grid()
    table = normalized_potential(fam, g)
    expected = 2.0 * g.points - np.log(2.0)
    # quadrature error in ln(k) is the only deviation
    assert np.max(np.abs(table.values - expected)) < 1e-4


def test_constant_shift_leaves_normalized_potential_unchanged():
    g = build_grid("continuous", -6, 6, 501)
    base = normalized_potential(harmonic(g), g)
    shifted = normalized_potential(
        TabulatedPotential(grid=g, values=g.points ** 2 / 2.0 + 7.0), g)
    assert np.max(np.abs(base.values - shifted.values)) < 1e-12


# ---------------------------------------------------------------------------
# potential_of_density


def test_uniform_pmf_gives_log_n():
    g = build_grid("lattice", 1, 4, 4)
    f = normalize(TabulatedPotential(grid=g, values=np.zeros(4)), g)
    table = potential_of_density(f)
    assert not table.mask.any()
    assert np.allclose(table.values, np.log(4.0), atol=1e-13)


def test_standard_normal_center_value():
    g = build_grid("continuous", -8, 8, 4001)
    f = normalize(harmonic(g), g)
    table = potential_of_density(f)
    i = np.argmin(np.abs(g.points))
    # -ln(1/sqrt(2*pi)) by the quadrature-normalized density
    assert table.values[i] == pytest.approx(0.5 * np.log(2 * np.pi),
                                            abs=1e-9)


def test_zero_density_point_masked():
    g = build_grid("lattice", 1, 4, 4)
    f = EquilibriumDensity(grid=g, values=np.array([0.0, 0.5, 0.3, 0.2]),
                           omega=1.0, k=1.0)
    table = potential_of_density(f)
    assert table.mask[0] and not table.mask[1:].any()
    assert np.isnan(table.values[0])


# ---------------------------------------------------------------------------
# stochastic_intensity


def test_uniform_density_zero_intensity():
    g = build_grid("continuous", 0, 1, 101)
    f = normalize(TabulatedPotential(grid=g, values=np.zeros(101)), g)
    es = stochastic_intensity(f)
    assert np.allclose(es.values[~es.mask], 0.0, atol=1e-10)


def test_normal_intensity_is_x():
    g = build_grid("continuous", -8, 8, 4001)
    f = normalize(harmonic(g), g)
    es = stochastic_intensity(f)
    ok = ~es.mask
    # -f'/f = x analytically; central differences are O(h^2)
    # error constant bounded by max |(ln f)'''| / 6 = |3x - x^3| / 6 over the
    # unmasked region (|x| < 7.44), about 65
    err = np.max(np.abs(es.values[ok] - g.points[ok]))
    assert err < 70.0 * g.spacing ** 2


def test_exponential_intensity_is_rate():
    fam = Exponential(a=3.0)
    g = fam.default_grid()
    f = normalize(fam, g)
    es = stochastic_intensity(f)
    interior = ~es.mask
    interior[0] = interior[-1] = False
    assert np.max(np.abs(es.values[interior] - 3.0)) < 1e-3


def test_lattice_intensity_forward_log_difference():
    g = build_grid("lattice", 0, 3, 4)
    vals = np.array([0.4, 0.3, 0.2, 0.1])
    f = EquilibriumDensity(grid=g, values=vals, omega=1.0, k=1.0)
    es = stochastic_intensity(f)
    assert es.mask[-1]
    expected = -(np.log(vals[1:]) - np.log(vals[:-1]))
    assert np.allclose(es.values[:-1], expected, atol=1e-14)


# ---------------------------------------------------------------------------
# causal_intensity


def test_harmonic_causal_intensity():
    g = build_grid("continuous", -6, 6, 601)
    ec = causal_intensity(harmonic(g), g)
    assert np.max(np.abs(ec.values - (-g.points))) < 1e-9


def test_constant_potential_zero_intensity():
    g = build_grid("continuous", 0, 1, 51)
    ec = causal_intensity(TabulatedPotential(grid=g, values=np.full(51, 3.0)),
                          g)
    assert np.allclose(ec.values, 0.0, atol=1e-12)


def test_linear_potential_constant_intensity():
    g = build_grid("continuous", 0, 10, 101)
    ec = causal_intensity(Exponential(a=2.0), g)
    assert np.allclose(ec.values, -2.0, atol=1e-12)


# ---------------------------------------------------------------------------
# density_from_intensity


def test_zero_intensity_gives_uniform():
    g = build_grid("continuous", 0, 1, 101)
    e = IntensityTable(grid=g, values=np.zeros(101), kind="causal")
    f = density_from_intensity(e)
    assert np.allclose(f.values, 1.0, atol=1e-12)


def test_linear_intensity_gives_standard_normal():
    g = build_grid("continuous", -8, 8, 4001)
    e = IntensityTable(grid=g, values=-g.points, kind="causal")
    f = density_from_intensity(e)
    exact = np.exp(-g.points ** 2 / 2.0) / SQRT_2PI
    assert np.max(np.abs(f.values - exact)) < 1e-6


def test_superposed_intensity_density_shape():
    g = build_grid("continuous", -8, 8, 4001)
    e = IntensityTable(grid=g, values=-2.0 - g.points, kind="causal")
    f = density_from_intensity(e)
    shape = np.exp(-2.0 * g.points - g.points ** 2 / 2.0)
    shape /= g.quadrature(shape)
    assert np.max(np.abs(f.values - shape)) < 1e-9


def test_stochastic_intensity_roundtrips_to_density():
    # E_s carries the opposite sign of E_c, so the integrator must flip it
    g = build_grid("continuous", -6, 6, 3001)
    f = normalize(harmonic(g), g)
    back = density_from_intensity(stochastic_intensity(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-6


def test_masked_intensity_rejected():
    g = build_grid("continuous", 0, 1, 11)
    vals = np.zeros(11)
    vals[5] = np.nan
    e = IntensityTable(grid=g, values=vals, kind="causal")
    with pytest.raises(PotentialError):
        density_from_intensity(e)


# ---------------------------------------------------------------------------
# equilibrium_residual


def test_harmonic_residual_small():
    g = build_grid("continuous", -8, 8, 4001)
    U = harmonic(g)
    rep = equilibrium_residual(normalize(U, g), U)
    assert rep.max_abs < 2e-3


def test_uniform_residual_exactly_zero():
    g = build_grid("continuous", 0, 1, 101)
    U = TabulatedPotential(grid=g, values=np.zeros(101))
    rep = equilibrium_residual(normalize(U, g), U)
    assert rep.max_abs == 0.0


def test_mismatched_pair_flagged():
    fam = Exponential(a=1.0)
    g = build_grid("continuous", 0, 20, 2001)
    f = normalize(fam, g)
    wrong = TabulatedPotential(grid=g, values=2.0 * g.points)
    rep = equilibrium_residual(f, wrong)
    interior = ~rep.mask
    interior[0] = interior[-1] = False
    # E_s = 1, E_c = -2: residual magnitude 1 in the interior
    assert np.max(np.abs(np.abs(rep.table[interior]) - 1.0)) < 1e-2
    assert rep.max_abs > 0.9


# ---------------------------------------------------------------------------
# invariants (property-based)


@given(c=st.floats(min_value=-50, max_value=50))
@settings(max_examples=30, deadline=None)
def test_gauge_invariance(c):
    g = build_grid("continuous", -4, 4, 201)
    base_vals = np.cos(g.points) + g.points ** 2 / 4.0
    f0 = normalize(TabulatedPotential(grid=g, values=base_vals), g)
    f1 = normalize(TabulatedPotential(grid=g, values=base_vals + c), g)
    assert np.max(np.abs(f0.values - f1.values)) < 1e-12
    t0 = normalized_potential(TabulatedPotential(grid=g, values=base_vals), g)
    t1 = normalized_potential(TabulatedPotential(grid=g,
                                                 values=base_vals + c), g)
    assert np.max(np.abs(t0.values - t1.values)) < 1e-12


@given(seed=st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25, deadline=None)
def test_roundtrip_a_random_potentials(seed):
    rng = np.random.default_rng(seed)
    g = build_grid("continuous", 0, 1, 64)
    U = TabulatedPotential(grid=g, values=rng.uniform(-10, 10, 64))
    f = normalize(U, g)
    assert abs(g.quadrature(f.values) - 1.0) <= 1e-12
    via_density = potential_of_density(f)
    direct = normalized_potential(U, g)
    ok = ~via_density.mask
    assert np.max(np.abs(via_density.values[ok] - direct.values[ok])) < 1e-10


def test_monotone_consistency():
    # where E_s > 0 the density is locally decreasing
    g = build_grid("continuous", -6, 6, 1001)
    f = normalize(harmonic(g), g)
    es = stochastic_intensity(f)
    pos = (~es.mask) & (es.values > 1e-8)
    pos[0] = pos[-1] = False
    slope = np.gradient(np.log(np.maximum(f.values, 1e-300)), g.spacing)
    assert np.all(slope[pos] < 0)


# ---------------------------------------------------------------------------
# round trips on both grid kinds (property-based)

LATTICE_TOL = 1e-12


def _poisson_lattice():
    g = build_grid("lattice", 0, 15, 16)
    return g, TabulatedPotential(grid=g, values=Poisson(3.0).potential(g.points))


def test_poisson_lattice_causal_table_roundtrips():
    g, U = _poisson_lattice()
    back = density_from_intensity(causal_intensity(U, g))
    assert np.max(np.abs(back.values - normalize(U, g).values)) <= LATTICE_TOL
    assert np.argmax(back.values) == 2


def test_poisson_lattice_stochastic_table_roundtrips():
    g, U = _poisson_lattice()
    f = normalize(U, g)
    back = density_from_intensity(stochastic_intensity(f))
    assert np.max(np.abs(back.values - f.values)) <= LATTICE_TOL
    assert np.argmax(back.values) == 2


@pytest.mark.parametrize("masked, accepted", [(2, False), (5, True)])
def test_lattice_intensity_may_mask_only_the_last_point(masked, accepted):
    g = build_grid("lattice", 0, 5, 6)
    e = IntensityTable(grid=g, kind="causal",
                       values=np.where(np.arange(6) == masked, np.nan, 0.0))
    if accepted:
        assert np.allclose(density_from_intensity(e).values, 1.0 / 6.0,
                           atol=1e-15)
    else:
        with pytest.raises(PotentialError):
            density_from_intensity(e)


# U spans at most 20, so e^(-U) stays far above the relative density floor
# 1e-12 and no point of normalize(U) is masked
lattice_potentials = st.builds(
    lambda lower, values: TabulatedPotential(
        grid=build_grid("lattice", lower, lower + len(values) - 1,
                        len(values)),
        values=np.array(values)),
    st.integers(min_value=-50, max_value=50),
    st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3,
             max_size=60))


@given(U=lattice_potentials)
@settings(max_examples=60, deadline=None)
def test_lattice_transforms_roundtrip(U):
    g = U.grid
    f = normalize(U, g)
    for table in (causal_intensity(U, g), stochastic_intensity(f)):
        assert table.mask.tolist() == [False] * (g.n_points - 1) + [True]
        back = density_from_intensity(table)
        assert np.max(np.abs(back.values - f.values)) <= LATTICE_TOL
    assert equilibrium_residual(f, U).max_abs <= LATTICE_TOL


# U = a cos(b x + c) + x^2 / 4 on [-3, 3]: |U'''| <= |a| b^3 <= 16 and U
# spans less than 7, so no point is floored
@given(a=st.floats(min_value=-2.0, max_value=2.0),
       b=st.floats(min_value=0.2, max_value=2.0),
       c=st.floats(min_value=0.0, max_value=2.0 * np.pi),
       n=st.integers(min_value=101, max_value=1201))
@settings(max_examples=40, deadline=None)
def test_continuous_transforms_roundtrip_to_second_order(a, b, c, n):
    g = build_grid("continuous", -3.0, 3.0, n)
    x = g.points
    U = TabulatedPotential(grid=g, values=a * np.cos(b * x + c) + x * x / 4)
    f = normalize(U, g)
    # the stencil errs by h^2 |U'''| / 6 and the trapezoid by h^2 |U'''| / 12;
    # over a width of 6 that moves ln f by at most 24 h^2, and normalization
    # can double the resulting density error
    bound = 48.0 * g.spacing ** 2 * np.max(f.values)
    for table in (causal_intensity(U, g), stochastic_intensity(f)):
        assert not table.mask.any()
        back = density_from_intensity(table)
        assert np.max(np.abs(back.values - f.values)) <= bound
