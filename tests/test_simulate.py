import numpy as np
import pytest

from equilib import (EquilibriumDensity, Exponential, Gamma, GridError,
                     LinearConstant, Normal, SimConfig, StabilityError,
                     TabulatedPotential, build_grid, normalize, simulate,
                     tv_distance)

HARMONIC_GRID = build_grid("continuous", -6, 6, 49)
HARMONIC = Normal()


def harmonic_config(**overrides):
    base = dict(potential=HARMONIC, grid=HARMONIC_GRID, dt=5e-3,
                n_steps=200_000, burn_in=20_000, n_chains=8, seed=42)
    base.update(overrides)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# tv_distance


def test_tv_identical_densities():
    g = build_grid("continuous", 0, 1, 11)
    f = normalize(TabulatedPotential(grid=g, values=np.zeros(11)), g)
    assert tv_distance(f, f) == 0.0


def test_tv_disjoint_point_masses():
    # grids need >= 3 points, so the maximal-distance case uses a 3-point
    # lattice with disjoint unit masses
    g = build_grid("lattice", 0, 2, 3)
    p = EquilibriumDensity(grid=g, values=np.array([1.0, 0.0, 0.0]),
                           omega=1.0, k=1.0)
    q = EquilibriumDensity(grid=g, values=np.array([0.0, 0.0, 1.0]),
                           omega=1.0, k=1.0)
    assert tv_distance(p, q) == 1.0


def test_tv_uniform_vs_skewed():
    g = build_grid("lattice", 0, 2, 3)
    p = EquilibriumDensity(grid=g, values=np.array([0.5, 0.5, 0.0]),
                           omega=1.0, k=1.0)
    q = EquilibriumDensity(grid=g, values=np.array([0.75, 0.25, 0.0]),
                           omega=1.0, k=1.0)
    assert tv_distance(p, q) == pytest.approx(0.25)


def test_tv_grid_mismatch_rejected():
    g1 = build_grid("continuous", 0, 1, 11)
    g2 = build_grid("continuous", 0, 2, 11)
    f1 = normalize(TabulatedPotential(grid=g1, values=np.zeros(11)), g1)
    f2 = normalize(TabulatedPotential(grid=g2, values=np.zeros(11)), g2)
    with pytest.raises(GridError):
        tv_distance(f1, f2)


# ---------------------------------------------------------------------------
# simulate


def test_stability_guard():
    # dt * max|E_c| = 0.9 on this grid
    with pytest.raises(StabilityError):
        simulate(harmonic_config(dt=0.15))


def test_config_validation():
    with pytest.raises(StabilityError):
        harmonic_config(burn_in=300_000)
    with pytest.raises(StabilityError):
        harmonic_config(dt=-1e-3)


def test_reproducibility_bitwise():
    cfg = harmonic_config(n_steps=20_000, burn_in=2_000)
    r1 = simulate(cfg)
    r2 = simulate(cfg)
    assert r1.tv_distance == r2.tv_distance
    assert np.array_equal(r1.histogram.values, r2.histogram.values)
    assert r1.n_samples_used == r2.n_samples_used


def test_seed_changes_result():
    a = simulate(harmonic_config(n_steps=20_000, burn_in=2_000, seed=1))
    b = simulate(harmonic_config(n_steps=20_000, burn_in=2_000, seed=2))
    assert not np.array_equal(a.histogram.values, b.histogram.values)


def test_uniform_potential_reflected_brownian_motion():
    g = build_grid("continuous", 0, 1, 21)
    cfg = SimConfig(potential=TabulatedPotential(grid=g, values=np.zeros(21)),
                    grid=g, dt=5e-3, n_steps=200_000, burn_in=20_000,
                    n_chains=8, seed=7)
    r = simulate(cfg)
    assert r.tv_distance < 0.02


def test_convergence_trend():
    tvs = []
    for n in (10_000, 40_000, 160_000):
        r = simulate(harmonic_config(n_steps=n, burn_in=n // 10, seed=11))
        tvs.append(r.tv_distance)
    # quadrupling the budget shrinks the TV distance (allowing MC noise)
    assert tvs[1] < tvs[0] + 0.01
    assert tvs[2] < tvs[1] + 0.01
    assert tvs[2] < tvs[0]


def test_symmetric_potential_zero_mean():
    cfg = harmonic_config(n_steps=50_000, burn_in=5_000, n_chains=16, seed=3)
    r = simulate(cfg)
    mean = HARMONIC_GRID.quadrature(HARMONIC_GRID.points
                                    * r.histogram.values)
    # OU autocorrelation time is 1; SE of the mean over 16 chains of
    # length T=250 is sqrt(2 tau / (T n_chains))
    se = np.sqrt(2.0 / (50_000 * 5e-3 * 16))
    assert abs(mean) < 3.0 * se


@pytest.mark.parametrize("fam,grid", [
    (Normal(), build_grid("continuous", -6, 6, 49)),
    (Exponential(1.0), build_grid("continuous", 0, 12, 49)),
    (LinearConstant(1.0, 1.0), build_grid("continuous", -7, 5, 49)),
    (Gamma(5.0, 1.0), build_grid("continuous", 0.5, 20, 49)),
], ids=lambda v: type(v).__name__ if not isinstance(v, object.__class__)
   else None)
def test_boltzmann_equilibrium_reached(fam, grid):
    cfg = SimConfig(potential=fam, grid=grid, dt=5e-3,
                    n_steps=200_000, burn_in=20_000, n_chains=8, seed=99)
    r = simulate(cfg)
    assert r.tv_distance < 0.05


def test_histogram_is_normalized():
    r = simulate(harmonic_config(n_steps=20_000, burn_in=2_000))
    g = r.histogram.grid
    assert abs(g.quadrature(r.histogram.values) - 1.0) <= 1e-12
    assert r.rng_algorithm == "philox4x64"
    assert r.seed == 42
