"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they are emitted.
"""

import functools
import json
import time

import numpy as np

from equilib import (Exponential, Gamma, LinearConstant, MaxEntProblem,
                     MomentRangeError, Normal, PearsonPotential, Poisson,
                     PolynomialPotential, SimConfig, TabulatedPotential,
                     UniformLattice, build_grid, cli,
                     decompose_samples, equilibrium_residual,
                     fisher_information_number, fit_linear_intensity, io,
                     normalize, shannon_entropy, simulate, solve_maxent)

X = PolynomialPotential((0.0, 1.0))
X2 = PolynomialPotential((0.0, 0.0, 1.0))


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({name}): FAIL")
                raise
            print(f"criterion {num} ({name}): PASS")
        return wrapper
    return deco


@criterion(1, "catalog fidelity")
def test_catalog_fidelity():
    start = time.perf_counter()
    continuous = [Exponential(2.0), Normal(0.0, 1.0), LinearConstant(2.0, 1.0),
                  Gamma(3.0, 2.0)]
    for fam in continuous:
        g0 = fam.default_grid()
        grid = build_grid("continuous", g0.lower, g0.upper, 4001)
        x = grid.points
        err = np.abs(fam.normalized_potential(x)
                     + np.log(fam.density(x)))
        assert np.max(err) <= 1e-8, type(fam).__name__
    for fam in [UniformLattice(8), Poisson(2.0)]:
        x = fam.default_grid().points
        err = np.abs(fam.normalized_potential(x)
                     + np.log(fam.density(x)))
        assert np.max(err) <= 1e-12, type(fam).__name__
    assert time.perf_counter() - start < 1.0


@criterion(2, "equilibrium residual O(h^2)")
def test_equilibrium_residual_order():
    start = time.perf_counter()
    cases = [
        (Normal(0.0, 1.0), -6.0, 6.0),
        (Exponential(1.0), 0.0, 12.0),
        (LinearConstant(1.0, 1.0), -8.0, 4.0),
        (Gamma(3.0, 1.0), 0.5, 12.5),
    ]
    for fam, lo, hi in cases:
        maxima = []
        for n in (3001, 6001):  # spacing 4e-3 then 2e-3
            grid = build_grid("continuous", lo, hi, n)
            rep = equilibrium_residual(normalize(fam, grid), fam)
            interior = ~rep.mask
            interior[0] = interior[-1] = False
            maxima.append(float(np.max(np.abs(rep.values[interior]))))
        assert maxima[0] <= 1e-3, type(fam).__name__
        assert maxima[0] / maxima[1] >= 3.5, type(fam).__name__
    assert time.perf_counter() - start < 1.0


@criterion(3, "Pearson recovers the normal family")
def test_pearson_to_normal():
    for mu, sigma in [(0.0, 1.0), (2.0, 0.5)]:
        p = PearsonPotential(a=mu, b0=sigma ** 2, b1=0.0, b2=0.0)
        grid = build_grid("continuous", mu - 8 * sigma, mu + 8 * sigma, 4001)
        f = normalize(p, grid)
        exact = Normal(mu, sigma).density(grid.points)
        assert np.max(np.abs(f.values - exact)) <= 1e-6


def _entropy_is_maximal(sol, grid, u, n_pert=100, step=1e-3):
    h0 = shannon_entropy(sol.density)
    w = grid.weights
    uvals = u.values_on(grid)
    f = sol.density.values
    rng = np.random.default_rng(17)
    region = f > 1e-2
    basis = np.stack([w, w * uvals])[:, region]
    for _ in range(n_pert):
        d = rng.standard_normal(region.sum())
        coef = np.linalg.lstsq(basis.T, d, rcond=None)[0]
        d = d - basis.T @ coef
        d = step * d / np.max(np.abs(d))
        pert = f.copy()
        pert[region] = f[region] + d
        assert np.all(pert > 0)
        h = -float(w @ (pert * np.log(pert, where=pert > 0,
                                      out=np.zeros_like(pert))))
        if not h < h0:
            return False
    return True


@criterion(4, "MaxEnt multiplier recovery and maximality")
def test_maxent_recovery():
    g1 = build_grid("continuous", 0, 40, 80001)
    sol1 = solve_maxent(MaxEntProblem(u=X, grid=g1, target_moment=0.5))
    assert sol1.converged and sol1.iterations <= 20
    assert abs(sol1.lam - 2.0) <= 1e-6

    g2 = build_grid("continuous", -8, 8, 4001)
    sol2 = solve_maxent(MaxEntProblem(u=X2, grid=g2, target_moment=1.0))
    assert sol2.converged
    assert abs(sol2.lam - 0.5) <= 1e-6

    assert _entropy_is_maximal(sol2, g2, X2)
    # coarser copy of the exponential solution keeps the perturbation
    # study cheap while testing the same stationarity property
    g1c = build_grid("continuous", 0, 40, 4001)
    sol1c = solve_maxent(MaxEntProblem(u=X, grid=g1c, target_moment=0.5))
    assert _entropy_is_maximal(sol1c, g1c, X)


@criterion(5, "entropy equals mean normalized potential")
def test_entropy_identity():
    families = [Exponential(2.0), Normal(0.0, 1.0), Normal(1.5, 0.5),
                LinearConstant(2.0, 1.0), Gamma(0.5, 1.0), Gamma(3.0, 2.0),
                UniformLattice(8), Poisson(2.0)]
    for fam in families:
        f = normalize(fam, fam.default_grid())
        w, vals = f.grid.weights, f.values
        live = vals > 0
        direct = -float(np.sum((w * vals * np.log(vals))[live]))
        mean_pot = float(np.sum((w * vals * -np.log(vals))[live]))
        assert abs(direct - mean_pot) <= 1e-9, type(fam).__name__
        assert abs(shannon_entropy(f) - direct) <= 1e-9, type(fam).__name__
    uniform, normal = UniformLattice(8), Normal(0.0, 1.0)
    assert abs(shannon_entropy(normalize(uniform, uniform.default_grid()))
               - np.log(8.0)) <= 1e-12
    assert abs(shannon_entropy(normalize(normal, normal.default_grid()))
               - 0.5 * np.log(2 * np.pi * np.e)) <= 1e-6


@criterion(6, "Fisher number is the second derivative of ln Omega")
def test_fisher_identity():
    cases = [(X, [0.5, 1.0, 2.0], build_grid("continuous", 0, 40, 4001)),
             (X2, [0.5, 1.0], build_grid("continuous", -8, 8, 4001))]
    eps = 1e-4
    for u, lams, grid in cases:
        uvals = u.values_on(grid)

        def log_omega(l):
            f = normalize(TabulatedPotential(grid=grid, values=l * uvals),
                          grid)
            return f.log_omega

        for lam in lams:
            fd = (log_omega(lam + eps) - 2 * log_omega(lam)
                  + log_omega(lam - eps)) / eps ** 2
            var = fisher_information_number(u, lam, grid)
            assert abs(fd - var) <= 1e-4 * abs(var)


@criterion(7, "Langevin simulation reaches the Boltzmann density")
def test_simulation_equilibrium():
    start = time.perf_counter()
    hgrid = build_grid("continuous", -6, 6, 49)
    harmonic = SimConfig(potential=Normal(), grid=hgrid,
                         dt=5e-3, n_steps=200_000, burn_in=20_000,
                         n_chains=8, seed=42)
    ugrid = build_grid("continuous", 0, 1, 21)
    uniform = SimConfig(potential=TabulatedPotential(grid=ugrid,
                                                     values=np.zeros(21)),
                        grid=ugrid, dt=5e-3, n_steps=200_000, burn_in=20_000,
                        n_chains=8, seed=7)
    for cfg in (harmonic, uniform):
        r1 = simulate(cfg)
        r2 = simulate(cfg)
        assert r1.tv_distance < 0.02
        assert r1.tv_distance == r2.tv_distance
        assert np.array_equal(r1.histogram.values, r2.histogram.values)
    assert time.perf_counter() - start < 30.0


@criterion(8, "decomposition recovers known intensities")
def test_decomposition():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    normal_samples = rng.standard_normal(100_000)
    grid = build_grid("continuous", -5, 5, 501)
    report = decompose_samples(normal_samples, grid, estimator="kernel",
                               bandwidth=0.2)
    slope, _ = fit_linear_intensity(report, interval=(-2.0, 2.0))
    assert 0.9 <= slope <= 1.1

    exp_samples = rng.exponential(1.0, 100_000)
    grid = build_grid("continuous", 0.05, 9.95, 100)
    report = decompose_samples(exp_samples, grid, estimator="histogram",
                               bins=100)
    es = report.stochastic_intensity
    ok = (~es.mask) & (grid.points >= 0.5) & (grid.points <= 3.0)
    constant = float(np.mean(es.values[ok]))  # degree-0 least squares
    assert 0.9 <= constant <= 1.1
    assert time.perf_counter() - start < 5.0


@criterion(9, "CLI round-trip and exit codes")
def test_cli_roundtrip(tmp_path):
    spec = tmp_path / "pot.json"
    spec.write_text(json.dumps({"kind": "potential", "family": "normal",
                                "mu": 0.0, "sigma": 1.0}))
    dens = tmp_path / "density.csv"
    back = tmp_path / "back.csv"
    assert cli.main(["transform", "--in", str(spec), "--to", "density",
                     "--out", str(dens)]) == 0
    assert cli.main(["transform", "--in", str(dens), "--to", "potential",
                     "--out", str(back)]) == 0
    table = io.read_table(back)
    x = table["x"]
    ok = table["mask"] == 0
    expected = x ** 2 / 2 + 0.5 * np.log(2 * np.pi)
    assert np.max(np.abs(table["U_tilde"][ok] - expected[ok])) <= 1e-9

    # exit code 2: unreadable input
    assert cli.main(["transform", "--in", str(tmp_path / "missing.csv"),
                     "--to", "density", "--out", str(tmp_path / "o.csv")]) == 2
    # exit code 3: infeasible moment
    assert cli.main(["maxent", "--u", "x", "--moment", "100.0",
                     "--lower", "0", "--upper", "10", "--points", "101",
                     "--out", str(tmp_path / "sol.json")]) == 3
