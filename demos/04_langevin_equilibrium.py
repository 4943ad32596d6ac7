"""Dynamic verification of the Boltzmann equilibrium.

Overdamped Langevin dynamics dx = -U'(x) dt + sqrt(2 dt) xi has
f = k e^(-U) as its stationary density.  Simulating a few chains and
histogramming the visited states should reproduce the quadrature density
up to Monte Carlo noise, measured in total variation distance.
"""

from equilib import Normal, SimConfig, build_grid, simulate

grid = build_grid("continuous", -6.0, 6.0, 49)
potential = Normal(0.0, 1.0)

print("harmonic potential, 8 chains, seed 42")
for n_steps in (12_500, 50_000, 200_000):
    cfg = SimConfig(potential=potential, grid=grid, dt=5e-3,
                    n_steps=n_steps, burn_in=n_steps // 10,
                    n_chains=8, seed=42)
    result = simulate(cfg)
    print(f"  n_steps={n_steps:7d}  samples={result.n_samples_used:9d}  "
          f"TV distance={result.tv_distance:.5f}")

# same seed, same bits: the run is exactly reproducible
cfg = SimConfig(potential=potential, grid=grid, dt=5e-3, n_steps=50_000,
                burn_in=5_000, n_chains=8, seed=42)
a, b = simulate(cfg), simulate(cfg)
print(f"bit-reproducible: {(a.histogram.values == b.histogram.values).all()}"
      f"  (rng: {a.rng_algorithm})")
