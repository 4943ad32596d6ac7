"""Round trips between potential, density and intensity.

Starting from a potential, normalize to a density, take minus the log to
recover the normalized potential, then differentiate the density to get
the stochastic intensity and integrate it back to a density.  Each hop
should land where it started, up to grid truncation error.  On a Poisson
lattice, where differences are forward and the inverse is a cumulative
sum, the round trips are exact up to rounding.
"""

import numpy as np

from equilib import (Poisson, TabulatedPotential, build_grid,
                     causal_intensity, density_from_intensity,
                     equilibrium_residual, normalize, potential_of_density,
                     stochastic_intensity)

# keep the tails above the density floor so no grid point gets masked
grid = build_grid("continuous", -3.0, 3.0, 3001)
x = grid.points

# a lumpy double-well potential with no closed-form density
potential = TabulatedPotential(grid=grid, values=(x ** 2 - 2.0) ** 2 / 4.0)

f = normalize(potential, grid)
print(f"ln Omega = {f.log_omega:.12g}, ln k = {-f.log_omega:.12g}")
print(f"density mass = {grid.quadrature(f.values):.15f}")

# density -> normalized potential; the result is a gauge-fixed copy of
# the input (shifted by ln k), so compare after removing the shift
u_back = potential_of_density(f)
gauge = potential.values[0] - u_back.values[0]
err = np.max(np.abs((potential.values - gauge) - u_back.values))
print(f"potential round trip max error (gauge removed) = {err:.2e}")

# density -> stochastic intensity -> density
es = stochastic_intensity(f)
f_back = density_from_intensity(es)
err = np.max(np.abs(f.values - f_back.values))
print(f"density round trip via intensity, max error = {err:.2e}")

# at equilibrium the stochastic and causal intensities cancel
report = equilibrium_residual(f, potential)
print(f"max |E_s + E_c| over unmasked points = {report.max_abs:.2e}")

# the same hops on the lattice 0..15 for a Poisson(3) potential
lattice = build_grid("lattice", 0, 15, 16)
poisson = TabulatedPotential(grid=lattice,
                             values=Poisson(3.0).potential(lattice.points))
pmf = normalize(poisson, lattice)
for label, table in (("causal", causal_intensity(poisson, lattice)),
                     ("stochastic", stochastic_intensity(pmf))):
    back = density_from_intensity(table)
    err = np.max(np.abs(back.values - pmf.values))
    print(f"Poisson lattice {label} round trip: mode at x = "
          f"{lattice.points[np.argmax(back.values)]:g}, max error = {err:.2e}")
report = equilibrium_residual(pmf, poisson)
print(f"Poisson lattice max |E_s + E_c| = {report.max_abs:.2e}")
