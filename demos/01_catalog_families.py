"""Closed-form equilibrium families.

Every family carries three synchronized faces: a potential U, a density
f = k e^(-U) and a causal intensity E_c = -U'.  This script tabulates a
few members and checks the faces against each other.
"""

import numpy as np

from equilib import Exponential, Gamma, Normal, Poisson, UniformLattice

families = [
    ("uniform lattice, N=8", UniformLattice(8)),
    ("exponential, a=2", Exponential(2.0)),
    ("standard normal", Normal(0.0, 1.0)),
    ("Poisson, lam=2", Poisson(2.0)),
    ("gamma, alpha=3 beta=2", Gamma(3.0, 2.0)),
]

for label, fam in families:
    grid = fam.default_grid()
    x = grid.points
    f = fam.density(x)
    u_tilde = fam.normalized_potential(x)
    ec = fam.intensity(x)

    mass = grid.quadrature(f)
    consistency = np.max(np.abs(u_tilde + np.log(f)))
    print(f"{label:24s}  grid {grid.kind:10s} n={grid.n_points:6d}  "
          f"mass={mass:.10f}  max|U_tilde + ln f|={consistency:.2e}")

    mid = grid.n_points // 2
    print(f"{'':24s}  sample row: x={x[mid]:.4g}  f={f[mid]:.6g}  "
          f"U_tilde={u_tilde[mid]:.6g}  E_c={ec[mid]:.6g}")
