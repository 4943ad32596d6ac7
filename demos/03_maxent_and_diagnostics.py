"""Maximum-entropy densities under a moment constraint.

Fixing the mean of u(x) and maximizing entropy yields the exponential
family k(lambda) e^(-lambda u).  The solver finds the multiplier by
bracketed Newton: each step takes the Newton point if it lies strictly
inside the bracket, else the midpoint; the entropy and Fisher diagnostics
then verify the textbook identities on the solution.
"""

import numpy as np

from equilib import (MaxEntProblem, PolynomialPotential, build_grid,
                     fisher_information_number, shannon_entropy, solve_maxent)

u = PolynomialPotential((0.0, 1.0))  # u(x) = x
grid = build_grid("continuous", 0.0, 40.0, 80001)

for target in (0.25, 0.5, 1.0, 2.0):
    sol = solve_maxent(MaxEntProblem(u=u, grid=grid, target_moment=target))
    h = shannon_entropy(sol.density)
    fisher = fisher_information_number(u, sol.lam, grid)
    # for mean m the exact answers are lambda = 1/m, H = 1 + ln m,
    # Var = m^2
    print(f"target mean {target:5.2f}:  lambda={sol.lam:.8f} "
          f"(exact {1 / target:.8f})  iterations={sol.iterations}  "
          f"entropy={h:.8f} (exact {1 + np.log(target):.8f})  "
          f"Fisher={fisher:.8f} (exact {target ** 2:.8f})")

# a constraint outside the attainable range of u is rejected up front
from equilib import MomentRangeError

try:
    solve_maxent(MaxEntProblem(u=u, grid=grid, target_moment=100.0))
except MomentRangeError as exc:
    print(f"infeasible target rejected: {exc}")
