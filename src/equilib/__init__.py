"""Potentials, equilibrium densities and intensities on 1-D grids."""

from .catalog import (FAMILIES, SPECS, Exponential, Gamma, LinearConstant,
                      Normal, PearsonPotential, Poisson, UniformLattice,
                      make_family)
from .diagnostics import (DecompositionReport, decompose_samples,
                          fisher_information_number, fit_linear_intensity,
                          shannon_entropy)
from .errors import (EquilibError, GridError, MomentRangeError,
                     NonNormalizableError, PotentialError, SampleError,
                     StabilityError, SupportError)
from .grid import Grid, build_grid
from .maxent import (MaxEntProblem, MaxEntSolution, sample_u_moment,
                     solve_maxent, u_moment)
from .potential import (EquilibriumDensity, IntensityTable,
                        NormalizedPotentialTable, PolynomialPotential,
                        ResidualReport, TabulatedPotential, causal_intensity,
                        density_from_intensity, equilibrium_residual,
                        eval_potential, normalize, normalized_potential,
                        potential_of_density, stochastic_intensity)
from .simulate import SimConfig, SimResult, simulate, tv_distance
from .special import digamma, gammaln

__version__ = "0.1.0"
