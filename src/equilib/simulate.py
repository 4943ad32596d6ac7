"""Stochastic-dynamics verification of the Boltzmann equilibrium.

Overdamped Euler-Maruyama with unit diffusion: the drift is the causal
intensity -dU/dx and the stationary density of the continuous dynamics is
exactly k e^(-U), so the long-run histogram must converge to the
quadrature density.  Chains reflect at the grid bounds and draw their
noise from per-chain Philox streams derived deterministically from
(seed, chain index), making every run bit-reproducible.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .catalog import _Family
from .errors import GridError, StabilityError
from .grid import CONTINUOUS, Grid
from .potential import EquilibriumDensity, causal_intensity, normalize

RNG_ALGORITHM = "philox4x64"
STABILITY_LIMIT = 0.5


@dataclass(frozen=True)
class SimConfig:
    potential: object
    grid: Grid
    dt: float
    n_steps: int
    burn_in: int
    n_chains: int
    seed: int

    def __post_init__(self):
        for name in ("n_steps", "burn_in", "n_chains", "seed"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise StabilityError(
                    f"{name} must be an integer, got {value!r}")
        if not self.dt > 0:
            raise StabilityError("dt must be positive")
        if self.n_steps < 1 or self.n_chains < 1:
            raise StabilityError("n_steps and n_chains must be positive")
        if not 0 <= self.burn_in < self.n_steps:
            raise StabilityError("need 0 <= burn_in < n_steps")
        if not 0 <= self.seed < 2 ** 64:
            raise StabilityError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SimResult:
    histogram: EquilibriumDensity
    n_samples_used: int
    tv_distance: float
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


def tv_distance(p: EquilibriumDensity, q: EquilibriumDensity) -> float:
    """Total variation distance (1/2) integral |p - q|."""
    p.grid.require_same(q.grid, "densities")
    return 0.5 * p.grid.quadrature(np.abs(p.values - q.values))


def _reflect(x, lower, upper):
    period = 2.0 * (upper - lower)
    y = np.mod(x - lower, period)
    return lower + np.minimum(y, period - y)


def _chain_rng(seed: int, chain: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chain,))
    return np.random.Generator(np.random.Philox(seq))


def simulate(config: SimConfig) -> SimResult:
    """Run the chains and compare the histogram with the Boltzmann density."""
    grid = config.grid
    if grid.kind != CONTINUOUS:
        raise GridError("simulation needs a continuous grid")
    target = normalize(config.potential, grid)

    ec = causal_intensity(config.potential, grid)
    if np.any(ec.mask):
        raise StabilityError("causal intensity is undefined on the grid")
    max_drift = float(np.max(np.abs(ec.values)))
    if config.dt * max_drift >= STABILITY_LIMIT:
        raise StabilityError(
            f"dt * max|E_c| = {config.dt * max_drift:g} exceeds the "
            f"{STABILITY_LIMIT} stability guard"
        )

    # closed-form drift for catalog families, else interpolate the table
    drift = (config.potential.intensity
             if isinstance(config.potential, _Family)
             else lambda x: np.interp(x, grid.points, ec.values))

    rngs = [_chain_rng(config.seed, c) for c in range(config.n_chains)]
    x = np.array([rng.uniform(grid.lower, grid.upper) for rng in rngs])
    noise = np.stack([rng.standard_normal(config.n_steps) for rng in rngs])

    kept = config.n_steps - config.burn_in
    positions = np.empty((config.n_chains, kept))
    amp = np.sqrt(2.0 * config.dt)
    for t in range(config.n_steps):
        x = x + drift(x) * config.dt + amp * noise[:, t]
        x = _reflect(x, grid.lower, grid.upper)
        if t >= config.burn_in:
            positions[:, t - config.burn_in] = x

    # merge integer counts per chain before normalizing (order-independent)
    pts = grid.points
    edges = np.concatenate(([pts[0]], 0.5 * (pts[1:] + pts[:-1]), [pts[-1]]))
    counts = np.zeros(grid.n_points, dtype=np.int64)
    for c in range(config.n_chains):
        counts += np.histogram(positions[c], bins=edges)[0]
    hist = EquilibriumDensity.from_table(
        grid, counts / (counts.sum() * grid.weights))

    return SimResult(
        histogram=hist,
        n_samples_used=int(counts.sum()),
        tv_distance=tv_distance(hist, target),
        seed=config.seed,
    )
