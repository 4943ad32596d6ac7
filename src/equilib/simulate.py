"""Stochastic-dynamics verification of the Boltzmann equilibrium.

Overdamped Euler-Maruyama with unit diffusion: the drift is the causal
intensity -dU/dx (the potential's ``euler_map(dt)`` where it has one,
else the tabulated -U' interpolated on the grid) and the stationary
density of the continuous dynamics is exactly k e^(-U), so the long-run
histogram must converge to the quadrature density.  Chains reflect at the
grid bounds.  All randomness comes from one Philox stream seeded by
``seed``: first the chains' uniform starting points, then the kicks in
step-major order (all chains of step 0, then of step 1, ...), so every run
is bit-reproducible.  A counter-based stream gives independent normals to
every chain without per-chain generators (Salmon et al., SC'11); a chain's
path therefore depends on ``n_chains``.

Noise is drawn and visits are counted in blocks of steps, in two buffers
of BLOCK_ELEMENTS floats, so memory is O(chains x block + points).  A
one-thread executor, one per call, draws the kicks, amp xi, in the stream's
(C) order: the caller queues block k + 1 into the other buffer (block
k - 1's, already counted) before it takes block k's result, so the worker
starts each draw as the last one ends, and steps block k while k + 1 is
drawn.  Blocks come back in order and counts are integers, so no bit
depends on the block size or the thread.  The worker pins itself off the
CPU the caller last ran on (field 39 of its /proc stat), else a draw there
stalls the caller at its block's first GIL-releasing call; no pin if that
CPU is the only one allowed or /proc or the affinity calls are missing, and
the caller is never pinned.  A draw's error is raised in the caller by its
result, and leaving the executor joins the worker after at most the one
queued draw.

Step t writes x + dt E_c(x) into y, adds row t's kicks and, by
``_reflect``, reflects y once at each wall over the row, the identity on
[lower, upper]: 9 ufunc calls on the double well.  A chain still outside
stepped farther than upper - lower; only it folds by u = (y - lower) mod P,
x = lower + min(u, P - u), P = 2 (upper - lower).  A chunk of CHUNK steps
runs clear, without the reflection (5 calls), if the last chunk's rows (a
reflected one's last row) kept every chain dt max|E_c| + REACH amp inside,
else reflected; one min and max of its rows in [lower, upper] prove the
pass exact, else it reruns a level up (clear, reflected, wide) on a saved
copy of its kicks.  Only the wide pass heeds float errors: a drift off its
support gives NaN or inf, which fail the proof.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import GridError, StabilityError, require_integer, require_real
from .grid import CONTINUOUS, Grid
from .potential import EquilibriumDensity, causal_intensity, normalize

RNG_ALGORITHM = "philox4x64"
STABILITY_LIMIT = 0.5
# floats per block buffer, of which there are two (1 MiB)
BLOCK_ELEMENTS = 2 ** 16
CHUNK = 64  # steps per chunk, which runs clear where the fold is identity
REACH = 6.0  # kick sigmas past the drift that a clear chunk keeps off walls


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
        require_real(self.dt, "dt", StabilityError, positive=True)
        for name, minimum in (("n_steps", 1), ("n_chains", 1),
                              ("burn_in", 0), ("seed", 0)):
            require_integer(getattr(self, name), name, StabilityError, minimum)
        if not self.burn_in < self.n_steps:
            raise StabilityError("need burn_in < n_steps")
        if not self.seed < 2 ** 64:
            raise StabilityError("seed must fit in 64 unsigned bits")
        # NumPy cannot even size an array of 2**60 floats
        if not self.n_chains < 2 ** 60:
            raise StabilityError("n_chains must be below 2**60")


@dataclass(frozen=True)
class SimResult:
    histogram: EquilibriumDensity
    n_samples_used: int
    tv_distance: float
    seed: int
    stability_margin: float          # dt * max|E_c|, guarded below 0.5
    rng_algorithm: str = RNG_ALGORITHM


def tv_distance(p: EquilibriumDensity, q: EquilibriumDensity) -> float:
    """Total variation distance (1/2) integral |p - q|."""
    p.grid.require_same(q.grid, "densities")
    return 0.5 * p.grid.quadrature(np.abs(p.values - q.values))


def _reflect(y, twice_lower, twice_upper, z, out):
    """max(2 lower - y, y), then min(2 upper - ., .), into out: y in [lower,
    upper] keeps its bits (a tie gives the second operand), and y at most
    upper - lower outside lands inside (out by keyword, as NumPy asks)."""
    np.maximum(np.subtract(twice_lower, y, z), y, out=out)
    return np.minimum(np.subtract(twice_upper, out, z), out, out=out)


def _pin(caller):
    """Pin this thread off the caller's current CPU, field 39 of its stat,
    if the caller may use others."""
    try:
        with open(f"/proc/self/task/{caller}/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)  # this thread alone
    except (AttributeError, OSError):  # no affinity calls or no /proc
        pass


def simulate(config: SimConfig) -> SimResult:
    """Run the chains and compare the histogram with the Boltzmann density."""
    grid = config.grid
    if grid.kind != CONTINUOUS:
        raise GridError("simulation needs a continuous grid")
    target = normalize(config.potential, grid)

    ec = causal_intensity(config.potential, grid)
    if np.any(ec.mask):
        raise StabilityError("causal intensity is undefined on the grid")
    margin = config.dt * float(np.max(np.abs(ec.values)))
    if margin >= STABILITY_LIMIT:
        raise StabilityError(
            f"dt * max|E_c| = {margin:g} exceeds the "
            f"{STABILITY_LIMIT} stability guard"
        )

    # advance(x, y) writes x + dt * E_c(x) into y: the potential's own Euler
    # map where it has one, else with the interpolated E_c
    dt = np.array(config.dt)
    advance = (config.potential.euler_map(config.dt)
               if hasattr(config.potential, "euler_map") else
               (lambda x, out: np.add(x, np.multiply(
                   np.interp(x, grid.points, ec.values), dt, out), out)))

    rng = np.random.Generator(np.random.Philox(config.seed))
    x = rng.uniform(grid.lower, grid.upper, config.n_chains)

    pts = grid.points
    edges = np.concatenate(([pts[0]], 0.5 * (pts[1:] + pts[:-1]), [pts[-1]]))
    counts = np.zeros(grid.n_points, dtype=np.int64)
    block = min(config.n_steps, max(1, BLOCK_ELEMENTS // config.n_chains))
    paths = np.empty((2, block, config.n_chains))
    y, z = np.empty(config.n_chains), np.empty(config.n_chains)
    amp = np.sqrt(2.0 * config.dt)
    lower, upper = grid.lower, grid.upper
    twice_lower, twice_upper = np.array(2.0 * lower), np.array(2.0 * upper)
    add, period = np.add, 2.0 * (upper - lower)
    reach = margin + REACH * amp  # it sets the speed alone, not the bits
    near, far = lower + reach, upper - reach
    lo, hi = x.min(), x.max()
    starts = range(0, config.n_steps, block)

    def draw(out):  # a block's kicks, amp xi, on the worker
        return np.multiply(rng.standard_normal(out=out), amp, out)

    # imported here: concurrent.futures pulls in logging, ~11 ms of start-up
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1, initializer=_pin,
                            initargs=(threading.get_native_id(),)) as worker:
        pending = [worker.submit(draw, paths[0])]
        for k, start in enumerate(starts):
            if start + block < config.n_steps:
                # block k + 1 (the last is short) into block k - 1's buffer,
                # already counted, queued behind block k
                pending.append(worker.submit(
                    draw, paths[1 - k % 2, :config.n_steps - start - block]))
            kicks = pending.pop(0).result()  # raises the worker's error
            for c in range(0, len(kicks), CHUNK):
                rows, x0 = kicks[c:c + CHUNK], x
                saved = rows.copy()  # the kicks, for a rerun
                # 0 clear, 1 reflected, 2 wide: 0 and 1 are proved or rerun
                for level in range(0 if near < lo and hi < far else 1, 3):
                    with np.errstate(all="ignore" if level < 2 else None):
                        for row in rows:
                            advance(x, y)
                            if not level:
                                x = add(y, row, row)
                                continue
                            add(y, row, y)
                            x = _reflect(y, twice_lower, twice_upper, z, row)
                            if level == 2:  # a step wider than the grid
                                i = np.flatnonzero((x < lower) | (x > upper))
                                u = np.mod(y[i] - lower, period)
                                x[i] = lower + np.minimum(u, period - u)
                        lo, hi = rows.min(), rows.max()  # reads all rows
                    if level == 2 or lower <= lo and hi <= upper:
                        break
                    np.copyto(rows, saved)
                    x = x0
                if level:  # a reflected chunk's last row alone counts
                    lo, hi = x.min(), x.max()
            x = x.copy()  # the worker overwrites this row
            # burn-in may end mid-block; integer counts merge exactly
            skip = max(0, config.burn_in - start)
            counts += np.histogram(kicks[skip:], bins=edges)[0]
    hist = EquilibriumDensity.from_table(
        grid, counts / (counts.sum() * grid.weights))

    return SimResult(
        histogram=hist,
        n_samples_used=int(counts.sum()),
        tv_distance=tv_distance(hist, target),
        seed=config.seed,
        stability_margin=margin,
    )
