import importlib
import io
import os
import sys
import threading
import time
import tracemalloc

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equilib import (EquilibriumDensity, Exponential, Gamma, GridError,
                     LinearConstant, Normal, PearsonPotential, Poisson,
                     PolynomialPotential, SimConfig, SimResult,
                     StabilityError, TabulatedPotential, UniformLattice,
                     build_grid, normalize, simulate, tv_distance)
from equilib.potential import causal_intensity

SIM_MODULE = importlib.import_module("equilib.simulate")

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
                           log_omega=0.0)
    q = EquilibriumDensity(grid=g, values=np.array([0.0, 0.0, 1.0]),
                           log_omega=0.0)
    assert tv_distance(p, q) == 1.0


def test_tv_uniform_vs_skewed():
    g = build_grid("lattice", 0, 2, 3)
    p = EquilibriumDensity(grid=g, values=np.array([0.5, 0.5, 0.0]),
                           log_omega=0.0)
    q = EquilibriumDensity(grid=g, values=np.array([0.75, 0.25, 0.0]),
                           log_omega=0.0)
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


def test_stability_margin_is_dt_times_max_intensity():
    # |E_c| = |x| peaks at 6 on the +-6 grid
    r = simulate(harmonic_config(n_steps=100, burn_in=10))
    assert r.stability_margin == pytest.approx(5e-3 * 6.0, rel=1e-12)


# ---------------------------------------------------------------------------
# streaming in blocks against the whole-array loop


def _reference_simulate(config, sums=None):
    """Whole-array Euler-Maruyama: all noise and kept positions at once.

    A step is y = x + E dt + amp xi, reflected once at each wall, z =
    max(2 lower - y, y), z = min(2 upper - z, z); a chain still outside
    folds by u = mod(y - lower, P), x = lower + min(u, P - u), with P =
    2 (upper - lower).  On a polynomial, x + E dt is polyval(x, q) for q =
    x - dt U'; elsewhere it is x + E(x) * dt, with E the closed-form
    intensity where simulate's is (the spec has ``euler_map``), else the
    interpolated E_c table.  Each step's (y, z, x) goes into sums if given."""
    grid, dt, U = config.grid, config.dt, config.potential
    P = np.polynomial.polynomial
    q = (P.polyadd((0.0, 1.0), -dt * P.polyder(U.coeffs))
         if isinstance(U, PolynomialPotential) else None)
    ec = causal_intensity(U, grid)
    drift = (U.intensity if hasattr(U, "euler_map")
             else (lambda x: np.interp(x, grid.points, ec.values)))

    def advance(x):
        return x + drift(x) * dt if q is None else P.polyval(x, q)

    rng = np.random.Generator(np.random.Philox(config.seed))
    x = rng.uniform(grid.lower, grid.upper, config.n_chains)
    noise = rng.standard_normal((config.n_steps, config.n_chains))
    kicks = np.sqrt(2.0 * dt) * noise
    lower, upper = grid.lower, grid.upper
    period = 2.0 * (upper - lower)
    positions = np.empty((config.n_chains, config.n_steps - config.burn_in))
    for t in range(config.n_steps):
        y = advance(x) + kicks[t]
        z = np.maximum(2.0 * lower - y, y)
        z = np.minimum(2.0 * upper - z, z)
        u = np.mod(y - lower, period)
        x = np.where((z < lower) | (z > upper),
                     lower + np.minimum(u, period - u), z)
        if sums is not None:
            sums.append((y, z, x))
        if t >= config.burn_in:
            positions[:, t - config.burn_in] = x
    pts = grid.points
    edges = np.concatenate(([pts[0]], 0.5 * (pts[1:] + pts[:-1]), [pts[-1]]))
    counts = np.zeros(grid.n_points, dtype=np.int64)
    for c in range(config.n_chains):
        counts += np.histogram(positions[c], bins=edges)[0]
    hist = EquilibriumDensity.from_table(
        grid, counts / (counts.sum() * grid.weights))
    return (hist.values, int(counts.sum()),
            tv_distance(hist, normalize(config.potential, grid)), positions)


WELL_GRID = build_grid("continuous", -3, 3, 31)
WELL = TabulatedPotential(grid=WELL_GRID,
                          values=(WELL_GRID.points ** 2 - 1.0) ** 2 / 2)
QUARTIC_GRID = build_grid("continuous", -4, 4, 33)
QUARTIC = PolynomialPotential((1.0, 0.0, -1.0, 0.0, 0.25))
# a closed-form intensity, but an interpolated drift; a Pearson normal's
# linear -U' interpolates to within an ulp, so b2 > 0 bends it
PEARSON = PearsonPotential(a=0.5, b0=2.0, b1=0.0, b2=0.25)


# 60 steps: blocks of 1, 7 and 13 steps (13 does not divide 60), one
# block longer than the run, and a budget of fewer elements than chains,
# which the max(1, ...) floor turns into one-step blocks; burn-in 10 ends
# inside the second block of 7 and the first of 13, burn-in 30 spans
# several blocks of each
@pytest.mark.parametrize("block", [1, 7, 13, 100, "floor"])
@pytest.mark.parametrize("burn_in", [0, 10, 30])
@pytest.mark.parametrize("potential,grid", [(HARMONIC, HARMONIC_GRID),
                                            (WELL, WELL_GRID),
                                            (QUARTIC, QUARTIC_GRID),
                                            (PEARSON, HARMONIC_GRID)],
                         ids=["family", "tabulated", "polynomial",
                              "pearson"])
def test_blocks_match_whole_array_loop(potential, grid, burn_in, block,
                                       monkeypatch):
    cfg = SimConfig(potential=potential, grid=grid, dt=5e-3, n_steps=60,
                    burn_in=burn_in, n_chains=3, seed=17)
    elements = cfg.n_chains - 1 if block == "floor" else block * cfg.n_chains
    monkeypatch.setattr(SIM_MODULE, "BLOCK_ELEMENTS", elements)
    values, n_used, tv, positions = _reference_simulate(cfg)
    # the kept positions reach the histogram one block at a time; a last-bit
    # change in them would rarely move a count
    kept, histogram = [], np.histogram

    def recording_histogram(a, *args, **kwargs):
        kept.append(np.array(a))
        return histogram(a, *args, **kwargs)

    monkeypatch.setattr(np, "histogram", recording_histogram)
    r = simulate(cfg)
    assert np.array_equal(np.concatenate(kept).T, positions)
    if block == "floor":
        assert len(kept) == 60  # one histogram call per one-step block
    assert np.array_equal(r.histogram.values, values)
    assert r.n_samples_used == n_used == 3 * (60 - burn_in)
    assert r.tv_distance == tv


def test_memory_does_not_grow_with_steps():
    # the whole-array loop (all noise and kept positions at once) peaked
    # at 79 MB
    cfg = harmonic_config(n_steps=20_000, burn_in=2_000, n_chains=256)
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_one_philox_stream_for_all_chains(monkeypatch):
    built, philox = [], np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    r = simulate(harmonic_config(n_steps=3, burn_in=0, n_chains=20_000))
    assert len(built) == 1
    assert r.n_samples_used == 3 * 20_000


# ---------------------------------------------------------------------------
# closed-form polynomial drift


def test_polynomial_drift_never_interpolates(monkeypatch):
    def no_interp(*args, **kwargs):
        raise AssertionError("np.interp called for a polynomial drift")

    monkeypatch.setattr(np, "interp", no_interp)
    cfg = SimConfig(potential=QUARTIC, grid=QUARTIC_GRID, dt=5e-3,
                    n_steps=500, burn_in=50, n_chains=4, seed=5)
    r = simulate(cfg)
    assert r.n_samples_used == 4 * 450
    assert np.isfinite(r.tv_distance)


def test_polynomial_drift_never_calls_intensity_per_step(monkeypatch):
    # the guard's E_c table is the one intensity call; each step goes
    # through euler_map into the scratch vector
    intensity = PolynomialPotential.intensity

    def grid_only(self, x):
        if x is not QUARTIC_GRID.points:
            raise AssertionError("intensity called off the grid")
        return intensity(self, x)

    monkeypatch.setattr(PolynomialPotential, "intensity", grid_only)
    cfg = SimConfig(potential=QUARTIC, grid=QUARTIC_GRID, dt=5e-3,
                    n_steps=500, burn_in=50, n_chains=4, seed=5)
    r = simulate(cfg)
    assert r.n_samples_used == 4 * 450
    assert np.isfinite(r.tv_distance)


class Counting:
    """A ufunc that records its calls; its methods (reduce, ...) pass."""

    def __init__(self, ufunc, calls):
        self.ufunc, self.calls = ufunc, calls

    def __call__(self, *args, **kwargs):
        self.calls.append(self.ufunc.__name__)
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)


def step_call_counter(monkeypatch, potential, grid, seed, n_chains=4):
    """count(n_steps): the ufunc calls of one simulate run of n_steps."""
    calls = []
    for name in ("add", "subtract", "mod", "maximum", "minimum", "multiply"):
        monkeypatch.setattr(np, name, Counting(getattr(np, name), calls))

    def count(n_steps):
        calls.clear()
        simulate(SimConfig(potential=potential, grid=grid, dt=5e-3,
                           n_steps=n_steps, burn_in=0, n_chains=n_chains,
                           seed=seed))
        return len(calls)

    count(1)  # the first run also builds the grid's cached points
    return count


def test_double_well_step_is_nine_ufunc_calls(monkeypatch):
    # Horner on x - dt U' = -dt x^3 + (1 + 2 dt) x is 4 calls (times -dt,
    # times x, plus 1 + 2 dt, times x), then kick, 2 lower - y, max,
    # 2 upper - y and min; the 12-call step drifted, scaled and added x
    # apart.  Seed 5 starts a chain 0.6 from a wall, so this one chunk runs
    # reflected
    count = step_call_counter(monkeypatch, QUARTIC, QUARTIC_GRID, seed=5)
    # both runs are one block, so the difference is 49 steps' calls
    assert count(50) - count(1) == 49 * 9


def test_clear_double_well_step_is_five_ufunc_calls(monkeypatch):
    # seed 2 starts every chain more than reach (0.88) inside the walls and
    # they stay there: every chunk runs clear, Horner and the kick written
    # over the row; the two runs differ in the third chunk's last 49 steps
    start = np.random.Generator(np.random.Philox(2)).uniform(-4, 4, 4)
    assert np.all(np.abs(start) < 4 - 0.88)
    count = step_call_counter(monkeypatch, QUARTIC, QUARTIC_GRID, seed=2)
    chunk = SIM_MODULE.CHUNK
    assert count(2 * chunk + 50) - count(2 * chunk + 1) == 49 * 5


def test_exponential_folds_every_chunk(monkeypatch):
    # 128 chains keep one by the wall at 0 (the map is 2 calls: -a dt, + x),
    # so every chunk runs reflected, with no clear pass tried
    count = step_call_counter(monkeypatch, Exponential(1.0),
                              build_grid("continuous", 0, 12, 49), seed=7,
                              n_chains=128)
    chunk = SIM_MODULE.CHUNK
    assert count(2 * chunk + 50) - count(2 * chunk + 1) == 49 * 7


# ---------------------------------------------------------------------------
# clear, reflected and wide passes, each proved or rerun one level up


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@example(0.0, 1.0, [0.0, 1.0])
@example(-1.0, 0.0, [0.5])
def test_reflect_keeps_the_grid_and_brings_a_short_step_inside(a, b, at):
    # y across [lower, upper] (both walls, their neighbours inside and a
    # zero of either sign where the grid holds one) keeps its bits; y at
    # most upper - lower past either wall lands inside
    lower, upper = min(a, b), max(a, b)
    assume(lower < upper)
    width, frac = upper - lower, np.array(at)
    zeros = [-0.0, 0.0] if lower <= 0.0 <= upper else []
    inside = np.concatenate((
        np.clip(lower + frac * width, lower, upper), zeros, [lower, upper],
        [np.nextafter(lower, upper), np.nextafter(upper, lower)]))
    outside = np.array([y for y in np.concatenate((lower - frac * width,
                                                   upper + frac * width))
                        if max(F(lower) - F(y), F(y) - F(upper))
                        <= F(upper) - F(lower)])
    walls = np.array(2.0 * lower), np.array(2.0 * upper)
    for y in (inside, outside):
        out = np.empty_like(y)
        assert SIM_MODULE._reflect(y, *walls, np.empty_like(y), out) is out
        assert np.all((lower <= out) & (out <= upper))
        if y is inside:
            assert out.tobytes() == y.tobytes()


def _chunk_story(cfg, margin):
    """The oracle's run and, for each chunk that simulate steps, (first
    step, steps, levels it runs, row of its first wall contact or None).

    A chunk starts clear (level 0) when the positions of the last chunk
    (of its last row alone where it ran reflected), or the start, lie more
    than margin + REACH amp inside both walls, else reflected (1).  A clear
    pass fails at a contact, a step whose sum y leaves [lower, upper]; a
    reflected one where a once-reflected z does; each failure reruns the
    chunk one level up, up to wide (2)."""
    sums = []
    reference = _reference_simulate(cfg, sums)
    grid = cfg.grid
    y, z, x = (np.array(a) for a in zip(*sums))
    contact, wide = (~((a >= grid.lower) & (a <= grid.upper)).all(axis=1)
                     for a in (y, z))
    reach = margin + SIM_MODULE.REACH * np.sqrt(2.0 * cfg.dt)
    start = np.random.Generator(np.random.Philox(cfg.seed)).uniform(
        grid.lower, grid.upper, cfg.n_chains)
    lo, hi = start.min(), start.max()
    block = min(cfg.n_steps,
                max(1, SIM_MODULE.BLOCK_ELEMENTS // cfg.n_chains))
    story = []
    for b in range(0, cfg.n_steps, block):
        for t in range(b, min(b + block, cfg.n_steps), SIM_MODULE.CHUNK):
            n = min(SIM_MODULE.CHUNK, b + block - t, cfg.n_steps - t)
            hits = np.flatnonzero(contact[t:t + n])
            clear = grid.lower + reach < lo and hi < grid.upper - reach
            levels = [0] if clear else []
            if hits.size or not clear:
                levels += [1, 2] if wide[t:t + n].any() else [1]
            story.append((t, n, levels, int(hits[0]) if hits.size else None))
            span = x[t:t + n] if levels == [0] else x[t + n - 1]
            lo, hi = span.min(), span.max()
    return reference, story


def record_steps(m, potential, events):
    """Patch m so that each simulate step appends to events(): 'A' as it
    advances, then 'R' if it reflects."""
    euler_map, reflect = type(potential).euler_map, SIM_MODULE._reflect

    def recording_map(self, dt):
        advance = euler_map(self, dt)

        def recording(x, out):
            events().append("A")
            return advance(x, out)
        return recording

    def recording_reflect(*args):
        events().append("R")
        return reflect(*args)

    m.setattr(type(potential), "euler_map", recording_map)
    m.setattr(SIM_MODULE, "_reflect", recording_reflect)


def step_kinds(events=None, story=None):
    """Per step run, 0 if clear and 1 if reflected, from recorded events
    or from a chunk story."""
    if story is None:
        return [len(step) for step in "".join(events).split("A")[1:]]
    return [min(level, 1) for _, n, levels, _ in story for level in levels
            for _ in range(n)]


# a normal whose mean sits half a sigma above the lower wall
NEAR_WALL = (Normal(0.0, 1.0), build_grid("continuous", -0.5, 6, 41))
GAMMA_5 = (Gamma(5.0, 1.0), build_grid("continuous", 0.5, 20, 41))

# name: (potential and grid, seed, CHUNK, REACH, steps per block, and a
# chunk (first step, steps, first contact row) that is tried clear and
# redone reflected); REACH = -inf tries every chunk clear, so a contact
# can fall in its first row, as none can where reach holds
SWITCH_CASES = {
    "mid-row": (NEAR_WALL, 5, 64, 6.0, None, (320, 64, 58)),
    "last-row": (NEAR_WALL, 37, 16, 6.0, None, (320, 16, 15)),
    "block-end": (NEAR_WALL, 5, 64, 6.0, 384, (320, 64, 58)),
    "from-start": (GAMMA_5, 27, 64, 6.0, None, (0, 64, 58)),
    "first-row": (NEAR_WALL, 3, 5, -np.inf, 12, None),
}


@pytest.mark.parametrize("name", SWITCH_CASES)
def test_clear_and_folded_chunks_match_oracle(name, monkeypatch):
    (potential, grid), seed, chunk, reach, block, redone = \
        SWITCH_CASES[name]
    cfg = SimConfig(potential=potential, grid=grid, dt=5e-3, n_steps=1000,
                    burn_in=0, n_chains=2, seed=seed)
    monkeypatch.setattr(SIM_MODULE, "CHUNK", chunk)
    monkeypatch.setattr(SIM_MODULE, "REACH", reach)
    if block is not None:
        monkeypatch.setattr(SIM_MODULE, "BLOCK_ELEMENTS", block * 2)
    kept, histogram, events = [], np.histogram, []

    def recording_histogram(a, *args, **kwargs):
        kept.append(np.array(a))
        return histogram(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "histogram", recording_histogram)
        record_steps(m, potential, lambda: events)
        r = simulate(cfg)
    (values, n_used, tv, positions), story = _chunk_story(
        cfg, r.stability_margin)
    assert np.array_equal(np.concatenate(kept).T, positions)
    assert np.array_equal(r.histogram.values, values)
    assert r.tv_distance == tv
    # the story matches the run, pass by pass
    assert step_kinds(events) == step_kinds(story=story)
    failed = [(t, n, row) for t, n, levels, row in story
              if levels[:2] == [0, 1]]
    if redone is not None:
        assert redone in failed
        # clear -> contact -> reflected -> clear
        assert any(levels == [0] and t > redone[0]
                   for t, _, levels, _ in story)
        assert any(levels == [0] and t < redone[0]
                   for t, _, levels, _ in story) or redone[0] == 0
        if block is not None:
            assert (redone[0] + redone[1]) % block == 0
    else:
        assert any(row == 0 for _, _, row in failed)
        assert any(row == n - 1 for _, n, row in failed)
        assert any((t + n) % block == 0 for t, n, _ in failed)


# a grid far narrower than a step: most chains are still outside after
# one reflection at each wall, so chunks rerun wide; REACH = -inf tries
# each chunk clear first
@pytest.mark.parametrize("width,block,reach", [
    (width, block, 6.0) for width in (1e-9, 1e-3) for block in (1, 7, 100)
] + [(1e-3, 7, -np.inf)])
def test_narrow_grid_runs_wide_in_bounded_time(width, block, reach,
                                               monkeypatch):
    potential = Normal()
    cfg = SimConfig(potential=potential,
                    grid=build_grid("continuous", 1.0, 1.0 + width, 3),
                    dt=5e-3, n_steps=300, burn_in=0, n_chains=3, seed=11)
    monkeypatch.setattr(SIM_MODULE, "BLOCK_ELEMENTS", block * 3)
    monkeypatch.setattr(SIM_MODULE, "REACH", reach)
    kept, histogram, events = [], np.histogram, []

    def recording_histogram(a, *args, **kwargs):
        kept.append(np.array(a))
        return histogram(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "histogram", recording_histogram)
        record_steps(m, potential, lambda: events)
        began = time.perf_counter()
        r = simulate(cfg)
        elapsed = time.perf_counter() - began
    (values, n_used, tv, positions), story = _chunk_story(
        cfg, r.stability_margin)
    assert np.array_equal(np.concatenate(kept).T, positions)
    assert np.array_equal(r.histogram.values, values)
    assert r.tv_distance == tv
    assert step_kinds(events) == step_kinds(story=story)
    if width == 1e-9:  # every chunk needs the mod rule
        assert all(levels[-1] == 2 for _, _, levels, _ in story)
    assert any(levels == ([0, 1, 2] if reach < 0 else [1, 2])
               for _, _, levels, _ in story)
    # ~20 ms on 2 vCPUs; reflecting until inside would take ~0.1 / width
    # passes a step
    assert elapsed < 5.0


@pytest.mark.parametrize("fault", ["nan", "FloatingPointError"])
def test_clear_pass_errors_rerun_folded(fault, monkeypatch):
    # a map that writes NaN below the grid, or divides by zero there, where
    # only a clear pass steps: the reflected rerun keeps the bits, and no
    # pass warns or raises
    potential, grid = NEAR_WALL
    scaled, hit = Normal.scaled_intensity, []

    def strict(self, x, scale, out):
        scaled(self, x, scale, out)
        below = x < grid.lower
        if np.any(below):
            hit.append(fault)
            if fault == "nan":
                out[below] = np.nan
            else:
                np.divide(out, 0.0, out, where=below)
        return out

    monkeypatch.setattr(Normal, "scaled_intensity", strict)
    monkeypatch.setattr(SIM_MODULE, "REACH", -np.inf)
    cfg = SimConfig(potential=potential, grid=grid, dt=5e-3, n_steps=300,
                    burn_in=0, n_chains=2, seed=3)
    values, n_used, tv, _ = _reference_simulate(cfg)
    r = simulate(cfg)
    assert hit
    assert np.array_equal(r.histogram.values, values)
    assert r.tv_distance == tv


def test_poisson_clear_pass_below_its_support_matches_oracle(monkeypatch):
    # every chunk is tried clear, so chains by the wall at 0 step below
    # x = -1, where the unchecked psi(x + 1) throws them far down and then
    # gives NaN; each such pass ends, fails the proof and reruns reflected
    cfg = SimConfig(potential=Poisson(0.5),
                    grid=build_grid("continuous", 0, 6, 25), dt=0.1,
                    n_steps=300, burn_in=0, n_chains=3, seed=1)
    monkeypatch.setattr(SIM_MODULE, "REACH", -np.inf)
    values, n_used, tv, positions = _reference_simulate(cfg)
    scaled, lowest = Poisson.scaled_intensity, []

    def recording(self, x, scale, out):
        lowest.append(np.min(x))
        return scaled(self, x, scale, out)

    kept, histogram = [], np.histogram

    def recording_histogram(a, *args, **kwargs):
        kept.append(np.array(a))
        return histogram(a, *args, **kwargs)

    monkeypatch.setattr(Poisson, "scaled_intensity", recording)
    monkeypatch.setattr(np, "histogram", recording_histogram)
    r = simulate(cfg)
    assert np.nanmin(lowest) < -10.0 and np.isnan(lowest).any()
    assert np.array_equal(np.concatenate(kept).T, positions)
    assert np.array_equal(r.histogram.values, values)
    assert r.n_samples_used == n_used
    assert r.tv_distance == tv


# U' constant, zero, with a zero leading coefficient, and the quartic's
# sparse x^3 - 2x; the oracle's drift stays intensity(x) * dt
@pytest.mark.parametrize("coeffs,grid", [
    ((3.0,), build_grid("continuous", -2, 2, 21)),
    ((0.0, 1.5), build_grid("continuous", 0, 10, 41)),
    ((1.0, 0.0, 0.0), build_grid("continuous", -2, 2, 21)),
    ((0.0, 1.0, -0.5, 0.0), build_grid("continuous", -2, 3, 26)),
    (QUARTIC.coeffs, QUARTIC_GRID),
], ids=["constant", "linear", "zero-derivative", "leading-zero", "quartic"])
def test_lean_polynomial_drift_matches_oracle(coeffs, grid, monkeypatch):
    cfg = SimConfig(potential=PolynomialPotential(coeffs), grid=grid,
                    dt=5e-3, n_steps=200, burn_in=20, n_chains=5, seed=23)
    values, n_used, tv, positions = _reference_simulate(cfg)
    kept, histogram = [], np.histogram

    def recording_histogram(a, *args, **kwargs):
        kept.append(np.array(a))
        return histogram(a, *args, **kwargs)

    monkeypatch.setattr(np, "histogram", recording_histogram)
    r = simulate(cfg)
    assert np.array_equal(np.concatenate(kept).T, positions)
    assert np.array_equal(r.histogram.values, values)
    assert r.n_samples_used == n_used
    assert r.tv_distance == tv


# ---------------------------------------------------------------------------
# unchecked family drift


# every family; most of the Exponential and Gamma mass lies by the lower
# wall, so chains reflect there often; the oracle's drift stays the checked
# intensity(x) * dt, while simulate checks the support on the grid's points
# alone
@pytest.mark.parametrize("family,grid", [
    (Exponential(1.0), build_grid("continuous", 0, 12, 49)),
    (Gamma(0.3, 1.0), build_grid("continuous", 0.05, 8, 49)),
    (Normal(-1.0, 0.8), build_grid("continuous", -3, 3, 49)),
    (LinearConstant(1.0, 2.0), build_grid("continuous", -4, 3, 49)),
    (UniformLattice(5), build_grid("continuous", -2, 2, 21)),
    (Poisson(3.0), build_grid("continuous", 0, 15, 61)),
], ids=["exponential", "gamma", "normal", "linear_constant", "uniform",
        "poisson"])
def test_unchecked_family_drift_matches_oracle(family, grid, monkeypatch):
    cfg = SimConfig(potential=family, grid=grid, dt=5e-3, n_steps=200,
                    burn_in=20, n_chains=5, seed=23)
    values, n_used, tv, positions = _reference_simulate(cfg)
    kept, histogram, check = [], np.histogram, type(family)._check

    def recording_histogram(a, *args, **kwargs):
        kept.append(np.array(a))
        return histogram(a, *args, **kwargs)

    def grid_only(self, x):
        if x is not grid.points:
            raise AssertionError("support checked off the grid")
        return check(self, x)

    monkeypatch.setattr(np, "histogram", recording_histogram)
    monkeypatch.setattr(type(family), "_check", grid_only)
    r = simulate(cfg)
    assert np.array_equal(np.concatenate(kept).T, positions)
    assert np.array_equal(r.histogram.values, values)
    assert r.n_samples_used == n_used
    assert r.tv_distance == tv


# ---------------------------------------------------------------------------
# the worker thread that draws the next block's kicks


class FailingGenerator(np.random.Generator):
    """Draws the starting points, then fails to allocate the kicks."""

    def standard_normal(self, *args, **kwargs):
        raise MemoryError("Unable to allocate the kicks")


@pytest.mark.parametrize("side", ["worker", "caller", "none"])
def test_errors_reach_the_caller_and_the_worker_is_joined(side,
                                                          monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    def run():
        try:
            caught.append(simulate(harmonic_config(n_steps=100, burn_in=0)))
        except BaseException as exc:  # KeyboardInterrupt too
            caught.append(exc)

    threads, caught = threading.active_count(), []
    if side == "worker":
        monkeypatch.setattr(np.random, "Generator", FailingGenerator)
    elif side == "caller":  # the caller fails after stepping its first block
        monkeypatch.setattr(np, "histogram", interrupted)
    monkeypatch.setattr(SIM_MODULE, "BLOCK_ELEMENTS", 8 * 10)
    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=30)  # a worker that is never joined hangs it
    assert not caller.is_alive()
    [outcome] = caught
    assert type(outcome) is {"worker": MemoryError,
                             "caller": KeyboardInterrupt,
                             "none": SimResult}[side]
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no thread affinity calls")
def test_worker_pins_itself_and_never_the_caller(monkeypatch):
    pins, setaffinity = [], os.sched_setaffinity

    def recording(pid, cpus):
        pins.append((threading.get_ident(), set(cpus)))
        setaffinity(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    allowed = os.sched_getaffinity(0)
    simulate(harmonic_config(n_steps=1000, burn_in=0))
    assert os.sched_getaffinity(0) == allowed
    if len(allowed) == 1:
        assert pins == []
    else:
        [(thread, cpus)] = pins
        assert thread != threading.get_ident()
        assert cpus < allowed and len(cpus) == len(allowed) - 1


def _stat(*args):
    """The caller's stat line, field n reading n; the command name in
    parentheses holds spaces and a ')'."""
    return io.BytesIO(("7 (a) b c) " + " ".join(map(str, range(3, 53))))
                      .encode())


def _no_proc(*args):
    raise FileNotFoundError("/proc/self/task")


@pytest.mark.parametrize("allowed,stat,pin", [
    ({38, 39, 40}, _stat, {38, 40}),  # field 39: the caller is on CPU 39
    ({39}, _stat, None),  # the caller's one CPU
    ({38, 39, 40}, _no_proc, None),
    (None, _stat, None),  # no affinity calls
])
def test_worker_pin_leaves_out_the_callers_cpu(allowed, stat, pin,
                                               monkeypatch):
    pins = []
    monkeypatch.setattr(SIM_MODULE, "open", stat, raising=False)
    if allowed is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed,
                            raising=False)
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, cpus: pins.append((pid, cpus)),
                        raising=False)
    r = simulate(harmonic_config(n_steps=100, burn_in=0))
    assert r.n_samples_used == 8 * 100
    assert pins == ([] if pin is None else [(0, pin)])


def test_concurrent_runs_under_fast_switching_match_oracle(monkeypatch):
    # four callers and their four workers, switching every microsecond;
    # blocks of 100 steps run as chunks of 64 and 36, clear and reflected
    potential, grid = NEAR_WALL
    configs = [SimConfig(potential=potential, grid=grid, dt=5e-3,
                         n_steps=600, burn_in=50, n_chains=3, seed=seed)
               for seed in range(4)]
    local, results, histogram = threading.local(), {}, np.histogram

    def recording_histogram(a, *args, **kwargs):
        local.kept.append(np.array(a))
        return histogram(a, *args, **kwargs)

    def run(cfg):
        local.kept, local.events = [], []
        results[cfg.seed] = simulate(cfg), local.kept, local.events

    monkeypatch.setattr(SIM_MODULE, "BLOCK_ELEMENTS", 3 * 100)
    interval = sys.getswitchinterval()
    with monkeypatch.context() as m:
        m.setattr(np, "histogram", recording_histogram)
        record_steps(m, potential, lambda: local.events)
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(cfg,), daemon=True)
                       for cfg in configs]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
    passes = []
    for cfg in configs:
        r, kept, events = results[cfg.seed]
        (values, n_used, tv, positions), story = _chunk_story(
            cfg, r.stability_margin)
        assert len(kept) == 6
        assert np.array_equal(np.concatenate(kept).T, positions)
        assert np.array_equal(r.histogram.values, values)
        assert r.n_samples_used == n_used and r.tv_distance == tv
        assert step_kinds(events) == step_kinds(story=story)
        passes += [levels for _, _, levels, _ in story]
    assert [0] in passes and [0, 1] in passes
