import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilib import (EquilibriumDensity, Exponential, Normal,
                     PolynomialPotential, SampleError, TabulatedPotential,
                     UniformLattice, build_grid,
                     decompose_samples, fisher_information_number,
                     fit_linear_intensity, normalize, potential_of_density,
                     shannon_entropy, stochastic_intensity)
from equilib.diagnostics import _kernel_density, _silverman_bandwidth

X = PolynomialPotential((0.0, 1.0))
X2 = PolynomialPotential((0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# entropy


def test_uniform_lattice_entropy():
    fam = UniformLattice(8)
    f = normalize(fam, fam.default_grid())
    assert shannon_entropy(f) == pytest.approx(np.log(8.0), abs=1e-12)


def test_standard_normal_entropy():
    # every point of the default grid, -8..8, counts: the tail |x| > 7.4,
    # below 1e-12 of the peak, holds 3e-12 of the sum
    fam = Normal(0.0, 1.0)
    f = normalize(fam, fam.default_grid())
    assert shannon_entropy(f) == pytest.approx(
        0.5 * np.log(2 * np.pi * np.e), abs=1e-13)


def test_exponential_entropy():
    # differential entropy of Exp(a) is 1 - ln(a); fine grid keeps the
    # trapezoid bias at the x = 0 endpoint below the 1e-6 budget
    g = build_grid("continuous", 0.0, 40.0, 40001)
    f = normalize(Exponential(1.0), g)
    assert shannon_entropy(f) == pytest.approx(1.0, abs=1e-6)


def test_entropy_equals_mean_normalized_potential():
    # with U_tilde = -ln f the entropy is the mean normalized potential; the
    # two sums are equal here, and 1e-15 leaves room for a BLAS that sums
    # in another order
    g = build_grid("continuous", -3, 3, 801)
    lumpy = normalize(TabulatedPotential(
        grid=g, values=np.cos(2 * g.points) + g.points ** 2 / 3), g)
    densities = [lumpy]
    rng = np.random.default_rng(26)
    for kind, lower in (("continuous", -2.5), ("lattice", -40)):
        grid = build_grid(kind, lower, 40, 81)
        for _ in range(100):
            raw = rng.random(81) ** 4
            # points far below the peak, and exact zeros, which are masked
            raw[rng.random(81) < 0.2] *= 1e-20
            raw[rng.random(81) < 0.1] = 0.0
            densities.append(EquilibriumDensity.from_table(grid, raw))
    masked = 0
    for f in densities:
        u = potential_of_density(f)
        masked += u.mask.sum()
        expected = f.grid.quadrature(np.where(u.mask, 0.0,
                                              f.values * u.values))
        assert abs(shannon_entropy(f) - expected) <= 1e-15 * abs(expected)
    assert masked > 0


def test_maxent_entropy_cross_check():
    from equilib import MaxEntProblem, solve_maxent, u_moment
    g = build_grid("continuous", 0, 40, 4001)
    sol = solve_maxent(MaxEntProblem(u=X, grid=g, target_moment=0.5))
    # entropy = lambda * m + ln(Omega) for the exponential-form solution
    expected = sol.lam * 0.5 + sol.density.log_omega
    assert shannon_entropy(sol.density) == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# Fisher information number


def test_fisher_number_exponential():
    g = build_grid("continuous", 0, 40, 40001)
    # Var of Exp(2) is 1/4
    assert fisher_information_number(X, 2.0, g) == pytest.approx(0.25,
                                                                 abs=1e-6)


def test_fisher_number_gaussian_quadratic():
    g = build_grid("continuous", -8, 8, 4001)
    # Var[x^2] = 2 sigma^4 = 2 for the standard normal
    assert fisher_information_number(X2, 0.5, g) == pytest.approx(2.0,
                                                                  abs=1e-6)


def test_fisher_number_constant_potential():
    g = build_grid("continuous", 0, 1, 101)
    const = TabulatedPotential(grid=g, values=np.full(101, 3.0))
    assert fisher_information_number(const, 1.7, g) == pytest.approx(0.0,
                                                                     abs=1e-12)


@pytest.mark.parametrize("c, rel", [(1e3, 1e-12), (1e8, 1e-9)])
def test_fisher_number_of_an_offset_potential(c, rel):
    # Var[u] does not depend on a constant in u, which must not cancel
    g = build_grid("continuous", 0, 1, 2001)
    var = fisher_information_number(PolynomialPotential((c, 1.0)), 2.0, g)
    assert var == pytest.approx(
        fisher_information_number(X, 2.0, g), rel=rel)


@pytest.mark.parametrize("u,lams,grid", [
    (X, [0.5, 1.0, 2.0], build_grid("continuous", 0, 40, 4001)),
    (X2, [0.5, 1.0], build_grid("continuous", -8, 8, 4001)),
])
def test_fisher_identity_second_derivative_of_log_omega(u, lams, grid):
    uvals = u.values_on(grid)
    eps = 1e-4
    for lam in lams:
        def log_omega(l):
            f = normalize(TabulatedPotential(grid=grid, values=l * uvals),
                          grid)
            return f.log_omega
        fd = (log_omega(lam + eps) - 2 * log_omega(lam)
              + log_omega(lam - eps)) / eps ** 2
        var = fisher_information_number(u, lam, grid)
        assert fd == pytest.approx(var, rel=1e-4)


# ---------------------------------------------------------------------------
# decomposition


def test_kernel_decomposition_recovers_linear_intensity():
    rng = np.random.default_rng(2024)
    samples = rng.standard_normal(100_000)
    grid = build_grid("continuous", -5, 5, 501)
    report = decompose_samples(samples, grid, estimator="kernel",
                               bandwidth=0.2)
    slope, _ = fit_linear_intensity(report, interval=(-2.0, 2.0))
    assert 0.9 <= slope <= 1.1


def test_histogram_decomposition_recovers_constant_intensity():
    rng = np.random.default_rng(2024)
    samples = rng.exponential(1.0, 100_000)
    grid = build_grid("continuous", 0.05, 9.95, 100)
    report = decompose_samples(samples, grid, estimator="histogram", bins=100)
    es = report.stochastic_intensity
    x = grid.points
    ok = (~es.mask) & (x >= 0.5) & (x <= 3.0)
    assert 0.9 <= float(np.mean(es.values[ok])) <= 1.1
    assert report.n_out_of_range > 0  # Exp(1) tail beyond 9.95


@pytest.mark.parametrize("bins", [50, 100])
@pytest.mark.parametrize("sigma", [0.7, 1.5])
def test_histogram_slope_is_unbiased_at_few_bins(sigma, bins):
    # the 10 000 midpoint quantiles of N(1, sigma^2) on mu +- 5 sigma: a
    # bin's height held flat over the bin missed 1/sigma^2 by +4.0 % at 50
    # bins and -7.8 % at 100; the frequency polygon's miss is below 1 %
    dist = statistics.NormalDist(1.0, sigma)
    samples = np.array([dist.inv_cdf((i + 0.5) / 10_000)
                        for i in range(10_000)])
    grid = build_grid("continuous", 1 - 5 * sigma, 1 + 5 * sigma, 2001)
    report = decompose_samples(samples, grid, estimator="histogram",
                               bins=bins)
    slope, _ = fit_linear_intensity(report)
    assert slope * sigma ** 2 == pytest.approx(1.0, rel=0.01)


def test_decomposition_of_exact_quantiles():
    # inverse-CDF deciles of the standard normal at n = 1e5 act as an
    # idealized sample; the revealed intensity is the linear one
    from scipy.stats import norm
    n = 100_000
    samples = norm.ppf((np.arange(n) + 0.5) / n)
    grid = build_grid("continuous", -5, 5, 501)
    report = decompose_samples(samples, grid, estimator="kernel",
                               bandwidth=0.2)
    slope, _ = fit_linear_intensity(report, interval=(-2.0, 2.0))
    assert 0.9 <= slope <= 1.1


def test_report_invariants():
    rng = np.random.default_rng(5)
    samples = rng.standard_normal(5000)
    grid = build_grid("continuous", -4, 4, 201)
    report = decompose_samples(samples, grid, estimator="kernel")
    f = report.density_estimate
    assert abs(grid.quadrature(f.values) - 1.0) <= 1e-12
    ok = ~report.normalized_potential.mask
    assert np.allclose(report.normalized_potential.values[ok],
                       -np.log(f.values[ok]), atol=1e-12)


def test_too_few_samples_rejected():
    grid = build_grid("continuous", -4, 4, 201)
    with pytest.raises(SampleError):
        decompose_samples(np.zeros(50) + 0.5, grid)


def test_all_samples_out_of_range_rejected():
    grid = build_grid("continuous", 0, 1, 101)
    with pytest.raises(SampleError):
        decompose_samples(np.full(200, 5.0), grid)


@pytest.mark.parametrize("bandwidth", [0.0, -0.1, np.nan, np.inf, -np.inf,
                                       True, "a"])
def test_invalid_bandwidth_rejected(bandwidth):
    grid = build_grid("continuous", -4, 4, 201)
    samples = np.random.default_rng(1).standard_normal(500)
    with pytest.raises(SampleError, match="bandwidth"):
        decompose_samples(samples, grid, estimator="kernel",
                          bandwidth=bandwidth)


# ---------------------------------------------------------------------------
# binned kernel estimate against the direct sum


def _direct_kernel_density(samples, grid, bandwidth):
    """Direct O(N*M) Gaussian kernel sum, the reference for the binned one."""
    out = np.zeros(grid.n_points)
    norm = 1.0 / (samples.size * bandwidth * np.sqrt(2.0 * np.pi))
    for start in range(0, samples.size, 4096):
        chunk = samples[start:start + 4096]
        z = (grid.points[:, None] - chunk[None, :]) / bandwidth
        out += np.exp(-0.5 * z * z).sum(axis=1)
    return out * norm


@pytest.mark.parametrize("bw_over_h", [4.0, 10.0, 40.0])
def test_binned_kernel_matches_direct_sum(bw_over_h):
    rng = np.random.default_rng(7)
    samples = rng.normal(1.0, 0.7, 20_000)
    grid = build_grid("continuous", -2.5, 4.5, 701)
    bandwidth = bw_over_h * grid.spacing
    report = decompose_samples(samples, grid, estimator="kernel",
                               bandwidth=bandwidth)
    raw = _direct_kernel_density(samples, grid, bandwidth)
    oracle = EquilibriumDensity(grid=grid, values=raw / grid.quadrature(raw),
                                log_omega=0.0)
    f = report.density_estimate.values
    assert np.max(np.abs(f - oracle.values)) <= 1e-3 * np.max(oracle.values)

    es, es_ref = report.stochastic_intensity, stochastic_intensity(oracle)
    lo, hi = report.trim_interval
    x = grid.points
    ok = ~es.mask & ~es_ref.mask & (x >= lo) & (x <= hi)
    assert np.max(np.abs(es.values[ok] - es_ref.values[ok])) <= (
        1e-2 * np.max(np.abs(es_ref.values[ok])))


def test_wide_bandwidth_with_far_outliers_matches_direct_sum():
    rng = np.random.default_rng(11)
    grid = build_grid("continuous", -2.5, 4.5, 701)
    samples = np.concatenate([rng.normal(1.0, 0.7, 10_000), [-1e6, 1e6]])
    bandwidth = 10 * (grid.upper - grid.lower)
    start = time.perf_counter()
    raw = _kernel_density(samples, grid, bandwidth)
    elapsed = time.perf_counter() - start
    ref = _direct_kernel_density(samples, grid, bandwidth)
    raw, ref = raw / grid.quadrature(raw), ref / grid.quadrature(ref)
    assert np.max(np.abs(raw - ref)) <= 1e-6 * np.max(ref)
    assert elapsed < 1.0


def test_tiny_bandwidth_gives_binned_spikes():
    # a direct sum underflows to zero everywhere; the binned estimate keeps
    # the linear-binning weights of the samples' two neighbouring points
    grid = build_grid("continuous", 0, 1, 101)
    samples = np.full(200, 0.253)
    report = decompose_samples(samples, grid, estimator="kernel",
                               bandwidth=1e-6 * grid.spacing)
    f = report.density_estimate.values
    # every other cell, round-off included, is zeroed
    assert np.flatnonzero(f).tolist() == [25, 26]
    assert f[25] / f[26] == pytest.approx(0.7 / 0.3, rel=1e-9)


@given(samples=st.lists(st.floats(min_value=-1e3, max_value=1e3)
                        | st.sampled_from([np.nan, np.inf, -np.inf]),
                        min_size=1, max_size=50),
       bandwidth=st.floats(min_value=0.0, max_value=1e308, exclude_min=True))
@settings(max_examples=60, deadline=None)
def test_kernel_estimate_is_nonnegative_and_finite(samples, bandwidth):
    grid = build_grid("continuous", -1, 1, 41)
    raw = _kernel_density(np.array(samples), grid, bandwidth)
    assert raw.shape == (grid.n_points,)
    assert np.all(np.isfinite(raw)) and np.all(raw >= 0)


@given(fractions=st.lists(st.floats(min_value=-1.0, max_value=1.0),
                          min_size=1, max_size=50),
       bandwidth=st.floats(min_value=0.01, max_value=0.1))
@settings(max_examples=60, deadline=None)
def test_kernel_estimate_keeps_the_direct_sums_mean_inside_grid(fractions,
                                                               bandwidth):
    # every sample lies more than 8 bandwidths inside [-1, 1]; h = 0.01.
    # Linear binning moves no sample's mean and the kernel is symmetric, so
    # the normalized estimate is centred where the direct sum is
    grid = build_grid("continuous", -1, 1, 201)
    samples = 0.999 * (1.0 - 8 * bandwidth) * np.array(fractions)
    raw = _kernel_density(samples, grid, bandwidth)
    ref = _direct_kernel_density(samples, grid, bandwidth)
    x = grid.points
    assert (grid.quadrature(x * raw) / grid.quadrature(raw)
            == pytest.approx(grid.quadrature(x * ref) / grid.quadrature(ref),
                             abs=1e-6))


# ---------------------------------------------------------------------------
# the FFT length of the binned kernel estimate


def _fft_lengths(monkeypatch, samples, grid, bandwidth, unrounded=False):
    """_kernel_density, the FFT lengths it asks for and size + 2 pad, the
    linear convolution's length.  The first transform is of the counts,
    whose size is n + 2 pad, so that length is 2 size - n.  With unrounded,
    every transform runs at that length instead of the one asked for."""
    rfft, irfft, asked, full = np.fft.rfft, np.fft.irfft, [], []

    def length(n):
        asked.append(n)
        return full[0] if unrounded else n

    def spy_rfft(a, n=None):
        if not full:
            full.append(2 * a.size - grid.n_points)
        return rfft(a, length(n))

    def spy_irfft(a, n=None):
        return irfft(a, length(n))

    with monkeypatch.context() as m:
        m.setattr(np.fft, "rfft", spy_rfft)
        m.setattr(np.fft, "irfft", spy_irfft)
        raw = _kernel_density(samples, grid, bandwidth)
    return raw, asked, full[0]


def _fft_case(bw_over_h):
    """Samples, grid and bandwidth: with bw_over_h, those of
    test_binned_kernel_matches_direct_sum; without, the decompose
    workload's 10 000 stratified N(1, 0.7^2) samples on 2001 points over
    [-2.5, 4.5] with Silverman's bandwidth, where size + 2 pad is the
    prime 2917."""
    if bw_over_h is not None:
        grid = build_grid("continuous", -2.5, 4.5, 701)
        samples = np.random.default_rng(7).normal(1.0, 0.7, 20_000)
        return samples, grid, bw_over_h * grid.spacing
    rng = np.random.default_rng(23)
    dist = statistics.NormalDist(1.0, 0.7)
    u = (np.arange(10_000) + rng.random(10_000)) / 10_000
    samples = np.array([dist.inv_cdf(p) for p in u])
    grid = build_grid("continuous", -2.5, 4.5, 2001)
    return samples, grid, _silverman_bandwidth(samples)


FFT_CASES = [None, 4.0, 10.0, 40.0]


@pytest.mark.parametrize("bw_over_h", FFT_CASES)
def test_fft_length_is_the_next_power_of_two(bw_over_h, monkeypatch):
    raw, asked, full = _fft_lengths(monkeypatch, *_fft_case(bw_over_h))
    nfft = asked[0]
    assert asked == [nfft] * 3
    assert nfft & (nfft - 1) == 0 and full <= nfft < 2 * full
    if bw_over_h is None:
        assert full == 2917 and all(full % d for d in range(2, 55))


@pytest.mark.parametrize("bw_over_h", FFT_CASES)
def test_fft_length_matches_the_unrounded_length(bw_over_h, monkeypatch):
    samples, grid, bandwidth = _fft_case(bw_over_h)
    raw, asked, full = _fft_lengths(monkeypatch, samples, grid, bandwidth)
    ref, at_full, _ = _fft_lengths(monkeypatch, samples, grid, bandwidth,
                                   unrounded=True)
    assert at_full == asked and full < asked[0]
    assert np.max(np.abs(raw - ref)) <= 1e-12 * np.max(ref)
