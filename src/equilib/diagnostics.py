"""Interpretive quantities and empirical decomposition.

Shannon entropy is the direct sum -sum w f ln f, which for U_tilde = -ln f
is also the mean normalized potential sum w f U_tilde; the Fisher
information number of the exponential-form family k(lambda) e^(-lambda u)
is the variance of u; ``decompose_samples`` splits empirical data into a
density estimate, its normalized potential and its stochastic intensity,
revealing the causal intensity up to sign.

The kernel estimator is a Gaussian kernel density estimate, linear-binned
onto the grid and FFT-convolved with the sampled kernel (Silverman, Appl.
Stat. 31, 1982, AS 176; Wand, JCGS 3(4), 1994).  For N samples on M points
it costs O(N + L log L) for the FFT length L, the power of two at or above
M + 4 pad, where ``pad`` grid points on each side cover min(8 bandwidths,
the grid's width plus the farthest sample's distance off the grid).  It
differs from the direct Gaussian sum by O((h / bandwidth)^2) for spacing h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SampleError, require_integer, require_real
from .grid import CONTINUOUS, Grid
from .maxent import _moment_and_var
from .potential import (EquilibriumDensity, IntensityTable,
                        NormalizedPotentialTable, density_floor,
                        eval_potential, potential_of_density,
                        stochastic_intensity)

MIN_SAMPLES = 100
KERNEL_REACH = 8.0  # bandwidths; a sample farther off adds under e^-32


def shannon_entropy(f: EquilibriumDensity) -> float:
    """-sum f ln f; continuous grids give differential entropy.

    Points below the density floor contribute zero (the x ln x -> 0 limit),
    as they are masked in ``potential_of_density``, so this equals the mean
    normalized potential, the quadrature of f * U_tilde.
    """
    floor = density_floor(f.values)
    ok = f.values > floor
    plogp = np.zeros(f.grid.n_points)
    plogp[ok] = f.values[ok] * np.log(f.values[ok])
    return -f.grid.quadrature(plogp)


def fisher_information_number(u, lam: float, grid: Grid) -> float:
    """Var[u(X)] under the density k(lambda) e^(-lambda u).

    Taken of u - min u, which has the same variance and no offset to cancel.
    """
    uvals = eval_potential(u, grid)
    return _moment_and_var(lam, uvals - np.min(uvals), grid)[1]


@dataclass(frozen=True)
class DecompositionReport:
    density_estimate: EquilibriumDensity
    normalized_potential: NormalizedPotentialTable
    stochastic_intensity: IntensityTable
    estimator: str
    n_out_of_range: int
    trim_interval: tuple  # central 80% of in-range sample mass

    @property
    def mask(self) -> np.ndarray:
        """True where the potential or the intensity is masked."""
        return self.normalized_potential.mask | self.stochastic_intensity.mask


def _silverman_bandwidth(samples: np.ndarray) -> float:
    n = samples.size
    with np.errstate(over="ignore"):  # a far outlier's inf loses to the IQR
        std = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    if scale == 0:
        raise SampleError("degenerate sample: zero spread")
    return 0.9 * scale * n ** (-0.2)


def _histogram_density(samples, grid: Grid, bins: int) -> np.ndarray:
    counts, edges = np.histogram(samples, bins=bins,
                                 range=(grid.lower, grid.upper))
    width = edges[1] - edges[0]
    idx = np.clip(((grid.points - grid.lower) / width).astype(int),
                  0, bins - 1)
    return counts[idx] / (samples.size * width)


def _kernel_density(samples, grid: Grid, bandwidth: float) -> np.ndarray:
    """Gaussian kernel density estimate by linear binning and FFT convolution.

    The grid is padded by ``pad`` points on each side, enough to hold every
    sample within KERNEL_REACH bandwidths of the grid and for the kernel to
    reach from any of them to any grid point; samples farther out and
    non-finite ones are dropped but still count in the normalization.  The
    kernel's mass is the larger of its integral, as in the direct sum, and
    its sampled sum, which keeps the estimate finite for a bandwidth far
    below the spacing.
    """
    bandwidth = float(bandwidth)  # overflows to inf without a warning
    h = grid.spacing
    n = grid.n_points
    kept = samples[np.isfinite(samples)]
    outside = np.max(np.maximum(grid.lower - kept, kept - grid.upper),
                     initial=0.0)
    pad = int(np.ceil(min(KERNEL_REACH * bandwidth,
                          grid.upper - grid.lower + outside) / h))
    size = n + 2 * pad
    # infs are exact: kernel weight 0 for bandwidth << h; t dropped below
    with np.errstate(over="ignore"):
        kernel = np.exp(-0.5 * (np.arange(-pad, pad + 1) * h / bandwidth) ** 2)
        t = (kept - grid.lower) / h + pad
    t = t[(t >= 0) & (t <= size - 1)]
    j = np.minimum(t.astype(np.intp), size - 2)
    w = t - j
    counts = (np.bincount(j, weights=1.0 - w, minlength=size)
              + np.bincount(j + 1, weights=w, minlength=size))
    nfft = 1 << (size + 2 * pad - 1).bit_length()  # no wrap: >= size + 2 pad
    conv = np.fft.irfft(np.fft.rfft(counts, nfft) * np.fft.rfft(kernel, nfft),
                        nfft)[2 * pad:2 * pad + n]
    mass = max(bandwidth * math.sqrt(2.0 * math.pi), h * kernel.sum())
    # round-off leaves ~1e-16 * peak of either sign where there is no mass;
    # every weight is >= 0, so the clip is exact
    return np.maximum(conv, 0.0) / (samples.size * mass)


def decompose_samples(samples, grid: Grid, estimator: str = "kernel",
                      bins: int | None = None,
                      bandwidth: float | None = None) -> DecompositionReport:
    """Estimate density, normalized potential and stochastic intensity.

    The revealed causal intensity is -E_s by the equilibrium identity.
    Out-of-range samples are excluded from histograms but counted and
    reported; the kernel estimator (see the module docstring) uses every
    sample within 8 bandwidths of the grid.  For a bandwidth far below the
    spacing it returns the binned spikes, where a direct sum would
    underflow to an identically zero estimate.  The bandwidth must be
    positive and finite; each estimator rejects the other's option.
    """
    if grid.kind != CONTINUOUS:
        raise SampleError("decomposition needs a continuous grid")
    samples = np.asarray(samples, dtype=float)
    if samples.size < MIN_SAMPLES:
        raise SampleError(
            f"need at least {MIN_SAMPLES} samples, got {samples.size}"
        )
    in_range = (samples >= grid.lower) & (samples <= grid.upper)
    n_out = int(np.count_nonzero(~in_range))
    if n_out == samples.size:
        raise SampleError("all samples are outside the grid")

    if estimator == "histogram":
        if bandwidth is not None:
            raise SampleError("bandwidth is an option of the kernel only")
        if bins is None:
            bins = max(10, int(round(np.sqrt(samples.size))))
        require_integer(bins, "bins", SampleError, 1)
        raw = _histogram_density(samples[in_range], grid, bins)
        label = f"histogram(bins={bins})"
    elif estimator == "kernel":
        if bins is not None:
            raise SampleError("bins is an option of the histogram only")
        if bandwidth is None:
            bandwidth = _silverman_bandwidth(samples)
        require_real(bandwidth, "bandwidth", SampleError, positive=True)
        raw = _kernel_density(samples, grid, bandwidth)
        label = f"kernel(bandwidth={bandwidth:g})"
    else:
        raise SampleError(f"unknown estimator {estimator!r}")

    density = EquilibriumDensity.from_table(grid, raw)
    upot = potential_of_density(density)
    es = stochastic_intensity(density)
    q10, q90 = np.percentile(samples[in_range], [10, 90])
    return DecompositionReport(
        density_estimate=density,
        normalized_potential=upot,
        stochastic_intensity=es,
        estimator=label,
        n_out_of_range=n_out,
        trim_interval=(float(q10), float(q90)),
    )


def fit_linear_intensity(report: DecompositionReport,
                         interval: tuple | None = None):
    """Least-squares slope and intercept of E_s over a trimmed region.

    Defaults to the central 80% of the in-range sample mass, where the
    density estimate (and hence the intensity) is reliable.
    """
    lo, hi = interval if interval is not None else report.trim_interval
    x = report.density_estimate.grid.points
    es = report.stochastic_intensity
    ok = (~es.mask) & (x >= lo) & (x <= hi)
    if np.count_nonzero(ok) < 2:
        raise SampleError("too few usable points in the fit region")
    slope, intercept = np.polyfit(x[ok], es.values[ok], 1)
    return float(slope), float(intercept)
