"""Tomographic reconstruction: synthetic homodyne sampling of rotated
quadratures and inverse Radon (filtered back-projection) recovery of the
Wigner function.

Sampling works on the whole angle set at once: one `marginal_distribution`
call tabulates every angle's marginal from one Hermite table, and each
angle's histogram is one multinomial draw of its bin masses.  All
randomness flows through explicit seeds; per-angle seeds are spawned
deterministically from the master seed.

Filter: ramp (Ram-Lak) apodized by a Hann window cut off at the sinogram
Nyquist frequency, applied to a block of angles at once with one real FFT
(`rfft` / `irfft`) on the filter's non-negative frequencies: the sinogram
and the filter are real, and the filter is even.  Back-projection
interpolates linearly in q.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.fft import fftfreq, irfft, rfft
from numpy.random import SeedSequence, default_rng

from .errors import CoverageError, DomainError, SamplingError, array, bound, instance, number
from .fock import DensityOperator, FieldState, pure_to_density
from .wigner import (
    MAX_GRID_NODES,
    PhaseSpaceGrid,
    WignerMap,
    default_grid,
    fringe_contrast,
    marginal_distribution,
    radon_of_map,
    wigner_map,
)

# numpy's multinomial draws counts up to the int64 limit
MAX_SAMPLES = int(np.iinfo(np.int64).max)


def _q_range(rho: DensityOperator, q_range: float | None) -> float:
    """The half-width of a marginal window: `q_range`, refused unless finite
    and positive, or for None a default from rho's support."""
    if q_range is None:
        return float(np.sqrt(2.0) * rho.support_radius + 5.0)
    return number(q_range, "q_range", exclusive_minimum=0)


def sample_homodyne(rho: DensityOperator, theta, n_samples: int, seed,
                    bin_width: float = 0.05, q_range: float | None = None):
    """Histograms of n_samples i.i.d. draws of q_theta at one angle or an
    array of angles of any shape: (edges, counts), the n_bins + 1 bin edges
    running from -q_range in steps of `bin_width`, and int64 counts of shape
    np.shape(theta) + (n_bins,), each row summing to n_samples.  `n_samples`
    must be an integer in [1, MAX_SAMPLES], `seed` None or an integer >= 0,
    and `bin_width` and `q_range` finite and positive (DomainError);
    q_range=None takes the default range.  Before any array is built, a
    window 2 q_range that is not finite, or more angles x bins than
    MAX_GRID_NODES (a sinogram is a table of a map's size), raises
    DomainError.

    Every marginal is tabulated on 8,192 nodes in one call and integrated by
    the trapezoid rule.  Inverse-CDF sampling of that piecewise-linear CDF
    puts a draw in a bin with the CDF's increment across the bin, so each
    histogram is one multinomial draw of those bin masses.  Angle k (of the
    flattened array) draws from child k of SeedSequence(seed).spawn(angles)."""
    n_samples = number(n_samples, "n_samples", integral=True, minimum=1, maximum=MAX_SAMPLES)
    seed = seed if seed is None else number(seed, "seed", integral=True, minimum=0)
    thetas = np.ravel(theta)
    number(bin_width, "bin_width", exclusive_minimum=0)
    q_range = _q_range(instance(rho, DensityOperator, "rho"), q_range)
    # Python floats: a window that overflows has an infinite bin count
    n_bins = bound(2.0 * float(q_range) / float(bin_width), MAX_GRID_NODES,
                   f"bin count of a sinogram (window 2 x {q_range!r}, bin_width {bin_width!r})",
                   DomainError)
    n_bins = int(math.ceil(n_bins))
    bound(thetas.size * n_bins, MAX_GRID_NODES,
          f"node count of a sinogram ({thetas.size} angles x {n_bins} bins)", DomainError)
    dense = np.linspace(-q_range, q_range, 8192)
    if n_bins < 2:
        raise DomainError(f"bin_width {bin_width} leaves {n_bins} bin in "
                          f"[-{q_range}, {q_range}]; a sinogram needs at least 2")
    edges = -q_range + bin_width * np.arange(n_bins + 1)
    children = SeedSequence(seed).spawn(thetas.size)
    counts = np.empty((thetas.size, n_bins), dtype=np.int64)
    for k, pdf in enumerate(marginal_distribution(rho, thetas, dense)):
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(dense))])
        bound(abs(cdf[-1] - 1.0), 1e-8, f"normalisation error of the tabulated density "
              f"(theta = {thetas[k]})", SamplingError)
        # rounding can dip a far tail's mass a hair below 0
        masses = np.clip(np.diff(np.interp(edges, dense, cdf / cdf[-1])), 0.0, None)
        counts[k] = default_rng(children[k]).multinomial(n_samples, masses)
    return edges, counts.reshape(np.shape(theta) + (n_bins,))


def uniform_angles(count: int) -> np.ndarray:
    """`count` angles k pi / count, k < count, for an integer `count` in
    [1, MAX_GRID_NODES] (DomainError otherwise)."""
    count = number(count, "count", integral=True, minimum=1, maximum=MAX_GRID_NODES)
    return np.arange(count) * np.pi / count


# ---------------------------------------------------------------------------
# filtered back-projection


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer (2^a 3^b 5^c 7^d 11^e) >= n >= 1, the
    lengths pocketfft transforms fastest.  The padded length sets the ramp
    filter's frequency grid, so it shows in the reconstruction."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


# padded values per rfft / irfft call of inverse_radon: the spectra stay
# small however many angles the sinogram has
_PAD_BLOCK = 1 << 15


def _ramp_hann(n_pad: int, dq: float) -> np.ndarray:
    freqs = fftfreq(n_pad, d=dq)
    f_c = 1.0 / (2.0 * dq)
    window = 0.5 * (1.0 + np.cos(np.pi * freqs / f_c))
    window[np.abs(freqs) > f_c] = 0.0
    return np.abs(freqs) * window


def inverse_radon(thetas, q, densities, grid: PhaseSpaceGrid) -> WignerMap:
    """Filtered back-projection onto `grid` of finite quadrature densities,
    one row per angle of `thetas` (read flattened: distinct, in [0, pi)) on
    `q`, at least 2 strictly increasing, uniformly spaced points (DomainError
    otherwise); CoverageError for under 8 angles or a q short of the grid.

    Output is alpha-normalized like the exact maps; bound and normalization
    are recorded in diagnostics, not asserted (reconstruction noise may
    violate them slightly).
    """
    thetas = array(thetas, "thetas", minimum=0, below=np.pi).ravel()
    q, densities = array(q, "q"), array(densities, "densities")
    if len(set(np.round(thetas, 12))) != thetas.size:
        raise DomainError("angles must be distinct")
    # the back-projection interpolates on q and filters at its step: a
    # decreasing q would read as zeros, a zero step divide by zero
    dq = np.diff(np.atleast_1d(q))
    if (q.ndim != 1 or q.size < 2 or not np.all(dq > 0)
            or np.any(np.abs(dq - dq[0]) > 1e-9 * dq[0])):
        raise DomainError("q must be at least 2 strictly increasing, uniformly spaced points")
    if densities.shape != (thetas.size, q.size):
        raise DomainError(f"densities shape {densities.shape} != ({thetas.size}, {q.size})")
    if thetas.size < 8:
        raise CoverageError(f"need at least 8 angles, got {thetas.size}")
    radius = grid.corner_radius
    if q.max() < radius or q.min() > -radius:
        raise CoverageError(
            f"sinogram q range [{q.min():.2f}, {q.max():.2f}] does not "
            f"cover the grid radius {radius:.2f}"
        )
    n_pad = _next_fast_len(4 * q.size)
    filt = _ramp_hann(n_pad, float(q[1] - q[0]))[: n_pad // 2 + 1]
    block = max(1, _PAD_BLOCK // n_pad)
    q1 = grid.q1_axis[:, None]
    q2 = grid.q2_axis[None, :]
    acc = np.zeros((grid.n1, grid.n2))
    for s in range(0, thetas.size, block):
        rows = irfft(rfft(densities[s:s + block], n_pad) * filt, n_pad)
        for theta, filtered in zip(thetas[s:s + block], rows[:, : q.size]):
            t = q1 * np.cos(theta) + q2 * np.sin(theta)
            acc += np.interp(t, q, filtered, left=0.0, right=0.0)
    w_qp = acc * np.pi / thetas.size
    values = 2.0 * np.pi * w_qp
    wm = WignerMap(grid, values, provenance="reconstructed",
                   diagnostics={"max_abs": float(np.max(np.abs(values))),
                                "n_angles": int(thetas.size)})
    wm.diagnostics["normalization_sum"] = wm.normalization_sum()
    wm.diagnostics["bound_excess"] = max(0.0, wm.max_abs() - 2.0)
    return wm


# ---------------------------------------------------------------------------
# end-to-end pipelines


def reconstruct_from_samples(rho_true: DensityOperator, angles, n_per_angle: int,
                             seed, grid: PhaseSpaceGrid,
                             bin_width: float = 0.05,
                             q_range: float | None = None) -> tuple:
    """sample_homodyne at every angle of the 1-D array `angles` (DomainError
    for any other shape) -> density estimates -> inverse_radon, with an
    error report against the exact (Laguerre-series) Wigner map.  Returns
    (map, report, sinogram, q_range): the reconstruction, its report, the
    sampled sinogram (thetas, q, densities) it inverts and the half-width
    of the sampled window.

    The report is the CLI's `reconstruction_report.json`: `rmse`,
    `max_abs_error`, the recovered and true `fringe_contrast` and
    `fringe_contrast_true`, the `angles` count, `n` samples per angle, and
    `marginal_consistency_residuals` keyed by str(float(theta))."""
    angles = array(angles, "angles", minimum=0, below=np.pi)
    if angles.ndim != 1:
        raise DomainError(f"angles must be a 1-D array, got shape {angles.shape}")
    q_range = _q_range(instance(rho_true, DensityOperator, "rho_true"), q_range)
    edges, counts = sample_homodyne(rho_true, angles, n_per_angle, seed,
                                    bin_width=bin_width, q_range=q_range)
    sino = (angles, (edges[:-1] + edges[1:]) / 2.0, counts / (n_per_angle * np.diff(edges)))
    recon = inverse_radon(*sino, grid)
    truth = wigner_map(rho_true, grid)
    resid = recon.values - truth.values
    picked = angles[:: max(1, angles.size // 4)]
    q, lines = radon_of_map(recon, picked)
    marg_resid = np.max(np.abs(lines - marginal_distribution(rho_true, picked, q)), axis=1)
    marg_resid = dict(zip(map(str, picked.tolist()), marg_resid.tolist()))
    report = {
        "rmse": float(np.sqrt(np.mean(resid ** 2))),
        "max_abs_error": float(np.max(np.abs(resid))),
        "fringe_contrast_true": fringe_contrast(truth),
        "fringe_contrast": fringe_contrast(recon),
        "marginal_consistency_residuals": marg_resid,
        "angles": int(angles.size),
        "n": int(n_per_angle),
    }
    return recon, report, sino, q_range


def pauli_incompleteness_demo(grid: PhaseSpaceGrid) -> dict:
    """The marginals-only ambiguity (Vogel & Risken, PRA 40, 2847 (1989)):
    the conjugate pair (|0> + i|2>)/sqrt(2), (|0> - i|2>)/sqrt(2) at dim 16
    shares its position AND momentum marginals (theta = 0, pi/2 on 481 points
    of q in [-6, 6]), yet differs at theta = pi/4 (241 points) and in W
    (on default_grid(2.0, step=0.15)); 36-angle reconstructions on `grid`
    tell the two apart.  The back-projection is linear, so their deviation
    is that of one back-projection: of the difference of the pair's exact
    36-angle marginals on 801 points of q."""
    amps = np.zeros(16, dtype=complex)
    amps[0], amps[2] = 1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)
    rho_a, rho_b = pure_to_density(FieldState(amps)), pure_to_density(FieldState(amps.conj()))

    def sup_dev(of) -> float:
        return float(np.max(np.abs(of(rho_a) - of(rho_b))))

    two_angle_dev = sup_dev(lambda rho: marginal_distribution(
        rho, [0.0, np.pi / 2], np.linspace(-6.0, 6.0, 481)))
    angles, q_range = uniform_angles(36), grid.corner_radius + 0.5
    q = np.linspace(-q_range, q_range, 801)
    diff = marginal_distribution(rho_a, angles, q) - marginal_distribution(rho_b, angles, q)
    full_dev = float(np.max(np.abs(inverse_radon(angles, q, diff, grid).values)))
    probe = default_grid(2.0, step=0.15)
    return {
        "two_angle_sinogram_sup_dev": two_angle_dev,
        "full_reconstruction_sup_dev": full_dev,
        "theta_45_marginal_dev": sup_dev(lambda rho: marginal_distribution(
            rho, np.pi / 4, np.linspace(-6.0, 6.0, 241))),
        "wigner_sup_dev": sup_dev(lambda rho: wigner_map(rho, probe).values),
        "marginals_only_incomplete": bool(two_angle_dev < 1e-8 and full_dev > 0.05),
    }
