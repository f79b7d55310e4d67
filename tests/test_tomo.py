import numpy as np
import pytest

from cavitylab import (
    CoverageError,
    DomainError,
    FieldState,
    HilbertSpec,
    PhaseSpaceGrid,
    SamplingError,
    cat_state,
    coherent_state,
    default_dim,
    default_grid,
    fock_state,
    marginal_distribution,
    pauli_incompleteness_demo,
    pure_to_density,
    radon_of_map,
    sample_homodyne,
    uniform_angles,
    vacuum,
    wigner_map,
)
from cavitylab.tomo import (
    _next_fast_len,
    inverse_radon,
    reconstruct_from_samples,
)

from conftest import complex_fft_back_projection, reconstruct_exact

GRID = PhaseSpaceGrid(-4, 4, -4, 4, 81, 81)


def rmse(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)))


def pauli_pair():
    """The demo's conjugate pair (|0> + i|2>)/sqrt(2), (|0> - i|2>)/sqrt(2) at dim 16."""
    amps = np.zeros(16, dtype=complex)
    amps[0], amps[2] = 1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)
    return pure_to_density(FieldState(amps)), pure_to_density(FieldState(amps.conj()))


# -- sampling -------------------------------------------------------------------


def test_vacuum_sample_variance():
    # vacuum quadrature variance is 1/2; allow 3 sigma of the variance estimator
    rho = pure_to_density(vacuum(HilbertSpec(10)))
    n = 100000
    edges, counts = sample_homodyne(rho, 0.0, n, seed=11)
    centers, width = (edges[:-1] + edges[1:]) / 2, edges[1] - edges[0]
    dens = counts / (n * width)
    mean = np.sum(centers * dens) * width
    var = np.sum((centers - mean) ** 2 * dens) * width
    sigma_var = 0.5 * np.sqrt(2.0 / (n - 1))
    assert abs(var - 0.5) < 3 * sigma_var + width ** 2 / 12


def _ks_distance(rho, theta, edges, counts):
    """Kolmogorov-Smirnov distance at the bin edges between the histogram
    `counts` at angle `theta` and the exact marginal, integrated on an
    independent 4,001-point grid."""
    cdf_hist = np.concatenate([[0.0], np.cumsum(counts) / counts.sum()])
    dense = np.linspace(edges[0], edges[-1], 4001)
    pdf = marginal_distribution(rho, theta, dense)
    cdf_exact = np.interp(edges,
                          dense,
                          np.concatenate([[0.0], np.cumsum(
                              (pdf[1:] + pdf[:-1]) / 2 * np.diff(dense))]))
    return np.max(np.abs(cdf_hist - cdf_exact / cdf_exact[-1]))


def test_sampled_histogram_tracks_exact_density():
    # Kolmogorov-Smirnov distance at the bin edges stays below 0.01 at 1e5 draws
    rho = pure_to_density(cat_state(HilbertSpec(26), 1.5, 0.0))
    edges, counts = sample_homodyne(rho, 0.6, 100000, seed=3)
    assert _ks_distance(rho, 0.6, edges, counts) < 0.01


def test_every_histogram_of_an_angle_array_tracks_exact_density():
    rho = pure_to_density(cat_state(HilbertSpec(26), 1.5, 0.0))
    angles = uniform_angles(36)
    edges, counts = sample_homodyne(rho, angles, 100000, seed=3)
    for theta, row in zip(angles, counts):
        assert _ks_distance(rho, theta, edges, row) < 0.01
    # angle k draws from the k-th spawned child of the seed, so a lone angle
    # repeats angle 0 of an array and the angles' counts are not copies
    alone_edges, alone = sample_homodyne(rho, angles[0], 100000, seed=3)
    assert np.array_equal(alone_edges, edges) and np.array_equal(alone, counts[0])
    assert not np.array_equal(counts[0], counts[1])


def test_rounding_below_zero_in_a_far_tail_is_not_a_negative_bin_mass():
    # the alpha = 3 even cat's tabulated marginals dip to -3e-19 in the tails,
    # which leaves bin masses near -1e-21 that multinomial would refuse
    rho = pure_to_density(cat_state(HilbertSpec(46), 3.0, 0.0))
    _, counts = sample_homodyne(rho, uniform_angles(36), 1000, seed=0)
    assert np.all(counts.sum(axis=-1) == 1000)


def test_seed_repeatability():
    rho = pure_to_density(coherent_state(HilbertSpec(20), 1.0))
    _, counts1 = sample_homodyne(rho, 0.9, 5000, seed=77)
    _, counts2 = sample_homodyne(rho, 0.9, 5000, seed=77)
    assert np.array_equal(counts1, counts2)
    _, counts3 = sample_homodyne(rho, 0.9, 5000, seed=78)
    assert not np.array_equal(counts1, counts3)


def test_sampling_normalization_guard():
    # a tabulation window far smaller than the state's support loses mass
    rho = pure_to_density(coherent_state(HilbertSpec(26), 1.8))
    with pytest.raises(SamplingError):
        sample_homodyne(rho, 0.0, 100, seed=0, q_range=1.5)


def test_sampling_domain_checks():
    rho = pure_to_density(vacuum(HilbertSpec(6)))
    with pytest.raises(DomainError):
        sample_homodyne(rho, -0.2, 100, seed=0)
    with pytest.raises(DomainError):
        sample_homodyne(rho, 0.0, 0, seed=0)


@pytest.mark.parametrize("key", ["bin_width", "q_range"])
@pytest.mark.parametrize("value", [0.0, -3.0, np.nan, np.inf, -np.inf])
def test_sampling_refuses_bin_width_and_q_range_not_finite_and_positive(key, value):
    # only q_range=None means the default range; 0.0 is refused, not defaulted
    rho = pure_to_density(vacuum(HilbertSpec(6)))
    with pytest.raises(DomainError, match=rf"\({key}\)"):
        sample_homodyne(rho, 0.0, 100, seed=0, **{key: value})


@pytest.mark.parametrize("value", [0.0, -5.0, np.nan, np.inf])
def test_exact_reconstruction_refuses_q_range_not_finite_and_positive(value):
    # 0.0 took the default range, -5.0 gave an all-zero map, nan and inf all-NaN
    rho = pure_to_density(vacuum(HilbertSpec(6)))
    with pytest.raises(DomainError, match=r"\(q_range\)"):
        reconstruct_exact(rho, uniform_angles(8), GRID, q_range=value)


def test_sampled_counts_and_edges():
    # scalar theta -> (n_bins,), an angle array -> (n_angles, n_bins); every
    # row is nonnegative and sums to n_samples; the n_bins + 1 edges step by
    # bin_width from -q_range
    rho = pure_to_density(cat_state(HilbertSpec(26), 1.5, 0.0))
    q_range, bin_width, n = 9.0, 0.25, 3000
    n_bins = int(np.ceil(2 * q_range / bin_width))
    edges, one = sample_homodyne(rho, 0.4, n, seed=5, bin_width=bin_width, q_range=q_range)
    _, many = sample_homodyne(rho, uniform_angles(8), n, seed=5, bin_width=bin_width,
                              q_range=q_range)
    assert one.shape == (n_bins,) and many.shape == (8, n_bins)
    for counts in (one, many):
        assert counts.dtype == np.int64
        assert np.all(counts >= 0) and np.all(counts.sum(axis=-1) == n)
    assert edges.shape == (n_bins + 1,) and edges[0] == -q_range
    np.testing.assert_allclose(np.diff(edges), bin_width, rtol=0, atol=1e-12)


def test_sample_homodyne_takes_angles_of_any_shape():
    # a (2, 2) theta raised a bare broadcast ValueError; its rows are the flat
    # call's, bit for bit
    rho = pure_to_density(cat_state(HilbertSpec(20), 1.5, 0.0))
    thetas = [[0.1, 0.2], [0.3, 0.4]]
    edges, grid = sample_homodyne(rho, thetas, 1000, 3)
    flat_edges, flat = sample_homodyne(rho, np.ravel(thetas), 1000, 3)
    assert np.array_equal(edges, flat_edges)
    assert grid.shape == (2, 2, flat.shape[-1])
    assert np.array_equal(grid, flat.reshape(grid.shape))


def test_uniform_angles_refuses_a_count_that_is_not_an_integer_of_at_least_one():
    # 0 returned no angles and 2.5 three; an integral float is taken
    for count in (0, -3, 2.5, np.nan, np.inf):
        with pytest.raises(DomainError, match=r"\(count\)"):
            uniform_angles(count)
    np.testing.assert_array_equal(uniform_angles(4.0), uniform_angles(4))
    np.testing.assert_array_equal(uniform_angles(1), [0.0])
    assert np.all(np.diff(uniform_angles(36)) > 0) and uniform_angles(36)[-1] < np.pi


def test_an_integral_float_node_count_reads_as_its_int():
    # a 31.0-node grid drew its map, but radon_of_map and inverse_radon raised
    # a bare TypeError on the float count; the grid keeps the int now
    rho = pure_to_density(cat_state(HilbertSpec(26), 1.5, 0.0))
    grids = [PhaseSpaceGrid(-3, 3, -3, 3, n, n) for n in (31, 31.0)]
    assert all(type(g.n1) is int and type(g.n2) is int for g in grids)
    (q, lines), (q_float, lines_float) = (radon_of_map(wigner_map(rho, g), uniform_angles(4))
                                          for g in grids)
    assert np.array_equal(q, q_float) and np.array_equal(lines, lines_float)
    angles = uniform_angles(12)
    assert np.array_equal(*(reconstruct_exact(rho, angles, g).values for g in grids))


def test_sinogram_invariants():
    q = np.linspace(-1, 1, 5)
    dens = np.zeros((2, 5))
    with pytest.raises(DomainError):
        inverse_radon(np.array([0.0, np.pi]), q, dens, GRID)
    with pytest.raises(DomainError):
        inverse_radon(np.array([0.3, 0.3]), q, dens, GRID)


@pytest.mark.parametrize("q", [
    np.linspace(11.0, -11.0, 601), np.array([0.5]), np.array([1.0, 1.0]),
    np.array([0.0, 1.0, 1.5]), np.array([0.0, np.nan, 2.0]),
], ids=["decreasing", "one-point", "zero-step", "non-uniform", "nan"])
def test_sinogram_refuses_a_q_grid_inverse_radon_cannot_read(q):
    # inverse_radon interpolates on q and filters at q[1] - q[0]: a decreasing
    # grid would reconstruct a cat as all zeros, one point would raise a bare
    # IndexError, and a zero step would divide by zero in the ramp filter
    angles = uniform_angles(24)
    with pytest.raises(DomainError):
        inverse_radon(angles, q, np.zeros((angles.size, q.size)), GRID)


# -- filtered back-projection ------------------------------------------------------


def test_noise_free_vacuum_reconstruction():
    rho = pure_to_density(vacuum(HilbertSpec(12)))
    recon = reconstruct_exact(rho, uniform_angles(36), GRID)
    q1, q2 = np.meshgrid(GRID.q1_axis, GRID.q2_axis, indexing="ij")
    analytic = 2 * np.exp(-(q1 ** 2 + q2 ** 2))
    assert rmse(recon.values, analytic) < 1e-2


def test_noise_free_fock1_recovers_negative_dip():
    rho = pure_to_density(fock_state(HilbertSpec(12), 1))
    recon = reconstruct_exact(rho, uniform_angles(36), GRID)
    i0 = np.argmin(np.abs(GRID.q1_axis))
    j0 = np.argmin(np.abs(GRID.q2_axis))
    assert recon.values[i0, j0] < -1.7


def test_rotational_covariance():
    # relabeling the same sinogram data by theta + delta reconstructs the
    # state rotated by delta in phase space
    rho = pure_to_density(coherent_state(HilbertSpec(26), 1.5))
    angles = uniform_angles(36)
    delta = np.pi / 72  # half the spacing keeps labels inside [0, pi)
    q = np.linspace(-7, 7, 701)
    densities = marginal_distribution(rho, angles, q)
    base = inverse_radon(angles, q, densities, GRID)
    rotated_recon = inverse_radon(angles + delta, q, densities, GRID)
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator((GRID.q1_axis, GRID.q2_axis),
                                     rotated_recon.values,
                                     bounds_error=False, fill_value=0.0)
    q1, q2 = np.meshgrid(GRID.q1_axis, GRID.q2_axis, indexing="ij")
    inner = np.hypot(q1, q2) < 2.8
    c, s = np.cos(delta), np.sin(delta)
    # sample the rotated reconstruction at rotated points; must match the base
    at_rotated = interp(np.stack([(c * q1 - s * q2)[inner],
                                  (s * q1 + c * q2)[inner]], axis=-1))
    assert np.max(np.abs(at_rotated - base.values[inner])) < 2e-2


def test_block_real_fft_matches_per_angle_complex_fft():
    # the benchmark's tomography sinogram (even cat at alpha = 2, 36 angles of
    # 50,000 samples) and the Pauli demo's exact one at the selfcheck's grid;
    # each spans more than one filtering block
    cat = pure_to_density(cat_state(HilbertSpec(default_dim(2.0)), 2.0, 0.0))
    grid = default_grid(2.0, step=0.2)
    sampled = reconstruct_from_samples(cat, uniform_angles(36), 50000, 104729, grid)[2]
    pauli_grid = default_grid(1.5, step=0.15)
    q_range = pauli_grid.corner_radius + 0.5
    q = np.linspace(-q_range, q_range, 801)
    angles = uniform_angles(36)
    pauli = (angles, q, marginal_distribution(pauli_pair()[0], angles, q))
    for sino, on in ((sampled, grid), (pauli, pauli_grid)):
        assert sino[0].size * _next_fast_len(4 * sino[1].size) > 1 << 15
        ref = complex_fft_back_projection(*sino, on)
        assert np.max(np.abs(inverse_radon(*sino, on).values - ref)) < 1e-13


def test_too_few_angles_raises():
    rho = pure_to_density(vacuum(HilbertSpec(8)))
    q = np.linspace(-6, 6, 301)
    with pytest.raises(CoverageError):
        inverse_radon(uniform_angles(4), q, marginal_distribution(rho, uniform_angles(4), q),
                      GRID)


def test_insufficient_support_raises():
    rho = pure_to_density(vacuum(HilbertSpec(8)))
    q = np.linspace(-2, 2, 101)  # grid radius is 4*sqrt(2) > 2
    with pytest.raises(CoverageError):
        inverse_radon(uniform_angles(12), q, marginal_distribution(rho, uniform_angles(12), q),
                      GRID)


def test_angle_count_monotonicity():
    # forward-inverse error is nonincreasing in the angle count
    rho = pure_to_density(coherent_state(HilbertSpec(40), 1.8))
    truth = wigner_map(rho, GRID)
    errs = [rmse(reconstruct_exact(rho, uniform_angles(k), GRID).values, truth.values)
            for k in (9, 18, 36, 72)]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi * 1.02
    assert errs[-1] < 0.1 * errs[0]


# -- end-to-end sampled reconstruction ----------------------------------------------


def test_sampled_cat_reconstruction_fringe_contrast():
    spec = HilbertSpec(36)
    cat = pure_to_density(cat_state(spec, 2.0, 0.0))
    grid = PhaseSpaceGrid(-4.2, 4.2, -4.2, 4.2, 113, 113)
    _, report, _, _ = reconstruct_from_samples(cat, uniform_angles(72), 200000, 20250809,
                                               grid)
    true_c = report["fringe_contrast_true"]
    recon_c = report["fringe_contrast"]
    assert abs(recon_c - true_c) / true_c < 0.15
    assert set(report) >= {"rmse", "max_abs_error", "marginal_consistency_residuals"}


def test_rmse_scales_like_root_n():
    # two decades of samples: RMSE drops by ~10, accepted within a factor 2
    rho = pure_to_density(coherent_state(HilbertSpec(26), 1.5))
    r_small = reconstruct_from_samples(rho, uniform_angles(36), 2000, 7, GRID)[1]
    r_large = reconstruct_from_samples(rho, uniform_angles(36), 200000, 7, GRID)[1]
    ratio = r_small["rmse"] / r_large["rmse"]
    assert 5.0 < ratio < 20.0


def test_large_n_approaches_noise_free_error():
    rho = pure_to_density(coherent_state(HilbertSpec(26), 1.5))
    exact = reconstruct_exact(rho, uniform_angles(36), GRID)
    gaps = []
    for n in (2000, 20000, 200000):
        recon = reconstruct_from_samples(rho, uniform_angles(36), n, 5, GRID)[0]
        gaps.append(rmse(recon.values, exact.values))
    assert gaps[0] > gaps[1] > gaps[2]


def test_master_seed_determinism():
    rho = pure_to_density(coherent_state(HilbertSpec(20), 1.0))
    a = reconstruct_from_samples(rho, uniform_angles(12), 4000, 99, GRID)[0]
    b = reconstruct_from_samples(rho, uniform_angles(12), 4000, 99, GRID)[0]
    np.testing.assert_array_equal(a.values, b.values)


# -- the marginals-only demonstration ------------------------------------------------


def test_pauli_incompleteness_report():
    report = pauli_incompleteness_demo(PhaseSpaceGrid(-4, 4, -4, 4, 61, 61))
    assert report["two_angle_sinogram_sup_dev"] < 1e-8
    assert report["full_reconstruction_sup_dev"] > 0.05
    assert report["theta_45_marginal_dev"] > 0.01
    assert report["marginals_only_incomplete"] is True


def test_pauli_demo_back_projects_the_sinogram_difference():
    # the back-projection is linear: one back-projection of the pair's
    # marginal difference deviates as their two reconstructions do
    grid = PhaseSpaceGrid(-4, 4, -4, 4, 61, 61)
    a, b = (reconstruct_exact(rho, uniform_angles(36), grid,
                              q_range=grid.corner_radius + 0.5).values for rho in pauli_pair())
    report = pauli_incompleteness_demo(grid)
    assert abs(report["full_reconstruction_sup_dev"] - np.max(np.abs(a - b))) < 1e-12


def test_pauli_pair_marginals_identical_wigner_different():
    report = pauli_incompleteness_demo(PhaseSpaceGrid(-4, 4, -4, 4, 61, 61))
    assert report["two_angle_sinogram_sup_dev"] < 1e-10
    assert report["wigner_sup_dev"] > 0.1
    assert report["theta_45_marginal_dev"] > 0.01


def test_pauli_pair_is_conjugate():
    # W of the conjugate state is W(conj alpha): on a grid whose q2 axis is
    # antisymmetric, the pair's Wigner deviation is |0> + i|2>'s map against
    # its own reflection in q2
    w = wigner_map(pauli_pair()[0], default_grid(2.0, step=0.15)).values
    report = pauli_incompleteness_demo(PhaseSpaceGrid(-4, 4, -4, 4, 61, 61))
    assert abs(report["wigner_sup_dev"] - np.max(np.abs(w - w[:, ::-1]))) < 1e-12


def test_padding_length_matches_scipy_next_fast_len():
    # the padded length sets the ramp filter's frequency grid: a 5-smooth
    # length instead of an 11-smooth one moves reconstructions by about 1e-5
    from scipy.fft import next_fast_len

    ns = range(1, 20000)
    assert [_next_fast_len(n) for n in ns] == [next_fast_len(n) for n in ns]
