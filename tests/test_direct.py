import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from cavitylab import (
    DampingModel,
    DensityOperator,
    DomainError,
    HilbertSpec,
    NoDetectionError,
    PhaseSpaceGrid,
    TruncationError,
    cat_state,
    coherent_state,
    decoherence_time,
    default_dim,
    direct_point_exact,
    evolve,
    fock_state,
    marginal_distribution,
    mix,
    monitor_origin,
    pure_to_density,
    scan_map,
    vacuum,
    wigner_map,
    wigner_point,
    wigner_position,
)
from cavitylab import protocol
from cavitylab.direct import _sample

MODEL = DampingModel(kappa=1.0)


def fock_rho(n, dim=16):
    return pure_to_density(fock_state(HilbertSpec(dim), n))


def readout(rho, alpha):
    """2 (P_g - P_e) of the probe atom at `alpha`: W(-alpha)."""
    p_e, p_g = direct_point_exact(rho, alpha)
    return 2.0 * (p_g - p_e)


# -- exact readout --------------------------------------------------------------


def test_empty_cavity_reads_plus_two():
    p_e, p_g = direct_point_exact(pure_to_density(vacuum(HilbertSpec(10))), 0.0)
    assert abs(p_g - 1.0) < 1e-12
    assert p_e < 1e-12
    assert abs(2.0 * (p_g - p_e) - 2.0) < 1e-12


def test_one_photon_reads_minus_two():
    p_e, p_g = direct_point_exact(fock_rho(1), 0.0)
    assert abs(p_e - 1.0) < 1e-12
    assert abs(2.0 * (p_g - p_e) + 2.0) < 1e-12


def test_readout_identity_along_fringe_line(corpus):
    # scanning the injection through the interference region traces the
    # displaced-parity values exactly
    rho = corpus["cat_even"]
    for q2 in np.linspace(-1.5, 1.5, 11):
        alpha = 1j * q2 / np.sqrt(2)
        assert abs(readout(rho, alpha) - wigner_point(rho, -alpha)) < 1e-8


def test_readout_identity_over_corpus(corpus):
    rng = np.random.default_rng(5)
    for name, rho in corpus.items():
        for _ in range(4):
            alpha = complex(rng.normal(scale=0.8), rng.normal(scale=0.8))
            assert abs(readout(rho, alpha) - wigner_point(rho, -alpha)) < 1e-8, name


def test_readout_at_guard_edge_matches_position_oracle(corpus):
    # |alpha|^2 = 3.15^2 is about dim/4 for the dim-40 corpus: the displaced
    # populations need rows past dim 40 (a displacement truncated to dim 40
    # read 0.02375)
    rho = corpus["cat_even"]
    oracle = wigner_position(rho, 3.15 * np.sqrt(2), 0.0)
    assert abs(oracle - 0.07098) < 1e-5
    assert abs(readout(rho, -3.15) - oracle) < 1e-8


def test_readout_and_series_read_one_state_when_rho_is_hermitian_to_a_residue():
    # the gate passes a Hermiticity residue up to 1e-6 and stores the
    # Hermitian part, which every reader reads whichever triangle it takes:
    # with 5e-7 added to rho_02 alone, the readout (the symmetric part) and
    # the Laguerre series (the upper triangle) differed by 4e-7, and the
    # marginals (the lower triangle) from those of (m + m^dag)/2 by 2e-7
    m = pure_to_density(cat_state(HilbertSpec(20), 1.5, 0.0)).matrix.copy()
    m[0, 2] += 5e-7
    rho, herm = DensityOperator(m), DensityOperator((m + m.conj().T) / 2)
    alphas = np.array([0.0, 0.3, -0.7 + 0.2j, 1.1j, 1.5, 0.4 - 1.2j])
    assert np.max(np.abs(readout(rho, alphas) - wigner_point(rho, -alphas))) < 1e-12
    for grid in (PhaseSpaceGrid(-4.0, 4.0, -3.0, 3.0, 17, 13),
                 PhaseSpaceGrid(-3.1, 4.3, -2.2, 5.0, 8, 7)):
        assert wigner_map(rho, grid).values.tobytes() == wigner_map(herm, grid).values.tobytes()
    thetas, q = np.linspace(0.0, 3.0, 7), np.linspace(-5.0, 5.0, 41)
    assert (marginal_distribution(rho, thetas, q).tobytes()
            == marginal_distribution(herm, thetas, q).tobytes())


def test_non_finite_injection_is_rejected(corpus):
    # nan raised a bare ValueError; 1e160 overflows |alpha|^2
    rho = corpus["cat_even"]
    for alpha in (complex(np.nan, 0.0), complex(0.0, np.inf), 1e160):
        with pytest.raises(DomainError):
            direct_point_exact(rho, alpha)


def test_huge_injection_raises_before_allocating():
    # the displaced vacuum at |alpha| = 1e4 needs ~1e8 photon numbers; the
    # readout stops at the displacement cap instead of allocating them
    import tracemalloc

    rho = pure_to_density(vacuum(HilbertSpec(10)))
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError):
            direct_point_exact(rho, 1e4)
        with pytest.raises(TruncationError):
            direct_point_exact(rho, [0.0, 0.5, 1e4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_readout_truncation_is_the_smallest_capturing_one(corpus):
    # N doubles past rho.dim until the displaced populations hold Tr rho
    # within 1e-10: half of N misses more, and N carries the exact W
    from cavitylab.direct import _populations

    rho = corpus["cat_even"]

    def settled(alpha):
        # the one group that holds alpha; earlier passes yield empty ones
        return next(pops[0] for index, pops in _populations(rho, np.array([alpha + 0j]))
                    if index.size)

    assert settled(0.0).size == rho.dim
    assert settled(0.1).size == 2 * rho.dim
    pops = settled(4.0 - 1.0j)
    assert pops.size == 4 * rho.dim
    assert abs(1.0 - pops.sum()) <= 1e-10
    assert 1.0 - pops[:pops.size // 2].sum() > 1e-10
    oracle = wigner_position(rho, -4.0 * np.sqrt(2), 1.0 * np.sqrt(2))
    assert abs(readout(rho, 4.0 - 1.0j) - oracle) < 1e-9


def test_array_readout_equals_one_point_calls_bitwise(corpus):
    # every alpha of an array keeps the N of its own one-point call: alpha = 0
    # reads rho's diagonal, 0.1 settles at N = 2 dim, 4 - 1j and -3.9 + 1.2j
    # at N = 4 dim; both probabilities, bit for bit
    from cavitylab.direct import _populations

    rng = np.random.default_rng(13)
    scattered = rng.normal(scale=1.5, size=(2, 19))
    alphas = np.concatenate([[0.0, 4.0 - 1.0j, 0.1, 0.0, -3.9 + 1.2j, 0.0],
                             scattered[0] + 1j * scattered[1]]).reshape(5, 5)
    rho = corpus["cat_even"]
    sizes = {pops.shape[-1] for index, pops in _populations(rho, alphas.ravel())
             if index.size}
    assert sizes == {rho.dim, 2 * rho.dim, 4 * rho.dim}
    for name in ("cat_even", "damped_cat", "coherent2", "fock3"):
        p_e, p_g = direct_point_exact(corpus[name], alphas)
        assert p_e.shape == p_g.shape == alphas.shape
        for k in np.ndindex(alphas.shape):
            one_e, one_g = direct_point_exact(corpus[name], alphas[k])
            assert np.ndim(one_e) == np.ndim(one_g) == 0
            assert (one_e, one_g) == (p_e[k], p_g[k]), (name, k)


def test_estimate_bounded_by_two(corpus):
    rng = np.random.default_rng(8)
    for rho in corpus.values():
        alpha = complex(rng.normal(scale=0.9), rng.normal(scale=0.9))
        assert abs(readout(rho, alpha)) <= 2.0 + 1e-12


def test_record_invariants():
    # the state gate lets a trace off 1 by up to 1e-8 through, and the atom
    # reads such a state as the Wigner kernel does: P_e + P_g is its trace
    m = np.diag([0.5 + 2.5e-9, 0.5 + 2.5e-9, 0.0])
    assert abs(np.trace(m) - 1.0) == pytest.approx(5e-9)
    rho = DensityOperator(m)
    assert abs(readout(rho, 0.3) - wigner_point(rho, -0.3)) < 1e-12
    assert abs(monitor_origin(rho, MODEL, [0.0])[0, 0] - wigner_point(rho, 0.0)) < 1e-12


# -- finite shots and detector inefficiency ---------------------------------------


def sampled(rho, alpha, n_shots, efficiency, seed):
    """(n_detected, estimate, stderr) of `n_shots` shots at one alpha."""
    return _sample(direct_point_exact(rho, alpha)[0], n_shots, efficiency, seed)


def test_sampled_matches_exact_within_errorbars():
    rho = fock_rho(1)
    _, estimate, stderr = sampled(rho, 0.35, 20000, 1.0, seed=42)
    exact = readout(rho, 0.35)
    assert abs(estimate - exact) < 3 * stderr


def test_efficiency_insensitivity_at_matched_counts():
    # eff = 1 and eff = 0.4 with matched detected counts agree within 3 sigma
    rho = fock_rho(1)
    _, est_full, err_full = sampled(rho, 0.35, 4000, 1.0, seed=101)
    n_lossy, est_lossy, err_lossy = sampled(rho, 0.35, 10000, 0.4, seed=202)
    assert abs(est_full - est_lossy) < 3 * np.hypot(err_full, err_lossy)
    assert 3500 < n_lossy < 4500


def test_estimator_unbiased_under_loss():
    # 200 repetitions at 25% detection: the mean stays on the exact value
    rho = fock_rho(1)
    exact = readout(rho, 0.35)
    ests = np.array([sampled(rho, 0.35, 400, 0.25, seed=3000 + k)[1] for k in range(200)])
    sem = ests.std(ddof=1) / np.sqrt(ests.size)
    assert abs(ests.mean() - exact) < 3 * sem


def test_stderr_scales_like_root_n():
    rho = fock_rho(1)
    s_small = sampled(rho, 0.35, 500, 1.0, seed=7)[2]
    s_large = sampled(rho, 0.35, 50000, 1.0, seed=7)[2]
    ratio = s_small / s_large
    assert 10.0 / 1.5 < ratio < 10.0 * 1.5


def test_sampling_determinism_and_guards():
    rho = fock_rho(1)
    assert sampled(rho, 0.2, 1000, 0.8, seed=5) == sampled(rho, 0.2, 1000, 0.8, seed=5)
    with pytest.raises(NoDetectionError):
        sampled(rho, 0.2, 50, 0.0, seed=5)
    # the monitor checks its counts and efficiency on entry, with or without shots
    for n_shots, efficiency in ((50, 1.5), (0, 5.0), (0, np.nan), (2.5, 1.0), (-1, 1.0),
                                (np.inf, 1.0)):
        with pytest.raises(DomainError):
            monitor_origin(rho, MODEL, [0.0], n_shots=n_shots, efficiency=efficiency,
                           seed=5)
    assert np.array_equal(monitor_origin(rho, MODEL, [0.0], n_shots=10.0, seed=5),
                          monitor_origin(rho, MODEL, [0.0], n_shots=10, seed=5))


# -- grid scans -------------------------------------------------------------------


def test_scan_map_one_photon_closed_form():
    # W_1(beta) = 2 (4|beta|^2 - 1) e^{-2|beta|^2}; validated against the
    # position construction in test_wigner
    rho = fock_rho(1, dim=20)
    grid = PhaseSpaceGrid(-2.0, 2.0, -2.0, 2.0, 9, 9)
    wm = scan_map(rho, grid)
    alphas = grid.alpha_grid()
    analytic = 2 * (4 * np.abs(alphas) ** 2 - 1) * np.exp(-2 * np.abs(alphas) ** 2)
    assert np.max(np.abs(wm.values - analytic)) < 1e-7
    assert wm.provenance == "measured-direct"


def test_scan_map_vacuum_positive_gaussian():
    rho = pure_to_density(vacuum(HilbertSpec(12)))
    grid = PhaseSpaceGrid(-2.0, 2.0, -2.0, 2.0, 17, 17)
    wm = scan_map(rho, grid)
    assert wm.values.min() > -1e-10
    i0 = np.argmin(np.abs(grid.q1_axis))
    assert abs(wm.values[i0, i0] - 2.0) < 1e-10


def test_scan_map_equals_reflected_parity_map():
    # the readout carries -alpha, so the scan reproduces the displaced-parity
    # map on the reflected grid
    rho = pure_to_density(coherent_state(HilbertSpec(26), 1.2))
    grid = PhaseSpaceGrid(-2.4, 2.4, -2.4, 2.4, 13, 13)
    scan = scan_map(rho, grid)
    direct_map = wigner_map(rho, grid)
    assert np.max(np.abs(scan.values - direct_map.values[::-1, ::-1])) < 1e-8


def test_scan_map_on_symmetric_grid_is_the_map_at_negated_points_bitwise():
    # symmetric extents make the reflected grid the grid itself and its
    # alphas exactly the negated alphas, so no rounding separates the two
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5 * np.exp(0.4j), 0.7))
    for n1, n2 in ((21, 21), (20, 13)):
        grid = PhaseSpaceGrid(-3.3, 3.3, -2.9, 2.9, n1, n2)
        alphas = grid.alpha_grid()
        assert np.array_equal(alphas[::-1, ::-1], -alphas)
        scan = scan_map(rho, grid)
        assert np.array_equal(scan.values, wigner_map(rho, grid).values[::-1, ::-1])


def test_scan_map_reflection_on_asymmetric_grid():
    rho = pure_to_density(coherent_state(HilbertSpec(26), 1.2))
    grid = PhaseSpaceGrid(-1.0, 2.2, -0.6, 1.8, 9, 7)
    scan = scan_map(rho, grid)
    reflected = wigner_map(rho, grid.reflected())
    assert np.max(np.abs(scan.values - reflected.values[::-1, ::-1])) < 1e-8
    # the map kernel against the atom probe after a real injection
    alphas = grid.alpha_grid()
    probed = np.array([[readout(rho, a) for a in row] for row in alphas])
    assert np.max(np.abs(scan.values - probed)) < 1e-8


def test_scan_distinguishes_cat_from_mixture(corpus):
    grid = PhaseSpaceGrid(-0.45, 0.45, -2.0, 2.0, 7, 27)
    cat = scan_map(corpus["cat_even"], grid)
    mixture = scan_map(corpus["mixture"], grid)
    assert np.max(np.abs(cat.values - mixture.values)) > 1.5


# -- real-time decoherence monitoring ----------------------------------------------


def test_monitor_starts_at_plus_two_for_even_cat():
    alpha = np.sqrt(5.0)
    rho = pure_to_density(cat_state(HilbertSpec(default_dim(alpha)), alpha, 0.0))
    w0 = monitor_origin(rho, MODEL, [0.0])
    assert abs(w0[0, 0] - 2.0) < 1e-6


def test_monitor_returns_to_plus_two_at_long_times():
    alpha = np.sqrt(5.0)
    rho = pure_to_density(cat_state(HilbertSpec(default_dim(alpha)), alpha, 0.0))
    w0 = monitor_origin(rho, MODEL, [20.0])
    assert abs(w0[0, 0] - 2.0) < 1e-6


def _collapse_time(n_mean):
    # 1/e crossing of the mixture-subtracted origin signal
    alpha = np.sqrt(n_mean)
    spec = HilbertSpec(default_dim(alpha) + 6)
    cat = pure_to_density(cat_state(spec, alpha, 0.0))
    mixture = mix([coherent_state(spec, alpha), coherent_state(spec, -alpha)],
                  [0.5, 0.5])
    t_dec = decoherence_time(MODEL, n_mean)
    times = np.linspace(0, 3.0 * t_dec, 60)
    w_cat = monitor_origin(cat, MODEL, times)[0]
    w_mix = monitor_origin(mixture, MODEL, times)[0]
    signal = (w_cat - w_mix) / (w_cat[0] - w_mix[0])
    k = int(np.argmax(signal < np.exp(-1)))
    return float(np.interp(np.exp(-1), signal[k:k - 2:-1], times[k:k - 2:-1]))


def test_collapse_onset_matches_decoherence_time():
    t_c = _collapse_time(5.0)
    t_dec = decoherence_time(MODEL, 5.0)
    assert abs(t_c - t_dec) / t_dec < 0.20


def test_collapse_time_scales_inversely_with_photon_number():
    t_c = {n: _collapse_time(n) for n in (2.0, 5.0, 10.0)}
    for hi, lo in ((2.0, 5.0), (5.0, 10.0), (2.0, 10.0)):
        measured = t_c[hi] / t_c[lo]
        expected = lo / hi
        assert abs(measured / expected - 1.0) < 0.15


def test_monitor_refuses_unsorted_times():
    # refused by dynamics._diagonals, the one place the times are checked
    rho = pure_to_density(cat_state(HilbertSpec(16), 1.0, 0.0))
    with pytest.raises(DomainError, match=r"less than the minimum of 0 \(time steps\)"):
        monitor_origin(rho, MODEL, [0.2, 0.1])
    with pytest.raises(DomainError, match="at least one time"):
        monitor_origin(rho, MODEL, [])


def test_monitor_sampled_series():
    rho = pure_to_density(cat_state(HilbertSpec(16), 1.0, 0.0))
    exact, sampled, stderr = monitor_origin(rho, MODEL, [0.0, 0.2], n_shots=500,
                                            efficiency=0.5, seed=4)
    assert not np.isnan(sampled).any()
    assert abs(sampled[0] - exact[0]) < 4 * stderr[0]
    # without shots the last two rows are NaN
    assert np.isnan(monitor_origin(rho, MODEL, [0.0, 0.2])[1:]).all()


def test_monitor_draws_each_time_from_its_own_child_seed():
    # time k: outcomes e with probability P_e, then detections, both from
    # child k of SeedSequence(seed).spawn(T)
    rho = pure_to_density(cat_state(HilbertSpec(16), 1.0, 0.0))
    times, n_shots, efficiency, seed = [0.0, 0.1, 0.3, 0.3], 400, 0.6, 21
    w0 = monitor_origin(rho, MODEL, times, n_shots=n_shots, efficiency=efficiency,
                        seed=seed)
    p_e = (1.0 - w0[0] / 2.0) / 2.0  # W(0) = 2 (P_g - P_e), P_g = 1 - P_e
    for k, child in enumerate(SeedSequence(seed).spawn(len(times))):
        rng = default_rng(child)
        outcomes_e = rng.random(n_shots) < p_e[k]
        detected = rng.random(n_shots) < efficiency
        frac_e = np.sum(outcomes_e & detected) / detected.sum()
        assert w0[1, k] == 2.0 * (1.0 - 2.0 * frac_e)
        assert w0[2, k] == 4.0 * np.sqrt(max(frac_e * (1.0 - frac_e),
                                             1.0 / (4.0 * detected.sum())) / detected.sum())


@pytest.mark.parametrize("n_th", [0.0, 0.05])
def test_monitor_reads_the_populations_of_the_damped_state(n_th):
    # the monitor forms only the damped populations; its exact row is the
    # Born rule on the diagonals of the full damped matrices, bit for bit
    rho = pure_to_density(cat_state(HilbertSpec(20), 1.2, 0.0))
    model = DampingModel(1.0, n_th)
    times = [0.0, 0.0, 0.15, 0.15, 0.6, 2.0]
    w0 = monitor_origin(rho, model, times)[0]
    for k, rho_t in enumerate(evolve(rho, model, times)):
        p_e, p_g = protocol.detection_probabilities(rho_t.diagonal())
        assert w0[k] == 2.0 * (p_g - p_e)


# -- alternative conditional-phase realizations --------------------------------------


def resonant_origin(rho):
    """2 (P_g - P_e) of the resonant probe, which reads the origin alone."""
    branches = protocol.probe_atom(rho, "resonant-2pi")
    return 2.0 * (branches["g"].probability - branches["e"].probability)


def test_resonant_variant_one_photon():
    assert abs(resonant_origin(fock_rho(1, dim=12)) + 2.0) < 1e-9


def test_resonant_variant_imperfect_photon():
    # p(1) = 0.8, p(0) = 0.2: the origin value is the diagonal parity sum
    rho = np.diag([0.2, 0.8] + [0.0] * 10).astype(complex)
    assert abs(resonant_origin(DensityOperator(rho)) + 1.2) < 1e-9


def test_opposite_shift_variant_matches_standard_readout(corpus):
    # the opposite-shift probe reads the displaced populations with the
    # pi-dispersive probe's probabilities, bit for bit: the Born rule with its
    # own Kraus weights gives what the readout gives
    from cavitylab.direct import _populations

    rho = corpus["cat_even"]
    rng = np.random.default_rng(11)
    alphas = rng.normal(scale=0.7, size=6) + 1j * rng.normal(scale=0.7, size=6)
    p_e, p_g = direct_point_exact(rho, alphas)
    for index, pops in _populations(rho, alphas):
        weights = np.abs(protocol.field_kraus("opposite", pops.shape[-1])) ** 2
        opp_e, opp_g = (pops * weights[0]).sum(-1), (pops * weights[1]).sum(-1)
        assert np.array_equal(opp_e, p_e[index]) and np.array_equal(opp_g, p_g[index])
