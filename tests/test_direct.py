import numpy as np
import pytest

from cavitylab import (
    DampingModel,
    DomainError,
    HilbertSpec,
    MeasurementRecord,
    NoDetectionError,
    PhaseSpaceGrid,
    ProtocolConfig,
    SubspaceError,
    TruncationError,
    cat_state,
    coherent_state,
    decoherence_time,
    default_dim,
    direct_point_exact,
    direct_point_sampled,
    fock_state,
    mix,
    monitor_origin,
    pure_to_density,
    scan_map,
    vacuum,
    wigner_map,
    wigner_point,
    wigner_position,
)

MODEL = DampingModel(kappa=1.0)


def fock_rho(n, dim=16):
    return pure_to_density(fock_state(HilbertSpec(dim), n))


# -- exact readout --------------------------------------------------------------


def test_empty_cavity_reads_plus_two():
    rec = direct_point_exact(pure_to_density(vacuum(HilbertSpec(10))), 0.0)
    assert abs(rec.p_g - 1.0) < 1e-12
    assert rec.p_e < 1e-12
    assert abs(rec.estimate - 2.0) < 1e-12


def test_one_photon_reads_minus_two():
    rec = direct_point_exact(fock_rho(1), 0.0)
    assert abs(rec.p_e - 1.0) < 1e-12
    assert abs(rec.estimate + 2.0) < 1e-12


def test_readout_identity_along_fringe_line(corpus):
    # scanning the injection through the interference region traces the
    # displaced-parity values exactly
    rho = corpus["cat_even"]
    for q2 in np.linspace(-1.5, 1.5, 11):
        alpha = 1j * q2 / np.sqrt(2)
        rec = direct_point_exact(rho, alpha)
        assert abs(rec.estimate - wigner_point(rho, -alpha)) < 1e-8


def test_readout_identity_over_corpus(corpus):
    rng = np.random.default_rng(5)
    for name, rho in corpus.items():
        for _ in range(4):
            alpha = complex(rng.normal(scale=0.8), rng.normal(scale=0.8))
            rec = direct_point_exact(rho, alpha)
            assert abs(rec.estimate - wigner_point(rho, -alpha)) < 1e-8, name


def test_readout_at_guard_edge_matches_position_oracle(corpus):
    # |alpha|^2 = 3.15^2 is about dim/4 for the dim-40 corpus: the displaced
    # populations need rows past dim 40 (a displacement truncated to dim 40
    # read 0.02375)
    rho = corpus["cat_even"]
    oracle = wigner_position(rho, 3.15 * np.sqrt(2), 0.0)
    assert abs(oracle - 0.07098) < 1e-5
    assert abs(direct_point_exact(rho, -3.15).estimate - oracle) < 1e-8


def test_non_finite_injection_is_rejected(corpus):
    # nan raised a bare ValueError; 1e160 overflows |alpha|^2
    rho = corpus["cat_even"]
    for alpha in (complex(np.nan, 0.0), complex(0.0, np.inf), 1e160):
        with pytest.raises(DomainError):
            direct_point_exact(rho, alpha)
        with pytest.raises(DomainError):
            direct_point_sampled(rho, alpha, 100, 1.0, seed=1)
        with pytest.raises(DomainError):
            direct_point_exact(rho, alpha, variant="opposite")


def test_huge_injection_raises_before_allocating():
    # the displaced vacuum at |alpha| = 1e4 needs ~1e8 photon numbers; the
    # readout stops at the displacement cap instead of allocating them
    import tracemalloc

    rho = pure_to_density(vacuum(HilbertSpec(10)))
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError):
            direct_point_exact(rho, 1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_readout_truncation_is_the_smallest_capturing_one(corpus):
    # N doubles past rho.dim until the displaced populations hold Tr rho
    # within 1e-10: half of N misses more, and N carries the exact W
    from cavitylab.direct import _populations

    rho = corpus["cat_even"]
    assert _populations(rho, 0.0).size == rho.dim
    assert _populations(rho, 0.1).size == 2 * rho.dim
    pops = _populations(rho, 4.0 - 1.0j)
    assert pops.size == 4 * rho.dim
    assert abs(1.0 - pops.sum()) <= 1e-10
    assert 1.0 - pops[:pops.size // 2].sum() > 1e-10
    oracle = wigner_position(rho, -4.0 * np.sqrt(2), 1.0 * np.sqrt(2))
    assert abs(direct_point_exact(rho, 4.0 - 1.0j).estimate - oracle) < 1e-9


def test_estimate_bounded_by_two(corpus):
    rng = np.random.default_rng(8)
    for rho in corpus.values():
        alpha = complex(rng.normal(scale=0.9), rng.normal(scale=0.9))
        rec = direct_point_exact(rho, alpha)
        assert abs(rec.estimate) <= 2.0 + 1e-12


def test_requires_pi_phase(corpus):
    with pytest.raises(DomainError):
        direct_point_exact(fock_rho(1), 0.0, ProtocolConfig(phi=np.pi / 2))
    # a dephased second zone or a resonant readout off eta = 0 weigh the
    # photon numbers away from parity (they read 1.598 against W = 1.673,
    # and -1.911 against W = -2)
    with pytest.raises(DomainError):
        direct_point_exact(corpus["cat_even"], 0.3, ProtocolConfig(eta=0.3))
    with pytest.raises(DomainError):
        direct_point_exact(fock_rho(1), 0.0, ProtocolConfig(eta=0.3), "resonant-2pi")


def test_record_invariants():
    with pytest.raises(ValueError):
        MeasurementRecord(0.0, 0.7, 0.7, 0, 0, 0.0, 0.0)
    with pytest.raises(ValueError):
        MeasurementRecord(0.0, 0.5, 0.5, 10, 11, 0.0, 0.0)


# -- finite shots and detector inefficiency ---------------------------------------


def test_sampled_matches_exact_within_errorbars():
    rho = fock_rho(1)
    rec = direct_point_sampled(rho, 0.35, 20000, 1.0, seed=42)
    exact = direct_point_exact(rho, 0.35).estimate
    assert abs(rec.estimate - exact) < 3 * rec.stderr


def test_efficiency_insensitivity_at_matched_counts():
    # eff = 1 and eff = 0.4 with matched detected counts agree within 3 sigma
    rho = fock_rho(1)
    r_full = direct_point_sampled(rho, 0.35, 4000, 1.0, seed=101)
    r_lossy = direct_point_sampled(rho, 0.35, 10000, 0.4, seed=202)
    assert abs(r_full.estimate - r_lossy.estimate) \
        < 3 * np.hypot(r_full.stderr, r_lossy.stderr)
    assert 3500 < r_lossy.n_detected < 4500


def test_estimator_unbiased_under_loss():
    # 200 repetitions at 25% detection: the mean stays on the exact value
    rho = fock_rho(1)
    exact = direct_point_exact(rho, 0.35).estimate
    ests = np.array([direct_point_sampled(rho, 0.35, 400, 0.25, seed=3000 + k).estimate
                     for k in range(200)])
    sem = ests.std(ddof=1) / np.sqrt(ests.size)
    assert abs(ests.mean() - exact) < 3 * sem


def test_stderr_scales_like_root_n():
    rho = fock_rho(1)
    s_small = direct_point_sampled(rho, 0.35, 500, 1.0, seed=7).stderr
    s_large = direct_point_sampled(rho, 0.35, 50000, 1.0, seed=7).stderr
    ratio = s_small / s_large
    assert 10.0 / 1.5 < ratio < 10.0 * 1.5


def test_sampling_determinism_and_guards():
    rho = fock_rho(1)
    a = direct_point_sampled(rho, 0.2, 1000, 0.8, seed=5)
    b = direct_point_sampled(rho, 0.2, 1000, 0.8, seed=5)
    assert a.estimate == b.estimate and a.n_detected == b.n_detected
    with pytest.raises(NoDetectionError):
        direct_point_sampled(rho, 0.2, 50, 0.0, seed=5)
    with pytest.raises(DomainError):
        direct_point_sampled(rho, 0.2, 50, 1.5, seed=5)
    with pytest.raises(DomainError):
        direct_point_sampled(rho, 0.2, 0, 1.0, seed=5)


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


def test_scan_map_reflection_on_asymmetric_grid():
    rho = pure_to_density(coherent_state(HilbertSpec(26), 1.2))
    grid = PhaseSpaceGrid(-1.0, 2.2, -0.6, 1.8, 9, 7)
    scan = scan_map(rho, grid)
    reflected = wigner_map(rho, grid.reflected())
    assert np.max(np.abs(scan.values - reflected.values[::-1, ::-1])) < 1e-8
    # the map kernel against the atom probe after a real injection
    alphas = grid.alpha_grid()
    probed = np.array([[direct_point_exact(rho, a).estimate for a in row] for row in alphas])
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
    point = monitor_origin(rho, MODEL, [0.0])[0]
    assert abs(point.exact.estimate - 2.0) < 1e-6


def test_monitor_returns_to_plus_two_at_long_times():
    alpha = np.sqrt(5.0)
    rho = pure_to_density(cat_state(HilbertSpec(default_dim(alpha)), alpha, 0.0))
    point = monitor_origin(rho, MODEL, [20.0])[0]
    assert abs(point.exact.estimate - 2.0) < 1e-6


def _collapse_time(n_mean):
    # 1/e crossing of the mixture-subtracted origin signal
    alpha = np.sqrt(n_mean)
    spec = HilbertSpec(default_dim(alpha) + 6)
    cat = pure_to_density(cat_state(spec, alpha, 0.0))
    mixture = mix([coherent_state(spec, alpha), coherent_state(spec, -alpha)],
                  [0.5, 0.5])
    t_dec = decoherence_time(MODEL, n_mean)
    times = np.linspace(0, 3.0 * t_dec, 60)
    w_cat = np.array([p.exact.estimate for p in monitor_origin(cat, MODEL, times)])
    w_mix = np.array([p.exact.estimate for p in monitor_origin(mixture, MODEL, times)])
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
    # refused by evolve_trajectory, the one place the times are checked
    rho = pure_to_density(cat_state(HilbertSpec(16), 1.0, 0.0))
    with pytest.raises(DomainError, match="times must be finite, sorted and nonnegative"):
        monitor_origin(rho, MODEL, [0.2, 0.1])


def test_monitor_sampled_series():
    rho = pure_to_density(cat_state(HilbertSpec(16), 1.0, 0.0))
    pts = monitor_origin(rho, MODEL, [0.0, 0.2], n_shots=500, efficiency=0.5, seed=4)
    assert pts[0].sampled is not None
    assert abs(pts[0].sampled.estimate - pts[0].exact.estimate) \
        < 4 * pts[0].sampled.stderr


# -- alternative conditional-phase realizations --------------------------------------


def test_resonant_variant_one_photon():
    rec = direct_point_exact(fock_rho(1, dim=12), 0.0, variant="resonant-2pi")
    assert abs(rec.estimate + 2.0) < 1e-9


def test_resonant_variant_imperfect_photon():
    # p(1) = 0.8, p(0) = 0.2: the origin value is the diagonal parity sum
    rho = np.diag([0.2, 0.8] + [0.0] * 10).astype(complex)
    from cavitylab import DensityOperator

    rec = direct_point_exact(DensityOperator(rho), 0.0, variant="resonant-2pi")
    assert abs(rec.estimate + 1.2) < 1e-9


def test_resonant_variant_guards():
    with pytest.raises(SubspaceError):
        direct_point_exact(pure_to_density(coherent_state(HilbertSpec(16), 1.0)), 0.0,
                           variant="resonant-2pi")
    with pytest.raises(DomainError):
        direct_point_exact(fock_rho(1), 0.5, variant="resonant-2pi")


def test_opposite_shift_variant_matches_standard_readout(corpus):
    rho = corpus["cat_even"]
    rng = np.random.default_rng(11)
    for _ in range(6):
        alpha = complex(rng.normal(scale=0.7), rng.normal(scale=0.7))
        rec = direct_point_exact(rho, alpha, variant="opposite")
        ref = direct_point_exact(rho, alpha)
        assert abs(rec.estimate - ref.estimate) < 1e-8


def test_opposite_shift_full_map_matches_pi_pipeline(corpus):
    rho = corpus["cat_even"]
    grid = PhaseSpaceGrid(-2.2, 2.2, -2.2, 2.2, 9, 9)
    cfg = ProtocolConfig(phi=np.pi / 2, eta=np.pi / 2)
    rhs = scan_map(rho, grid)
    for lhs in (scan_map(rho, grid, cfg, variant="opposite"),
                scan_map(rho, grid, variant="opposite")):
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-8


def test_opposite_shift_requires_matched_angles(corpus):
    with pytest.raises(DomainError):
        direct_point_exact(fock_rho(1), 0.1, ProtocolConfig(phi=np.pi / 2, eta=0.0),
                           "opposite")
    # without the eta = pi/2 dephasing the map was off by 2
    grid = PhaseSpaceGrid(-2.2, 2.2, -2.2, 2.2, 5, 5)
    with pytest.raises(DomainError):
        scan_map(corpus["cat_even"], grid, ProtocolConfig(phi=np.pi / 2), variant="opposite")
