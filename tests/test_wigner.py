import math

import numpy as np
import pytest

from cavitylab import (
    DampingModel,
    DensityOperator,
    HilbertSpec,
    PhaseSpaceGrid,
    TruncationError,
    cat_state,
    coherent_state,
    default_grid,
    displacement,
    evolve,
    evolve_trajectory,
    fock_state,
    marginal_distribution,
    mix,
    moyal_average,
    parity,
    pauli_counterexample,
    photon_number_distribution,
    promote,
    pure_to_density,
    radon_of_map,
    vacuum,
    wigner_map,
    wigner_point,
    wigner_position,
)
from cavitylab.errors import DomainError
from cavitylab.wigner import _BLOCK, WignerMap, hermite_functions


def make_coherent_rho(alpha, dim):
    return pure_to_density(coherent_state(HilbertSpec(dim), alpha))


# -- Laguerre-series construction ---------------------------------------------


def test_vacuum_at_origin():
    rho = pure_to_density(vacuum(HilbertSpec(10)))
    assert abs(wigner_point(rho, 0.0) - 2.0) < 1e-12


def test_one_photon_at_origin():
    rho = pure_to_density(fock_state(HilbertSpec(10), 1))
    assert abs(wigner_point(rho, 0.0) + 2.0) < 1e-12


def test_coherent_gaussian_against_position_construction():
    # the position-integral construction acts as the independent oracle
    alpha0 = 1.2
    rho = make_coherent_rho(alpha0, 60)
    for alpha in (0.0, 0.4 + 0.3j, 1.0, 1.5 - 0.5j):
        analytic = 2 * np.exp(-2 * abs(alpha - alpha0) ** 2)
        q, p = np.sqrt(2) * alpha.real, np.sqrt(2) * alpha.imag
        assert abs(wigner_point(rho, alpha) - analytic) < 1e-7
        assert abs(wigner_position(rho, q, p) - analytic) < 1e-7


def test_truncation_guard():
    # the series is exact at any alpha: |alpha|^2 = 9 > dim/4 is evaluated,
    # pointwise and in a map, as 2 e^{-2|alpha|^2}
    rho = pure_to_density(vacuum(HilbertSpec(8)))
    exact = 2.0 * np.exp(-18.0)
    assert abs(wigner_point(rho, 3.0) - exact) < 1e-12 * exact
    assert abs(wigner_position(rho, 3.0 * np.sqrt(2), 0.0) - exact) < 1e-12 * exact
    wm = wigner_map(rho, PhaseSpaceGrid(0.0, 3.0 * np.sqrt(2), -1.0, 1.0, 3, 3))
    assert abs(wm.values[2, 1] - exact) < 1e-12 * exact


def test_cross_construction_on_mixed_state():
    spec = HilbertSpec(40)
    rho = mix([cat_state(spec, 1.2, 0.0), fock_state(spec, 2)], [0.6, 0.4])
    # |alpha| = 3.15 lies at the guard edge of the even cat's dim-40 space,
    # where a displacement truncated to dim 40 read 0.02375 against 0.07098
    even_cat = pure_to_density(cat_state(spec, 2.0, 0.0))
    for state in (rho, promote(rho, HilbertSpec(90)), even_cat):
        for q, p in ((0.0, 0.0), (0.9, -0.7), (-1.8, 0.3), (2.2, 1.9),
                     (3.15 * np.sqrt(2), 0.0)):
            alpha = (q + 1j * p) / np.sqrt(2)
            assert abs(wigner_point(state, alpha) - wigner_position(state, q, p)) < 1e-10


def test_non_finite_alpha_is_rejected():
    rho = pure_to_density(cat_state(HilbertSpec(20), 1.0, 0.0))
    # 4|alpha|^2 overflows at |alpha| = 1e160, which read W = nan
    for alpha in (complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0), 1e160):
        with pytest.raises(DomainError):
            wigner_point(rho, alpha)


def test_wigner_position_fock3_oscillates():
    # number states have negative phase-space regions; the n = 3 radial
    # profile changes sign twice inside the classical region
    rho = pure_to_density(fock_state(HilbertSpec(30), 3))
    radial = [wigner_position(rho, q, 0.0) for q in (0.0, 0.9, 1.6)]
    assert radial[0] < -1.9
    assert radial[1] > 0.2
    assert radial[2] < -0.01


def test_wigner_symmetry_for_parity_symmetric_state():
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.4, 0.0))
    for q, p in ((0.7, 0.2), (1.1, -0.9)):
        assert abs(wigner_position(rho, q, p) - wigner_position(rho, -q, -p)) < 1e-9


# -- maps ----------------------------------------------------------------------


def test_grid_rejects_non_finite_extents():
    for extents in ((-np.inf, 1, -1, 1), (-1, np.inf, -1, 1), (-1, 1, np.nan, 1),
                    (-1, 1, -1, np.nan)):
        with pytest.raises(DomainError):
            PhaseSpaceGrid(*extents, 3, 3)
    for alpha_max in (np.inf, np.nan):
        with pytest.raises(DomainError):
            default_grid(alpha_max)


def test_check_bound_fails_on_non_finite_values():
    grid = PhaseSpaceGrid(-1, 1, -1, 1, 3, 3)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((3, 3))
        values[1, 2] = bad
        with pytest.raises(DomainError):
            WignerMap(grid, values).check_bound()


def test_map_on_shared_radii_against_position_construction():
    # a symmetric odd-sized grid through alpha = 0, where mirror points share
    # a radius and one radial pass serves several angles; the complex cat has
    # no mirror symmetry, so each point's angular sum is tested on its own
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5 * np.exp(0.4j), 0.7))
    grid = PhaseSpaceGrid(-4.0, 4.0, -4.0, 4.0, 21, 21)
    wm = wigner_map(rho, grid)
    assert grid.q1_axis[10] == 0.0 and grid.q2_axis[10] == 0.0
    assert wm.diagnostics["eval_dim"] == 30
    assert wm.diagnostics["distinct_radii"] < grid.n1 * grid.n2 / 3
    for i, q in enumerate(grid.q1_axis):
        for j, p in enumerate(grid.q2_axis):
            assert abs(wm.values[i, j] - wigner_position(rho, q, p)) < 1e-10


def test_map_across_radial_blocks_against_position_construction():
    # an off-centre, non-square grid with more distinct radii than one radial
    # block holds: points on both sides of every block boundary are checked
    rng = np.random.default_rng(60)
    vecs = rng.normal(size=(2, 60)) + 1j * rng.normal(size=(2, 60))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    rho = DensityOperator(0.6 * np.outer(vecs[0], vecs[0].conj())
                          + 0.4 * np.outer(vecs[1], vecs[1].conj()))
    grid = PhaseSpaceGrid(-2.3, 6.1, -4.7, 1.9, 97, 61)
    wm = wigner_map(rho, grid)
    x = 4.0 * np.abs(grid.alpha_grid()) ** 2
    radii = np.unique(x)
    step = _BLOCK // rho.dim
    assert wm.diagnostics["distinct_radii"] == radii.size > step
    picks = [0, radii.size - 1]
    for edge in range(step, radii.size, step):
        picks += [edge - 2, edge - 1, edge, edge + 1]
    for r in picks:
        for i, j in zip(*np.nonzero(x == radii[r])):
            want = wigner_position(rho, grid.q1_axis[i], grid.q2_axis[j])
            assert abs(wm.values[i, j] - want) < 1e-10


def test_map_memory_stays_blocked():
    # the radial pass works on blocks of radii, not on a dim x (distinct
    # radii) table: a 401 x 401 grid at dim 100 stays below 32 MB
    import tracemalloc

    rho = pure_to_density(cat_state(HilbertSpec(100), 3.0, 0.0))
    grid = PhaseSpaceGrid(-8.0, 8.0, -8.0, 8.0, 401, 401)
    tracemalloc.start()
    try:
        wigner_map(rho, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_map_matches_promoted_displaced_parity():
    # independent oracle: 2 Tr[rho D P D^dag], the displacement built in a
    # space promoted well beyond the grid's reach; the complex cat has no
    # mirror symmetry, so the phase of every series term is tested
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5 * np.exp(0.4j), 0.7))
    grid = default_grid(1.5, step=0.5)
    wm = wigner_map(rho, grid)
    big = HilbertSpec(200)
    mat = promote(rho, big).matrix
    p = parity(big).matrix
    rng = np.random.default_rng(7)
    for _ in range(25):
        i = rng.integers(grid.n1)
        j = rng.integers(grid.n2)
        alpha = (grid.q1_axis[i] + 1j * grid.q2_axis[j]) / np.sqrt(2)
        d = displacement(big, alpha).matrix
        oracle = 2.0 * np.real(np.trace(mat @ d @ p @ d.conj().T))
        assert abs(wm.values[i, j] - oracle) < 1e-10


def test_laguerre_recurrence_at_high_order():
    # a random mixed state filling dim 250, checked out to |alpha| = 15
    # against the position-representation integral
    rng = np.random.default_rng(250)
    vecs = rng.normal(size=(2, 250)) + 1j * rng.normal(size=(2, 250))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    rho = DensityOperator(0.7 * np.outer(vecs[0], vecs[0].conj())
                          + 0.3 * np.outer(vecs[1], vecs[1].conj()))
    grid = PhaseSpaceGrid(-15.0, 15.0, -15.0, 15.0, 7, 7)
    assert abs(grid.corner_radius() - 15.0) < 1e-12
    wm = wigner_map(rho, grid)
    for i, q in enumerate(grid.q1_axis):
        for j, p in enumerate(grid.q2_axis):
            assert abs(wm.values[i, j] - wigner_position(rho, q, p)) < 1e-10


def test_cat_map_fringes_match_lobes():
    alpha0 = 3.0
    rho = pure_to_density(cat_state(HilbertSpec(46), alpha0, 0.0))
    wm = wigner_map(rho, default_grid(alpha0, step=0.075))
    fringe = np.abs(wm.values[np.abs(wm.grid.q1_axis) < 0.5, :]).max()
    lobe_region = np.abs(wm.grid.q1_axis - np.sqrt(2) * alpha0) < 0.5
    lobe = np.abs(wm.values[lobe_region, :]).max()
    assert abs(fringe - 2.0) < 0.01
    assert abs(lobe - 1.0) < 0.05  # each lobe carries half the cat's weight
    assert abs(fringe / lobe - 2.0) < 0.1


def test_mixture_map_has_no_fringes():
    alpha0 = 3.0
    spec = HilbertSpec(46)
    rho = mix([coherent_state(spec, alpha0), coherent_state(spec, -alpha0)],
              [0.5, 0.5])
    wm = wigner_map(rho, default_grid(alpha0, step=0.15))
    strip = np.abs(wm.grid.q1_axis) < 0.5
    assert np.abs(wm.values[strip, :]).max() < 1e-6


def test_map_normalization_on_reference_grid():
    # 161 x 161 spanning +-6: Riemann sum within 1e-3 of 1
    grid = PhaseSpaceGrid(-6, 6, -6, 6, 161, 161)
    spec = HilbertSpec(30)
    for rho in (pure_to_density(vacuum(spec)),
                pure_to_density(fock_state(spec, 1)),
                make_coherent_rho(1.0, 30)):
        wm = wigner_map(rho, grid)
        assert abs(wm.normalization_sum() - 1.0) < 1e-3


def test_map_normalization_grid_refinement():
    # a step of 0.6 under-resolves the alpha0 = 2 fringes (wavelength ~1.1)
    # and aliases the normalization sum; refining recovers it
    rho = pure_to_density(cat_state(HilbertSpec(36), 2.0, 0.0))
    coarse = wigner_map(rho, PhaseSpaceGrid(-6, 6, -6, 6, 21, 21))
    fine = wigner_map(rho, PhaseSpaceGrid(-6, 6, -6, 6, 81, 81))
    err_coarse = abs(coarse.normalization_sum() - 1.0)
    err_fine = abs(fine.normalization_sum() - 1.0)
    assert err_coarse > 1e-3
    assert err_fine < err_coarse / 10
    assert err_fine < 1e-4


def test_map_bound():
    rho = pure_to_density(cat_state(HilbertSpec(36), 2.0, 0.0))
    wm = wigner_map(rho, default_grid(2.0, step=0.1))
    assert wm.max_abs() <= 2.0 + 1e-8
    wm.check_bound()


def test_linearity_of_wigner_in_the_state():
    spec = HilbertSpec(30)
    rho_a = pure_to_density(coherent_state(spec, 1.0))
    rho_b = pure_to_density(fock_state(spec, 2))
    mixed = mix([coherent_state(spec, 1.0), fock_state(spec, 2)], [0.3, 0.7])
    for alpha in (0.0, 0.5 + 0.2j, -1.1j):
        combo = 0.3 * wigner_point(rho_a, alpha) + 0.7 * wigner_point(rho_b, alpha)
        assert abs(wigner_point(mixed, alpha) - combo) < 1e-10


def test_map_values_shape_validation():
    grid = PhaseSpaceGrid(-1, 1, -1, 1, 4, 4)
    from cavitylab.wigner import WignerMap

    with pytest.raises(ValueError):
        WignerMap(grid, np.zeros((3, 4)))
    bogus = WignerMap(grid, 3.0 * np.ones((4, 4)))
    with pytest.raises(Exception):
        bogus.check_bound()


def test_operator_apply_matches_matmul():
    spec = HilbertSpec(10)
    from cavitylab import creation

    st = coherent_state(spec, 0.8)
    lifted = creation(spec).apply(st)
    np.testing.assert_allclose(lifted.amplitudes,
                               creation(spec).matrix @ st.amplitudes)


# -- marginals ------------------------------------------------------------------


def test_vacuum_marginal_is_rotation_invariant_gaussian():
    rho = pure_to_density(vacuum(HilbertSpec(12)))
    qs = np.linspace(-3, 3, 41)
    target = np.exp(-qs ** 2) / np.sqrt(np.pi)
    for theta in (0.0, 0.7, np.pi / 2, 2.9):
        np.testing.assert_allclose(marginal_distribution(rho, theta, qs), target,
                                   atol=1e-10)


def test_fock1_marginal_profile():
    # |psi_1(q)|^2 = 2 q^2 e^{-q^2} / sqrt(pi)
    rho = pure_to_density(fock_state(HilbertSpec(12), 1))
    qs = np.linspace(-4, 4, 81)
    target = 2 * qs ** 2 * np.exp(-qs ** 2) / np.sqrt(np.pi)
    np.testing.assert_allclose(marginal_distribution(rho, 0.0, qs), target, atol=1e-8)


def test_marginal_equals_map_line_integral():
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5, 0.0))
    wm = wigner_map(rho, default_grid(1.5, step=0.06))
    for theta in np.linspace(0, np.pi, 18, endpoint=False):
        qs, p_map = radon_of_map(wm, float(theta))
        p_quantum = marginal_distribution(rho, float(theta), qs)
        assert np.max(np.abs(p_map - p_quantum)) < 5e-3


def test_radon_matches_grid_interpolator_on_asymmetric_grid():
    # reference: scipy's linear RegularGridInterpolator (zero outside the
    # grid) sampled along the same lines as radon_of_map
    from scipy.interpolate import RegularGridInterpolator

    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5 * np.exp(0.4j), 0.7))
    grid = PhaseSpaceGrid(-3.1, 4.3, -2.2, 5.0, 37, 29)
    wm = wigner_map(rho, grid)
    interp = RegularGridInterpolator((grid.q1_axis, grid.q2_axis),
                                     wm.values / (2 * np.pi),
                                     bounds_error=False, fill_value=0.0)
    radius = math.hypot(4.3, 5.0)
    step = min(7.4 / 36, 7.2 / 28)
    s = np.arange(-radius, radius + step, step)
    for theta in np.linspace(0, np.pi, 13, endpoint=False):
        for q_out in (None, np.linspace(-6.0, 6.0, 25)):
            qs, got = radon_of_map(wm, float(theta), q_out)
            pts1 = qs[:, None] * np.cos(theta) - s * np.sin(theta)
            pts2 = qs[:, None] * np.sin(theta) + s * np.cos(theta)
            vals = interp(np.stack([pts1.ravel(), pts2.ravel()], axis=-1))
            want = np.trapezoid(vals.reshape(pts1.shape), dx=step, axis=1)
            assert np.max(np.abs(got - want)) < 1e-14


def _coherent_wave_packet(beta, x):
    """<x|beta> = pi^(-1/4) exp(-x^2/2 + sqrt(2) beta x - beta^2/2 - |beta|^2/2)."""
    return np.pi ** -0.25 * np.exp(-x ** 2 / 2 + np.sqrt(2) * beta * x
                                   - beta ** 2 / 2 - abs(beta) ** 2 / 2)


def test_marginal_matches_coherent_wave_packet_closed_form():
    # cat (|a> + e^{i psi1}|-a>)/N with complex a: P_theta(x) = |<x| e^{-i theta n} |cat>|^2
    # and e^{-i theta n}|beta> = |beta e^{-i theta}>, so the closed form is a
    # sum of two Gaussian wave packets; a rotation of the wrong sign fails it
    alpha, psi1, dim = 1.5 * np.exp(0.4j), 0.7, 40
    n = np.arange(dim)
    log_norm = np.array([0.5 * math.lgamma(k + 1.0) for k in n])
    amps = np.exp(-abs(alpha) ** 2 / 2 - log_norm) * (alpha ** n + np.exp(1j * psi1) * (-alpha) ** n)
    amps /= np.linalg.norm(amps)
    rho = DensityOperator(np.outer(amps, amps.conj()))
    norm_sq = 2.0 * (1.0 + np.cos(psi1) * np.exp(-2.0 * abs(alpha) ** 2))
    xs = np.linspace(-7.0, 7.0, 281)
    for theta in (0.0, 0.3, np.pi / 4, 1.2, np.pi / 2, 2.7):
        beta = alpha * np.exp(-1j * theta)
        packet = (_coherent_wave_packet(beta, xs)
                  + np.exp(1j * psi1) * _coherent_wave_packet(-beta, xs))
        closed = np.abs(packet) ** 2 / norm_sq
        assert np.max(np.abs(marginal_distribution(rho, theta, xs) - closed)) < 1e-10


def test_marginal_domain():
    rho = pure_to_density(vacuum(HilbertSpec(6)))
    from cavitylab.errors import DomainError, NonHermitianError
    from cavitylab.tomo import sample_homodyne

    with pytest.raises(DomainError):
        marginal_distribution(rho, -0.1, 0.0)
    with pytest.raises(DomainError):
        marginal_distribution(rho, np.pi, 0.0)
    # Re(rho) alone is a valid-looking state: the marginals must still refuse it
    mat = np.zeros((6, 6), dtype=complex)
    mat[0, 0], mat[0, 1] = 1.0, 0.5j
    skewed = DensityOperator(mat)
    with pytest.raises(NonHermitianError):
        marginal_distribution(skewed, 0.0, [0.0, 1.0])
    with pytest.raises(NonHermitianError):
        sample_homodyne(skewed, 0.0, 100, 1)


def test_hermite_functions_orthonormal():
    xs = np.linspace(-12, 12, 4001)
    psi = hermite_functions(xs, 8)
    gram = psi @ psi.T * (xs[1] - xs[0])
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-7)


# -- Moyal correspondence ---------------------------------------------------------


def test_moyal_vacuum_odd_moment_vanishes():
    res = moyal_average(pure_to_density(vacuum(HilbertSpec(12))), (2, 1))
    assert abs(res.operator_value) < 1e-12
    assert abs(res.integral_value) < 1e-9


def test_moyal_coherent_state_consistency():
    rho = make_coherent_rho(1.1, 20)
    for monomial in ((1, 0), (2, 0), (1, 1), (2, 1), (0, 3)):
        res = moyal_average(rho, monomial)
        assert res.discrepancy < 1e-6


def test_moyal_fock1_q_squared():
    # <q^2> = n + 1/2 = 3/2 for the one-photon state
    res = moyal_average(pure_to_density(fock_state(HilbertSpec(16), 1)), (2, 0))
    assert abs(res.operator_value - 1.5) < 1e-6
    assert abs(res.integral_value - 1.5) < 1e-6


def test_moyal_degree_guard():
    rho = pure_to_density(vacuum(HilbertSpec(12)))
    with pytest.raises(TruncationError):
        moyal_average(rho, (3, 2))


# -- photon statistics -------------------------------------------------------------


def test_photon_number_distribution_fock():
    p = photon_number_distribution(pure_to_density(fock_state(HilbertSpec(6), 1)))
    np.testing.assert_allclose(p, [0, 1, 0, 0, 0, 0], atol=1e-15)


def test_photon_number_distribution_poisson():
    alpha = 1.3
    rho = make_coherent_rho(alpha, 30)
    p = photon_number_distribution(rho)
    n = np.arange(30)
    from math import factorial

    poisson = np.array([np.exp(-alpha ** 2) * alpha ** (2 * k) / factorial(k)
                        for k in n])
    np.testing.assert_allclose(p, poisson, atol=1e-10)


def test_photon_number_distribution_damped_one_photon():
    # amplitude damping of |1><1|: p1(t) = e^{-kappa t}, p0 = 1 - p1
    rho0 = pure_to_density(fock_state(HilbertSpec(8), 1))
    t = 0.45
    p = photon_number_distribution(evolve(rho0, DampingModel(kappa=1.0), t))
    assert abs(p[1] - np.exp(-t)) < 1e-7
    assert abs(p[0] - (1 - np.exp(-t))) < 1e-7
    assert np.all(p[2:] < 1e-10)


# -- the marginals-only ambiguity ---------------------------------------------------


def test_pauli_pair_marginals_identical_wigner_different():
    pair = pauli_counterexample(HilbertSpec(16))
    assert pair.evidence["marginal_dev_theta_0"] < 1e-10
    assert pair.evidence["marginal_dev_theta_90"] < 1e-10
    assert pair.evidence["wigner_sup_deviation"] > 0.1
    assert pair.evidence["marginal_dev_theta_45"] > 0.01


def test_pauli_pair_is_conjugate():
    pair = pauli_counterexample(HilbertSpec(16))
    np.testing.assert_allclose(pair.state_a.amplitudes,
                               pair.state_b.amplitudes.conj(), atol=1e-15)


# -- decoherence visible in the fringes ----------------------------------------------


def test_fringe_amplitude_decays_at_decoherence_rate():
    # |W(0, t)| of an even cat decays with the decoherence time constant
    n_mean = 5.0
    alpha = np.sqrt(n_mean)
    model = DampingModel(kappa=1.0)
    rho0 = pure_to_density(cat_state(HilbertSpec(32), alpha, 0.0))
    t_dec = 1.0 / (2 * n_mean)
    times = np.linspace(0, 0.5 * t_dec, 11)
    w0 = np.array([wigner_point(r, 0.0) for r in evolve_trajectory(rho0, model, times)])
    rate = -np.polyfit(times, np.log(w0 / w0[0]), 1)[0]
    assert abs(rate * t_dec - 1.0) < 0.10
