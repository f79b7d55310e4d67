import math
from math import comb

import numpy as np
import pytest

from cavitylab import (
    DampingModel,
    DensityOperator,
    DomainError,
    HilbertSpec,
    IntegrationError,
    NonHermitianError,
    cat_state,
    coherent_state,
    decoherence_time,
    evolve,
    mix,
    pure_to_density,
    separation_measure,
    vacuum,
)
from cavitylab import dynamics
from cavitylab.dynamics import (
    _diagonal_generator,
    _diagonals,
    _expm,
    _step_groups,
    coherence_trajectory,
    fit_coherence_decay,
)

from conftest import cat_coherence, mean_photon

MODEL = DampingModel(kappa=1.0)


def coherence_series(states, alpha):
    """cat_coherence of each state of a trajectory by the matrix path:
    <alpha| rho |-alpha> from the full matrices, an oracle for the
    diagonal-by-diagonal ``coherence_trajectory``."""
    spec = HilbertSpec(states[0].dim)
    plus = coherent_state(spec, alpha).amplitudes
    minus = coherent_state(spec, -alpha).amplitudes
    element = (np.stack([r.matrix for r in states]) @ minus) @ plus.conj()
    ceiling = (1.0 + np.exp(-2.0 * abs(alpha) ** 2)) / 2.0
    return np.abs(element) / ceiling


def test_damping_model_validation():
    with pytest.raises(DomainError):
        DampingModel(kappa=0.0)
    with pytest.raises(DomainError):
        DampingModel(kappa=1.0, n_thermal=-0.1)
    assert DampingModel(kappa=4.0).dissipation_time == 0.25


def test_vacuum_is_fixed_point():
    rho = pure_to_density(vacuum(HilbertSpec(12)))
    out = evolve(rho, MODEL, 2.5)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_coherent_state_stays_coherent():
    # analytic oracle: amplitude decays as alpha e^{-kappa t / 2}
    spec = HilbertSpec(24)
    alpha, t = 1.4, 0.6
    out = evolve(pure_to_density(coherent_state(spec, alpha)), MODEL, t)
    target = coherent_state(spec, alpha * np.exp(-MODEL.kappa * t / 2))
    assert out.fidelity_pure(target) >= 1 - 1e-7


def test_energy_decay():
    spec = HilbertSpec(24)
    rho0 = pure_to_density(coherent_state(spec, 1.4))
    for t in (0.2, 0.7, 1.5):
        out = evolve(rho0, MODEL, t)
        assert abs(mean_photon(out.diagonal()) - mean_photon(rho0.diagonal()) * np.exp(-t)) < 1e-7


def test_trajectory_preserves_density_invariants():
    spec = HilbertSpec(22)
    rho0 = pure_to_density(cat_state(spec, 1.3, 0.0))
    for rho_t in evolve(rho0, MODEL, np.linspace(0, 2.0, 9)):
        assert abs(rho_t.trace() - 1.0) < 1e-9
        herm = np.max(np.abs(rho_t.matrix - rho_t.matrix.conj().T))
        assert herm < 1e-10
        assert np.linalg.eigvalsh(rho_t.matrix).min() > -1e-8


def test_semigroup_property():
    spec = HilbertSpec(20)
    rho0 = pure_to_density(cat_state(spec, 1.2, np.pi))
    two_step = evolve(evolve(rho0, MODEL, 0.3), MODEL, 0.5)
    one_step = evolve(rho0, MODEL, 0.8)
    assert np.max(np.abs(two_step.matrix - one_step.matrix)) < 1e-7


def test_energy_monotone():
    spec = HilbertSpec(20)
    rho0 = pure_to_density(cat_state(spec, 1.5, 0.0))
    traj = evolve(rho0, MODEL, np.linspace(0, 3.0, 16))
    energies = np.array([mean_photon(r.diagonal()) for r in traj])
    assert np.all(np.diff(energies) <= 1e-10)


def test_thermal_occupation_builds_up():
    model = DampingModel(kappa=1.0, n_thermal=0.4)
    rho = evolve(pure_to_density(vacuum(HilbertSpec(16))), model, 12.0)
    assert abs(mean_photon(rho.diagonal()) - 0.4) < 1e-4


def test_negative_time_rejected():
    with pytest.raises(DomainError):
        evolve(pure_to_density(vacuum(HilbertSpec(4))), MODEL, -0.1)


def test_nan_kappa_rejected():
    with pytest.raises(DomainError):
        DampingModel(kappa=float("nan"))


def test_infinite_thermal_occupation_rejected():
    with pytest.raises(DomainError):
        DampingModel(kappa=1.0, n_thermal=float("inf"))


def test_evolve_takes_one_time_or_a_trajectory_and_checks_every_trace():
    rho0 = pure_to_density(cat_state(HilbertSpec(16), 1.0, 0.0))
    assert evolve(rho0, MODEL, 0.0) is rho0
    one, traj = evolve(rho0, MODEL, 0.4), evolve(rho0, MODEL, np.array([0.4, 0.8]))
    assert isinstance(one, DensityOperator) and len(traj) == 2
    assert np.array_equal(one.matrix, traj[0].matrix)
    # at kappa t = 1e8 scaling and squaring loses 1.2e-7 of the trace; every
    # reader of the damped diagonals refuses it (damped_populations and
    # coherence_trajectory returned the drifted values, only evolve refused)
    cat = pure_to_density(cat_state(HilbertSpec(20), 1.5, 0.0))
    times = [0.0, 1e8]
    for read in (lambda: evolve(cat, MODEL, times),
                 lambda: dynamics.damped_populations([cat], MODEL, times),
                 lambda: coherence_trajectory(cat, MODEL, times, 1.5)):
        with pytest.raises(IntegrationError, match="trace drift"):
            read()


def test_nan_trajectory_time_rejected():
    with pytest.raises(DomainError):
        evolve(pure_to_density(vacuum(HilbertSpec(4))), MODEL, [0.0, float("nan")])


def test_non_hermitian_state_is_refused():
    # only the lower triangle is propagated, so a non-Hermitian rho would
    # silently evolve as its Hermitian completion: no such rho can be built
    mat = np.zeros((6, 6), dtype=complex)
    mat[0, 0], mat[0, 1] = 1.0, 0.5j
    with pytest.raises(NonHermitianError):
        DensityOperator(mat)


# -- independent oracles for the damping propagators ---------------------------


def _cat_matrix(dim, alpha, psi1):
    """|alpha> + e^{i psi1}|-alpha>, normalized, from its Fock amplitudes."""
    n = np.arange(dim)
    log_fact = np.array([sum(np.log(np.arange(1, k + 1))) for k in n])
    def coh(a):
        return np.exp(-abs(a) ** 2 / 2 + n * np.log(complex(a)) - log_fact / 2)
    v = coh(alpha) + np.exp(1j * psi1) * coh(-alpha)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _random_density(dim, rank, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    z *= np.exp(-np.arange(dim) / 4.0)[:, None]  # keep the top levels nearly empty
    m = z @ z.conj().T
    return m / np.trace(m).real


def _lindblad_rhs(dim, kappa, n_th):
    """Test-local master equation on the truncated operators."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    ad = a.T
    kd, ku = kappa * (n_th + 1), kappa * n_th

    def rhs(t, y):
        r = y.reshape(dim, dim)
        out = kd * (a @ r @ ad - 0.5 * (ad @ a @ r + r @ ad @ a))
        out += ku * (ad @ r @ a - 0.5 * (a @ ad @ r + r @ a @ ad))
        return out.ravel()
    return rhs


def test_zero_temperature_matches_walls_milburn_closed_form():
    # rho_mn(t) = e^{-kappa (m+n) t/2} sum_l sqrt(C(m+l,l) C(n+l,l))
    #             (1 - e^{-kappa t})^l rho_{m+l,n+l}(0)   (Walls & Milburn)
    dim, kappa = 30, 1.3
    model = DampingModel(kappa=kappa)
    times = [0.0, 0.07, 0.5, 0.5, 2.0]
    for rho0 in (_cat_matrix(dim, 1.5 * np.exp(0.4j), 0.7), _random_density(dim, 3, 5)):
        traj = evolve(DensityOperator(rho0), model, times)
        for t, rho_t in zip(times, traj):
            p = 1.0 - np.exp(-kappa * t)
            want = np.zeros((dim, dim), dtype=complex)
            for m in range(dim):
                for n in range(dim):
                    acc = sum(np.sqrt(comb(m + l, l) * comb(n + l, l)) * p ** l
                              * rho0[m + l, n + l] for l in range(dim - max(m, n)))
                    want[m, n] = np.exp(-kappa * (m + n) * t / 2) * acc
            assert np.max(np.abs(rho_t.matrix - want)) < 1e-13


@pytest.mark.parametrize("n_thermal", [0.0, 0.05, 0.4])
@pytest.mark.parametrize("dim", [26, 46, 90])
def test_propagators_match_scipy_expm(n_thermal, dim):
    from scipy.linalg import expm

    gaps = np.array([0.0, 0.1, 3.0, 8.0])[:, None, None]
    model = DampingModel(kappa=1.0, n_thermal=n_thermal)
    for k in range(dim):
        block = gaps * _diagonal_generator(model, dim, k)
        assert np.max(np.abs(_expm(block) - expm(block))) < 1e-12


def test_coherent_trajectory_matches_walls_milburn_amplitude():
    # at n_th = 0, |alpha> stays pure: |alpha e^{-kappa t/2}>, written from its
    # Fock amplitudes e^{-|b|^2/2} b^n / sqrt(n!)
    dim, kappa, alpha = 40, 1.3, 1.4 * np.exp(0.6j)
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    times = [0.0, 0.05, 0.05, 0.4, 1.7, 6.0]
    rho0 = pure_to_density(coherent_state(HilbertSpec(dim), alpha))
    for t, rho_t in zip(times, evolve(rho0, DampingModel(kappa), times)):
        b = alpha * np.exp(-kappa * t / 2)
        v = np.exp(-abs(b) ** 2 / 2 + n * np.log(b) - log_fact / 2)
        assert np.max(np.abs(rho_t.matrix - np.outer(v, v.conj()))) < 1e-13


def test_truncated_thermal_state_is_fixed_point():
    # detailed balance kd (n+1) p_{n+1} = ku (n+1) p_n holds level by level,
    # the top one included, only if the truncated a a+ ends in 0
    dim, n_th = 12, 0.7
    p = (n_th / (n_th + 1.0)) ** np.arange(dim)
    rho = DensityOperator(np.diag(p / p.sum()))
    out = evolve(rho, DampingModel(kappa=1.0, n_thermal=n_th), 3.0)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-13


def test_mean_photon_relaxes_to_thermal_occupation():
    # <n>(t) = n_th + (n0 - n_th) e^{-kappa t} while the top levels stay empty
    kappa, n_th = 1.3, 0.2
    rho0 = DensityOperator(_cat_matrix(40, 1.5, 0.0))
    n0 = float(np.real(np.sum(np.arange(40) * np.diag(rho0.matrix))))
    times = np.array([0.0, 0.3, 1.0, 2.5])
    traj = evolve(rho0, DampingModel(kappa, n_th), times)
    got = np.array([mean_photon(r.diagonal()) for r in traj])
    np.testing.assert_allclose(got, n_th + (n0 - n_th) * np.exp(-kappa * times),
                               rtol=0, atol=1e-12)


def test_thermal_damping_matches_ode_solution_on_nonuniform_times():
    from scipy.integrate import solve_ivp

    dim, kappa, n_th = 18, 1.0, 0.05
    rho0 = _cat_matrix(dim, 1.2 * np.exp(0.3j), np.pi)
    times = np.array([0.0, 0.0, 0.013, 0.2, 0.2, 0.21, 0.9, 2.4, 2.4, 5.0])
    unique, where = np.unique(times, return_inverse=True)
    sol = solve_ivp(_lindblad_rhs(dim, kappa, n_th), (0.0, unique[-1]),
                    rho0.ravel(), method="DOP853", t_eval=unique,
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    traj = evolve(DensityOperator(rho0), DampingModel(kappa, n_th), times)
    for k, rho_t in enumerate(traj):
        want = sol.y[:, where[k]].reshape(dim, dim)
        assert np.max(np.abs(rho_t.matrix - want)) < 1e-10


def test_trajectory_stays_positive_and_exactly_hermitian():
    alpha = np.sqrt(5.0)
    rho0 = pure_to_density(cat_state(HilbertSpec(31), alpha, np.pi))
    for n_th in (0.0, 0.05):
        traj = evolve(rho0, DampingModel(1.0, n_th), np.linspace(0, 8, 81))
        for rho_t in traj:
            assert np.array_equal(rho_t.matrix, rho_t.matrix.conj().T)
            assert np.linalg.eigvalsh(rho_t.matrix).min() >= -1e-14


# -- coherence witness -------------------------------------------------------


def test_fresh_cat_coherence_is_one():
    spec = HilbertSpec(26)
    rho = pure_to_density(cat_state(spec, 1.5, 0.0))
    assert abs(cat_coherence(rho, 1.5) - 1.0) < 1e-9


def test_mixture_coherence_floor():
    # residual from the nonzero overlap <a|-a>: ~2 e^{-2|a|^2} ~ 3e-8 at a=3
    alpha = 3.0
    spec = HilbertSpec(46)
    rho = mix([coherent_state(spec, alpha), coherent_state(spec, -alpha)], [0.5, 0.5])
    assert cat_coherence(rho, alpha) < 5e-8


def test_coherence_e_fold_at_decoherence_time():
    # |alpha|^2 = 5: after t_dec the witness sits within 10% of 1/e
    alpha = np.sqrt(5.0)
    spec = HilbertSpec(32)
    rho0 = pure_to_density(cat_state(spec, alpha, 0.0))
    t_dec = decoherence_time(MODEL, 5.0)
    w = cat_coherence(evolve(rho0, MODEL, t_dec), alpha)
    assert abs(w - np.exp(-1.0)) < 0.1 * np.exp(-1.0)


def test_coherence_series_matches_pointwise_witness():
    # the stacked matrix path and the diagonal path of coherence_trajectory
    # both read the one-state witness
    alpha, times = 1.5, [0.0, 0.1, 0.4]
    rho0 = pure_to_density(cat_state(HilbertSpec(26), alpha, 0.0))
    traj = evolve(rho0, MODEL, times)
    series = coherence_series(traj, alpha)
    diagonal = coherence_trajectory(rho0, MODEL, times, alpha)[0]
    for w, v, rho_t in zip(series, diagonal, traj):
        witness = cat_coherence(rho_t, alpha)
        assert abs(w - witness) < 1e-15 and abs(v - witness) < 1e-15


def _damped_cat_closed_form(alpha, psi1, kappa, t):
    """cat_coherence and <n> of the cat N(|alpha> + e^{i psi1}|-alpha>) damped
    at n_th = 0, summed over its coherent dyads |b><c|, each of which
    damps to <c|b>^{1 - s^2} |b s><c s| with s = e^{-kappa t/2} (Walls &
    Milburn, Quantum Optics)."""
    s = np.exp(-kappa * np.asarray(t, dtype=float) / 2)

    def overlap(a, b):  # <a|b> for coherent amplitudes
        return np.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + np.conj(a) * b)

    amps = {alpha: 1.0, -alpha: np.exp(1j * psi1)}
    norm2 = 1.0 / (2.0 * (1.0 + np.cos(psi1) * np.exp(-2.0 * abs(alpha) ** 2)))
    element, mean_n = 0.0, 0.0
    for b, cb in amps.items():
        for c, cc in amps.items():
            weight = norm2 * cb * np.conj(cc) * overlap(c, b) ** (1 - s ** 2)
            element = element + weight * overlap(alpha, b * s) * overlap(c * s, -alpha)
            mean_n = mean_n + weight * np.conj(c) * b * s ** 2 * overlap(c * s, b * s)
    ceiling = (1.0 + np.exp(-2.0 * abs(alpha) ** 2)) / 2.0
    return np.abs(element) / ceiling, mean_n.real


def test_coherence_trajectory_matches_damped_odd_cat_closed_form():
    # dim 70 leaves the |alpha|^2 = 5 cat no tail at double precision
    alpha, kappa = np.sqrt(5.0), 1.3
    times = np.linspace(0.0, 3.0, 31)
    rho0 = pure_to_density(cat_state(HilbertSpec(70), alpha, np.pi))
    coherence, mean_n, trace = coherence_trajectory(rho0, DampingModel(kappa), times, alpha)
    want_c, want_n = _damped_cat_closed_form(alpha, np.pi, kappa, times)
    np.testing.assert_allclose(coherence, want_c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mean_n, want_n, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace, 1.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_thermal", [0.05, 0.4, 1.0])
def test_thermal_coherence_trajectory_matches_matrix_path(n_thermal):
    alpha, dim = np.sqrt(5.0), 40
    model = DampingModel(kappa=1.0, n_thermal=n_thermal)
    times = np.linspace(0.0, 2.0, 21)
    rho0 = DensityOperator(_cat_matrix(dim, alpha * np.exp(0.4j), np.pi))
    coherence, mean_n, trace = coherence_trajectory(rho0, model, times, alpha)
    traj = evolve(rho0, model, times)
    np.testing.assert_allclose(coherence, coherence_series(traj, alpha), rtol=0, atol=1e-14)
    np.testing.assert_allclose(mean_n, [mean_photon(r.diagonal()) for r in traj],
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(trace, [r.trace().real for r in traj], rtol=0, atol=1e-14)


def test_zero_diagonal_skip_returns_the_populations_exactly():
    # damping carries the populations apart from the coherences, so a
    # diagonal input is carried as diagonal 0 alone, with the same numbers
    rho0 = _cat_matrix(30, 1.8, 0.0)
    times = np.linspace(0.0, 2.0, 9)
    model = DampingModel(kappa=1.0, n_thermal=0.2)
    diag = np.diag(np.diag(rho0))
    assert [k for k, _ in _diagonals(diag[None], model, times)] == [0]
    full = evolve(DensityOperator(rho0), model, times)
    for rho_t, pop_t in zip(full, evolve(DensityOperator(diag), model, times)):
        assert np.array_equal(pop_t.matrix, np.diag(np.diag(rho_t.matrix)))


def test_decoherence_time_formula():
    assert abs(decoherence_time(MODEL, 5.0) - 0.1) < 1e-15
    assert abs(decoherence_time(MODEL, 0.5) - MODEL.dissipation_time) < 1e-15
    with pytest.raises(DomainError):
        decoherence_time(MODEL, 0.0)


@pytest.mark.parametrize("n_thermal", [0.05, 0.4, 1.0])
def test_thermal_decoherence_time_matches_fit(n_thermal):
    # thermal photons speed the fringe decay by 2 n_th + 1; at n_th = 0.4 the
    # law gives 1/(2 kappa nbar (2 n_th + 1)) = 0.0556, not 0.1
    model = DampingModel(kappa=1.0, n_thermal=n_thermal)
    t_dec = decoherence_time(model, 5.0)
    assert abs(t_dec - 1.0 / (2.0 * 5.0 * (2.0 * n_thermal + 1.0))) < 1e-15
    alpha = np.sqrt(5.0)
    rho0 = pure_to_density(cat_state(HilbertSpec(40), alpha, np.pi))
    tau = fit_coherence_decay(rho0, model, alpha, 0.5 * t_dec)
    assert abs(tau - t_dec) / t_dec < 0.05


def test_fitted_decay_constant_at_n5():
    # full three-amplitude scan lives in the acceptance suite
    alpha = np.sqrt(5.0)
    rho0 = pure_to_density(cat_state(HilbertSpec(32), alpha, np.pi))
    t_dec = decoherence_time(MODEL, 5.0)
    tau = fit_coherence_decay(rho0, MODEL, alpha, 0.5 * t_dec)
    assert abs(tau - t_dec) / t_dec < 0.05


def test_coherence_decays_faster_than_energy():
    # fitted coherence rate / energy rate = 2 |alpha|^2 within 10%
    n_mean = 5.0
    alpha = np.sqrt(n_mean)
    rho0 = pure_to_density(cat_state(HilbertSpec(32), alpha, np.pi))
    t_dec = decoherence_time(MODEL, n_mean)
    tau_coh = fit_coherence_decay(rho0, MODEL, alpha, 0.5 * t_dec)
    times = np.linspace(0, 0.5 * t_dec, 12)
    traj = evolve(rho0, MODEL, times)
    energies = np.array([mean_photon(r.diagonal()) for r in traj])
    energy_rate = -np.polyfit(times, np.log(energies), 1)[0]
    ratio = (1.0 / tau_coh) / energy_rate
    assert abs(ratio - 2 * n_mean) / (2 * n_mean) < 0.10


# -- macroscopic separation measure ------------------------------------------


def test_separation_measure_macroscopic():
    # 1 g at 300 K split by 1 cm: about 1e40 (accept within one decade)
    val = separation_measure(1e-2, 1e-3, 300.0)
    assert 1e39 <= val <= 1e41


def test_separation_measure_at_de_broglie_scale():
    from scipy.constants import Boltzmann, Planck

    lam = Planck / np.sqrt(2 * np.pi * 1e-3 * Boltzmann * 300.0)
    assert abs(separation_measure(lam, 1e-3, 300.0) - 1.0) < 1e-12


def test_separation_measure_quadratic():
    v1 = separation_measure(1e-2, 1e-3, 300.0)
    v2 = separation_measure(2e-2, 1e-3, 300.0)
    assert abs(v2 / v1 - 4.0) < 1e-12
    with pytest.raises(DomainError):
        separation_measure(-1.0, 1e-3, 300.0)


# -- step groups ---------------------------------------------------------------


def _one_step_states(rho0, model, times):
    """rho(t) for each t by one propagator from 0, as ``evolve`` builds it,
    batched over the times: expm(G_k t) for every t, one diagonal k at a time."""
    dim = rho0.dim
    out = np.zeros((len(times), dim, dim), dtype=complex)
    for k in range(dim):
        props = _expm(np.asarray(times)[:, None, None] * _diagonal_generator(model, dim, k))
        x = np.diagonal(rho0.matrix, -k)
        vals = props @ x.real + 1j * (props @ x.imag)
        rows = np.arange(k, dim)
        out[:, rows, rows - k] = vals
        out[:, rows - k, rows] = vals.conj()
    return out


@pytest.mark.parametrize("alpha, dim", [(np.sqrt(5.0), 30), (3.0, 46)])
@pytest.mark.parametrize("n_th", [0.0, 0.05, 0.4])
def test_grouped_steps_match_one_step_evolution(alpha, dim, n_th):
    # np.linspace's gaps differ in their last bits and share one propagator;
    # each sample must still be the state at its own time
    rho0 = pure_to_density(cat_state(HilbertSpec(dim), alpha, np.pi))
    model = DampingModel(1.0, n_th)
    grids = [np.linspace(0.0, 8.0, steps) for steps in (81, 161)]
    every = np.unique(np.concatenate(grids))  # the coarse grid's times are among the fine
    ref = _one_step_states(rho0, model, every)
    for t, r in zip(every[::40], ref[::40]):  # the reference is what evolve returns
        assert np.max(np.abs(evolve(rho0, model, t).matrix - r)) < 1e-15
    for times in grids:
        assert len(np.unique(np.diff(times))) > 2
        traj = evolve(rho0, model, times)
        for rho_t, r in zip(traj, ref[np.searchsorted(every, times)]):
            assert np.max(np.abs(rho_t.matrix - r)) < 1e-12


def test_step_groups_keep_distinct_gaps_apart():
    times = np.array([0.0, 0.1, 0.2 + 1e-9])
    steps, step_of = _step_groups(times)
    assert len(steps) == 3 and step_of == [0, 1, 2]
    rho0 = pure_to_density(cat_state(HilbertSpec(30), np.sqrt(5.0), np.pi))
    for t, rho_t in zip(times, evolve(rho0, MODEL, times)):
        assert np.max(np.abs(rho_t.matrix - evolve(rho0, MODEL, t).matrix)) < 1e-12
    # linspace gaps within rounding of each other form one group, stepping by their mean
    times = np.linspace(0.0, 8.0, 81)
    steps, step_of = _step_groups(times)
    assert len(steps) == 2 and steps[0] == 0.0
    assert abs(steps[1] - 0.1) < 1e-16 and step_of == [0] + [1] * 80


def test_repeated_times_and_zero_return_the_input_exactly():
    rho0 = pure_to_density(cat_state(HilbertSpec(20), 1.5, 0.0))
    traj = evolve(rho0, DampingModel(1.0, 0.05), [0.0, 0.0, 0.3, 0.3])
    assert np.array_equal(traj[0].matrix, rho0.matrix)
    assert np.array_equal(traj[1].matrix, rho0.matrix)
    assert np.array_equal(traj[2].matrix, traj[3].matrix)
