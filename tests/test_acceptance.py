"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 6 checks the two-atom decoherence experiment against the
exact damped-cat probabilities at n_th = 0, written from alpha, kappa and t
only.  With |a_t|^2 = |a|^2 e^{-kt} and c(t) = e^{-2|a|^2 (1 - e^{-kt})}:

    P(e2|e1)(t) = 1/2 + [c(t) - e^{-2|a_t|^2}] / [2 (1 - e^{-2|a|^2})]
    P(e2)(t)    = (1 - e^{-2|a_t|^2}) / 2      (50/50 mixture of |+-a>)

Derivation: detecting e leaves the odd cat, damping shrinks a to a_t and
scales its fringes by c(t), and the phi = pi probe reads e with probability
(1 - <Pi>)/2, where <Pi> is the field parity.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from cavitylab import (
    DampingModel,
    DensityOperator,
    HilbertSpec,
    PhaseSpaceGrid,
    cat_state,
    coherent_state,
    decoherence_time,
    default_dim,
    default_grid,
    direct_point_exact,
    fock_state,
    mix,
    probe_atom,
    promote,
    pure_to_density,
    separation_measure,
    two_atom_scan,
    uniform_angles,
    vacuum,
    wigner_map,
    wigner_point,
    wigner_position,
)
from cavitylab.direct import _sample
from cavitylab.dynamics import evolve, fit_coherence_decay
from cavitylab.tomo import pauli_incompleteness_demo, reconstruct_from_samples
from cavitylab.wigner import _symmetrized_word, moyal_grid_integral

from conftest import build_corpus, reconstruct_exact

MODEL = DampingModel(kappa=1.0)

# phase-space extent of each corpus state, used for its default map grid
CORPUS_SCALES = {
    "vacuum": 1.0, "fock1": 1.0, "fock2": np.sqrt(2), "fock3": np.sqrt(3),
    "coherent1": 1.0, "coherent2": 2.0, "cat_even": 2.0, "cat_odd": 2.0,
    "mixture": 2.0, "damped_cat": 2.0,
}


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>3} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# -- 1 ---------------------------------------------------------------------------


def test_criterion_01_direct_readout_identity():
    # max over a 21 x 21 grid of |2(P_g - P_e)(alpha) - W(-alpha)| < 1e-8
    # for the ten-state corpus, in under two minutes, one readout call and one
    # W call per state.  The readout's displacement and the Laguerre W share
    # one recurrence, so every 20th point is also checked against the
    # Gauss-Hermite position integral.
    start = time.time()
    corpus = build_corpus(dim=59)  # covers the grid corner |alpha| = 3.5
    grid = PhaseSpaceGrid(-3.5, 3.5, -3.5, 3.5, 21, 21)
    alphas = grid.alpha_grid().ravel()
    worst = worst_position = 0.0
    for name, rho in corpus.items():
        p_e, p_g = direct_point_exact(rho, alphas)
        estimates = 2.0 * (p_g - p_e)
        worst = max(worst, float(np.max(np.abs(estimates - wigner_point(rho, -alphas)))))
        for k in range(0, alphas.size, 20):
            q, p = -np.sqrt(2) * alphas[k].real, -np.sqrt(2) * alphas[k].imag
            worst_position = max(worst_position,
                                 abs(estimates[k] - wigner_position(rho, q, p)))
    elapsed = time.time() - start
    ok = worst < 1e-8 and worst_position < 1e-8 and elapsed < 120.0
    assert report(1, "direct-readout identity", ok,
                  f"max residual {worst:.2e} (position integral {worst_position:.2e}), "
                  f"{elapsed:.0f}s"), worst
    assert worst < 1e-8
    assert worst_position < 1e-8
    assert elapsed < 120.0


# -- 2 ---------------------------------------------------------------------------


def test_criterion_02_one_photon_origin():
    spec = HilbertSpec(16)
    one = pure_to_density(fock_state(spec, 1))
    w_pt = wigner_point(one, 0.0)
    w_pos = wigner_position(one, 0.0, 0.0)
    # the resonant probe reads the origin alone
    mixed = DensityOperator(np.diag([0.2, 0.8] + [0.0] * (spec.dim - 2)))
    w_res, w_mix = (2.0 * (b["g"].probability - b["e"].probability)
                    for b in (probe_atom(rho, "resonant-2pi") for rho in (one, mixed)))
    # diagonal parity oracle: 2 * sum_n (-1)^n p_n
    oracle_mix = 2.0 * float(np.sum((-1.0) ** np.arange(spec.dim)
                                    * mixed.diagonal()))
    ok = (abs(w_pt + 2) < 1e-9 and abs(w_pos + 2) < 1e-9 and abs(w_res + 2) < 1e-9
          and abs(w_mix + 1.2) < 1e-9 and abs(oracle_mix + 1.2) < 1e-12)
    assert report(2, "one-photon origin value", ok,
                  f"point {w_pt:+.12f}, integral {w_pos:+.12f}, "
                  f"resonant {w_res:+.12f}, mixed {w_mix:+.12f}")
    for val in (w_pt, w_pos, w_res):
        assert abs(val + 2.0) < 1e-9
    assert abs(w_mix - oracle_mix) < 1e-9
    assert abs(w_mix + 1.2) < 1e-9


# -- 3 ---------------------------------------------------------------------------


def _random_state_pool(rng, dim=12, n_random=8):
    pool = []
    spec = HilbertSpec(dim)
    pool.append(pure_to_density(vacuum(spec)))
    pool.append(pure_to_density(fock_state(spec, 2)))
    pool.append(pure_to_density(coherent_state(spec, 0.6)))
    pool.append(pure_to_density(cat_state(spec, 0.7, 0.0)))
    for _ in range(n_random):
        if rng.random() < 0.5:
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            amps /= np.linalg.norm(amps)
            pool.append(DensityOperator(np.outer(amps, amps.conj())))
        else:
            mat = np.zeros((dim, dim), dtype=complex)
            weights = rng.dirichlet(np.ones(3))
            for w in weights:
                amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                amps /= np.linalg.norm(amps)
                mat += w * np.outer(amps, amps.conj())
            pool.append(DensityOperator(mat))
    return pool


def test_criterion_03_cross_construction_equivalence():
    # 500 random (state, point) pairs; both constructions within 1e-6
    rng = np.random.default_rng(20250809)
    pool = [promote(rho, HilbertSpec(150)) for rho in _random_state_pool(rng)]
    worst = 0.0
    for k in range(500):
        rho = pool[k % len(pool)]
        r = 2.5 * np.sqrt(rng.random())
        phase = 2 * np.pi * rng.random()
        alpha = r * np.exp(1j * phase)
        q, p = np.sqrt(2) * alpha.real, np.sqrt(2) * alpha.imag
        dev = abs(wigner_point(rho, alpha) - wigner_position(rho, q, p))
        worst = max(worst, dev)
    assert report(3, "cross-construction equivalence", worst < 1e-6,
                  f"max deviation {worst:.2e} over 500 pairs")
    assert worst < 1e-6


# -- 4 ---------------------------------------------------------------------------


def test_criterion_04_bound_and_normalization(corpus):
    worst_bound, worst_norm = 0.0, 0.0
    for name, rho in corpus.items():
        wm = wigner_map(rho, default_grid(CORPUS_SCALES[name]))
        worst_bound = max(worst_bound, wm.diagnostics["max_abs"])
        worst_norm = max(worst_norm, abs(wm.diagnostics["normalization_sum"] - 1.0))
    ok = worst_bound <= 2.0 + 1e-8 and worst_norm < 1e-3
    assert report(4, "bound and normalization", ok,
                  f"max|W| {worst_bound:.9f}, worst |sum-1| {worst_norm:.2e}")
    assert worst_bound <= 2.0 + 1e-8
    assert worst_norm < 1e-3


# -- 5 ---------------------------------------------------------------------------


def test_criterion_05_decoherence_law():
    # fitted coherence constants match t_diss / (2 |alpha|^2) within 5%
    start = time.time()
    details, ok = [], True
    for n_mean in (2.0, 5.0, 10.0):
        alpha = np.sqrt(n_mean)
        spec = HilbertSpec(int(np.ceil(4 * n_mean + 14)))
        rho0 = pure_to_density(cat_state(spec, alpha, np.pi))
        t_dec = decoherence_time(MODEL, n_mean)
        tau = fit_coherence_decay(rho0, MODEL, alpha, 0.5 * t_dec)
        rel = abs(tau - t_dec) / t_dec
        details.append(f"n={n_mean:g}: {rel:.2%}")
        ok = ok and rel < 0.05
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    assert report(5, "decoherence-time law", ok,
                  "; ".join(details) + f", {elapsed:.0f}s")
    assert ok


# -- 6 ---------------------------------------------------------------------------

N6 = 5.0
ALPHA6 = np.sqrt(N6)
SPEC6 = HilbertSpec(default_dim(ALPHA6))  # 31 levels
T_DEC6 = 1.0 / (2.0 * N6)


def test_criterion_06a_perfect_initial_correlation():
    p = two_atom_scan(ALPHA6, [0.0], MODEL, SPEC6)["p_e2_given_e1"][0]
    ok = p > 1 - 1e-4
    assert report("6a", "two-atom correlation at zero delay", ok,
                  f"P(e2|e1)(0) = {p:.8f}")
    assert ok


def _p_e2_given_e1_exact(t):
    # odd cat after delay t: <Pi> = 2 [e^{-2|a_t|^2} - c(t)] / N^2,
    # N^2 = 2 (1 - e^{-2|a|^2}); the probe reads e with (1 - <Pi>)/2
    n_t = N6 * np.exp(-MODEL.kappa * t)
    fringe = np.exp(-2.0 * N6 * (1.0 - np.exp(-MODEL.kappa * t)))
    return 0.5 + (fringe - np.exp(-2.0 * n_t)) / (2.0 * (1.0 - np.exp(-2.0 * N6)))


def test_criterion_06b_plateau_band():
    # Exact P(e2|e1) within 1e-9 at 2, 3 and 4 t_dec (0.5815, 0.5371,
    # 0.5179: the fringe factor c is still 0.16 at 2 t_dec), then the band
    # |P(e2|e1) - 1/2| <= 0.02 inside the plateau window that the closed
    # form puts between its two crossings of 1/2 +- 0.02 (about 3.84 to
    # 11.42 t_dec; P passes 1/2 at ln 2 / kappa).
    t_half = np.log(2.0) / MODEL.kappa
    lo = brentq(lambda t: _p_e2_given_e1_exact(t) - 0.52, 0.0, t_half)
    hi = brentq(lambda t: _p_e2_given_e1_exact(t) - 0.48, t_half, 8.0 / MODEL.kappa)
    stated = np.array([2.0, 3.0, 4.0]) * T_DEC6
    plateau = np.linspace(lo, hi, 9)[1:-1]
    probs = two_atom_scan(ALPHA6, stated, MODEL, SPEC6)["p_e2_given_e1"]
    errs = np.abs(probs - _p_e2_given_e1_exact(stated))
    devs = np.abs(two_atom_scan(ALPHA6, plateau, MODEL, SPEC6)["p_e2_given_e1"] - 0.5)
    ok = bool(np.all(errs <= 1e-9) and np.all(devs <= 0.02))
    report("6b", "exact P(e2|e1) at 2,3,4 t_dec; within 0.02 of 1/2 on "
           f"[{lo / T_DEC6:.2f},{hi / T_DEC6:.2f}] t_dec", ok,
           ", ".join(f"{t / T_DEC6:.0f}t_dec: {p:.4f}"
                     for t, p in zip(stated, probs))
           + f", max err {errs.max():.1e}, max plateau dev {devs.max():.4f}")
    assert ok, f"errors vs closed form: {errs}, plateau deviations: {devs}"


def test_criterion_06c_late_time_decay():
    p = two_atom_scan(ALPHA6, [8.0], MODEL, SPEC6)["p_e2_given_e1"][0]
    ok = p < 0.02
    assert report("6c", "correlation gone by 8/kappa", ok,
                  f"P(e2|e1)(8/k) = {p:.5f}")
    assert ok


def test_criterion_06d_mixture_reads_even_odds():
    # The 50/50 mixture of |+-a> has no fringes: <Pi> = e^{-2|a_t|^2}, so
    # P(e2) = (1 - e^{-2|a_t|^2})/2 -- 2.3e-5 below 1/2 at t = 0 and near 0
    # at 8/kappa, where the field has drained to vacuum.
    spec = HilbertSpec(30)
    mixture = mix([coherent_state(spec, ALPHA6), coherent_state(spec, -ALPHA6)],
                  [0.5, 0.5])
    errs = {}
    for delay in (0.0, 2 * T_DEC6, 8.0):
        rho_t = evolve(mixture, MODEL, [delay])[0]
        p_e2 = probe_atom(rho_t)["e"].probability
        n_t = N6 * np.exp(-MODEL.kappa * delay)
        errs[delay] = abs(p_e2 - 0.5 * (1.0 - np.exp(-2.0 * n_t)))
    ok = all(e <= 1e-9 for e in errs.values())
    report("6d", "mixture gives (1 - e^{-2|a_t|^2})/2", ok,
           ", ".join(f"t={t:g}: err {e:.2e}" for t, e in errs.items()))
    assert ok, f"errors vs closed form: {errs}"


# -- 7 ---------------------------------------------------------------------------


def test_criterion_07_tomography():
    grid = PhaseSpaceGrid(-4, 4, -4, 4, 81, 81)
    one = pure_to_density(fock_state(HilbertSpec(12), 1))
    recon = reconstruct_exact(one, uniform_angles(36), grid)
    i0 = np.argmin(np.abs(grid.q1_axis))
    dip = recon.values[i0, i0]

    cat = pure_to_density(cat_state(HilbertSpec(36), 2.0, 0.0))
    cat_grid = PhaseSpaceGrid(-4.2, 4.2, -4.2, 4.2, 113, 113)
    _, cat_report, _, _ = reconstruct_from_samples(cat, uniform_angles(72), 200000,
                                                   20250809, cat_grid)
    contrast_rel = abs(cat_report["fringe_contrast"]
                       / cat_report["fringe_contrast_true"] - 1.0)

    smooth = pure_to_density(coherent_state(HilbertSpec(40), 1.8))
    ratio_grid = PhaseSpaceGrid(-4.5, 4.5, -4.5, 4.5, 91, 91)
    truth = wigner_map(smooth, ratio_grid)
    rmses = {}
    for k in (18, 36):
        rk = reconstruct_exact(smooth, uniform_angles(k), ratio_grid)
        rmses[k] = float(np.sqrt(np.mean((rk.values - truth.values) ** 2)))
    halving = rmses[18] / rmses[36]

    ok = dip < -1.7 and contrast_rel < 0.15 and 1.5 <= halving <= 2.5
    assert report(7, "tomographic reconstruction", ok,
                  f"dip {dip:.3f}, fringe dev {contrast_rel:.1%}, "
                  f"RMSE(18)/RMSE(36) = {halving:.2f}")
    assert dip < -1.7
    assert contrast_rel < 0.15
    assert 1.5 <= halving <= 2.5


# -- 8 ---------------------------------------------------------------------------


def test_criterion_08_marginal_incompleteness():
    ev = pauli_incompleteness_demo(default_grid(2.0, step=0.15))
    marg = ev["two_angle_sinogram_sup_dev"]
    ok = (marg < 1e-8 and ev["wigner_sup_dev"] > 0.1
          and ev["theta_45_marginal_dev"] > 0.01)
    assert report(8, "position+momentum marginals incomplete", ok,
                  f"axis-marginal dev {marg:.2e}, Wigner dev "
                  f"{ev['wigner_sup_dev']:.3f}, "
                  f"45-degree dev {ev['theta_45_marginal_dev']:.3f}")
    assert marg < 1e-8
    assert ev["wigner_sup_dev"] > 0.1
    assert ev["theta_45_marginal_dev"] > 0.01


# -- 9 ---------------------------------------------------------------------------


def test_criterion_09_efficiency_insensitivity():
    rho = pure_to_density(fock_state(HilbertSpec(16), 1))
    alpha = 0.35
    means, sems = {}, {}
    for label, (eff, base_seed) in {"full": (1.0, 1000), "lossy": (0.25, 5000)}.items():
        ests = np.array([
            _sample(direct_point_exact(rho, alpha)[0], 400, eff, base_seed + k)[1]
            for k in range(200)
        ])
        means[label] = ests.mean()
        sems[label] = ests.std(ddof=1) / np.sqrt(ests.size)
    gap = abs(means["full"] - means["lossy"])
    limit = 3.0 * float(np.hypot(sems["full"], sems["lossy"]))
    ok = gap < limit
    assert report(9, "detection-efficiency insensitivity", ok,
                  f"|mean gap| {gap:.4f} < 3 sigma {limit:.4f}")
    assert gap < limit


# -- 10 --------------------------------------------------------------------------

MONOMIALS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]


def test_criterion_10_moyal_consistency(corpus):
    worst, worst_case = 0.0, ""
    words = {mn: _symmetrized_word(next(iter(corpus.values())).dim, *mn)
             for mn in MONOMIALS}
    for name, rho in corpus.items():
        integrals = moyal_grid_integral(rho, MONOMIALS)
        for mn in MONOMIALS:
            op_val = float(np.real(np.trace(rho.matrix @ words[mn])))
            dev = abs(op_val - integrals[mn])
            if dev > worst:
                worst, worst_case = dev, f"{name} q^{mn[0]} p^{mn[1]}"
    assert report(10, "symmetric-ordering consistency", worst < 1e-6,
                  f"worst {worst:.2e} at {worst_case}")
    assert worst < 1e-6


# -- 11 --------------------------------------------------------------------------


def test_criterion_11_macroscopic_separation():
    val = separation_measure(1e-2, 1e-3, 300.0)
    ok = 1e39 <= val <= 1e41
    assert report(11, "macroscopic separation measure", ok, f"{val:.3e}")
    assert ok
