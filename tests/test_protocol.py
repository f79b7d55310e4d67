import numpy as np
import pytest

from cavitylab import (
    DampingModel,
    DegenerateBranchError,
    DensityOperator,
    DomainError,
    FieldState,
    HilbertSpec,
    ProtocolConfig,
    SubspaceError,
    cat_state,
    coherent_state,
    direct_point_exact,
    evolve_trajectory,
    field_kraus,
    fock_state,
    mix,
    prepare_cat,
    probe_atom,
    pure_to_density,
    two_atom_conditional,
    two_atom_scan,
    vacuum,
)

CFG = ProtocolConfig()
MODEL = DampingModel(kappa=1.0)
VARIANTS = ("dispersive", "opposite", "resonant-2pi")


def arms(m, chi=0.0):
    """The field phases carried by the atom's |e> and |g> arms between the
    zones (|e>'s including e^{i eta}); M_e and M_g are their recombinations."""
    return np.exp(1j * chi) * m[1] + m[0], np.exp(1j * chi) * m[1] - m[0]


def joint_oracle(rho, config, variant):
    """Brute-force probe: the 2d x 2d atom (x) field density (atom index
    first, e before g), evolved by R1, the conditional phases and R2 built
    from the protocol docstring's pulse convention, then projected."""
    d = rho.dim
    n = np.arange(d)
    # |e> -> (|e> + |g>)/sqrt2, |g> -> (-|e> + |g>)/sqrt2, with the microwave
    # phase chi rotating the zone about z
    zone0 = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    z = np.diag([1.0, np.exp(-1j * config.ramsey_phase)])
    r1 = z @ zone0 @ z.conj().T
    r2 = r1 @ np.diag([np.exp(1j * config.eta), 1.0])
    phi = config.phi
    if variant == "dispersive":
        f_e, f_g = np.exp(1j * phi * n), np.ones(d)
    elif variant == "opposite":
        f_e, f_g = np.exp(1j * phi * (n - 1)), np.exp(-1j * phi * n)
    else:
        f_e, f_g = np.where(n == 1, -1.0, 1.0), np.ones(d)
    u = (np.kron(r2, np.eye(d)) @ np.diag(np.concatenate([f_e, f_g]))
         @ np.kron(r1, np.eye(d)))
    joint = u @ np.kron(np.diag([1.0, 0.0]), rho.matrix) @ u.conj().T
    out = {}
    for idx, name in ((0, "e"), (1, "g")):
        block = joint[idx * d:(idx + 1) * d, idx * d:(idx + 1) * d]
        p = float(np.real(np.trace(block)))
        out[name] = (p, block / p)
    return out


def random_mixed(rng, dim, rank, support=None):
    support = support or dim
    vecs = np.zeros((rank, dim), dtype=complex)
    vecs[:, :support] = rng.normal(size=(rank, support)) + 1j * rng.normal(size=(rank, support))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    weights = rng.dirichlet(np.ones(rank))
    return DensityOperator(np.einsum("r,ri,rj->ij", weights, vecs, vecs.conj()))


def test_probe_matches_joint_density_oracle():
    rng = np.random.default_rng(2024)
    for k in range(60):
        variant = VARIANTS[k % 3]
        dim = int(rng.integers(2, 24))
        rank = int(rng.integers(1, 4))
        rho = random_mixed(rng, dim, rank, support=2 if variant == "resonant-2pi" else None)
        cfg = ProtocolConfig(*rng.uniform(-np.pi, np.pi, size=3))
        m = field_kraus(cfg, variant, dim)
        assert np.max(np.abs(np.sum(np.abs(m) ** 2, axis=0) - 1.0)) < 1e-12
        field = rho
        if rank == 1:  # pure input goes through the FieldState path
            field = FieldState(np.linalg.eigh(rho.matrix)[1][:, -1])
        branches = probe_atom(field, cfg, variant)
        oracle = joint_oracle(rho, cfg, variant)
        for s in ("e", "g"):
            p, post = oracle[s]
            assert abs(branches[s].probability - p) < 1e-12
            if p > 1e-6:
                assert np.max(np.abs(branches[s].field().matrix - post)) < 1e-12


def test_ramsey_splits_excited_atom():
    # with no conditional phase the two balanced zones give the full-contrast
    # Ramsey fringe P_e = sin^2(eta/2) for any field; eta = pi/2 splits 50/50
    field = coherent_state(HilbertSpec(20), 1.1)
    for eta in (0.0, 0.6, np.pi / 2, 2.5, np.pi):
        branches = probe_atom(field, ProtocolConfig(phi=0.0, eta=eta, ramsey_phase=0.8))
        assert abs(branches["e"].probability - np.sin(eta / 2) ** 2) < 1e-12


def test_two_pulses_make_a_pi_pulse():
    # empty cavity: R1 then R2 send |e> to |g>, whatever the interaction
    vac = vacuum(HilbertSpec(6))
    for variant, cfg in (("dispersive", CFG), ("resonant-2pi", CFG),
                         ("opposite", ProtocolConfig(phi=np.pi / 2, eta=np.pi / 2))):
        branches = probe_atom(vac, cfg, variant)
        assert abs(branches["g"].probability - 1.0) < 1e-12
        assert branches["e"].probability < 1e-24


def test_ramsey_unitary():
    # the Kraus operators of each variant resolve the identity
    rng = np.random.default_rng(3)
    for variant in VARIANTS:
        for _ in range(5):
            m = field_kraus(ProtocolConfig(*rng.uniform(-4, 4, size=3)), variant, 20)
            assert np.max(np.abs(np.sum(np.abs(m) ** 2, axis=0) - 1.0)) < 1e-12


def test_ramsey_phase_is_a_gauge():
    # detection statistics cannot depend on the shared microwave phase
    spec = HilbertSpec(20)
    field = coherent_state(spec, 1.0)
    for chi in (0.0, 0.4, 1.9):
        cfg = ProtocolConfig(ramsey_phase=chi)
        branches = probe_atom(field, cfg)
        ref = probe_atom(field, CFG)
        assert abs(branches["e"].probability - ref["e"].probability) < 1e-12


def test_dispersive_pi_rotates_coherent_on_excited_branch():
    # between the zones the |e> arm carries |-alpha>, the |g> arm |alpha>
    spec = HilbertSpec(26)
    amps = coherent_state(spec, 1.3).amplitudes
    arm_e, arm_g = arms(field_kraus(ProtocolConfig(ramsey_phase=0.9), "dispersive", 26), 0.9)
    np.testing.assert_allclose(arm_e * amps, coherent_state(spec, -1.3).amplitudes, atol=1e-9)
    np.testing.assert_allclose(arm_g * amps, amps, atol=1e-15)


def test_dispersive_identity_on_ground():
    # closed form: m_e = (e^{i(phi n + eta)} - 1)/2, m_g = e^{-i chi}(e^{i(phi n + eta)} + 1)/2,
    # the 1 being the untouched |g> arm
    rng = np.random.default_rng(17)
    n = np.arange(20)
    for _ in range(5):
        phi, chi, eta = rng.uniform(-np.pi, np.pi, size=3)
        m = field_kraus(ProtocolConfig(phi, chi, eta), "dispersive", 20)
        shifted = np.exp(1j * (phi * n + eta))
        np.testing.assert_allclose(m[0], (shifted - 1) / 2, atol=1e-15)
        np.testing.assert_allclose(m[1], np.exp(-1j * chi) * (shifted + 1) / 2, atol=1e-15)


def test_even_cat_is_conditional_parity_eigenstate():
    spec = HilbertSpec(26)
    for psi1, outcome in ((0.0, "g"), (np.pi, "e")):
        cat = cat_state(spec, 1.4, psi1)
        branches = probe_atom(cat, CFG)
        assert abs(branches[outcome].probability - 1.0) < 1e-12
        assert branches[outcome].field().fidelity_pure(cat) >= 1 - 1e-12


def test_opposite_shift_rotates_ground_branch():
    spec = HilbertSpec(26)
    amps = coherent_state(spec, 1.2).amplitudes
    _, arm_g = arms(field_kraus(ProtocolConfig(phi=np.pi / 2), "opposite", 26))
    np.testing.assert_allclose(arm_g * amps, coherent_state(spec, -1.2j).amplitudes, atol=1e-9)


def test_opposite_shift_branches_rotate_oppositely():
    # closed form: the |e> arm is e^{i eta} e^{i phi (n - 1)}, the |g> arm
    # e^{-i phi n}; on a coherent state they rotate it by +-phi, the |e> arm
    # with the constant Stark phase e^{i (eta - phi)}
    spec = HilbertSpec(26)
    n = np.arange(26)
    phi, chi, eta = 0.7, -1.1, 0.4
    m = field_kraus(ProtocolConfig(phi, chi, eta), "opposite", 26)
    arm_e, arm_g = arms(m, chi)
    np.testing.assert_allclose(arm_e, np.exp(1j * (eta + phi * (n - 1))), atol=1e-15)
    np.testing.assert_allclose(arm_g, np.exp(-1j * phi * n), atol=1e-15)
    amps = coherent_state(spec, 1.1).amplitudes
    np.testing.assert_allclose(arm_e * amps, np.exp(1j * (eta - phi))
                               * coherent_state(spec, 1.1 * np.exp(1j * phi)).amplitudes,
                               atol=1e-9)
    np.testing.assert_allclose(arm_g * amps,
                               coherent_state(spec, 1.1 * np.exp(-1j * phi)).amplitudes,
                               atol=1e-9)


def test_resonant_2pi_sign_rules():
    # only |e>|1> changes sign; the |g> arm is untouched
    chi, eta = 0.3, 0.8
    arm_e, arm_g = arms(field_kraus(ProtocolConfig(ramsey_phase=chi, eta=eta),
                                    "resonant-2pi", 8), chi)
    signs = np.ones(8)
    signs[1] = -1.0
    np.testing.assert_allclose(arm_e, np.exp(1j * eta) * signs, atol=1e-15)
    np.testing.assert_allclose(arm_g, np.ones(8), atol=1e-15)


def test_resonant_2pi_equals_pi_shift_on_low_subspace():
    spec = HilbertSpec(9)
    amps = np.zeros(spec.dim, dtype=complex)
    amps[0], amps[1] = np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.4j)
    np.testing.assert_allclose(field_kraus(CFG, "resonant-2pi", 9)[:, :2],
                               field_kraus(CFG, "dispersive", 9)[:, :2], atol=1e-15)
    resonant = probe_atom(FieldState(amps), CFG, "resonant-2pi")
    dispersive = probe_atom(FieldState(amps), CFG)
    for s in ("e", "g"):
        assert abs(resonant[s].probability - dispersive[s].probability) < 1e-12
        np.testing.assert_allclose(resonant[s].field().matrix,
                                   dispersive[s].field().matrix, atol=1e-12)


def test_resonant_2pi_guards_subspace():
    spec = HilbertSpec(12)
    with pytest.raises(SubspaceError):
        probe_atom(coherent_state(spec, 1.0), CFG, "resonant-2pi")


def test_one_resonant_threshold_for_every_probe():
    # both readers refuse more than 1e-8 population above one photon (the
    # cat-preparation probe took up to 2e-8, since R1 leaves half in |e>)
    for tail, refused in ((1.5e-8, True), (0.5e-8, False)):
        field = DensityOperator(np.diag([0.3, 0.7 - tail, tail, 0.0, 0.0, 0.0]))
        if refused:
            with pytest.raises(SubspaceError):
                probe_atom(field, CFG, "resonant-2pi")
            with pytest.raises(SubspaceError):
                direct_point_exact(field, 0.0, variant="resonant-2pi")
        else:
            probe_atom(field, CFG, "resonant-2pi")
            direct_point_exact(field, 0.0, variant="resonant-2pi")


def test_detection_after_entangling_projects_coherent_states():
    # the pi shift sorts the photon numbers: M_g = e^{-i chi} P_even and
    # M_e = -P_odd, so detection projects |alpha> onto its parity components
    spec = HilbertSpec(30)
    alpha, chi = 1.7, 0.5
    m = field_kraus(ProtocolConfig(ramsey_phase=chi), "dispersive", 30)
    even = np.arange(30) % 2 == 0
    # e^{i pi n} carries a rounding error that grows like n * 1e-16
    np.testing.assert_allclose(m[1], np.exp(-1j * chi) * even, atol=1e-13)
    np.testing.assert_allclose(m[0], -1.0 * ~even, atol=1e-13)
    branches = probe_atom(coherent_state(spec, alpha), ProtocolConfig(ramsey_phase=chi))
    amps = coherent_state(spec, alpha).amplitudes
    for outcome, part in (("g", amps * even), ("e", amps * ~even)):
        assert abs(branches[outcome].probability - np.vdot(part, part).real) < 1e-12
        target = pure_to_density(FieldState(part / np.linalg.norm(part)))
        assert np.max(np.abs(branches[outcome].field().matrix - target.matrix)) < 1e-12


def test_detection_after_r2_projects_onto_cats():
    spec = HilbertSpec(30)
    alpha = 1.7
    branches = prepare_cat(alpha, CFG, spec)
    overlap = np.exp(-2 * alpha ** 2)
    # branch probabilities equal the brute-force joint-state ones and (1 +- e^{-2|a|^2})/2
    oracle = joint_oracle(pure_to_density(coherent_state(spec, alpha)), CFG, "dispersive")
    assert abs(branches["g"].probability - oracle["g"][0]) < 1e-12
    assert abs(branches["g"].probability - (1 + overlap) / 2) < 1e-10
    assert abs(branches["e"].probability - (1 - overlap) / 2) < 1e-10
    even = cat_state(spec, alpha, 0.0)
    odd = cat_state(spec, alpha, np.pi)
    assert branches["g"].field().fidelity_pure(even) >= 1 - 1e-9
    assert branches["e"].field().fidelity_pure(odd) >= 1 - 1e-9


def test_prepare_cat_high_fidelity_alpha3():
    spec = HilbertSpec(46)
    branches = prepare_cat(3.0, CFG, spec)
    assert branches["g"].field().fidelity_pure(cat_state(spec, 3.0, 0.0)) >= 1 - 1e-9


def test_prepare_cat_empty_cavity_is_deterministic():
    branches = prepare_cat(0.0, CFG, HilbertSpec(8))
    assert abs(branches["g"].probability - 1.0) < 1e-12
    assert branches["e"].probability < 1e-14
    with pytest.raises(DegenerateBranchError):
        branches["e"].field()


def test_prepare_cat_requires_pi_shift():
    with pytest.raises(DomainError):
        prepare_cat(1.0, ProtocolConfig(phi=np.pi / 2))
    # a dephased second zone leaves cats of the wrong phase (fidelity 0.978)
    with pytest.raises(DomainError):
        prepare_cat(1.5, ProtocolConfig(eta=0.3), HilbertSpec(30))


# -- two-atom correlation monitor ---------------------------------------------


def test_perfect_correlations_at_zero_delay():
    table = two_atom_conditional(3.0, 0.0, MODEL, CFG, HilbertSpec(46))
    assert table.p_e2_given_e1 > 1 - 1e-6
    assert table.p_g2_given_g1 > 1 - 1e-6


def test_prepare_cat_is_first_half_of_two_atom_run():
    spec = HilbertSpec(30)
    alpha = 1.6
    table = two_atom_conditional(alpha, 0.0, MODEL, CFG, spec)
    branches = prepare_cat(alpha, CFG, spec)
    assert abs(table.p_e1 - branches["e"].probability) < 1e-14
    assert abs(table.p_g1 - branches["g"].probability) < 1e-14


def test_statistical_mixture_gives_even_odds():
    # mixture fed to the probe stage instead of the prepared cat; overlap
    # corrections e^{-2|a|^2} stay below the 1e-9 budget for |a| >= 3.3
    alpha = 3.3
    spec = HilbertSpec(55)
    mixture = mix([coherent_state(spec, alpha), coherent_state(spec, -alpha)],
                  [0.5, 0.5])
    branches = probe_atom(mixture, CFG)
    assert abs(branches["e"].probability - 0.5) < 1e-9


def test_correlation_decays_to_zero():
    table = two_atom_conditional(np.sqrt(5.0), 8.0, MODEL, CFG, HilbertSpec(30))
    assert table.p_e2_given_e1 < 0.02


def test_correlation_curve_monotone_with_plateau():
    # exact damped-cat values: the 0.02-wide plateau around 1/2 spans roughly
    # [3.9, 11.3] decoherence times for |alpha|^2 = 5
    n_mean = 5.0
    t_dec = 1.0 / (2 * n_mean)
    delays = np.array([0.0, 1.0, 2.0, 3.0, 4.2, 6.0, 8.0, 10.0]) * t_dec
    rows = two_atom_scan(np.sqrt(n_mean), delays, MODEL, CFG, HilbertSpec(30))
    probs = np.array([r.p_e2_given_e1 for r in rows])
    assert np.all(np.diff(probs) < 1e-9)  # monotone decay
    for row in rows:
        if 4.0 * t_dec <= row.delay <= 10.5 * t_dec:
            assert abs(row.p_e2_given_e1 - 0.5) <= 0.02


def test_scan_hands_back_its_branch_trajectories():
    alpha, spec = 1.5, HilbertSpec(26)
    delays = [0.0, 0.1, 0.35]
    scan = two_atom_scan(alpha, delays, MODEL, CFG, spec)
    first = prepare_cat(alpha, CFG, spec)
    for o in ("e", "g"):
        want = evolve_trajectory(first[o].field(), MODEL, delays)
        for got, ref in zip(scan.trajectories[o], want):
            assert np.array_equal(got.matrix, ref.matrix)
        assert (getattr(scan[1], f"p_e2_given_{o}1")
                == probe_atom(want[1], CFG)["e"].probability)
    assert [row.delay for row in scan] == delays and len(scan) == 3
    # a degenerate first-atom branch has no trajectory and reads nan
    vac = two_atom_scan(0.0, [0.0, 0.2], MODEL, CFG, HilbertSpec(8))
    assert set(vac.trajectories) == {"g"} and np.isnan(vac[1].p_e2_given_e1)


def test_two_atom_rejects_negative_delay():
    with pytest.raises(DomainError):
        two_atom_conditional(1.0, -0.5, MODEL, CFG)


def test_branch_probabilities_sum_to_one():
    spec = HilbertSpec(26)
    for field in (coherent_state(spec, 1.2), cat_state(spec, 1.0, 0.0)):
        branches = probe_atom(field, CFG)
        total = branches["e"].probability + branches["g"].probability
        assert abs(total - 1.0) < 1e-10
