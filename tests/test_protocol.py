import numpy as np
import pytest

from cavitylab import (
    DampingModel,
    DegenerateBranchError,
    DensityOperator,
    DomainError,
    FieldState,
    HilbertSpec,
    SubspaceError,
    cat_state,
    coherent_state,
    detection_probabilities,
    evolve,
    field_kraus,
    fock_state,
    mix,
    prepare_cat,
    probe_atom,
    pure_to_density,
    two_atom_scan,
    vacuum,
)
from cavitylab.fock import MAX_DISPLACED_ENTRIES

MODEL = DampingModel(kappa=1.0)
VARIANTS = ("dispersive", "opposite", "resonant-2pi")


def arms(m):
    """The field phases carried by the atom's |e> and |g> arms between the
    zones (|e>'s including e^{i eta}); M_e and M_g are their recombinations."""
    return m[1] + m[0], m[1] - m[0]


# the parity angles (phi, eta) of each variant: pi-dispersive, the opposite
# shift of Lutterbach & Davidovich (PRL 78, 2547 (1997)), and the resonant
# 2pi probe, which phi does not enter
PARITY_ANGLES = {"dispersive": (np.pi, 0.0), "opposite": (np.pi / 2, np.pi / 2),
                 "resonant-2pi": (None, 0.0)}


def joint_oracle(rho, variant):
    """Brute-force probe: the 2d x 2d atom (x) field density (atom index
    first, e before g), evolved by R1, the conditional phases at the
    variant's parity angles and R2 built from the protocol docstring's pulse
    convention, then projected."""
    d = rho.dim
    n = np.arange(d)
    phi, eta = PARITY_ANGLES[variant]
    # |e> -> (|e> + |g>)/sqrt2, |g> -> (-|e> + |g>)/sqrt2
    r1 = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    r2 = r1 @ np.diag([np.exp(1j * eta), 1.0])
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
        m = field_kraus(variant, dim)
        assert np.array_equal(np.sum(np.abs(m) ** 2, axis=0), np.ones(dim))
        branches = probe_atom(rho, variant)
        oracle = joint_oracle(rho, variant)
        for s in ("e", "g"):
            p, post = oracle[s]
            assert abs(branches[s].probability - p) < 1e-12
            if p > 1e-6:
                assert np.max(np.abs(branches[s].field().matrix - post)) < 1e-12


def test_two_pulses_make_a_pi_pulse():
    # empty cavity: R1 then R2 send |e> to |g>, whatever the interaction
    vac = pure_to_density(vacuum(HilbertSpec(6)))
    for variant in VARIANTS:
        branches = probe_atom(vac, variant)
        assert abs(branches["g"].probability - 1.0) < 1e-12
        assert branches["e"].probability < 1e-24


def test_probe_defaults_to_the_parity_angles_of_its_variant():
    # the coherent state's W(0) = 2 e^{-2|alpha|^2}; read at the dispersive
    # angles the opposite probe gave P_e = 1 for every field
    alpha = 1.1 * np.exp(0.7j)
    field = pure_to_density(coherent_state(HilbertSpec(20), alpha))
    for variant in ("dispersive", "opposite"):
        branches = probe_atom(field, variant=variant)
        assert abs(branches["g"].probability - branches["e"].probability
                   - np.exp(-2.0 * abs(alpha) ** 2)) < 1e-12


def test_parity_angles_weigh_photon_numbers_by_parity():
    # the readouts take the weights |m_g|^2 - |m_e|^2 to be (-1)^n on every
    # photon number they can reach: radial_rows builds at most
    # MAX_DISPLACED_ENTRIES / 2 rows; the resonant probe reads n <= 1 only
    for variant, reach in (("dispersive", MAX_DISPLACED_ENTRIES // 2),
                           ("opposite", MAX_DISPLACED_ENTRIES // 2), ("resonant-2pi", 2)):
        m = field_kraus(variant, reach)
        w = np.abs(m[1]) ** 2 - np.abs(m[0]) ** 2
        assert np.array_equal(w, (-1.0) ** np.arange(reach))
    # the opposite shift weighs each photon number as the pi shift does,
    # |m_s(n)|^2 for both s bit for bit, so no readout needs to tell them apart
    reach = MAX_DISPLACED_ENTRIES // 2
    assert np.array_equal(np.abs(field_kraus("opposite", reach)) ** 2,
                          np.abs(field_kraus("dispersive", reach)) ** 2)
    with pytest.raises(DomainError, match="unknown interaction variant"):
        field_kraus("opposite-shift", 4)


def test_ramsey_unitary():
    # the Kraus operators of each variant resolve the identity exactly: every
    # amplitude is 0, +-1 or +-i
    for variant in VARIANTS:
        m = field_kraus(variant, 20)
        assert np.array_equal(np.sum(np.abs(m) ** 2, axis=0), np.ones(20))
        assert np.isin(m, [0, 1, -1, 1j, -1j]).all()


def test_dispersive_pi_rotates_coherent_on_excited_branch():
    # between the zones the |e> arm carries |-alpha>, the |g> arm |alpha>
    spec = HilbertSpec(26)
    amps = coherent_state(spec, 1.3).amplitudes
    arm_e, arm_g = arms(field_kraus("dispersive", 26))
    np.testing.assert_allclose(arm_e * amps, coherent_state(spec, -1.3).amplitudes, atol=1e-9)
    np.testing.assert_allclose(arm_g * amps, amps, atol=1e-15)


def test_dispersive_identity_on_ground():
    # closed form at phi = pi, eta = 0: m_e = ((-1)^n - 1)/2,
    # m_g = ((-1)^n + 1)/2, the 1 being the untouched |g> arm
    shifted = (-1.0) ** np.arange(20)
    m = field_kraus("dispersive", 20)
    np.testing.assert_array_equal(m[0], (shifted - 1) / 2)
    np.testing.assert_array_equal(m[1], (shifted + 1) / 2)


def test_even_cat_is_conditional_parity_eigenstate():
    spec = HilbertSpec(26)
    for psi1, outcome in ((0.0, "g"), (np.pi, "e")):
        cat = cat_state(spec, 1.4, psi1)
        branches = probe_atom(pure_to_density(cat))
        assert abs(branches[outcome].probability - 1.0) < 1e-12
        assert branches[outcome].field().fidelity_pure(cat) >= 1 - 1e-12


def test_opposite_shift_rotates_ground_branch():
    spec = HilbertSpec(26)
    amps = coherent_state(spec, 1.2).amplitudes
    _, arm_g = arms(field_kraus("opposite", 26))
    np.testing.assert_allclose(arm_g * amps, coherent_state(spec, -1.2j).amplitudes, atol=1e-9)


def test_opposite_shift_branches_rotate_oppositely():
    # closed form: the |e> arm is e^{i eta} e^{i phi (n - 1)}, the |g> arm
    # e^{-i phi n}; at phi = eta = pi/2 they are i^n and (-i)^n (products
    # of i, so exact), and on a coherent state they rotate it by +-pi/2, the
    # constant Stark phase e^{i (eta - phi)} being 1
    spec = HilbertSpec(26)
    arm_e, arm_g = arms(field_kraus("opposite", 26))
    np.testing.assert_array_equal(arm_e, np.cumprod([1.0] + [1j] * 25))
    np.testing.assert_array_equal(arm_g, np.cumprod([1.0] + [-1j] * 25))
    amps = coherent_state(spec, 1.1).amplitudes
    np.testing.assert_allclose(arm_e * amps, coherent_state(spec, 1.1j).amplitudes,
                               atol=1e-9)
    np.testing.assert_allclose(arm_g * amps, coherent_state(spec, -1.1j).amplitudes,
                               atol=1e-9)


def test_resonant_2pi_sign_rules():
    # only |e>|1> changes sign; the |g> arm is untouched
    arm_e, arm_g = arms(field_kraus("resonant-2pi", 8))
    signs = np.ones(8)
    signs[1] = -1.0
    np.testing.assert_array_equal(arm_e, signs)
    np.testing.assert_array_equal(arm_g, np.ones(8))


def test_resonant_2pi_equals_pi_shift_on_low_subspace():
    spec = HilbertSpec(9)
    amps = np.zeros(spec.dim, dtype=complex)
    amps[0], amps[1] = np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.4j)
    np.testing.assert_allclose(field_kraus("resonant-2pi", 9)[:, :2],
                               field_kraus("dispersive", 9)[:, :2], atol=1e-15)
    field = pure_to_density(FieldState(amps))
    resonant = probe_atom(field, "resonant-2pi")
    dispersive = probe_atom(field)
    for s in ("e", "g"):
        assert abs(resonant[s].probability - dispersive[s].probability) < 1e-12
        np.testing.assert_allclose(resonant[s].field().matrix,
                                   dispersive[s].field().matrix, atol=1e-12)


def test_resonant_2pi_guards_subspace():
    spec = HilbertSpec(12)
    with pytest.raises(SubspaceError):
        probe_atom(pure_to_density(coherent_state(spec, 1.0)), "resonant-2pi")


def test_one_resonant_threshold_for_every_probe():
    # the resonant probe refuses more than 1e-8 population above one photon
    # (the cat-preparation probe took up to 2e-8, since R1 leaves half in |e>);
    # probe_atom, the one reader that names an interaction, holds the guard
    for tail, refused in ((1.5e-8, True), (0.5e-8, False)):
        field = DensityOperator(np.diag([0.3, 0.7 - tail, tail, 0.0, 0.0, 0.0]))
        if refused:
            with pytest.raises(SubspaceError, match="above one photon"):
                probe_atom(field, "resonant-2pi")
        else:
            probe_atom(field, "resonant-2pi")
    # on n <= 1 the resonant probe reads the parity Born rule bit for bit
    field = DensityOperator(np.diag([0.3, 0.7, 0.0, 0.0]))
    branches = probe_atom(field, "resonant-2pi")
    assert ((branches["e"].probability, branches["g"].probability)
            == detection_probabilities(field.diagonal()))


def test_stacked_populations_read_row_by_row():
    # a stack of fields reads exactly as each field alone
    rng = np.random.default_rng(7)
    pops = rng.dirichlet(np.ones(12), size=(2, 3))
    p_e, p_g = detection_probabilities(pops)
    assert p_e.shape == p_g.shape == (2, 3)
    for i in np.ndindex(2, 3):
        assert (p_e[i], p_g[i]) == detection_probabilities(pops[i])


def test_detection_after_entangling_projects_coherent_states():
    # the pi shift sorts the photon numbers: M_g = P_even and M_e = -P_odd,
    # so detection projects |alpha> onto its parity components
    spec = HilbertSpec(30)
    alpha = 1.7
    m = field_kraus("dispersive", 30)
    even = np.arange(30) % 2 == 0
    np.testing.assert_array_equal(m[1], 1.0 * even)
    np.testing.assert_array_equal(m[0], -1.0 * ~even)
    branches = probe_atom(pure_to_density(coherent_state(spec, alpha)))
    amps = coherent_state(spec, alpha).amplitudes
    for outcome, part in (("g", amps * even), ("e", amps * ~even)):
        assert abs(branches[outcome].probability - np.vdot(part, part).real) < 1e-12
        target = pure_to_density(FieldState(part / np.linalg.norm(part)))
        assert np.max(np.abs(branches[outcome].field().matrix - target.matrix)) < 1e-12


def test_detection_after_r2_projects_onto_cats():
    spec = HilbertSpec(30)
    alpha = 1.7
    branches = prepare_cat(alpha, spec)
    overlap = np.exp(-2 * alpha ** 2)
    # branch probabilities equal the brute-force joint-state ones and (1 +- e^{-2|a|^2})/2
    oracle = joint_oracle(pure_to_density(coherent_state(spec, alpha)), "dispersive")
    assert abs(branches["g"].probability - oracle["g"][0]) < 1e-12
    assert abs(branches["g"].probability - (1 + overlap) / 2) < 1e-10
    assert abs(branches["e"].probability - (1 - overlap) / 2) < 1e-10
    even = cat_state(spec, alpha, 0.0)
    odd = cat_state(spec, alpha, np.pi)
    assert branches["g"].field().fidelity_pure(even) >= 1 - 1e-9
    assert branches["e"].field().fidelity_pure(odd) >= 1 - 1e-9


def test_prepare_cat_high_fidelity_alpha3():
    spec = HilbertSpec(46)
    branches = prepare_cat(3.0, spec)
    assert branches["g"].field().fidelity_pure(cat_state(spec, 3.0, 0.0)) >= 1 - 1e-9


def test_prepared_cats_have_exact_zeros_on_odd_diagonals():
    # each branch keeps one parity of photon numbers, and the Kraus
    # amplitudes of the other are exactly 0, so every odd diagonal (one
    # photon-number parity against the other) is exactly zero, and the
    # damping pass can skip it
    for alpha, dim in ((np.sqrt(5.0), 31), (3.0, 46), (1.5, 19)):
        branches = prepare_cat(alpha, HilbertSpec(dim))
        for outcome in ("e", "g"):
            mat = branches[outcome].field().matrix
            for k in range(1, dim, 2):
                assert np.all(np.diagonal(mat, -k) == 0)
                assert np.all(np.diagonal(mat, k) == 0)


def test_prepare_cat_empty_cavity_is_deterministic():
    branches = prepare_cat(0.0, HilbertSpec(8))
    assert abs(branches["g"].probability - 1.0) < 1e-12
    assert branches["e"].probability < 1e-14
    with pytest.raises(DegenerateBranchError):
        branches["e"].field()


# -- two-atom correlation monitor ---------------------------------------------


def test_perfect_correlations_at_zero_delay():
    scan = two_atom_scan(3.0, [0.0], MODEL, HilbertSpec(46))
    assert scan["p_e2_given_e1"][0] > 1 - 1e-6
    assert scan["p_g2_given_g1"][0] > 1 - 1e-6


def test_prepare_cat_is_first_half_of_two_atom_run():
    spec = HilbertSpec(30)
    alpha = 1.6
    scan = two_atom_scan(alpha, [0.0], MODEL, spec)
    branches = prepare_cat(alpha, spec)
    assert abs(scan["branches"]["e"].probability - branches["e"].probability) < 1e-14
    assert abs(scan["branches"]["g"].probability - branches["g"].probability) < 1e-14


def test_statistical_mixture_gives_even_odds():
    # mixture fed to the probe stage instead of the prepared cat; overlap
    # corrections e^{-2|a|^2} stay below the 1e-9 budget for |a| >= 3.3
    alpha = 3.3
    spec = HilbertSpec(55)
    mixture = mix([coherent_state(spec, alpha), coherent_state(spec, -alpha)],
                  [0.5, 0.5])
    branches = probe_atom(mixture)
    assert abs(branches["e"].probability - 0.5) < 1e-9


def test_correlation_decays_to_zero():
    scan = two_atom_scan(np.sqrt(5.0), [8.0], MODEL, HilbertSpec(30))
    assert scan["p_e2_given_e1"][0] < 0.02


def test_correlation_curve_monotone_with_plateau():
    # exact damped-cat values: the 0.02-wide plateau around 1/2 spans roughly
    # [3.9, 11.3] decoherence times for |alpha|^2 = 5
    n_mean = 5.0
    t_dec = 1.0 / (2 * n_mean)
    delays = np.array([0.0, 1.0, 2.0, 3.0, 4.2, 6.0, 8.0, 10.0]) * t_dec
    probs = two_atom_scan(np.sqrt(n_mean), delays, MODEL, HilbertSpec(30))["p_e2_given_e1"]
    assert np.all(np.diff(probs) < 1e-9)  # monotone decay
    plateau = (4.0 * t_dec <= delays) & (delays <= 10.5 * t_dec)
    assert np.all(np.abs(probs[plateau] - 0.5) <= 0.02)


def test_scan_hands_back_its_branch_trajectories():
    # the scan keeps each first-atom field at zero delay; its arrays read the
    # populations of that field's damping trajectory
    alpha, spec = 1.5, HilbertSpec(26)
    delays = [0.0, 0.1, 0.35]
    scan = two_atom_scan(alpha, delays, MODEL, spec)
    first = prepare_cat(alpha, spec)
    for o in ("e", "g"):
        field = scan["branches"][o].field()
        assert np.array_equal(field.matrix, first[o].field().matrix)
        want = evolve(field, MODEL, delays)
        for k, ref in enumerate(want):
            assert scan[f"p_e2_given_{o}1"][k] == probe_atom(ref)["e"].probability
    assert sorted(scan) == ["branches", "p_e2", "p_e2_given_e1", "p_e2_given_g1",
                            "p_g2_given_e1", "p_g2_given_g1"]
    # a degenerate first-atom branch has no field and reads nan
    vac = two_atom_scan(0.0, [0.0, 0.2], MODEL, HilbertSpec(8))
    assert vac["branches"]["e"].field_after is None
    assert np.isnan(vac["p_e2_given_e1"]).all() and np.isnan(vac["p_g2_given_e1"]).all()
    assert np.array_equal(vac["p_e2"], vac["p_e2_given_g1"])


def test_two_atom_rejects_negative_delay():
    with pytest.raises(DomainError):
        two_atom_scan(1.0, [-0.5], MODEL, HilbertSpec(14))


def test_two_atom_scan_refuses_an_empty_delay_list():
    with pytest.raises(DomainError):
        two_atom_scan(1.0, [], MODEL, HilbertSpec(14))


def test_branch_probabilities_sum_to_one():
    spec = HilbertSpec(26)
    for field in (coherent_state(spec, 1.2), cat_state(spec, 1.0, 0.0)):
        branches = probe_atom(pure_to_density(field))
        total = branches["e"].probability + branches["g"].probability
        assert abs(total - 1.0) < 1e-10
