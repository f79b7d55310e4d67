import math
import warnings

import numpy as np
import pytest

from cavitylab import (
    CavityLabError,
    DegenerateStateError,
    DensityOperator,
    FieldState,
    HilbertSpec,
    NonHermitianError,
    TruncationError,
    WeightError,
    cat_state,
    coherent_state,
    DomainError,
    default_dim,
    fock_state,
    mix,
    probe_atom,
    promote,
    pure_to_density,
    vacuum,
)
from cavitylab.fock import (_QUARTER, MAX_DISPLACED_ENTRIES, laguerre_functions,
                            quadrature_q1, quadrature_q2, radial_rows, turn)

from conftest import annihilation, displaced, eigh_displacement, mean_photon


def brute_coherent_amplitudes(alpha, dim):
    # independent of the package: c_n = e^{-|a|^2/2} a^n / sqrt(n!)
    return np.array([np.exp(-abs(alpha) ** 2 / 2) * alpha ** n / math.sqrt(math.factorial(n))
                     for n in range(dim)])


def test_spec_validation():
    with pytest.raises(DomainError):
        HilbertSpec(1)
    assert HilbertSpec(2).dim == 2


def quadrature_lowering(dim):
    """a = (q1 + i q2)/sqrt(2), from the package's quadratures."""
    spec = HilbertSpec(dim)
    return (quadrature_q1(spec) + 1j * quadrature_q2(spec)) / np.sqrt(2.0)


def test_annihilation_dim2():
    np.testing.assert_allclose(annihilation(2), [[0, 1], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(quadrature_lowering(2), [[0, 1], [0, 0]], atol=1e-15)


def test_annihilation_sqrt_elements():
    for a in (annihilation(4), quadrature_lowering(4)):
        assert abs(a[2, 3] - np.sqrt(3)) < 1e-15
        for n in range(1, 4):
            assert abs(a[n - 1, n] - np.sqrt(n)) < 1e-15


def test_quadrature_commutator():
    # [q1, q2] = i on the subspace n <= dim-2 (truncation only corrupts the edge)
    spec = HilbertSpec(12)
    q1, q2 = quadrature_q1(spec), quadrature_q2(spec)
    comm = q1 @ q2 - q2 @ q1
    sub = comm[: spec.dim - 1, : spec.dim - 1]
    np.testing.assert_allclose(sub, 1j * np.eye(spec.dim - 1), atol=1e-12)


def test_operators_are_read_only():
    spec = HilbertSpec(5)
    for op in (quadrature_q1(spec), quadrature_q2(spec)):
        assert isinstance(op, np.ndarray) and op.shape == (5, 5)
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def test_laguerre_functions_at_zero_are_exact_without_warning():
    # l_n^k(0) = [k = 0] at every n; log 0 must raise no RuntimeWarning.  A k
    # list with gaps, with or without k = 0, yields bit for bit the rows of
    # the full list that stay inside its triangle n + k < max(steps, k_max + 1)
    x = np.array([0.0, 0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = list(laguerre_functions(x, np.arange(30), 12))
        for ks in (np.arange(30), np.array([0, 3, 4, 9, 29]), np.array([2, 5, 29]),
                   np.array([0, 4, 6]), np.array([0])):
            height = max(12, ks[-1] + 1)
            for n, ell in enumerate(laguerre_functions(x, ks, 12)):
                kept = ks[ks < height - n]
                np.testing.assert_array_equal(ell, full[n][kept])
                np.testing.assert_array_equal(ell[:, 0], kept == 0)


def test_displacement_zero_is_identity():
    np.testing.assert_array_equal(displaced(0.0, 9, 9), np.eye(9))
    np.testing.assert_array_equal(displaced(0.0, 12, 5), np.eye(12, 5))


def test_displacement_matches_eigh_oracle():
    # the closed-form rows against exp(-i|alpha| G) built by eigh in dim 200,
    # whose truncation touches only its last rows
    rng = np.random.default_rng(59)
    for alpha in [0.3 - 0.2j, -3.0, 4.9j] + list(rng.normal(scale=2.5, size=(4, 2)) @ [1, 1j]):
        oracle = eigh_displacement(200, alpha)
        for rows, cols in ((120, 59), (40, 90)):
            err = np.max(np.abs(displaced(alpha, rows, cols) - oracle[:rows, :cols]))
            assert err < 1e-13, (alpha, rows, cols, err)


def test_displacement_generates_coherent_state():
    # column 0 is |alpha>, against the package-independent amplitudes
    for alpha in (1.3 - 0.4j, -2.2, 0.7j):
        col = displaced(alpha, 40, 3)[:, 0]
        np.testing.assert_allclose(col, brute_coherent_amplitudes(alpha, 40), atol=1e-14)


def test_displacement_inverse():
    # D(-alpha) D(alpha) = 1 on the first columns once the middle index
    # covers the displaced states
    alpha = 1.1 + 0.5j
    d_minus, d_plus = displaced(-alpha, 24, 80), displaced(alpha, 80, 24)
    np.testing.assert_allclose(d_minus @ d_plus, np.eye(24), atol=1e-12)


def test_displacement_unitary():
    # a tall rectangle is an isometry: its columns are orthonormal
    d = displaced(0.9 + 1.2j, 90, 30)
    np.testing.assert_allclose(d.conj().T @ d, np.eye(30), atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_displacement_composition(seed):
    # D(a) D(b) = e^{i Im(a conj(b))} D(a+b), the middle index tall enough
    # to carry every column of D(b)
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(scale=0.7) + 1j * rng.normal(scale=0.7) for _ in range(2))
    lhs = displaced(a, 30, 120) @ displaced(b, 120, 30)
    rhs = np.exp(1j * np.imag(a * np.conj(b))) * displaced(a + b, 30, 30)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_parity_conjugates_displacement():
    sign = (-1.0) ** np.arange(40)
    alpha = 0.8 + 0.9j
    lhs = sign[:, None] * displaced(alpha, 40, 26) * sign[:26]
    np.testing.assert_allclose(lhs, displaced(-alpha, 40, 26), atol=1e-14)


def test_turn_reads_the_quarter_table_at_quarter_turns():
    # theta = k pi/2, |k| <= 4: every factor is the table's exact +-1 or +-i;
    # any other theta (and k pi/2 past |k| = 4) takes np.exp
    n = np.arange(-9, 40)
    for k in range(-4, 5):
        np.testing.assert_array_equal(turn(k * np.pi / 2, n), _QUARTER[(k * n) % 4])
        assert turn(k * np.pi / 2, 3) == _QUARTER[(3 * k) % 4]
    for theta in (0.3, -2.0, np.pi / 3, 5 * np.pi / 2, -6 * np.pi / 2, np.nextafter(np.pi, 4.0)):
        np.testing.assert_array_equal(turn(theta, n), np.exp(1j * theta * n))
    assert turn(np.pi, 7) == -1.0 and turn(np.pi / 2, 1) == 1j


def test_quarter_turn_coherent_states_are_exact():
    # at arg(alpha) = k pi/2 the phases e^{ik n pi/2} are exact, so |-alpha> and
    # |i alpha> are bitwise sign and quarter-turn multiples of |alpha>, and the
    # +-alpha mixture is real with exactly zero odd diagonals
    spec, n = HilbertSpec(46), np.arange(46)
    plus = coherent_state(spec, 3.0).amplitudes
    for alpha, factor in ((-3.0, (-1.0) ** n), (-(3.0 + 0j), (-1.0) ** n),
                          (3j, 1j ** n), (-3j, (-1j) ** n)):
        np.testing.assert_array_equal(coherent_state(spec, alpha).amplitudes, factor * plus)
    alpha = complex(3.0)
    rho = mix([coherent_state(spec, alpha), coherent_state(spec, -alpha)], [0.5, 0.5]).matrix
    assert np.all(rho.imag == 0.0)
    for k in range(1, 46, 2):
        assert np.all(np.diagonal(rho, k) == 0.0)


def test_non_finite_amplitudes_are_rejected():
    # nan read as an all-NaN state; 1e160 overflows |alpha|^2
    for alpha in (complex(np.nan, 0.0), complex(0.0, np.inf), 1e160):
        with pytest.raises(DomainError):
            coherent_state(HilbertSpec(10), alpha)
        with pytest.raises(DomainError):
            cat_state(HilbertSpec(10), alpha, 0.0)
        with pytest.raises(DomainError):
            radial_rows(alpha, 10, 10)
    with pytest.raises(DomainError):
        cat_state(HilbertSpec(10), 1.0, np.nan)


def test_displacement_block_is_capped():
    with pytest.raises(TruncationError):
        radial_rows(1.0, MAX_DISPLACED_ENTRIES // 2 + 1, 2)


def test_coherent_state_at_large_amplitude():
    # the product recursion overflowed past |alpha| ~ 37.7 into all-NaN
    # amplitudes; each log-form term is exact: the mean photon number is
    # |alpha|^2 and the phase is e^{i theta n}
    alpha = 38.0 * np.exp(0.3j)
    st = coherent_state(HilbertSpec(6000), alpha)
    assert np.all(np.isfinite(st.amplitudes))
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
    assert abs(mean_photon(np.abs(st.amplitudes) ** 2) - 38.0 ** 2) < 1e-9 * 38.0 ** 2
    n = 1444
    log_c = n * math.log(38.0) - 38.0 ** 2 / 2 - 0.5 * math.lgamma(n + 1)
    assert abs(st.amplitudes[n] - math.exp(log_c) * np.exp(0.3j * n)) < 1e-12


def test_coherent_vacuum_limit():
    spec = HilbertSpec(6)
    np.testing.assert_allclose(coherent_state(spec, 0.0).amplitudes,
                               vacuum(spec).amplitudes, atol=1e-15)


def test_coherent_mean_photon_number():
    spec = HilbertSpec(40)
    for alpha in (0.5, 1.7, 2.4, 1.0 + 1.5j):
        st = coherent_state(spec, alpha)
        assert abs(mean_photon(np.abs(st.amplitudes) ** 2) - abs(alpha) ** 2) < 1e-8


def test_coherent_overlap_against_series():
    # <beta|alpha> = exp(-(|a|^2+|b|^2)/2) sum_n (conj(b) a)^n / n!
    spec = HilbertSpec(36)
    alpha, beta = 1.2 + 0.3j, -0.7 + 0.9j
    brute = sum(np.conj(brute_coherent_amplitudes(beta, spec.dim)[n])
                * brute_coherent_amplitudes(alpha, spec.dim)[n]
                for n in range(spec.dim))
    got = np.vdot(coherent_state(spec, beta).amplitudes, coherent_state(spec, alpha).amplitudes)
    assert abs(got - brute) < 1e-10


def test_coherent_truncation_is_loud():
    # |alpha|^2 = dim/4, and the tail correction exceeds 1e-8 -> must raise
    with pytest.raises(TruncationError):
        coherent_state(HilbertSpec(16), 2.0)


def test_coherent_truncation_convergence():
    alpha = 1.9
    base = coherent_state(HilbertSpec(default_dim(alpha)), alpha).amplitudes
    bigger = coherent_state(HilbertSpec(default_dim(alpha) + 20), alpha).amplitudes
    assert np.max(np.abs(bigger[: base.size] - base)) < 1e-10


def test_default_dim_floors_the_amplitude_at_one():
    # below |alpha_max| = 1 the truncation is that of |alpha_max| = 1
    assert default_dim(0.0) == default_dim(0.5) == default_dim(1.0) == 14
    assert default_dim(0.0, 1.0) == default_dim(1.0, 1.0)


def test_fock_state_basics():
    spec = HilbertSpec(8)
    np.testing.assert_allclose(fock_state(spec, 0).amplitudes, vacuum(spec).amplitudes)
    one = fock_state(spec, 1)
    assert one.amplitudes[1] == 1.0 and np.count_nonzero(one.amplitudes) == 1
    assert mean_photon(np.abs(fock_state(spec, 5).amplitudes) ** 2) == 5.0
    with pytest.raises(DomainError):
        fock_state(spec, 8)
    with pytest.raises(DomainError):
        fock_state(spec, -1)


def test_parity_flips_quadratures():
    spec = HilbertSpec(14)
    p = np.diag((-1.0) ** np.arange(14))
    for quad in (quadrature_q1(spec), quadrature_q2(spec)):
        np.testing.assert_allclose(p @ quad @ p, -quad, atol=1e-12)


def test_parity_reflects_coherent_state():
    spec = HilbertSpec(30)
    reflected = (-1.0) ** np.arange(30) * coherent_state(spec, 1.6).amplitudes
    np.testing.assert_allclose(reflected, coherent_state(spec, -1.6).amplitudes,
                               atol=1e-8)


def test_cat_alpha_zero_even():
    # both branches identical: (|0> + |0>)/2 = |0> with N1 = 2
    st = cat_state(HilbertSpec(6), 0.0, 0.0)
    np.testing.assert_allclose(st.amplitudes, vacuum(HilbertSpec(6)).amplitudes,
                               atol=1e-12)


def test_cat_normalization_against_brute_norm():
    spec = HilbertSpec(26)
    alpha = 1.0
    n1 = np.sqrt(2 * (1 + np.exp(-2 * abs(alpha) ** 2)))
    summed = coherent_state(spec, alpha).amplitudes + coherent_state(spec, -alpha).amplitudes
    assert abs(np.linalg.norm(summed) - n1) < 1e-10
    assert abs(np.linalg.norm(cat_state(spec, alpha, 0.0).amplitudes) - 1.0) < 1e-10


def test_cat_parity_structure():
    spec = HilbertSpec(30)
    even = cat_state(spec, 1.5, 0.0).amplitudes
    odd = cat_state(spec, 1.5, np.pi).amplitudes
    # e^{i psi1} is an exact quarter turn, so the other parity is exactly 0
    assert not even[1::2].any()
    assert not odd[0::2].any()


def test_cat_degenerate():
    with pytest.raises(DegenerateStateError):
        cat_state(HilbertSpec(8), 1e-9, np.pi)


def test_pure_to_density_vacuum():
    rho = pure_to_density(vacuum(HilbertSpec(5))).matrix
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_mixture_of_opposite_coherent_states():
    # the alpha0 = 3 mixture used for the fringe-free comparison map
    alpha0 = 3.0
    spec = HilbertSpec(default_dim(alpha0))
    rho = mix([coherent_state(spec, alpha0), coherent_state(spec, -alpha0)], [0.5, 0.5])
    assert abs(mean_photon(rho.diagonal()) - alpha0 ** 2) < 1e-7


def test_mixture_purity():
    # Tr rho^2 = (1 + |<a|-a>|^2)/2 for the 50/50 mixture
    alpha0 = 3.0
    spec = HilbertSpec(default_dim(alpha0))
    rho = mix([coherent_state(spec, alpha0), coherent_state(spec, -alpha0)], [0.5, 0.5])
    direct = float(np.real(np.trace(rho.matrix @ rho.matrix)))
    overlap = np.exp(-2 * alpha0 ** 2)
    assert abs(direct - 0.5 * (1 + overlap ** 2)) < 1e-10
    pure = pure_to_density(cat_state(spec, 1.0, 0.0)).matrix
    assert abs(np.real(np.trace(pure @ pure)) - 1.0) < 1e-10


def test_mix_weight_validation():
    spec = HilbertSpec(8)
    states = [vacuum(spec), fock_state(spec, 1)]
    with pytest.raises(WeightError):
        mix(states, [0.6, 0.6])
    with pytest.raises(WeightError):
        mix(states, [1.2, -0.2])


def test_type_invariants_after_preparation():
    # the prepared states meet tighter bounds than the state gate's
    spec = HilbertSpec(30)
    for st in (vacuum(spec), coherent_state(spec, 1.2), cat_state(spec, 1.5, 0.0),
               fock_state(spec, 4)):
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) <= 1e-10
    for rho in (pure_to_density(coherent_state(spec, 1.2)),
                mix([coherent_state(spec, 1.0), fock_state(spec, 2)], [0.3, 0.7])):
        m = rho.matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10
        assert abs(np.trace(m) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(m).min() >= -1e-8


def _cat_matrix(scale=1.0):
    return scale * pure_to_density(cat_state(HilbertSpec(20), 1.5, 0.0)).matrix


def _with_entry(mat, index, value):
    mat = mat.copy()
    mat[index] = value
    return mat


@pytest.mark.parametrize("matrix, error", [
    (_with_entry(_cat_matrix(), (3, 3), np.nan), NonHermitianError),
    (_with_entry(_cat_matrix(), (0, 2), np.inf), NonHermitianError),
    (_cat_matrix(2.0), DomainError),
    (np.diag([1.5, -0.5]), DomainError),
    (np.array([[0.7, 0.5], [0.1, 0.3]]), NonHermitianError),
], ids=["nan-entry", "inf-entry", "twice-a-cat", "negative-population", "corrupt"])
def test_density_operator_refuses_at_construction(matrix, error):
    # unrefused, these read as plausible numbers: the NaN entry gives W = NaN,
    # twice a cat W(0) = 4 past the |W| <= 2 bound, diag(1.5, -0.5) P_e = -0.5
    with pytest.raises(error):
        DensityOperator(matrix)
    assert issubclass(error, CavityLabError)


def test_density_operator_keeps_the_hermitian_part():
    # an exactly Hermitian matrix is stored bit for bit; one with a residue
    # below the bound is stored as its Hermitian part, and the outer product
    # of complex amplitudes, Hermitian only to rounding, exactly Hermitian
    exact = _cat_matrix()
    assert DensityOperator(exact).matrix.tobytes() == exact.tobytes()
    skewed = _with_entry(exact, (0, 2), exact[0, 2] + 5e-7)
    np.testing.assert_array_equal(DensityOperator(skewed).matrix,
                                  (skewed + skewed.conj().T) / 2)
    amps = coherent_state(HilbertSpec(20), 1.3 + 0.7j).amplitudes
    outer = np.outer(amps, amps.conj())
    assert np.any(outer != outer.conj().T)
    stored = pure_to_density(FieldState(amps)).matrix
    np.testing.assert_array_equal(stored, stored.conj().T)


def test_density_operator_live_diagonals_and_support_radius():
    # both are read once, cached and read-only
    spec = HilbertSpec(20)
    rho = mix([cat_state(spec, 1.0, 0.0), fock_state(spec, 3)], [0.5, 0.5])
    assert rho.live.tolist() == list(range(0, 20, 2))
    assert rho.live is rho.live and not rho.live.flags.writeable
    assert pure_to_density(fock_state(spec, 3)).live.tolist() == [0]
    # the last level above 1e-10 population is 3 for |3>, 0 for the vacuum
    assert pure_to_density(fock_state(spec, 3)).support_radius == 2.0
    assert pure_to_density(vacuum(spec)).support_radius == 1.0
    with pytest.raises(AttributeError):
        rho.live = np.arange(3)


def test_density_operator_gate_thresholds():
    # a Hermiticity residue up to 1e-6, a trace off 1 by up to 1e-8 and a
    # population down to -1e-12 pass; just past each is refused
    base = np.diag([0.5, 0.5, 0.0]).astype(complex)
    DensityOperator(_with_entry(base, (0, 1), 0.9e-6))
    DensityOperator(base + np.diag([0.9e-8, 0.0, 0.0]))
    DensityOperator(base + np.diag([0.5e-12, 0.5e-12, -1e-12]))
    with pytest.raises(NonHermitianError):
        DensityOperator(_with_entry(base, (0, 1), 1.1e-6))
    with pytest.raises(DomainError):
        DensityOperator(base + np.diag([1.1e-8, 0.0, 0.0]))
    with pytest.raises(DomainError):
        DensityOperator(base + np.diag([1e-12, 1e-12, -2e-12]))


def test_unnormalised_field_state_is_refused_where_read_as_rho():
    spec = HilbertSpec(20)
    doubled = FieldState(2.0 * coherent_state(spec, 1.0).amplitudes)
    with pytest.raises(DomainError):
        pure_to_density(doubled)
    with pytest.raises(DomainError):
        mix([doubled, vacuum(spec)], [0.5, 0.5])
    with pytest.raises(DomainError):
        probe_atom(doubled)


def test_pure_to_density_refuses_an_oversized_dimension():
    # dim^2 past MAX_DISPLACED_ENTRIES (dim > 1024) is refused before the
    # dense matrix exists
    with pytest.raises(TruncationError, match=f"limit of {MAX_DISPLACED_ENTRIES}"):
        pure_to_density(vacuum(HilbertSpec(1025)))


def test_promote_preserves_amplitudes():
    small = pure_to_density(coherent_state(HilbertSpec(20), 1.0))
    big = promote(small, HilbertSpec(32))
    assert big.dim == 32
    np.testing.assert_allclose(big.matrix[:20, :20], small.matrix)
    assert np.all(big.matrix[20:] == 0) and np.all(big.matrix[:, 20:] == 0)
    with pytest.raises(DomainError):
        promote(big, HilbertSpec(8))


def test_states_are_immutable():
    st = vacuum(HilbertSpec(4))
    with pytest.raises(ValueError):
        st.amplitudes[0] = 0.5
