import math

import numpy as np
import pytest

from cavitylab import (
    DegenerateStateError,
    DensityOperator,
    HilbertSpec,
    TruncationError,
    WeightError,
    annihilation,
    cat_state,
    coherent_state,
    DomainError,
    default_dim,
    displaced_rows,
    fock_state,
    mix,
    parity,
    promote,
    pure_to_density,
    vacuum,
)
from cavitylab.fock import (MAX_DISPLACED_ENTRIES, creation, number_operator, quadrature_q1,
                            quadrature_q2)

from conftest import eigh_displacement


def brute_coherent_amplitudes(alpha, dim):
    # independent of the package: c_n = e^{-|a|^2/2} a^n / sqrt(n!)
    return np.array([np.exp(-abs(alpha) ** 2 / 2) * alpha ** n / math.sqrt(math.factorial(n))
                     for n in range(dim)])


def test_spec_validation():
    with pytest.raises(ValueError):
        HilbertSpec(1)
    assert HilbertSpec(2).dim == 2


def test_annihilation_dim2():
    a = annihilation(HilbertSpec(2))
    np.testing.assert_allclose(a, [[0, 1], [0, 0]], atol=1e-15)


def test_annihilation_sqrt_elements():
    a = annihilation(HilbertSpec(4))
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


def test_number_operator():
    spec = HilbertSpec(7)
    n_op = number_operator(spec)
    np.testing.assert_allclose(n_op, creation(spec) @ annihilation(spec),
                               atol=1e-13)


def test_operators_are_read_only():
    spec = HilbertSpec(5)
    for op in (annihilation(spec), creation(spec), number_operator(spec),
               quadrature_q1(spec), quadrature_q2(spec), parity(spec)):
        assert isinstance(op, np.ndarray) and op.shape == (5, 5)
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def test_displacement_zero_is_identity():
    np.testing.assert_array_equal(displaced_rows(0.0, 9, 9), np.eye(9))
    np.testing.assert_array_equal(displaced_rows(0.0, 12, 5), np.eye(12, 5))


def test_displacement_matches_eigh_oracle():
    # the closed-form rows against exp(-i|alpha| G) built by eigh in dim 200,
    # whose truncation touches only its last rows
    rng = np.random.default_rng(59)
    for alpha in [0.3 - 0.2j, -3.0, 4.9j] + list(rng.normal(scale=2.5, size=(4, 2)) @ [1, 1j]):
        oracle = eigh_displacement(200, alpha)
        for rows, cols in ((120, 59), (40, 90)):
            err = np.max(np.abs(displaced_rows(alpha, rows, cols) - oracle[:rows, :cols]))
            assert err < 1e-13, (alpha, rows, cols, err)


def test_displacement_generates_coherent_state():
    # column 0 is |alpha>, against the package-independent amplitudes
    for alpha in (1.3 - 0.4j, -2.2, 0.7j):
        col = displaced_rows(alpha, 40, 3)[:, 0]
        np.testing.assert_allclose(col, brute_coherent_amplitudes(alpha, 40), atol=1e-14)


def test_displacement_inverse():
    # D(-alpha) D(alpha) = 1 on the first columns once the middle index
    # covers the displaced states
    alpha = 1.1 + 0.5j
    d_minus, d_plus = displaced_rows(-alpha, 24, 80), displaced_rows(alpha, 80, 24)
    np.testing.assert_allclose(d_minus @ d_plus, np.eye(24), atol=1e-12)


def test_displacement_unitary():
    # a tall rectangle is an isometry: its columns are orthonormal
    d = displaced_rows(0.9 + 1.2j, 90, 30)
    np.testing.assert_allclose(d.conj().T @ d, np.eye(30), atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_displacement_composition(seed):
    # D(a) D(b) = e^{i Im(a conj(b))} D(a+b), the middle index tall enough
    # to carry every column of D(b)
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(scale=0.7) + 1j * rng.normal(scale=0.7) for _ in range(2))
    lhs = displaced_rows(a, 30, 120) @ displaced_rows(b, 120, 30)
    rhs = np.exp(1j * np.imag(a * np.conj(b))) * displaced_rows(a + b, 30, 30)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_parity_conjugates_displacement():
    sign = (-1.0) ** np.arange(40)
    alpha = 0.8 + 0.9j
    lhs = sign[:, None] * displaced_rows(alpha, 40, 26) * sign[:26]
    np.testing.assert_allclose(lhs, displaced_rows(-alpha, 40, 26), atol=1e-14)


def test_non_finite_amplitudes_are_rejected():
    # nan read as an all-NaN state; 1e160 overflows |alpha|^2
    for alpha in (complex(np.nan, 0.0), complex(0.0, np.inf), 1e160):
        with pytest.raises(DomainError):
            coherent_state(HilbertSpec(10), alpha)
        with pytest.raises(DomainError):
            cat_state(HilbertSpec(10), alpha, 0.0)
        with pytest.raises(DomainError):
            displaced_rows(alpha, 10, 10)
    with pytest.raises(DomainError):
        cat_state(HilbertSpec(10), 1.0, np.nan)


def test_displacement_block_is_capped():
    with pytest.raises(TruncationError):
        displaced_rows(1.0, MAX_DISPLACED_ENTRIES // 2 + 1, 2)


def test_coherent_state_at_large_amplitude():
    # the product recursion overflowed past |alpha| ~ 37.7 into all-NaN
    # amplitudes; each log-form term is exact: the mean photon number is
    # |alpha|^2 and the phase is e^{i theta n}
    alpha = 38.0 * np.exp(0.3j)
    st = coherent_state(HilbertSpec(6000), alpha)
    assert np.all(np.isfinite(st.amplitudes))
    assert abs(st.norm() - 1.0) < 1e-12
    assert abs(st.mean_photon() - 38.0 ** 2) < 1e-9 * 38.0 ** 2
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
        assert abs(st.mean_photon() - abs(alpha) ** 2) < 1e-8


def test_coherent_overlap_against_series():
    # <beta|alpha> = exp(-(|a|^2+|b|^2)/2) sum_n (conj(b) a)^n / n!
    spec = HilbertSpec(36)
    alpha, beta = 1.2 + 0.3j, -0.7 + 0.9j
    brute = sum(np.conj(brute_coherent_amplitudes(beta, spec.dim)[n])
                * brute_coherent_amplitudes(alpha, spec.dim)[n]
                for n in range(spec.dim))
    got = coherent_state(spec, beta).overlap(coherent_state(spec, alpha))
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


def test_fock_state_basics():
    spec = HilbertSpec(8)
    np.testing.assert_allclose(fock_state(spec, 0).amplitudes, vacuum(spec).amplitudes)
    one = fock_state(spec, 1)
    assert one.amplitudes[1] == 1.0 and np.count_nonzero(one.amplitudes) == 1
    assert fock_state(spec, 5).mean_photon() == 5.0
    with pytest.raises(IndexError):
        fock_state(spec, 8)
    with pytest.raises(IndexError):
        fock_state(spec, -1)


def test_parity_matrix_and_involution():
    p3 = parity(HilbertSpec(3))
    np.testing.assert_allclose(p3, np.diag([1.0, -1.0, 1.0]))
    p = parity(HilbertSpec(9))
    np.testing.assert_allclose(p @ p, np.eye(9), atol=1e-15)


def test_parity_flips_quadratures():
    spec = HilbertSpec(14)
    p = parity(spec)
    for quad in (quadrature_q1(spec), quadrature_q2(spec)):
        np.testing.assert_allclose(p @ quad @ p, -quad, atol=1e-12)


def test_parity_reflects_coherent_state():
    spec = HilbertSpec(30)
    reflected = parity(spec) @ coherent_state(spec, 1.6).amplitudes
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
    assert abs(cat_state(spec, alpha, 0.0).norm() - 1.0) < 1e-10


def test_cat_parity_structure():
    spec = HilbertSpec(30)
    even = cat_state(spec, 1.5, 0.0).amplitudes
    odd = cat_state(spec, 1.5, np.pi).amplitudes
    assert np.max(np.abs(even[1::2])) < 1e-12
    assert np.max(np.abs(odd[0::2])) < 1e-12


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
    rho.validate()
    assert abs(rho.mean_photon() - alpha0 ** 2) < 1e-7


def test_mixture_purity():
    # Tr rho^2 = (1 + |<a|-a>|^2)/2 for the 50/50 mixture
    alpha0 = 3.0
    spec = HilbertSpec(default_dim(alpha0))
    rho = mix([coherent_state(spec, alpha0), coherent_state(spec, -alpha0)], [0.5, 0.5])
    direct = float(np.real(np.trace(rho.matrix @ rho.matrix)))
    overlap = np.exp(-2 * alpha0 ** 2)
    assert abs(direct - 0.5 * (1 + overlap ** 2)) < 1e-10
    assert abs(rho.purity() - direct) < 1e-14
    pure = pure_to_density(cat_state(spec, 1.0, 0.0))
    assert abs(pure.purity() - 1.0) < 1e-10


def test_mix_weight_validation():
    spec = HilbertSpec(8)
    states = [vacuum(spec), fock_state(spec, 1)]
    with pytest.raises(WeightError):
        mix(states, [0.6, 0.6])
    with pytest.raises(WeightError):
        mix(states, [1.2, -0.2])


def test_type_invariants_after_preparation():
    spec = HilbertSpec(30)
    for st in (vacuum(spec), coherent_state(spec, 1.2), cat_state(spec, 1.5, 0.0),
               fock_state(spec, 4)):
        st.validate()
    for rho in (pure_to_density(coherent_state(spec, 1.2)),
                mix([coherent_state(spec, 1.0), fock_state(spec, 2)], [0.3, 0.7])):
        rho.validate()


def test_density_validation_catches_corruption():
    bad = DensityOperator(np.array([[0.7, 0.5], [0.1, 0.3]], dtype=complex))
    with pytest.raises(ValueError):
        bad.validate()


def test_promote_preserves_amplitudes():
    small = coherent_state(HilbertSpec(20), 1.0)
    big = promote(small, HilbertSpec(32))
    assert big.dim == 32
    np.testing.assert_allclose(big.amplitudes[:20], small.amplitudes)
    assert np.all(big.amplitudes[20:] == 0)
    with pytest.raises(ValueError):
        promote(big, HilbertSpec(8))


def test_states_are_immutable():
    st = vacuum(HilbertSpec(4))
    with pytest.raises(ValueError):
        st.amplitudes[0] = 0.5
