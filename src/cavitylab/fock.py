"""Truncated Fock-space states and operators for a single field mode.

Conventions (hbar = 1):
    a = (q1 + i*q2)/sqrt(2),  [q1, q2] = i,  alpha = (q1 + i*q2)/sqrt(2).
The vacuum has quadrature variance 1/2.  All amplitudes are dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import (DegenerateStateError, DomainError, NonHermitianError, TruncationError,
                     WeightError)

# Tail mass of a coherent state stays below ~1e-10 with this truncation rule.
DIM_MARGIN = 10

# largest <n|D|j> block displaced_rows builds: 16 MB of complex entries
MAX_DISPLACED_ENTRIES = 1 << 20


def default_dim(alpha_max: float) -> int:
    """Truncation dimension for experiments reaching amplitude |alpha_max|."""
    return int(math.ceil(4.0 * abs(alpha_max) ** 2 + DIM_MARGIN))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class HilbertSpec:
    """Fock-space truncation: basis |0> ... |dim-1>."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"dim must be an integer >= 2, got {self.dim!r}")


@dataclass(frozen=True)
class FieldState:
    """Pure field state as a complex amplitude vector over the Fock basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           _readonly(np.asarray(self.amplitudes, dtype=complex)))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def spec(self) -> HilbertSpec:
        return HilbertSpec(self.dim)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "FieldState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def mean_photon(self) -> float:
        return float(np.sum(np.arange(self.dim) * np.abs(self.amplitudes) ** 2))

    def validate(self) -> None:
        if abs(self.norm() - 1.0) > 1e-10:
            raise ValueError(f"state norm {self.norm()} deviates from 1 beyond 1e-10")


@dataclass(frozen=True)
class DensityOperator:
    """Field density operator on the truncated Fock space."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def spec(self) -> HilbertSpec:
        return HilbertSpec(self.dim)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def mean_photon(self) -> float:
        return float(np.real(np.sum(np.arange(self.dim) * np.diag(self.matrix))))

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def fidelity_pure(self, state: FieldState) -> float:
        """<psi| rho |psi> against a pure reference."""
        v = state.amplitudes
        return float(np.real(np.vdot(v, self.matrix @ v)))

    def validate(self) -> None:
        m = self.matrix
        herm = np.max(np.abs(m - m.conj().T))
        if herm > 1e-10:
            raise ValueError(f"hermiticity deviation {herm:.3e} > 1e-10")
        tr = abs(np.trace(m) - 1.0)
        if tr > 1e-10:
            raise ValueError(f"trace deviation {tr:.3e} > 1e-10")
        w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if w.min() < -1e-8:
            raise ValueError(f"negative eigenvalue {w.min():.3e} < -1e-8")


def require_hermitian(rho: DensityOperator) -> np.ndarray:
    """rho's matrix, refused unless Hermitian within 1e-6: the Laguerre
    series reads only its upper triangle, the marginals only its real part
    and the damping propagators only its lower triangle."""
    mat = rho.matrix
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    if herm > 1e-6:
        raise NonHermitianError(f"density matrix hermiticity deviation {herm:.3e} exceeds 1e-6")
    return mat


# ---------------------------------------------------------------------------
# canonical operators (read-only arrays)


def annihilation(spec: HilbertSpec) -> np.ndarray:
    """Annihilation operator: <n-1| a |n> = sqrt(n)."""
    return _readonly(np.diag(np.sqrt(np.arange(1, spec.dim, dtype=float)), k=1))


def creation(spec: HilbertSpec) -> np.ndarray:
    return _readonly(annihilation(spec).T)


def number_operator(spec: HilbertSpec) -> np.ndarray:
    return _readonly(np.diag(np.arange(spec.dim, dtype=float)))


def quadrature_q1(spec: HilbertSpec) -> np.ndarray:
    return _readonly((annihilation(spec) + creation(spec)) / np.sqrt(2.0))


def quadrature_q2(spec: HilbertSpec) -> np.ndarray:
    return _readonly((annihilation(spec) - creation(spec)) / (1j * np.sqrt(2.0)))


def parity(spec: HilbertSpec) -> np.ndarray:
    """Photon-number parity: diag((-1)^n)."""
    return _readonly(np.diag((-1.0) ** np.arange(spec.dim)))


# ---------------------------------------------------------------------------
# normalised Laguerre functions and the displacement they build


def laguerre_functions(x: np.ndarray, width: int, steps: int):
    """Normalised Laguerre functions l_n^k(x) = sqrt(n!/(n+k)!) x^{k/2} e^{-x/2} L_n^k(x)
    on a 1-D array of x >= 0, by upward recurrence in n from l_0^k in log form:
    yields l_n^k(x) over k < width - n, shape (width - n, x.size), for n < steps."""
    k = np.arange(width, dtype=float)
    # the recurrence's coefficients at every (n, k), built once; row n - 1 serves step n
    nn = np.arange(1, steps, dtype=float)[:, None]
    lead = 2 * nn - 1 + k
    back = np.sqrt((nn - 1) * (nn - 1 + k))
    norm = np.sqrt(nn * (nn + k))
    k = k[:, None]
    ell = np.exp(xlogy(k / 2.0, x) - x / 2.0 - 0.5 * gammaln(k + 1.0))  # l_0^k(x)
    ell_prev = np.zeros_like(ell)
    yield ell
    for n in range(1, steps):
        m = width - n
        ell, ell_prev = (((lead[n - 1, :m, None] - x) * ell[:m]
                          - back[n - 1, :m, None] * ell_prev[:m])
                         / norm[n - 1, :m, None]), ell[:m]
        yield ell


def displaced_rows(alpha, rows: int, cols: int) -> np.ndarray:
    """Exact elements <n|D(alpha)|j>, n < rows, j < cols, of the untruncated
    D(alpha) = exp(alpha a^dag - alpha* a), theta = arg(alpha) (Cahill &
    Glauber, Phys. Rev. 177, 1857 (1969)); column 0 is |alpha>:

        <n|D|j> = e^{i theta (n-j)} l_j^{n-j}(|alpha|^2)              (n >= j)
        <n|D|j> = e^{i theta (n-j)} (-1)^{j-n} l_n^{j-n}(|alpha|^2)   (n < j)

    For an array of alpha the result has shape alpha.shape + (rows, cols),
    with one recurrence per distinct |alpha|.  Raises DomainError for
    non-finite |alpha|^2 and TruncationError past MAX_DISPLACED_ENTRIES.
    """
    alpha = np.asarray(alpha, dtype=complex)
    with np.errstate(over="ignore"):
        x = np.abs(alpha) ** 2
    if not np.all(np.isfinite(x)):
        raise DomainError(f"alpha must be finite with |alpha|^2 in float range, got {alpha}")
    width = max(rows, cols)
    if alpha.size * width * cols > MAX_DISPLACED_ENTRIES:
        raise TruncationError(f"{alpha.size} blocks of {width} x {cols} entries of D(alpha) "
                              f"exceed the limit of {MAX_DISPLACED_ENTRIES}")
    # one recurrence per distinct radius (the corners of a symmetric grid share one)
    radii, which = np.unique(x, return_inverse=True)
    out = np.zeros((width, cols, radii.size))
    for j, ell in enumerate(laguerre_functions(radii, width, cols)):
        out[j:, j] = ell
    out = out.transpose(2, 0, 1)[which.reshape(x.shape)]
    # the band n < j mirrors n > j: <n|D|j> = (-1)^(j-n) <j|D|n> before the phases
    n = np.arange(cols)
    square = out[..., :cols, :]
    square += np.swapaxes(square, -1, -2) * ((n[:, None] < n) * (-1.0) ** (n[:, None] + n))
    phase = np.exp(1j * np.angle(alpha)[..., None] * np.arange(width))
    return out[..., :rows, :] * phase[..., :rows, None] * phase[..., None, :cols].conj()


# ---------------------------------------------------------------------------
# state constructors


def fock_state(spec: HilbertSpec, n: int) -> FieldState:
    if not 0 <= n < spec.dim:
        raise IndexError(f"Fock index {n} outside [0, {spec.dim})")
    amps = np.zeros(spec.dim, dtype=complex)
    amps[n] = 1.0
    return FieldState(amps)


def vacuum(spec: HilbertSpec) -> FieldState:
    return fock_state(spec, 0)


def coherent_state(spec: HilbertSpec, alpha: complex) -> FieldState:
    """Coherent state D(alpha)|0>, c_n = e^{i theta n} l_0^n(|alpha|^2) with each
    term in log form (column 0 of ``displaced_rows``), renormalized.  Raises
    DomainError for non-finite alpha, TruncationError for a tail above 1e-8.
    """
    amps = displaced_rows(alpha, spec.dim, 1)[:, 0]
    norm = np.linalg.norm(amps)
    correction = abs(1.0 - norm)
    if correction > 1e-8:
        raise TruncationError(
            f"coherent-state truncation correction {correction:.3e} > 1e-8 "
            f"(alpha={alpha}, dim={spec.dim}); increase dim"
        )
    return FieldState(amps / norm)


def cat_state(spec: HilbertSpec, alpha: complex, psi1: float) -> FieldState:
    """(|alpha> + e^{i psi1} |-alpha>) / N1, N1 = sqrt(2[1 + cos(psi1) e^{-2|alpha|^2}])."""
    if not math.isfinite(psi1):
        raise DomainError(f"psi1 must be finite, got {psi1}")
    plus = coherent_state(spec, alpha).amplitudes  # refuses a non-finite alpha
    n1_sq = 2.0 * (1.0 + np.cos(psi1) * np.exp(-2.0 * abs(alpha) ** 2))
    n1 = np.sqrt(max(n1_sq, 0.0))
    if n1 < 1e-6:
        raise DegenerateStateError(
            f"cat normalization N1 = {n1:.2e} vanishes (psi1={psi1}, alpha={alpha})"
        )
    minus = plus * (-1.0) ** np.arange(spec.dim)  # <n|-alpha> = (-1)^n <n|alpha>
    amps = (plus + np.exp(1j * psi1) * minus) / n1
    resid = abs(np.linalg.norm(amps) - 1.0)
    if resid > 1e-10:
        raise TruncationError(
            f"cat-state norm residual {resid:.3e} > 1e-10 after truncation"
        )
    return FieldState(amps)


def pure_to_density(state: FieldState) -> DensityOperator:
    v = state.amplitudes
    return DensityOperator(np.outer(v, v.conj()))


def mix(states, weights) -> DensityOperator:
    """Statistical mixture of pure states and/or density operators."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise WeightError(f"negative weight in {weights}")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise WeightError(f"weights sum to {weights.sum()!r}, not 1")
    if len(states) != weights.size:
        raise WeightError("states and weights differ in length")
    dim = states[0].dim
    out = np.zeros((dim, dim), dtype=complex)
    for st, w in zip(states, weights):
        if st.dim != dim:
            raise ValueError("all mixture components must share one dimension")
        rho = pure_to_density(st) if isinstance(st, FieldState) else st
        out += w * rho.matrix
    return DensityOperator(out)


def promote(obj, spec: HilbertSpec):
    """Zero-pad a state or density operator into a larger truncated space."""
    if spec.dim < obj.dim:
        raise ValueError(f"cannot promote dim {obj.dim} down to {spec.dim}")
    if spec.dim == obj.dim:
        return obj
    if isinstance(obj, FieldState):
        amps = np.zeros(spec.dim, dtype=complex)
        amps[: obj.dim] = obj.amplitudes
        return FieldState(amps)
    mat = np.zeros((spec.dim, spec.dim), dtype=complex)
    mat[: obj.dim, : obj.dim] = obj.matrix
    return DensityOperator(mat)
