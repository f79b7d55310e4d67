"""Truncated Fock-space states and operators for a single field mode.

Conventions (hbar = 1):
    a = (q1 + i*q2)/sqrt(2),  [q1, q2] = i,  alpha = (q1 + i*q2)/sqrt(2).
The vacuum has quadrature variance 1/2.  All amplitudes are dimensionless.

The constructors build FieldStates in the truncation they are given;
``pure_to_density`` and ``mix`` build from FieldStates alone the
DensityOperators that every reader of rho takes.  Each argument of a package
type, a state or a HilbertSpec, is checked by ``errors.instance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateStateError, DomainError, NonHermitianError, TruncationError,
                     WeightError, array, bound, complex_array, instance, number)

# Tail mass of a coherent state stays below ~1e-10 with this truncation rule.
DIM_MARGIN = 10

# largest <n|D|j> block radial_rows builds, and largest density matrix
# pure_to_density builds (dim <= 1024): 16 MB of complex entries
MAX_DISPLACED_ENTRIES = 1 << 20

# e^{i pi k / 2} for k = 0, 1, 2, 3: the quarter-turn phases ``turn`` reads, exact
_QUARTER = np.array([1.0, 1.0j, -1.0, -1.0j])


def default_dim(alpha_max: float, n_thermal: float = 0.0) -> int:
    """Truncation dimension for experiments reaching amplitude |alpha_max|,
    floored at 1, in a cavity damped toward `n_thermal` thermal photons: the
    larger of 4 |alpha_max|^2 + DIM_MARGIN and |alpha_max|^2 plus the number
    of levels over which a thermal distribution, p_n ~ (n_th / (n_th + 1))^n,
    falls by 1e-10.  Both must be finite, |alpha_max| <= 1e150 (so its square
    stays in float range) and `n_thermal` >= 0, with a tail of finite length
    (DomainError)."""
    reach = max(abs(number(alpha_max, "alpha_max", minimum=-1e150, maximum=1e150)), 1.0) ** 2
    dim = 4.0 * reach + DIM_MARGIN
    if number(n_thermal, "n_thermal", minimum=0) > 0:
        decay = math.log(n_thermal / (n_thermal + 1.0))
        if decay == 0.0:  # n_th / (n_th + 1) rounds to 1 from about 2^53 on
            raise DomainError(f"{n_thermal!r} has a thermal tail too long to count (n_thermal)")
        dim = max(dim, reach + math.log(1e-10) / decay)
    return int(math.ceil(dim))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class HilbertSpec:
    """Fock-space truncation: basis |0> ... |dim-1>, dim an integer >= 2 kept as an int."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", number(self.dim, "dim", integral=True, minimum=2))


@dataclass(frozen=True)
class FieldState:
    """Pure field state as a complex amplitude vector over the Fock basis,
    refused at construction for entries that are not numbers or anything but
    a nonempty 1-D vector (DomainError)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = complex_array(self.amplitudes, "amplitudes")
        if amps.ndim != 1 or not amps.size:
            raise DomainError(f"shape {amps.shape} is not a nonempty vector (amplitudes)")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityOperator:
    """Field density operator on the truncated Fock space, refused at
    construction for a non-finite entry or max |rho - rho^dag| > 1e-6
    (NonHermitianError), and for entries that are not numbers, an empty or
    non-square matrix, a trace off 1 by more than 1e-8 or a population below
    -1e-12 (DomainError).  It keeps the Hermitian part m - (m - m^dag)/2 of
    the matrix m it is given (m bit for bit when m is exactly Hermitian), so
    every triangle reads one state."""

    matrix: np.ndarray

    def __post_init__(self):
        m = complex_array(self.matrix, "density matrix")
        if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1]:
            raise DomainError(f"density matrix must be square and nonempty, got shape {m.shape}")
        skew = m - m.conj().T
        # NaN for a non-finite entry (inf - inf), which the bound refuses
        residue = bound(float(np.abs(skew).max()), 1e-6, "density matrix hermiticity deviation",
                        NonHermitianError)
        if residue:  # an exactly Hermitian m stays as it is, signed zeros included
            m = m - 0.5 * skew  # not (m + m^dag)/2: a skew of at most 1e-6 cannot overflow
        pops = m.real.diagonal()
        bound(abs(pops.sum() - 1.0), 1e-8, "density matrix trace error", DomainError)
        array(pops, "density matrix population", minimum=-1e-12)
        object.__setattr__(self, "matrix", _readonly(m))

    @cached_property
    def live(self) -> np.ndarray:
        """The k >= 0 whose diagonal holds a nonzero entry, ascending (read-only),
        from one pass over the nonzero entries of rho."""
        rows, cols = np.nonzero(self.matrix)
        return _readonly(np.flatnonzero(np.bincount(np.abs(cols - rows))))

    @cached_property
    def support_radius(self) -> float:
        """Fock-shell radius: sqrt(n_eff + 1) with n_eff the last level carrying
        more than 1e-10 population.  Bounds the extent of quadrature marginals."""
        idx = np.flatnonzero(np.abs(self.diagonal()) > 1e-10)
        return math.sqrt((int(idx[-1]) if idx.size else 0) + 1.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def fidelity_pure(self, state: FieldState) -> float:
        """<psi| rho |psi> against a pure reference `state` of rho's dimension
        (DomainError for any other `state`)."""
        v = instance(state, FieldState, "state").amplitudes
        if v.size != self.dim:
            raise DomainError(f"a reference of dim {v.size} does not fit dim {self.dim} (state)")
        return float(np.real(np.vdot(v, self.matrix @ v)))


# ---------------------------------------------------------------------------
# quadrature operators (read-only arrays)


def _lowering(dim: int) -> np.ndarray:
    """The annihilation operator a: <n-1| a |n> = sqrt(n); a^dag is its transpose."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def quadrature_q1(spec: HilbertSpec) -> np.ndarray:
    a = _lowering(instance(spec, HilbertSpec, "spec").dim)
    return _readonly((a + a.T) / np.sqrt(2.0))


def quadrature_q2(spec: HilbertSpec) -> np.ndarray:
    a = _lowering(instance(spec, HilbertSpec, "spec").dim)
    return _readonly((a - a.T) / (1j * np.sqrt(2.0)))


# ---------------------------------------------------------------------------
# normalised Laguerre functions and the displacement they build


def laguerre_functions(x: np.ndarray, ks: np.ndarray, steps: int):
    """Normalised Laguerre functions l_n^k(x) = sqrt(n!/(n+k)!) x^{k/2} e^{-x/2} L_n^k(x)
    on a 1-D array of x >= 0, by upward recurrence in n from l_0^k in log form,
    each k on its own: for n < steps, yields l_n^k(x) over the leading entries
    of the sorted integer array `ks` that keep n + k < max(steps, ks[-1] + 1),
    shape (rows, x.size).  A k missing from `ks` costs nothing."""
    k = np.asarray(ks, dtype=float)
    # the recurrence's coefficients at every (n, k), built once; row n - 1 serves step n
    nn = np.arange(1, steps, dtype=float)[:, None]
    lead = 2 * nn - 1 + k
    back = np.sqrt((nn - 1) * (nn - 1 + k))
    norm = np.sqrt(nn * (nn + k))
    log_factorial = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, k[-1] + 1)))])
    # rows[n]: how many of the ks stay inside the triangle at step n
    rows = np.searchsorted(ks, max(steps, int(ks[-1]) + 1) - np.arange(steps))
    # (k/2) log x, 0 at k = 0 and -inf above it at x = 0, so l_0^k(0) = [k = 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        power = k[:, None] / 2.0 * np.log(x)
    power[k == 0] = 0.0
    ell = np.exp(power - x / 2.0 - 0.5 * log_factorial[ks, None])  # l_0^k(x)
    ell_prev = np.zeros_like(ell)
    yield ell
    for n in range(1, steps):
        m = rows[n]
        ell, ell_prev = (((lead[n - 1, :m, None] - x) * ell[:m]
                          - back[n - 1, :m, None] * ell_prev[:m])
                         / norm[n - 1, :m, None]), ell[:m]
        yield ell


def radial_rows(alpha, rows: int, cols: int) -> np.ndarray:
    """The real factors r_nj of the exact elements <n|D(alpha)|j> = e^{i theta (n-j)} r_nj,
    n < rows, j < cols, of the untruncated D(alpha) = exp(alpha a^dag - alpha* a),
    theta = arg(alpha) (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)):

        r_nj = l_j^{n-j}(|alpha|^2)              (n >= j)
        r_nj = (-1)^{j-n} l_n^{j-n}(|alpha|^2)   (n < j)

    For an array of alpha the result has shape alpha.shape + (rows, cols),
    with one recurrence per distinct |alpha|.  Raises DomainError for a
    non-number alpha or a non-finite |alpha|^2, and TruncationError past
    MAX_DISPLACED_ENTRIES.
    """
    alpha = complex_array(alpha, "alpha")
    with np.errstate(over="ignore"):
        x = array(np.abs(alpha) ** 2, "|alpha|^2")
    width = max(rows, cols)
    bound(alpha.size * width * cols, MAX_DISPLACED_ENTRIES, "entry count of D(alpha)",
          TruncationError)
    # one recurrence per distinct radius (the corners of a symmetric grid share one)
    radii, which = np.unique(x, return_inverse=True)
    out = np.zeros((width, cols, radii.size))
    for j, ell in enumerate(laguerre_functions(radii, np.arange(width), cols)):
        out[j:, j] = ell
    out = out.transpose(2, 0, 1)[which.reshape(x.shape)]
    # the band n < j mirrors n > j: r_nj = (-1)^(j-n) r_jn
    n = np.arange(cols)
    square = out[..., :cols, :]
    square += np.swapaxes(square, -1, -2) * ((n[:, None] < n) * (-1.0) ** (n[:, None] + n))
    return out[..., :rows, :]


def turn(theta: float, n) -> np.ndarray:
    """e^{i theta n} for integers n.  At theta = k pi/2 with |k| <= 4 each
    factor is read from the quarter-turn table, so it is exactly +-1 or +-i;
    elsewhere it is np.exp(1j theta n)."""
    turns = float(theta) / (math.pi / 2.0)
    if turns.is_integer() and abs(turns) <= 4:
        return _QUARTER[(int(turns) * np.asarray(n)) % 4]
    return np.exp(1j * theta * np.asarray(n))


# ---------------------------------------------------------------------------
# state constructors


def fock_state(spec: HilbertSpec, n: int) -> FieldState:
    """|n>, for an integer 0 <= n < spec.dim (DomainError otherwise)."""
    amps = np.zeros(instance(spec, HilbertSpec, "spec").dim, dtype=complex)
    amps[number(n, "n", integral=True, minimum=0, maximum=spec.dim - 1)] = 1.0
    return FieldState(amps)


def vacuum(spec: HilbertSpec) -> FieldState:
    return fock_state(spec, 0)


def coherent_state(spec: HilbertSpec, alpha: complex) -> FieldState:
    """Coherent state D(alpha)|0>, c_n = e^{i theta n} l_0^n(|alpha|^2), theta =
    arg(alpha), with each term in log form (column 0 of ``radial_rows``) and
    e^{i theta n} from ``turn``, so |-alpha> is bitwise (-1)^n |alpha> and
    |i alpha> is i^n |alpha>; renormalized.  Raises DomainError for an
    alpha that is not one finite number, TruncationError for a tail above 1e-8.
    """
    if complex_array(alpha, "alpha").ndim:
        raise DomainError(f"an array of shape {np.shape(alpha)} is not one number (alpha)")
    dim = instance(spec, HilbertSpec, "spec").dim
    amps = radial_rows(alpha, dim, 1)[:, 0] * turn(np.angle(alpha), np.arange(dim))
    norm = np.linalg.norm(amps)
    bound(abs(1.0 - norm), 1e-8, f"coherent-state tail (dim {dim})", TruncationError)
    return FieldState(amps / norm)


def cat_state(spec: HilbertSpec, alpha: complex, psi1: float) -> FieldState:
    """(|alpha> + e^{i psi1} |-alpha>) / N1, N1 = sqrt(2[1 + cos(psi1) e^{-2|alpha|^2}]).
    At psi1 = k pi/2, |k| <= 4, e^{i psi1} is an exact quarter turn (``turn``),
    so the even (psi1 = 0) and odd (psi1 = pi) cats are exactly zero on the
    odd and even levels.  A non-finite psi1 or alpha raises DomainError."""
    phase = turn(number(psi1, "psi1"), 1)
    plus = coherent_state(spec, alpha).amplitudes
    n1_sq = 2.0 * (1.0 + phase.real * np.exp(-2.0 * abs(alpha) ** 2))
    n1 = np.sqrt(max(n1_sq, 0.0))
    if n1 < 1e-6:
        raise DegenerateStateError(
            f"cat normalization N1 = {n1:.2e} vanishes (psi1={psi1}, alpha={alpha})"
        )
    minus = plus * (-1.0) ** np.arange(spec.dim)  # <n|-alpha> = (-1)^n <n|alpha>
    amps = (plus + phase * minus) / n1
    bound(abs(np.linalg.norm(amps) - 1.0), 1e-10, "cat-state norm residual after truncation",
          TruncationError)
    return FieldState(amps)


def pure_to_density(state: FieldState) -> DensityOperator:
    """|psi><psi| of a FieldState (DomainError otherwise).  Raises
    TruncationError, before building it, for a matrix of more than
    MAX_DISPLACED_ENTRIES entries (dim > 1024)."""
    v = instance(state, FieldState, "state").amplitudes
    bound(v.size ** 2, MAX_DISPLACED_ENTRIES, f"entry count of a density matrix (dim {v.size})",
          TruncationError)
    return DensityOperator(np.outer(v, v.conj()))


def mix(states: list[FieldState], weights) -> DensityOperator:
    """Statistical mixture of FieldStates of one dimension (a list or tuple of
    them; DomainError otherwise), by real numbers (DomainError) >= 0 summing
    to 1 (WeightError)."""
    if not isinstance(states, (list, tuple)):
        raise DomainError(f"{type(states).__name__} is not a list or tuple (states)")
    rhos = [pure_to_density(instance(st, FieldState, "states")) for st in states]
    # weights that are not numbers are a DomainError, negative and NaN ones a WeightError
    if not np.all(complex_array(weights, "weights").real >= 0):
        raise WeightError(f"negative or NaN weight in {weights}")
    weights = array(weights, "weights")
    bound(abs(weights.sum() - 1.0), 1e-12, "|sum of weights - 1|", WeightError)
    if len(rhos) != weights.size:
        raise WeightError("states and weights differ in length")
    dim = rhos[0].dim
    out = np.zeros((dim, dim), dtype=complex)
    for rho, w in zip(rhos, weights):
        if rho.dim != dim:
            raise DomainError("all mixture components must share one dimension")
        out += w * rho.matrix
    return DensityOperator(out)


def promote(obj: DensityOperator, spec: HilbertSpec) -> DensityOperator:
    """Zero-pad a density operator into a larger space (DomainError if smaller)."""
    if instance(spec, HilbertSpec, "spec").dim < instance(obj, DensityOperator, "obj").dim:
        raise DomainError(f"cannot promote dim {obj.dim} down to {spec.dim}")
    if spec.dim == obj.dim:
        return obj
    mat = np.zeros((spec.dim, spec.dim), dtype=complex)
    mat[: obj.dim, : obj.dim] = obj.matrix
    return DensityOperator(mat)
