"""Phase-space representations of the cavity field.

Two independent constructions of the Wigner function are provided and
cross-checked by the test suite:

* ``wigner_point`` / ``wigner_map`` -- W(alpha) = 2 Tr[rho D(alpha) P D(alpha)^-1],
  normalized so that integral(d^2alpha/pi) W = 1 and |W| <= 2, evaluated
  by its Laguerre series over the diagonals of rho (Cahill & Glauber,
  Phys. Rev. 177, 1857 and 1882 (1969)).  The series is exact for the
  truncated state, so it runs in rho's own dimension with no displacement.
  Its costly radial part (a Laguerre recurrence) depends on |alpha| only:
  points are grouped by exactly equal x = 4|alpha|^2 and the recurrence
  runs once per distinct radius; each point then sums its angular factors
  e^{ik arg(alpha)} by Horner.
* ``wigner_position`` -- the position-representation integral
  (1/2pi) int e^{ipx} <q-x/2| rho |q+x/2> dx, evaluated with Hermite
  functions and Gauss-Hermite quadrature, then rescaled by 2pi to the
  same normalization.  The evaluation point is first rotated onto the
  positive q-axis (phase rotations are exact on the truncated space),
  which keeps the quadrature free of oscillatory factors and spectrally
  exact at any order `dim`.

Coordinates: alpha = (q1 + i q2)/sqrt(2); maps are sampled on quadrature
grids and the normalization sum uses the measure dq1 dq2 / (2 pi).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite

from .errors import DomainError, NonHermitianError, QuadratureError, TruncationError
from .fock import (DensityOperator, FieldState, HilbertSpec, laguerre_functions,
                   pure_to_density, quadrature_q1, quadrature_q2, require_hermitian)

BOUND = 2.0  # |W| <= 2 in this normalization


# ---------------------------------------------------------------------------
# grids and maps


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform rectangular grid in the quadrature plane (q1, q2)."""

    q1_min: float
    q1_max: float
    q2_min: float
    q2_max: float
    n1: int
    n2: int

    def __post_init__(self):
        if not np.all(np.isfinite([self.q1_min, self.q1_max, self.q2_min, self.q2_max])):
            raise DomainError("grid extents must be finite")
        if not (self.q1_max > self.q1_min and self.q2_max > self.q2_min):
            raise DomainError("grid extents must satisfy max > min")
        if self.n1 < 2 or self.n2 < 2:
            raise DomainError("grid needs at least 2 points per axis")

    @property
    def q1_axis(self) -> np.ndarray:
        return np.linspace(self.q1_min, self.q1_max, self.n1)

    @property
    def q2_axis(self) -> np.ndarray:
        return np.linspace(self.q2_min, self.q2_max, self.n2)

    @property
    def corner_radius(self) -> float:
        """Distance from the origin to the grid's farthest corner."""
        return math.hypot(max(abs(self.q1_min), self.q1_max),
                          max(abs(self.q2_min), self.q2_max))

    @property
    def cell_area(self) -> float:
        d1 = (self.q1_max - self.q1_min) / (self.n1 - 1)
        d2 = (self.q2_max - self.q2_min) / (self.n2 - 1)
        return d1 * d2

    def alpha_grid(self) -> np.ndarray:
        """alpha[i, j] for q1_axis[i], q2_axis[j]."""
        q1 = self.q1_axis[:, None]
        q2 = self.q2_axis[None, :]
        return (q1 + 1j * q2) / np.sqrt(2.0)

    def reflected(self) -> "PhaseSpaceGrid":
        return PhaseSpaceGrid(-self.q1_max, -self.q1_min, -self.q2_max, -self.q2_min,
                              self.n1, self.n2)


def default_grid(alpha_max: float, step: float = 0.075, pad: float = 4.0) -> PhaseSpaceGrid:
    """Figure-class grid: spans the state's lobes plus `pad` quadrature units."""
    span = np.sqrt(2.0) * abs(alpha_max) + pad
    if not math.isfinite(span):
        raise DomainError(f"grid span must be finite, got alpha_max {alpha_max}, pad {pad}")
    n = int(math.ceil(2.0 * span / step)) + 1
    return PhaseSpaceGrid(-span, span, -span, span, n, n)


@dataclass(frozen=True)
class WignerMap:
    """W sampled on a grid, alpha-normalized (|W| <= 2, sum*dA/2pi ~ 1)."""

    grid: PhaseSpaceGrid
    values: np.ndarray
    convention: str = "alpha-normalized"
    provenance: str = "exact"
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n1, self.grid.n2):
            raise ValueError(f"values shape {v.shape} != grid ({self.grid.n1}, {self.grid.n2})")
        object.__setattr__(self, "values", v)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def normalization_sum(self) -> float:
        return float(self.values.sum() * self.grid.cell_area / (2.0 * np.pi))

    def check_bound(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise DomainError("W has non-finite values")
        if self.max_abs() > BOUND + 1e-8:
            raise DomainError(f"|W| = {self.max_abs()} exceeds bound {BOUND} + 1e-8")


# ---------------------------------------------------------------------------
# Laguerre-series construction

# distinct radii per radial block, times dim: keeps each
# (dim, radii) work array near 4 MB however large the grid
_BLOCK = 1 << 18


def _radial_sums(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S_k(x) = sum_n (-1)^n rho_{n,n+k} l_n^k(x) for every diagonal k < dim,
    shape (dim, x.size)."""
    dim = mat.shape[0]
    ells = laguerre_functions(x, dim, dim)
    sums = mat[0, :, None] * next(ells)
    for n, ell in enumerate(ells, start=1):
        sums[:dim - n] += (-1) ** n * mat[n, n:, None] * ell
    return sums


def _laguerre_series(rho: DensityOperator, alphas) -> tuple[np.ndarray, int]:
    """W(alpha) = 2 Tr[rho D(alpha) P D(alpha)^-1] on an array of alpha, from
    the Laguerre series over the diagonals of rho (Cahill & Glauber 1969):

        W = 2 Re[S_0(x) + 2 sum_{k>=1} S_k(x) z^k],
        S_k(x) = sum_n (-1)^n rho_{n,n+k} l_n^k(x),

    with x = 4|alpha|^2, z = e^{i arg(alpha)} and the normalised Laguerre
    functions l_n^k of ``fock.laguerre_functions``.  The series is exact for
    the truncated state, so it runs in rho's own dimension.

    Only the radial sums S_k need the O(dim^2) recurrence, and they depend
    on x alone.  The points are sorted by x and grouped by exact float
    equality (no tolerance, so every point sees the x it would have had on
    its own); the recurrence runs once per distinct x, in blocks of at most
    _BLOCK // dim radii.  Each point then sums its angles by Horner in z.
    Returns the values, shaped as `alphas`, and the number of distinct radii.
    """
    mat = require_hermitian(rho)
    alphas = np.asarray(alphas, dtype=complex)
    flat = alphas.ravel()
    with np.errstate(over="ignore"):
        x = 4.0 * np.abs(flat) ** 2
    if not np.all(np.isfinite(x)):
        raise DomainError("alpha must be finite, with 4|alpha|^2 in float range")
    order = np.argsort(x, kind="stable")
    x = x[order]
    # bounds[r]:bounds[r + 1] is the run of sorted points at the r-th distinct x
    bounds = np.flatnonzero(np.diff(x, prepend=-1.0, append=np.inf))
    radii = bounds.size - 1
    out = np.empty(flat.size)
    step = max(1, _BLOCK // rho.dim)
    for r in range(0, radii, step):
        runs = bounds[r:r + step + 1]
        sums = _radial_sums(mat, x[runs[:-1]])
        pts = order[runs[0]:runs[-1]]
        which = np.repeat(np.arange(runs.size - 1), np.diff(runs))
        z = np.exp(1j * np.angle(flat[pts]))
        acc = np.zeros(pts.size, dtype=complex)  # sum_{k>=1} S_k z^k by Horner
        for row in sums[:0:-1]:
            acc += row[which]
            acc *= z
        out[pts] = 2.0 * (sums[0, which].real + 2.0 * acc.real)
    return out.reshape(alphas.shape), radii


def wigner_point(rho: DensityOperator, alpha: complex) -> float:
    """W(alpha) = 2 Tr[rho D(alpha) P D(alpha)^-1], by the Laguerre series."""
    return float(_laguerre_series(rho, alpha)[0])


def wigner_map(rho: DensityOperator, grid: PhaseSpaceGrid) -> WignerMap:
    """W over the grid by the Laguerre series, with bound/normalization checks."""
    values, radii = _laguerre_series(rho, grid.alpha_grid())
    wm = WignerMap(grid, values,
                   diagnostics={"max_abs": float(np.max(np.abs(values))),
                                "eval_dim": rho.dim, "distinct_radii": radii})
    wm.check_bound()
    wm.diagnostics["normalization_sum"] = wm.normalization_sum()
    return wm


# ---------------------------------------------------------------------------
# position-representation construction


def hermite_functions(x, nmax: int) -> np.ndarray:
    """Oscillator eigenfunctions psi_n(x), n < nmax, by stable upward recurrence."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((nmax, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    if nmax > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(2, nmax):
        out[n] = np.sqrt(2.0 / n) * x * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


@lru_cache(maxsize=32)
def _gh_nodes(order: int):
    x, w = roots_hermite(order)
    return x, w * np.exp(x * x)  # total weights for integrands carrying e^{-x^2}


def _rotated(mat: np.ndarray, theta: float) -> np.ndarray:
    """e^{-i theta n} rho e^{i theta n}: phase space turned by -theta, which
    brings the quadrature at angle theta onto the q1 axis."""
    ph = np.exp(-1j * theta * np.arange(mat.shape[0]))
    return mat * np.multiply.outer(ph, ph.conj())


def _axis_position_integral(rho_mat: np.ndarray, q: float, order: int) -> float:
    dim = rho_mat.shape[0]
    u, wts = _gh_nodes(order)
    psi_minus = hermite_functions(q - u, dim)
    psi_plus = hermite_functions(q + u, dim)
    a = rho_mat @ psi_plus
    val = 2.0 * complex(np.einsum("k,mk,mk->", wts, psi_minus, a))
    return float(val.real), float(abs(val.imag))


def wigner_position(rho: DensityOperator, q: float, p: float) -> float:
    """W from the position-representation integral, rescaled by 2pi so that
    wigner_position(rho, q, p) == wigner_point(rho, (q + i p)/sqrt(2))."""
    if not (np.isfinite(q) and np.isfinite(p)):
        raise DomainError(f"(q, p) must be finite, got ({q}, {p})")
    rotated, q_axis = _rotated(rho.matrix, math.atan2(p, q)), math.hypot(q, p)
    order = rho.dim + 32
    val, imag = _axis_position_integral(rotated, q_axis, order)
    if imag > 1e-6:
        raise NonHermitianError(f"position-integral imaginary residue {imag:.3e}")
    check, _ = _axis_position_integral(rotated, q_axis, order + 24)
    if abs(check - val) > 1e-9 * max(1.0, abs(val)):
        raise QuadratureError(
            f"Gauss-Hermite orders {order}/{order + 24} disagree by {abs(check - val):.3e}"
        )
    return val


# ---------------------------------------------------------------------------
# marginals


def marginal_distribution(rho: DensityOperator, theta, q_theta) -> np.ndarray:
    """P(q_theta) = <q_theta| rho |q_theta>, q_theta = q1 cos(theta) + q2 sin(theta),
    shaped np.shape(theta) + np.shape(q_theta): one row per angle, all from one
    Hermite table.  rho turned by -theta brings q_theta onto the q1 axis, where
    the Hermite functions are real: each row is one real product with Re(rho)."""
    thetas = np.asarray(theta, dtype=float)
    bad = thetas[~((thetas >= 0.0) & (thetas < np.pi))]
    if bad.size:
        raise DomainError(f"theta must lie in [0, pi), got {bad[0]}")
    mat = require_hermitian(rho)
    psi = hermite_functions(q_theta, rho.dim)
    out = np.empty((thetas.size, psi.shape[1]))
    for row, th in zip(out, thetas.ravel()):
        row[:] = np.sum(psi * (_rotated(mat, th).real @ psi), axis=0)
    out = out.reshape(thetas.shape + np.shape(q_theta))
    return out if out.ndim else float(out)


def radon_of_map(wmap: WignerMap, theta: float, q_out=None) -> tuple[np.ndarray, np.ndarray]:
    """Line-integral marginal of a sampled map: P(q_theta) = int W_qp ds along
    the direction conjugate to theta.  Returns (q_theta values, P values)."""
    if not 0.0 <= theta < np.pi:
        raise DomainError(f"theta must lie in [0, pi), got {theta}")
    g = wmap.grid
    if q_out is None:
        half = min(g.q1_max, g.q2_max)
        q_out = np.linspace(-half, half, max(g.n1, g.n2))
    q_out = np.atleast_1d(np.asarray(q_out, dtype=float))
    step = min((g.q1_max - g.q1_min) / (g.n1 - 1), (g.q2_max - g.q2_min) / (g.n2 - 1))
    s = np.arange(-g.corner_radius, g.corner_radius + step, step)
    c, sn = np.cos(theta), np.sin(theta)
    pts1 = q_out[:, None] * c - s[None, :] * sn
    pts2 = q_out[:, None] * sn + s[None, :] * c
    vals = _bilinear(g.q1_axis, g.q2_axis, wmap.values / (2.0 * np.pi), pts1, pts2)
    return q_out, np.trapezoid(vals, dx=step, axis=1)


def _bilinear(axis1: np.ndarray, axis2: np.ndarray, values: np.ndarray,
              pts1: np.ndarray, pts2: np.ndarray) -> np.ndarray:
    """values[i, j] on (axis1[i], axis2[j]) interpolated bilinearly at the
    points (pts1, pts2); zero outside the grid."""
    i = np.clip(np.searchsorted(axis1, pts1) - 1, 0, axis1.size - 2)
    j = np.clip(np.searchsorted(axis2, pts2) - 1, 0, axis2.size - 2)
    t = (pts1 - axis1[i]) / (axis1[i + 1] - axis1[i])
    u = (pts2 - axis2[j]) / (axis2[j + 1] - axis2[j])
    out = ((values[i, j] * (1 - t) + values[i + 1, j] * t) * (1 - u)
           + (values[i, j + 1] * (1 - t) + values[i + 1, j + 1] * t) * u)
    outside = ((pts1 < axis1[0]) | (pts1 > axis1[-1])
               | (pts2 < axis2[0]) | (pts2 > axis2[-1]))
    return np.where(outside, 0.0, out)


# ---------------------------------------------------------------------------
# Moyal averages


@dataclass(frozen=True)
class MoyalResult:
    operator_value: float
    integral_value: float
    discrepancy: float


def _symmetrized_word(dim: int, m: int, n: int) -> np.ndarray:
    """Average of all distinct orderings of m factors q1 and n factors q2."""
    spec = HilbertSpec(dim)
    qop, pop = quadrature_q1(spec), quadrature_q2(spec)
    letters = ("q",) * m + ("p",) * n
    orders = sorted(set(itertools.permutations(letters)))  # a fixed summation order
    acc = np.zeros((dim, dim), dtype=complex)
    for order in orders:
        term = np.eye(dim, dtype=complex)
        for letter in order:
            term = term @ (qop if letter == "q" else pop)
        acc += term
    return acc / len(orders)


def _support_radius(rho: DensityOperator) -> float:
    """Fock-shell radius: sqrt(n_eff + 1) with n_eff the last level carrying
    more than 1e-10 population.  Bounds the extent of quadrature marginals."""
    p = np.abs(rho.diagonal())
    idx = np.nonzero(p > 1e-10)[0]
    n_eff = int(idx[-1]) if idx.size else 0
    return math.sqrt(n_eff + 1.0)


def moyal_grid_integral(rho: DensityOperator, monomials) -> dict[tuple[int, int], float]:
    """Phase-space integrals int dq dp W_qp q^m p^n for several monomials,
    sharing one Laguerre-series evaluation on a grid of step 0.2 over a disc
    covering the state; grid points outside the disc are not evaluated.

    The disc is the state's Fock-shell radius plus 4 (alpha units), which
    bounds the discarded Gaussian tail: contributions beyond the disc are
    O(e^{-32} poly) < 1e-9 for degree <= 4.
    """
    disc = _support_radius(rho) + 4.0
    extent = np.sqrt(2.0) * disc            # bounding square in quadrature units
    axis = np.arange(-extent, extent + 0.1, 0.2)  # step 0.2 out to +extent
    q1, q2 = np.meshgrid(axis, axis, indexing="ij")
    inside = (q1 ** 2 + q2 ** 2) / 2.0 <= disc ** 2
    w_vals = np.zeros(q1.shape)
    w_vals[inside] = _laguerre_series(rho, (q1[inside] + 1j * q2[inside]) / np.sqrt(2.0))[0]
    out = {}
    for (m, n) in monomials:
        integrand = w_vals * q1 ** m * q2 ** n / (2.0 * np.pi)
        out[(m, n)] = float(integrand.sum() * 0.2 * 0.2)
    return out


def moyal_average(rho: DensityOperator, monomial: tuple[int, int]) -> MoyalResult:
    """Both sides of the symmetric-ordering correspondence for q^m p^n."""
    m, n = monomial
    if m < 0 or n < 0 or m + n > 4:
        raise TruncationError(f"monomial degree {m + n} outside the guarded range (<= 4)")
    # the symmetrized word couples levels at most (degree) apart, so only the
    # top few levels can feed truncation error into the operator-side trace
    margin = m + n + 2
    margin_pop = float(np.sum(np.abs(rho.diagonal()[max(0, rho.dim - margin):])))
    if margin_pop > 1e-10:
        raise TruncationError(
            f"state occupies the top {margin} Fock levels (mass {margin_pop:.2e}); "
            "enlarge dim"
        )
    op = _symmetrized_word(rho.dim, m, n)
    op_val = float(np.real(np.trace(rho.matrix @ op)))
    int_val = moyal_grid_integral(rho, [monomial])[monomial]
    return MoyalResult(op_val, int_val, abs(op_val - int_val))


# ---------------------------------------------------------------------------
# photon statistics and the marginals-only ambiguity


def photon_number_distribution(rho: DensityOperator) -> np.ndarray:
    p = rho.diagonal()
    if abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"diagonal sums to {p.sum()}, not 1 within 1e-10")
    return p


@dataclass(frozen=True)
class PauliPair:
    """Two states sharing both position and momentum marginals."""

    state_a: FieldState
    state_b: FieldState
    evidence: dict


def pauli_counterexample(spec: HilbertSpec) -> PauliPair:
    """Conjugate pair (|0> + i|2>)/sqrt(2), (|0> - i|2>)/sqrt(2): identical
    position AND momentum marginals, different Wigner functions."""
    if spec.dim < 3:
        raise DomainError("need dim >= 3 for the counterexample")
    amps = np.zeros(spec.dim, dtype=complex)
    amps[0], amps[2] = 1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)
    state_a = FieldState(amps)
    state_b = FieldState(amps.conj())
    rho_a, rho_b = pure_to_density(state_a), pure_to_density(state_b)
    qs, angles = np.linspace(-6.0, 6.0, 241), [0.0, np.pi / 2, np.pi / 4]
    dev0, dev90, dev45 = np.max(np.abs(marginal_distribution(rho_a, angles, qs)
                                       - marginal_distribution(rho_b, angles, qs)),
                                axis=1).tolist()
    probe = default_grid(2.0, step=0.15)
    wig_dev = float(np.max(np.abs(wigner_map(rho_a, probe).values
                                  - wigner_map(rho_b, probe).values)))
    return PauliPair(state_a, state_b, {
        "marginal_dev_theta_0": dev0,
        "marginal_dev_theta_90": dev90,
        "marginal_dev_theta_45": dev45,
        "wigner_sup_deviation": wig_dev,
    })


# ---------------------------------------------------------------------------
# fringe diagnostics (cat-state interference region)


def fringe_contrast(wmap: WignerMap) -> float:
    """Peak-to-trough swing of W inside the interference strip |q1| <= 0.5
    between the lobes of a cat aligned with q1."""
    vals = wmap.values[np.abs(wmap.grid.q1_axis) <= 0.5]
    return float(vals.max() - vals.min())
