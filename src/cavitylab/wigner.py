"""Phase-space representations of the cavity field.

Two independent constructions of the Wigner function are provided and
cross-checked by the test suite:

* ``wigner_point`` / ``wigner_map`` -- W(alpha) = 2 Tr[rho D(alpha) P D(alpha)^-1],
  normalized so that integral(d^2alpha/pi) W = 1 and |W| <= 2, evaluated
  by its Laguerre series over the live diagonals of rho (Cahill & Glauber,
  Phys. Rev. 177, 1857 and 1882 (1969)), in rho's own dimension with no
  displacement, one radial recurrence per distinct |alpha| (``_laguerre_series``).
  Grid axes are exactly antisymmetric on symmetric extents, so mirror points
  share one radius, and a real rho's map is evaluated on q2 <= 0 and reflected.
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
from numpy.polynomial.hermite import hermgauss

from .errors import (DomainError, NonHermitianError, QuadratureError, TruncationError, array,
                     bound, complex_array, instance, number)
from .fock import (DensityOperator, HilbertSpec, laguerre_functions, quadrature_q1,
                   quadrature_q2)

BOUND = 2.0  # |W| <= 2 in this normalization

# most nodes a PhaseSpaceGrid may hold (2048^2): a map's complex alpha array
# is then 64 MB
MAX_GRID_NODES = 1 << 22


# ---------------------------------------------------------------------------
# grids and maps


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform rectangular grid in the quadrature plane (q1, q2).

    Each axis is c + h u_i with c and h the midpoint and half-width of its
    extents and u_i = (2i - (n - 1))/(n - 1), its ends set to exactly the
    extents.  On symmetric extents an axis is therefore bitwise
    antisymmetric (axis == -axis[::-1], centre exactly 0.0 at odd n), so
    mirror points share |alpha| exactly and share one radial recurrence in
    the map kernel; a reflected grid's axes are the negated, reversed axes.
    Non-finite extents or max <= min, node counts that are not integers >= 2
    (kept as ints) and more than MAX_GRID_NODES nodes are refused
    (DomainError) before any array is built.
    """

    q1_min: float
    q1_max: float
    q2_min: float
    q2_max: float
    n1: int
    n2: int

    def __post_init__(self):
        for name in ("q1_min", "q1_max", "q2_min", "q2_max"):
            number(getattr(self, name), name)
        for name in ("n1", "n2"):
            object.__setattr__(self, name,
                               number(getattr(self, name), name, integral=True, minimum=2))
        if not (self.q1_max > self.q1_min and self.q2_max > self.q2_min):
            raise DomainError("grid extents must satisfy max > min")
        bound(self.n1 * self.n2, MAX_GRID_NODES, f"node count of a grid ({self.n1} x {self.n2})",
              DomainError)

    @property
    def q1_axis(self) -> np.ndarray:
        return _axis(self.q1_min, self.q1_max, self.n1)

    @property
    def q2_axis(self) -> np.ndarray:
        return _axis(self.q2_min, self.q2_max, self.n2)

    @property
    def spacing(self) -> tuple[float, float]:
        """The steps (dq1, dq2) between neighbouring nodes."""
        return ((self.q1_max - self.q1_min) / (self.n1 - 1),
                (self.q2_max - self.q2_min) / (self.n2 - 1))

    @property
    def corner_radius(self) -> float:
        """Distance from the origin to the grid's farthest corner."""
        return math.hypot(max(abs(self.q1_min), self.q1_max),
                          max(abs(self.q2_min), self.q2_max))

    @property
    def cell_area(self) -> float:
        d1, d2 = self.spacing
        return d1 * d2

    def alpha_grid(self) -> np.ndarray:
        """alpha[i, j] for q1_axis[i], q2_axis[j]."""
        q1 = self.q1_axis[:, None]
        q2 = self.q2_axis[None, :]
        return (q1 + 1j * q2) / np.sqrt(2.0)

    def reflected(self) -> "PhaseSpaceGrid":
        return PhaseSpaceGrid(-self.q1_max, -self.q1_min, -self.q2_max, -self.q2_min,
                              self.n1, self.n2)


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    u = (2.0 * np.arange(n) - (n - 1)) / (n - 1)
    axis = (0.5 * lo + 0.5 * hi) + (0.5 * hi - 0.5 * lo) * u
    axis[0], axis[-1] = lo, hi
    return axis


def default_grid(alpha_max: float, step: float = 0.075, pad: float = 4.0) -> PhaseSpaceGrid:
    """Figure-class grid: spans the state's lobes plus `pad` >= 0 quadrature
    units, at a `step` > 0, each finite, as is the node count (DomainError)."""
    span = np.sqrt(2.0) * abs(number(alpha_max, "alpha_max")) + number(pad, "pad", minimum=0)
    cells = 2.0 * span / number(step, "step", exclusive_minimum=0)
    n = int(math.ceil(number(cells, "2 span / step"))) + 1
    return PhaseSpaceGrid(-span, span, -span, span, n, n)


@dataclass(frozen=True)
class WignerMap:
    """W sampled on a grid, alpha-normalized (|W| <= 2, sum*dA/2pi ~ 1): values
    of the grid's shape whose entries are finite real numbers (DomainError,
    ``errors.array``).  Its `diagnostics` is a new dict: the caller's dict's
    entries and the map's own `max_abs` (max |W|) and `normalization_sum`."""

    grid: PhaseSpaceGrid
    values: np.ndarray
    provenance: str = "exact"
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = instance(self.grid, PhaseSpaceGrid, "grid")
        v = array(self.values, "values")
        if v.shape != (grid.n1, grid.n2):
            raise DomainError(f"values shape {v.shape} != grid ({grid.n1}, {grid.n2})")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "diagnostics", {
            **instance(self.diagnostics, dict, "diagnostics"),
            "max_abs": float(np.max(np.abs(v))),
            "normalization_sum": float(v.sum() * grid.cell_area / (2.0 * np.pi))})


# ---------------------------------------------------------------------------
# Laguerre-series construction

# distinct radii per radial block, times the number of live diagonals:
# keeps each real (diagonals, radii) work array near 2 MB however large the grid
_BLOCK = 1 << 18


def _radial_sums(mat: np.ndarray, ks: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
    """S_k(x) = sum_n (-1)^n rho_{n,n+k} l_n^k(x) for the diagonals k in `ks`,
    as real arrays of shape (ks.size, x.size): [Re S], or [Re S, Im S] when
    rho has an imaginary part.  Both sum on one real recurrence over those k
    alone; an exactly real rho has no Im pass."""
    dim = mat.shape[0]
    rows = np.arange(dim)[:, None]
    # coefs[n, i] = (-1)^n rho_{n, n + ks[i]}; entries past the edge are never read
    coefs = mat[rows, np.minimum(rows + ks, dim - 1)] * (-1.0) ** rows
    parts = [coefs.real] + ([coefs.imag] if mat.imag.any() else [])
    ells = laguerre_functions(x, ks, dim)
    ell = next(ells)
    sums = [part[0, :, None] * ell for part in parts]
    for n, ell in enumerate(ells, start=1):
        m = ell.shape[0]  # the live k with n + k < dim
        for acc, part in zip(sums, parts):
            acc[:m] += part[n, :m, None] * ell
    return sums


def _laguerre_series(rho: DensityOperator, alphas) -> tuple[np.ndarray, int]:
    """W(alpha) = 2 Tr[rho D(alpha) P D(alpha)^-1] on an array of alpha, from
    the Laguerre series over the diagonals of rho (Cahill & Glauber 1969):

        W = 2 Re[S_0(x) + 2 sum_{k>=1} S_k(x) z^k],
        S_k(x) = sum_n (-1)^n rho_{n,n+k} l_n^k(x),

    with x = 4|alpha|^2, z = e^{i arg(alpha)} and the normalised Laguerre
    functions l_n^k of ``fock.laguerre_functions``.  The series is exact for
    the truncated state, so it runs in rho's own dimension, and only over the
    live diagonals (``DensityOperator.live``): the k whose diagonal of rho is
    not exactly zero (the even k of a parity cat, k = 0 alone for a Fock
    state or a number mixture).

    Only the radial sums S_k need the O(dim^2) recurrence, and they depend
    on x alone.  The points are sorted by x and grouped by exact float
    equality (no tolerance, so every point sees the x it would have had on
    its own); the recurrence runs once per distinct x, in blocks of at most
    _BLOCK // (live diagonals) radii, in real arithmetic.  Each point then
    sums its angles by Horner in w = z^g, g the gcd of the live k > 0: a
    multiple of g whose diagonal is zero adds nothing at its step.  Returns
    the values, shaped as `alphas`, and the number of distinct radii.
    """
    mat, ks = rho.matrix, rho.live
    g = int(np.gcd.reduce(ks)) or 1
    # slot[j]: the row of S_{jg} among the live diagonals, -1 where that one is zero
    slot = np.full(ks[-1] // g + 1, -1)
    slot[ks // g] = np.arange(ks.size)
    alphas = complex_array(alphas, "alpha")
    flat = alphas.ravel()
    with np.errstate(over="ignore"):
        x = array(4.0 * np.abs(flat) ** 2, "4|alpha|^2")
    order = np.argsort(x, kind="stable")
    x = x[order]
    # bounds[r]:bounds[r + 1] is the run of sorted points at the r-th distinct x
    bounds = np.flatnonzero(np.diff(x, prepend=-1.0, append=np.inf))
    radii = bounds.size - 1
    out = np.empty(flat.size)
    step = max(1, _BLOCK // ks.size)
    for r in range(0, radii, step):
        runs = bounds[r:r + step + 1]
        sums = _radial_sums(mat, ks, x[runs[:-1]])
        pts = order[runs[0]:runs[-1]]
        which = np.repeat(np.arange(runs.size - 1), np.diff(runs))
        acc = np.zeros(pts.size, dtype=complex)  # sum_{k>=1} S_k z^k by Horner in z^g
        if slot.size > 1:
            w = np.exp(1j * (g * np.angle(flat[pts])))
            # the product goes to a second buffer: numpy's in-place complex
            # product rounds a one-element array differently, and a point
            # must read as its map
            spare = np.empty_like(acc)
            for i in slot[:0:-1]:
                if i >= 0:
                    for acc_part, part in zip((acc.real, acc.imag), sums):
                        acc_part += part[i, which]
                acc, spare = np.multiply(acc, w, out=spare), acc
        out[pts] = 2.0 * (sums[0][0, which] + 2.0 * acc.real)
    return out.reshape(alphas.shape), radii


def wigner_point(rho: DensityOperator, alpha):
    """W(alpha) = 2 Tr[rho D(alpha) P D(alpha)^-1], by the Laguerre series, at
    one alpha (a number) or an array of them (an array shaped like `alpha`),
    each value bit for bit the one-point call's; DomainError for an alpha
    that is not a finite number."""
    return _laguerre_series(instance(rho, DensityOperator, "rho"), alpha)[0][()]


def wigner_map(rho: DensityOperator, grid: PhaseSpaceGrid) -> WignerMap:
    """W over the grid by the Laguerre series, refused past the |W| bound.

    A real rho has W(conj alpha) = W(alpha), and on a q2 axis that is bitwise
    antisymmetric (every symmetric grid) the series gives it bit for bit:
    arg, sin and the conjugate products of the Horner sum all change sign
    exactly.  There only the columns with q2 <= 0 are evaluated, and the
    others are filled by reversal."""
    rho = instance(rho, DensityOperator, "rho")
    alphas = instance(grid, PhaseSpaceGrid, "grid").alpha_grid()
    q2 = grid.q2_axis
    if not rho.matrix.imag.any() and np.array_equal(q2, -q2[::-1]):
        half, radii = _laguerre_series(rho, alphas[:, :(q2.size + 1) // 2])
        values = np.concatenate([half, half[:, ::-1][:, q2.size % 2:]], axis=1)
    else:
        values, radii = _laguerre_series(rho, alphas)
    # the bound before the map's entry rule, which would refuse a non-finite
    # value in `values`: NaN or inf makes max |W| NaN or inf, which it refuses
    bound(float(np.max(np.abs(values))), BOUND + 1e-8, "max |W|", DomainError)
    return WignerMap(grid, values, diagnostics={"eval_dim": rho.dim, "distinct_radii": radii})


# ---------------------------------------------------------------------------
# position-representation construction


def hermite_functions(x, nmax: int) -> np.ndarray:
    """Oscillator eigenfunctions psi_n(x), n < nmax, by stable upward recurrence."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax, x.size))
    with np.errstate(over="ignore"):  # past |x| ~ 1e154, x^2 is inf and psi_0 reads 0
        out[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    if nmax > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    # psi_n = sqrt(2/n) x psi_{n-1} - sqrt((n-1)/n) psi_{n-2}, in place
    tmp = np.empty(x.size)
    for n in range(2, nmax):
        np.multiply(x, math.sqrt(2.0 / n), out=tmp)
        tmp *= out[n - 1]
        np.multiply(out[n - 2], math.sqrt((n - 1) / n), out=out[n])
        np.subtract(tmp, out[n], out=out[n])
    return out


_GH_MAX_ORDER = 370  # numpy's hermgauss overflows from order 371 on


@lru_cache(maxsize=32)
def _gh_nodes(order: int):
    x, w = hermgauss(order)
    return x, w * np.exp(x * x)  # total weights for integrands carrying e^{-x^2}


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
    wigner_position(rho, q, p) == wigner_point(rho, (q + i p)/sqrt(2)).
    Its Gauss-Hermite orders dim + 32 and dim + 56 limit it to dim <= 314
    (QuadratureError above), and q and p must be finite (DomainError)."""
    q, p = number(q, "q"), number(p, "p")
    order = instance(rho, DensityOperator, "rho").dim + 32
    bound(order + 24, _GH_MAX_ORDER, f"Gauss-Hermite order (dim {rho.dim})", QuadratureError)
    # e^{-i theta n} rho e^{i theta n}, theta = arg(q + ip), turns the point onto q1
    ph = np.exp(-1j * math.atan2(p, q) * np.arange(rho.dim))
    rotated, q_axis = rho.matrix * np.multiply.outer(ph, ph.conj()), math.hypot(q, p)
    val, imag = _axis_position_integral(rotated, q_axis, order)
    bound(imag, 1e-6, "position-integral imaginary residue", NonHermitianError)
    check, _ = _axis_position_integral(rotated, q_axis, order + 24)
    bound(abs(check - val), 1e-9 * max(1.0, abs(val)),
          f"Gauss-Hermite disagreement (orders {order}, {order + 24})", QuadratureError)
    return val


# ---------------------------------------------------------------------------
# marginals


# nodes per block of the Hermite table in marginal_distribution: the table
# lives one block at a time, so the c_k and the output are the call's only
# full-size arrays
_NODE_BLOCK = 1 << 10


def marginal_distribution(rho: DensityOperator, theta, q_theta) -> np.ndarray:
    """P(q_theta) = <q_theta| rho |q_theta>, q_theta = q1 cos(theta) + q2 sin(theta),
    shaped np.shape(theta) + np.shape(q_theta): one row per angle.  rho turned
    by -theta brings q_theta onto the q1 axis, where the Hermite functions psi_n
    are real, and the turn multiplies the k-th lower diagonal of rho by
    e^{-ik theta}, so each row sums the diagonals of rho:

        P_theta(q) = sum_k w_k [cos(k theta) Re c_k(q) + sin(k theta) Im c_k(q)],
        c_k(q) = sum_n rho_{n+k,n} psi_n(q) psi_{n+k}(q),

    with w_0 = 1 and w_k = 2 (the upper diagonals are the conjugates).  The
    c_k are built once for every angle, from one Hermite table taken
    _NODE_BLOCK nodes at a time, over rho's live diagonals alone
    (``DensityOperator.live``: not the odd ones of a parity cat), and the
    sine half is dropped when rho is real.  Each row is then one product of
    its own angle's factors with the c_k, so an angle's row does not depend
    on the other angles in the call.  An angle outside [0, pi) or
    a non-finite q_theta raises DomainError."""
    thetas = array(theta, "theta", minimum=0, below=np.pi)
    nodes = array(q_theta, "q_theta").ravel()
    mat, ks = instance(rho, DensityOperator, "rho").matrix, rho.live
    halves = 2 if mat.imag.any() else 1
    coefs = [np.array([diag.real, diag.imag][:halves]) for diag in map(mat.diagonal, -ks)]
    c = np.empty((ks.size, halves, nodes.size))  # Re c_k and (halves == 2) Im c_k
    for s in range(0, nodes.size, _NODE_BLOCK):
        psi = hermite_functions(nodes[s:s + _NODE_BLOCK], rho.dim)
        for i, k in enumerate(ks):
            c[i, :, s:s + _NODE_BLOCK] = np.dot(coefs[i], psi[:rho.dim - k] * psi[k:])
    c = c.reshape(ks.size * halves, nodes.size)
    turns = np.multiply.outer(thetas.ravel(), ks)
    weights = np.where(ks > 0, 2.0, 1.0)
    factors = np.stack([weights * np.cos(turns), weights * np.sin(turns)][:halves],
                       axis=-1).reshape(thetas.size, c.shape[0])
    out = np.empty((thetas.size, c.shape[1]))
    for e_row, row in zip(factors, out):
        np.dot(e_row, c, out=row)
    out = out.reshape(thetas.shape + np.shape(q_theta))
    return out if out.ndim else float(out)


# line points per block of radon_of_map: keeps its work arrays near 64 kB,
# in cache, however long the lines and however many there are
_LINE_BLOCK = 1 << 13


def radon_of_map(wmap: WignerMap, theta) -> tuple[np.ndarray, np.ndarray]:
    """Line-integral marginals of a sampled map: P(q_theta) = int W_qp ds along
    the direction conjugate to theta, at one angle or an array of angles in
    [0, pi).  Returns (q, P): the q_theta values, max(n1, n2) points over
    [-h, h] with h = min(q1_max, q2_max), and P shaped np.shape(theta) + q.shape,
    one row per angle, each computed as the one-angle call computes it."""
    thetas = array(theta, "theta", minimum=0, below=np.pi)
    g = instance(wmap, WignerMap, "wmap").grid
    half = min(g.q1_max, g.q2_max)
    qs = np.linspace(-half, half, max(g.n1, g.n2))
    step = min(g.spacing)
    s = np.arange(-g.corner_radius, g.corner_radius + step, step)
    values = wmap.values / (2.0 * np.pi)
    out = np.empty((thetas.size, qs.size))
    rows = max(1, _LINE_BLOCK // s.size)
    for angle, line in zip(thetas.ravel().tolist(), out):
        c, sn = np.cos(angle), np.sin(angle)
        for r in range(0, qs.size, rows):
            q = qs[r:r + rows, None]
            vals = _bilinear(g, values, q * c - s * sn, q * sn + s * c)
            line[r:r + rows] = np.trapezoid(vals, dx=step, axis=1)
    return qs, out.reshape(thetas.shape + qs.shape)


def _bilinear(grid: PhaseSpaceGrid, values: np.ndarray,
              pts1: np.ndarray, pts2: np.ndarray) -> np.ndarray:
    """values[i, j] at (q1_axis[i], q2_axis[j]) interpolated bilinearly at the
    points (pts1, pts2); zero outside the grid.  The grid is uniform, so each
    point's cell is floor((p - q_min)/dq), clipped to the grid's cells."""
    d1, d2 = grid.spacing
    t = (pts1 - grid.q1_min) / d1
    u = (pts2 - grid.q2_min) / d2
    i = np.minimum(np.maximum(np.floor(t), 0), grid.n1 - 2)
    j = np.minimum(np.maximum(np.floor(u), 0), grid.n2 - 2)
    t -= i
    u -= j
    corner = (i * grid.n2 + j).astype(np.intp)
    flat = values.ravel()
    lo = flat[corner] * (1 - t) + flat[corner + grid.n2] * t
    hi = flat[corner + 1] * (1 - t) + flat[corner + grid.n2 + 1] * t
    out = lo * (1 - u) + hi * u
    out[(pts1 < grid.q1_min) | (pts1 > grid.q1_max)
        | (pts2 < grid.q2_min) | (pts2 > grid.q2_max)] = 0.0
    return out


# ---------------------------------------------------------------------------
# Moyal averages


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


def moyal_grid_integral(rho: DensityOperator, monomials) -> dict[tuple[int, int], float]:
    """Phase-space integrals int dq dp W_qp q^m p^n for several monomials,
    sharing one ``wigner_map`` on a square grid of step 0.2 that bounds a
    disc covering the state.  The grid has an odd node count on symmetric
    extents, so its axes are exactly antisymmetric and mirror points share
    one radial recurrence.

    The disc is the state's Fock-shell radius (``DensityOperator.support_radius``)
    plus 4 (alpha units), which bounds the discarded Gaussian tail:
    contributions beyond the disc are O(e^{-32} poly) < 1e-9 for degree <= 4.
    """
    disc = rho.support_radius + 4.0
    half = math.ceil(np.sqrt(2.0) * disc / 0.2)  # nodes out to the disc's bounding square
    edge = 0.2 * half
    grid = PhaseSpaceGrid(-edge, edge, -edge, edge, 2 * half + 1, 2 * half + 1)
    w_vals = wigner_map(rho, grid).values
    q1, q2 = grid.q1_axis[:, None], grid.q2_axis[None, :]
    return {(m, n): float((w_vals * q1 ** m * q2 ** n / (2.0 * np.pi)).sum() * grid.cell_area)
            for m, n in monomials}


def moyal_average(rho: DensityOperator, monomial: tuple[int, int]) -> tuple[float, float]:
    """Both sides of the symmetric-ordering correspondence for q^m p^n:
    (operator_value, integral_value), Tr[rho S(q^m p^n)] and the phase-space
    integral of W q^m p^n.  A `monomial` that is not a tuple of two powers
    raises DomainError."""
    if not isinstance(monomial, tuple) or len(monomial) != 2:
        raise DomainError(f"{monomial!r} is not a pair of powers (monomial)")
    m, n = (number(k, "monomial power", integral=True, minimum=0) for k in monomial)
    bound(m + n, 4, "monomial degree", TruncationError)
    rho = instance(rho, DensityOperator, "rho")
    # the symmetrized word couples levels at most (degree) apart, so only the
    # top few levels can feed truncation error into the operator-side trace
    margin = m + n + 2
    bound(float(np.sum(np.abs(rho.diagonal()[max(0, rho.dim - margin):]))), 1e-10,
          f"mass on the top {margin} Fock levels", TruncationError)
    op = _symmetrized_word(rho.dim, m, n)
    op_val = float(np.real(np.trace(rho.matrix @ op)))
    int_val = moyal_grid_integral(rho, [monomial])[monomial]
    return op_val, int_val


# ---------------------------------------------------------------------------
# fringe diagnostics (cat-state interference region)


def fringe_contrast(wmap: WignerMap) -> float:
    """Peak-to-trough swing of W inside the interference strip |q1| <= 0.5
    between the lobes of a cat aligned with q1."""
    vals = instance(wmap, WignerMap, "wmap").values[np.abs(wmap.grid.q1_axis) <= 0.5]
    return float(vals.max() - vals.min())
