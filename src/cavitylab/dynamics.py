"""Cavity damping: exact evolution of the field under the Lindblad master
equation, and derived timescales.

The generator is the single-mode amplitude-damping form with energy decay
rate kappa and optional thermal occupation n_thermal:

    drho/dt = kappa (n_th + 1) (a rho a+ - {a+ a, rho}/2)
            + kappa  n_th      (a+ rho a - {a a+, rho}/2)

It commutes with phase rotation, so diagonal k of rho (the entries
rho_{j+k, j}) evolves on its own under a real tridiagonal block G_k built
from the truncated a; at n_th = 0 the block is bidiagonal.  The
propagators expm(G_k t) are exact for the truncated generator at every
n_th (Walls & Milburn, Quantum Optics, for n_th = 0; Briegel & Englert,
Phys. Rev. A 47, 3311 (1993), for n_th > 0), so no ODE is integrated:
the trace is kept to rounding up to steps near kappa t = 1e6 (a dim-20
cat), and filling the upper diagonals by conjugation keeps rho exactly
Hermitian.  One pass (``_diagonals``) carries a stack of matrices (both
first-atom branches of a delay scan) through the same propagators: the
diagonals its caller names go in blocks of up to ``_DIAGONAL_BLOCK``, with
one expm per block over the groups of time steps that differ only by
rounding (a zero step is the identity) and one product per block and time.
It checks the trace and yields the damped diagonals in ascending k.  A zero
diagonal stays zero, so ``damped_populations`` carries k = 0 alone, all
that the atom's Born rule needs (``protocol``, ``direct``), and ``evolve``
and ``coherence_trajectory`` (the cat coherence, <n> and the trace, without
forming matrices) carry rho's live diagonals (``DensityOperator.live``).
Every public reader takes DensityOperators, whose gate alone decides what
is a state, and a DampingModel; anything else raises DomainError naming
its parameter (``errors.instance``).

At n_thermal = 0 the vacuum is a fixed point, a coherent |alpha> stays
coherent with amplitude alpha e^{-kappa t/2}, and <n>(t) = <n>(0) e^{-kappa t}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, TruncationError, array, bound, instance, number
from .fock import DensityOperator, HilbertSpec, coherent_state

# exact in the 2019 SI
PLANCK = 6.62607015e-34  # J s
BOLTZMANN = 1.380649e-23  # J / K


@dataclass(frozen=True)
class DampingModel:
    """Cavity energy-decay rate kappa > 0 and thermal occupation n_thermal >= 0, finite."""

    kappa: float
    n_thermal: float = 0.0

    def __post_init__(self):
        number(self.kappa, "kappa", exclusive_minimum=0)
        number(self.n_thermal, "n_thermal", minimum=0)

    @property
    def dissipation_time(self) -> float:
        return 1.0 / self.kappa


# Pade-13 numerator coefficients b_0 .. b_13 and the largest 1-norm at which
# the unscaled approximant is accurate to double precision (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179 (2005), Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each real square matrix in a stack, shape (..., n, n), by
    Pade-13 scaling and squaring (Higham 2005).  Each matrix has its own
    scaling exponent s, the least with ||a||_1 / 2^s <= theta_13, so a short
    gap is not squared as often as the longest one in the stack."""
    with np.errstate(divide="ignore"):  # a zero matrix: log2 0 = -inf, s = 0
        s = np.log2(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)
    # no scaling makes a non-finite norm finite: such a matrix is not squared
    s = np.where(np.isfinite(s), np.maximum(0, np.ceil(s)), 0).astype(int)
    a = a * np.exp2(-s)[..., None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for j in range(int(s.max(initial=0))):  # an empty stack has no s
        squared = s > j
        r[squared] = r[squared] @ r[squared]
    return r


def _diagonal_generator(model: DampingModel, dim: int, k: int) -> np.ndarray:
    """G_k with d x/dt = G_k x for diagonal k, x_j = rho_{j+k, j} (j < dim - k),
    written from the truncated operators: (a rho a+)_{mn} =
    sqrt((m+1)(n+1)) rho_{m+1, n+1} while m + 1 < dim, a+ a = diag(0..dim-1)
    and a a+ = diag(1..dim-1, 0)."""
    kd = model.kappa * (model.n_thermal + 1.0)
    ku = model.kappa * model.n_thermal
    n = np.arange(dim, dtype=float)
    aad = np.append(n[1:], 0.0)
    j, m = n[: dim - k], n[k:]  # column and row of each entry
    g = np.diag(-0.5 * kd * (m + j) - 0.5 * ku * (aad[k:] + aad[: dim - k]))
    g += np.diag(kd * np.sqrt((m[:-1] + 1.0) * (j[:-1] + 1.0)), 1)
    g += np.diag(ku * np.sqrt(m[1:] * j[1:]), -1)
    return g


def _step_groups(times: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Groups of the gaps between sample times (the first from 0), so that
    one propagator serves each group.  A gap joins the group of the smaller
    gaps whose least member lies within 4 ulp of the last time: the times
    carry that much rounding, and np.linspace's gaps differ only in their
    last bits.  A zero gap stays alone.  Returns each group's step, the mean
    of the gaps it stands for, so the sampled times do not drift, and the
    group of each gap."""
    diffs = np.diff(times, prepend=0.0)
    gaps, gap_of = np.unique(diffs, return_inverse=True)
    width = 4.0 * np.spacing(times[-1])
    starts, group = [], []
    for gap in gaps.tolist():
        if not starts or starts[-1] == 0.0 or gap - starts[-1] > width:
            starts.append(gap)
        group.append(len(starts) - 1)
    step_of = np.array(group)[gap_of]
    lo = np.array(starts)
    # the mean as an offset from the group's least gap: exact when all are equal
    steps = lo + np.bincount(step_of, weights=diffs - lo[step_of]) / np.bincount(step_of)
    return steps, step_of.tolist()


# diagonals per damping block, fewer when their propagators would pass
# 1 << 18 floats (2 MB), so a large dimension keeps bounded work arrays
_DIAGONAL_BLOCK = 8


def _diagonals(mats: np.ndarray, model: DampingModel, times, ks):
    """Damped lower diagonals `ks` (ascending, k = 0 first) of a stack of
    Hermitian matrices, shape (B, dim, dim), sampled at the sorted
    nonnegative `times` (a scalar is one time): yields (k, x) for k in `ks`,
    x of shape (B, T, dim - k) holding rho_{j+k, j}(t).  A caller that
    reads only the first diagonals stops the generator there.

    A block of consecutive k is carried by expm(G_k step), each G_k
    zero-padded to the block's widest, dim - (its first k): a zero pad
    exponentiates to the identity and leaves the scaling exponent as it is.
    One expm serves the block's step groups (``_step_groups``) but the zero
    step, which is the identity, and one product per time takes the real
    and imaginary parts of all B diagonals as columns.  Unsorted, negative or
    non-finite times raise DomainError.  The propagators keep the trace to
    rounding until a step is long enough for scaling and squaring to lose
    it, so diagonal 0 of each matrix must sum to that input's trace within
    1e-9 at every time before it is yielded (IntegrationError).  A `model`
    that is not a DampingModel raises DomainError, even with no times."""
    instance(model, DampingModel, "model")
    times = array(np.atleast_1d(times), "times", minimum=0)
    array(np.diff(times), "time steps", minimum=0)
    if times.size == 0:
        return
    nb, dim = np.shape(mats)[0], np.shape(mats)[-1]
    steps, step_of = _step_groups(times)
    moving = steps != 0.0
    size = min(_DIAGONAL_BLOCK, max(1, (1 << 18) // (steps.size * dim * dim)))
    for block in (ks[lo:lo + size] for lo in range(0, len(ks), size)):
        n = dim - block[0]
        gens, x = np.zeros((len(block), n, n)), np.zeros((len(block), n, nb), dtype=complex)
        props = np.tile(np.eye(n), (steps.size, len(block), 1, 1))  # exact for a zero step
        # a generator (kappa near the float limit) or propagator (a step too long for
        # scaling and squaring) that overflows reads NaN, refused by the trace bound
        with np.errstate(over="ignore", invalid="ignore"):
            for b, k in enumerate(block):
                gens[b, :dim - k, :dim - k] = _diagonal_generator(model, dim, k)
                x[b, :dim - k] = np.diagonal(mats, -k, axis1=1, axis2=2).T
            props[moving] = _expm(steps[moving, None, None, None] * gens)
        props[~np.isfinite(props).all(axis=(-2, -1))] = np.nan
        x = x.view(float)  # the real and imaginary parts of the B inputs as columns
        xs = np.empty((times.size,) + x.shape)
        for i, g in enumerate(step_of):
            x = np.matmul(props[g], x, out=xs[i])
        for b, k in enumerate(block):
            # contiguous, so a sum along each row rounds as it does for one matrix
            x = np.ascontiguousarray(np.moveaxis(xs.view(complex)[:, b, :dim - k], -1, 0))
            if k == 0:
                drift = np.abs(x.real.sum(-1) - np.trace(mats, axis1=1, axis2=2).real[:, None])
                bound(float(drift.max()), 1e-9, "trace drift", IntegrationError)
            yield k, x


def damped_populations(rhos: list[DensityOperator], model: DampingModel, times) -> np.ndarray:
    """Photon-number populations, shape (B, T, dim), of B DensityOperators of
    one dimension (a list or tuple) damped to the sorted nonnegative `times`.
    Refuses other `rhos` or no times (DomainError), a trace drift
    (IntegrationError) and more than 1e-8 on the top level (TruncationError)."""
    if np.size(times) == 0:
        raise DomainError("need at least one time")
    if not isinstance(rhos, (list, tuple)):
        raise DomainError(f"{type(rhos).__name__} is not a list or tuple (rhos)")
    if len({instance(r, DensityOperator, "rhos").dim for r in rhos}) != 1:
        raise DomainError("rhos must be DensityOperators of one dimension (rhos)")
    pops = next(_diagonals(np.stack([r.matrix for r in rhos]), model, times, (0,)))[1].real
    bound(float(np.max(pops[..., -1])), 1e-8,
          f"damped top-level population (dim {pops.shape[-1]})", TruncationError)
    return pops


def evolve(rho: DensityOperator, model: DampingModel, t):
    """rho damped to time `t`: one DensityOperator for a scalar `t` (rho itself
    at t = 0), or a list of them for a sorted 1-D array of nonnegative times.
    Each matrix is assembled from ``_diagonals``, its upper diagonals the
    conjugates of the lower ones; ``_diagonals`` refuses a trace drift
    above 1e-9 at any time (IntegrationError)."""
    rho = instance(rho, DensityOperator, "rho")
    instance(model, DampingModel, "model")
    if np.ndim(t) == 0 and t == 0:
        return rho
    times = np.atleast_1d(t)
    dim = rho.dim
    out = np.zeros((times.size, dim, dim), dtype=complex)
    flat = out.reshape(times.size, dim * dim)
    for k, vals in _diagonals(rho.matrix[None], model, times, rho.live):
        # diagonal k sits at flat index k + j (dim + 1) above, k dim + j (dim + 1) below
        flat[:, k:dim * (dim - k):dim + 1] = vals[0].conj()
        flat[:, k * dim::dim + 1] = vals[0]
    traj = [DensityOperator(m) for m in out]
    return traj if np.ndim(t) else traj[0]


def coherence_trajectory(rho: DensityOperator, model: DampingModel, times,
                         alpha: complex) -> tuple:
    """The cat coherence |<alpha| rho |-alpha>|, <n> and Tr rho(t) of rho damped
    to each of the sorted `times`, each of shape (T,), read off the damped
    diagonals in one pass (``_diagonals``, which refuses a trace drift)
    without forming a matrix.  The coherence is normalized by the ceiling
    (1 + e^{-2|alpha|^2})/2 that a fresh even cat attains, so such a cat
    reads 1 and a 50/50 mixture of |+-alpha> about 2 e^{-2|alpha|^2}.
    Lower diagonal k adds
    sum_j <alpha|j+k> rho_{j+k,j} <j|-alpha> to <alpha|rho|-alpha>, and its
    conjugate upper diagonal the same with the roles of j and j+k swapped."""
    dim = instance(rho, DensityOperator, "rho").dim
    spec = HilbertSpec(dim)
    bra = coherent_state(spec, alpha).amplitudes.conj()
    ket = coherent_state(spec, -alpha).amplitudes
    ceiling = (1.0 + np.exp(-2.0 * abs(alpha) ** 2)) / 2.0
    element = np.zeros(np.size(times), dtype=complex)
    pops = np.zeros((np.size(times), dim))
    for k, x in _diagonals(rho.matrix[None], model, times, rho.live):
        x = x[0]
        element += x @ (bra[k:] * ket[:dim - k])
        if k:
            element += x.conj() @ (bra[:dim - k] * ket[k:])
        else:
            pops = x.real
    return np.abs(element) / ceiling, (pops * np.arange(dim)).sum(-1), pops.sum(-1)


def decoherence_time(model: DampingModel, mean_n: float) -> float:
    """Dissipation time over 2 mean_n (2 n_thermal + 1): the e-folding time of
    a cat's fringes (Kim & Buzek, PRA 46, 4239 (1992)), for a finite mean_n > 0."""
    number(mean_n, "mean_n", exclusive_minimum=0)
    return number(instance(model, DampingModel, "model").dissipation_time
                  / (2.0 * mean_n * (2.0 * model.n_thermal + 1.0)), "decoherence time")


def separation_measure(d: float, mass: float, temperature: float) -> float:
    """(d / lambda_dB)^2, lambda_dB = h/sqrt(2 pi m k T), for finite d, mass, temperature > 0."""
    for value, name in ((d, "d"), (mass, "mass"), (temperature, "temperature")):
        number(value, name, exclusive_minimum=0)
    with np.errstate(over="ignore", divide="ignore"):  # the number rule refuses inf
        lam = PLANCK / np.sqrt(2.0 * np.pi * mass * BOLTZMANN * temperature)
        return number(float((d / lam) ** 2), "separation measure")


def fit_coherence_decay(rho: DensityOperator, model: DampingModel, alpha: complex,
                        t_max: float) -> float:
    """Time constant of a log-linear fit of the cat coherence of
    ``coherence_trajectory`` at 25 times in [0, t_max], t_max > 0 (DomainError)."""
    times = np.linspace(0.0, number(t_max, "t_max", exclusive_minimum=0), 25)
    w = coherence_trajectory(rho, model, times, alpha)[0]
    w0 = w[0]
    if w0 <= 0:
        raise DomainError("initial coherence vanishes; nothing to fit")
    slope = np.polyfit(times, np.log(np.abs(w / w0)), 1)[0]
    if slope >= 0:
        raise DomainError("coherence did not decay over the fit window")
    return float(-1.0 / slope)
