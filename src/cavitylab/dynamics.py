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
the trace is kept to rounding, and filling the upper diagonals by
conjugation keeps rho exactly Hermitian.

At n_thermal = 0 the vacuum is a fixed point, a coherent |alpha> stays
coherent with amplitude alpha e^{-kappa t/2}, and <n>(t) = <n>(0) e^{-kappa t}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DomainError, IntegrationError
from .fock import DensityOperator, coherent_state, require_hermitian

# exact in the 2019 SI
PLANCK = 6.62607015e-34  # J s
BOLTZMANN = 1.380649e-23  # J / K


@dataclass(frozen=True)
class DampingModel:
    """Cavity energy-decay rate and thermal occupation."""

    kappa: float
    n_thermal: float = 0.0

    def __post_init__(self):
        if not 0 < self.kappa < np.inf:
            raise DomainError(f"kappa must be positive and finite, got {self.kappa}")
        if not 0 <= self.n_thermal < np.inf:
            raise DomainError(f"n_thermal must be >= 0 and finite, got {self.n_thermal}")

    @property
    def dissipation_time(self) -> float:
        return 1.0 / self.kappa


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sample times from t_start to t_end (steps = number of samples)."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not (np.inf > self.t_end > self.t_start >= 0):
            raise DomainError(f"need finite t_end > t_start >= 0, "
                              f"got [{self.t_start}, {self.t_end}]")
        if self.steps < 1:
            raise DomainError(f"steps must be >= 1, got {self.steps}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps)


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


def evolve_trajectory(rho: DensityOperator, model: DampingModel, times) -> list[DensityOperator]:
    """Damped evolution sampled at the given (sorted, nonnegative) times.

    Each lower diagonal of rho is carried from one time to the next by
    expm(G_k gap), computed once per distinct gap; the upper diagonals are
    their conjugates.  Refuses a rho that is not Hermitian within 1e-6."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return []
    if not (np.all(np.isfinite(times)) and np.all(times >= 0) and np.all(np.diff(times) >= 0)):
        raise DomainError("times must be finite, sorted and nonnegative")
    mat = require_hermitian(rho)
    dim = rho.dim
    gaps, step_gap = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    out = np.empty((times.size, dim, dim), dtype=complex)
    step_gap = step_gap.tolist()
    for k in range(dim):
        props = list(expm(gaps[:, None, None] * _diagonal_generator(model, dim, k)))
        x = np.diagonal(mat, -k)
        x = np.stack([x.real, x.imag if k else np.zeros(dim)], axis=1)  # real pairs
        xs = np.empty((times.size,) + x.shape)
        for i, g in enumerate(step_gap):
            x = np.dot(props[g], x, out=xs[i])
        vals = xs[..., 0] + 1j * xs[..., 1]
        rows = np.arange(k, dim)
        out[:, rows - k, rows] = vals.conj()
        out[:, rows, rows - k] = vals
    return [DensityOperator(m) for m in out]


def evolve(rho: DensityOperator, model: DampingModel, t: float) -> DensityOperator:
    """rho(t) under cavity damping; the propagators keep the trace to
    rounding, and a drift above 1e-9 raises IntegrationError."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if t == 0:
        return rho
    out = evolve_trajectory(rho, model, [t])[0]
    tr_err = abs(out.trace() - rho.trace())
    if tr_err > 1e-9:
        raise IntegrationError(f"trace drift {tr_err:.3e} exceeds 1e-9")
    return out


def coherence_series(states, alpha: complex) -> np.ndarray:
    """cat_coherence of each state of a trajectory (one truncation), with
    |alpha> and |-alpha> built once."""
    spec = states[0].spec
    plus = coherent_state(spec, alpha).amplitudes
    minus = coherent_state(spec, -alpha).amplitudes
    element = (np.stack([r.matrix for r in states]) @ minus) @ plus.conj()
    ceiling = (1.0 + np.exp(-2.0 * abs(alpha) ** 2)) / 2.0
    return np.abs(element) / ceiling


def cat_coherence(rho: DensityOperator, alpha: complex) -> float:
    """Normalized off-diagonal coherence |<alpha| rho |-alpha>|.

    Normalized by the ceiling (1 + e^{-2|alpha|^2})/2 attained by a fresh
    even cat, so a freshly prepared psi1=0 cat reads exactly 1 and a
    50/50 statistical mixture reads ~2 e^{-2|alpha|^2}.
    """
    return float(coherence_series([rho], alpha)[0])


def decoherence_time(model: DampingModel, mean_n: float) -> float:
    """Dissipation time over 2 mean_n (2 n_thermal + 1): the e-folding time of
    a cat's fringes (Kim & Buzek, PRA 46, 4239 (1992))."""
    if mean_n <= 0:
        raise DomainError(f"mean_n must be positive, got {mean_n}")
    return model.dissipation_time / (2.0 * mean_n * (2.0 * model.n_thermal + 1.0))


def separation_measure(d: float, mass: float, temperature: float) -> float:
    """(d / lambda_dB)^2 with the thermal de Broglie wavelength h/sqrt(2 pi m k T)."""
    if d <= 0 or mass <= 0 or temperature <= 0:
        raise DomainError("d, mass and temperature must all be positive")
    lam = PLANCK / np.sqrt(2.0 * np.pi * mass * BOLTZMANN * temperature)
    return float((d / lam) ** 2)


def fit_coherence_decay(rho0: DensityOperator, model: DampingModel, alpha: complex,
                        t_max: float) -> float:
    """Time constant of a log-linear fit of cat_coherence at 25 times in [0, t_max]."""
    times = np.linspace(0.0, t_max, 25)
    traj = evolve_trajectory(rho0, model, times)
    w = coherence_series(traj, alpha)
    w0 = w[0]
    if w0 <= 0:
        raise DomainError("initial coherence vanishes; nothing to fit")
    slope = np.polyfit(times, np.log(np.abs(w / w0)), 1)[0]
    if slope >= 0:
        raise DomainError("coherence did not decay over the fit window")
    return float(-1.0 / slope)
