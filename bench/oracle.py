"""Closed-form Wigner functions and detection probabilities.

This module is the benchmark's reference for the outputs of cavitylab
experiments and deliberately imports nothing from cavitylab.  Conventions
follow the package: alpha = (q1 + i q2)/sqrt(2) and
W(alpha) = 2 Tr[rho D(alpha) P D(alpha)^+], so |W| <= 2 and
integral(d^2alpha / pi) W = 1.

Every state used by the benchmark is a combination of coherent-state
dyads, rho = sum_ij M_ij |b_i><b_j|, and W is linear in rho, so one
dyad formula covers coherent states, even and odd cats, their 50/50
mixture and the amplitude-damped cat at zero temperature.  Fock states
use the Laguerre form.
"""

from __future__ import annotations

import numpy as np


def alpha_from_quadratures(q1, q2):
    return (np.asarray(q1, dtype=float) + 1j * np.asarray(q2, dtype=float)) / np.sqrt(2.0)


def overlap(b: complex, c: complex) -> complex:
    """<c|b> for coherent states."""
    return complex(np.exp(-abs(b) ** 2 / 2 - abs(c) ** 2 / 2 + np.conj(c) * b))


def dyad_wigner(alpha, b: complex, c: complex):
    """W of the operator |b><c| (complex-valued unless b = c).

    D(alpha)^+ |b> = exp((alpha^* b - alpha b^*)/2) |b - alpha> and
    P|x> = |-x>, so W = 2 <c - alpha| P |b - alpha> times the two phases.
    """
    alpha = np.asarray(alpha, dtype=complex)
    x, y = b - alpha, c - alpha
    phase = (np.conj(alpha) * b - alpha * np.conj(b)
             - np.conj(alpha) * c + alpha * np.conj(c)) / 2.0
    parity_overlap = -np.abs(x) ** 2 / 2 - np.abs(y) ** 2 / 2 - np.conj(y) * x
    return 2.0 * np.exp(phase + parity_overlap)


def dyad_sum_wigner(alpha, amps, weights) -> np.ndarray:
    """Re W of rho = sum_ij weights[i, j] |amps[i]><amps[j]|."""
    total = 0.0
    for i, b in enumerate(amps):
        for j, c in enumerate(amps):
            if weights[i][j] != 0:
                total = total + weights[i][j] * dyad_wigner(alpha, b, c)
    return np.real(total)


def dyad_sum_parity(amps, weights) -> float:
    """<P> = sum_ij weights[i, j] <c_j| -b_i>."""
    return float(np.real(sum(weights[i][j] * overlap(-b, c)
                             for i, b in enumerate(amps) for j, c in enumerate(amps))))


def dyad_sum_trace(amps, weights) -> float:
    return float(np.real(sum(weights[i][j] * overlap(b, c)
                             for i, b in enumerate(amps) for j, c in enumerate(amps))))


# ---------------------------------------------------------------------------
# states


def coherent_terms(beta: complex):
    return [complex(beta)], [[1.0]]


def cat_terms(beta: complex, psi1: float, kappa: float = 1.0, t: float = 0.0):
    """(|b> + e^{i psi1}|-b>)/N damped for time t at n_thermal = 0.

    The amplitude decays to b e^{-kappa t/2}; the dyads |b><-b| pick up the
    environment overlap exp(-2|b|^2 (1 - e^{-kappa t})), the fringe factor.
    """
    beta = complex(beta)
    n_sq = 2.0 * (1.0 + np.cos(psi1) * np.exp(-2.0 * abs(beta) ** 2))
    b_t = beta * np.exp(-kappa * t / 2.0)
    fringe = np.exp(-2.0 * abs(beta) ** 2 * (1.0 - np.exp(-kappa * t)))
    cross = fringe * np.exp(-1j * psi1)
    weights = [[1.0 / n_sq, cross / n_sq], [np.conj(cross) / n_sq, 1.0 / n_sq]]
    return [b_t, -b_t], weights


def mixture_terms(beta: complex):
    """50/50 mixture of |b> and |-b>."""
    return [complex(beta), -complex(beta)], [[0.5, 0.0], [0.0, 0.5]]


def wigner_coherent(alpha, beta: complex):
    return dyad_sum_wigner(alpha, *coherent_terms(beta))


def wigner_cat(alpha, beta: complex, psi1: float):
    return dyad_sum_wigner(alpha, *cat_terms(beta, psi1))


def wigner_damped_cat(alpha, beta: complex, psi1: float, kappa: float, t: float):
    return dyad_sum_wigner(alpha, *cat_terms(beta, psi1, kappa, t))


def wigner_mixture(alpha, beta: complex):
    return dyad_sum_wigner(alpha, *mixture_terms(beta))


def wigner_fock(alpha, n: int):
    """2 (-1)^n L_n(4|alpha|^2) e^{-2|alpha|^2}, Laguerre by upward recurrence."""
    x = 4.0 * np.abs(np.asarray(alpha, dtype=complex)) ** 2
    prev, cur = np.ones_like(x), 1.0 - x
    if n == 0:
        cur = prev
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return 2.0 * (-1) ** n * cur * np.exp(-x / 2.0)


# ---------------------------------------------------------------------------
# detection probabilities


def damped_cat_parity(beta: complex, psi1: float, kappa: float, t) -> np.ndarray:
    """<P>(t) = [2 e^{-2|b(t)|^2} + 2 f(t) cos psi1] / N^2 at n_thermal = 0."""
    t = np.asarray(t, dtype=float)
    b2 = abs(beta) ** 2
    n_sq = 2.0 * (1.0 + np.cos(psi1) * np.exp(-2.0 * b2))
    decay = np.exp(-kappa * t)
    fringe = np.exp(-2.0 * b2 * (1.0 - decay))
    return (2.0 * np.exp(-2.0 * b2 * decay) + 2.0 * fringe * np.cos(psi1)) / n_sq


def p_e2_given_e1(beta: complex, kappa: float, t) -> np.ndarray:
    """Detecting e leaves the odd cat; a pi-phase probe reads e with (1 - <P>)/2."""
    return (1.0 - damped_cat_parity(beta, np.pi, kappa, t)) / 2.0


def p_g2_given_g1(beta: complex, kappa: float, t) -> np.ndarray:
    """Detecting g leaves the even cat; a pi-phase probe reads g with (1 + <P>)/2."""
    return (1.0 + damped_cat_parity(beta, 0.0, kappa, t)) / 2.0


def prepare_cat_probabilities(beta: complex) -> dict[str, float]:
    """Branch probabilities (1 +- e^{-2|b|^2})/2 of the cat-preparing atom."""
    e = float(np.exp(-2.0 * abs(beta) ** 2))
    return {"g": (1.0 + e) / 2.0, "e": (1.0 - e) / 2.0}


def damped_cat_w0(beta: complex, psi1: float, kappa: float, t) -> np.ndarray:
    """W(0)(t) = 2 <P>(t): the series the direct scheme monitors."""
    return 2.0 * damped_cat_parity(beta, psi1, kappa, t)
