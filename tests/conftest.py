import numpy as np
import pytest

from cavitylab import (
    DampingModel,
    HilbertSpec,
    cat_state,
    coherent_state,
    evolve,
    fock_state,
    inverse_radon,
    marginal_distribution,
    mix,
    pure_to_density,
    vacuum,
)
from cavitylab.fock import radial_rows, turn
from cavitylab.tomo import _next_fast_len, _q_range, _ramp_hann

CORPUS_DIM = 40  # covers every corpus state (largest amplitude 2 -> 26) with room


def build_corpus(dim: int = CORPUS_DIM) -> dict:
    """The shared reference states: vacuum, Fock 1-3, coherent 1 and 2,
    both cats at alpha = 2, the 50/50 mixture, and a damped cat."""
    spec = HilbertSpec(dim)
    states = {
        "vacuum": pure_to_density(vacuum(spec)),
        "fock1": pure_to_density(fock_state(spec, 1)),
        "fock2": pure_to_density(fock_state(spec, 2)),
        "fock3": pure_to_density(fock_state(spec, 3)),
        "coherent1": pure_to_density(coherent_state(spec, 1.0)),
        "coherent2": pure_to_density(coherent_state(spec, 2.0)),
        "cat_even": pure_to_density(cat_state(spec, 2.0, 0.0)),
        "cat_odd": pure_to_density(cat_state(spec, 2.0, np.pi)),
        "mixture": mix([coherent_state(spec, 2.0), coherent_state(spec, -2.0)],
                       [0.5, 0.5]),
    }
    states["damped_cat"] = evolve(states["cat_even"], DampingModel(kappa=1.0), 0.1)
    return states


def mean_photon(populations) -> float:
    """<n> = sum_n n p_n from photon-number populations p_n: rho.diagonal(),
    or |amplitudes|^2 of a pure state."""
    return float(np.arange(len(populations)) @ populations)


def annihilation(dim: int) -> np.ndarray:
    """The ladder operator a on a dim-truncated space: <n-1| a |n> = sqrt(n);
    its transpose is a^dag."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def eigh_displacement(dim: int, alpha: complex) -> np.ndarray:
    """Oracle D(alpha) on a dim-truncated space, independent of the Laguerre
    recurrence: exp(-i|alpha| G) with G = i(a^dag - a) by eigendecomposition,
    conjugated by the phase rotation e^{i arg(alpha) n}.  Exact away from the
    last rows and columns, which the truncation of G corrupts."""
    a = annihilation(dim)
    w, v = np.linalg.eigh(1j * (a.T - a))
    d = (v * np.exp(-1j * abs(alpha) * w)) @ v.conj().T
    ph = np.exp(1j * np.angle(alpha) * np.arange(dim))
    return ph[:, None] * d * ph.conj()[None, :]


def displaced(alpha: complex, rows: int, cols: int) -> np.ndarray:
    """<n|D(alpha)|j> = e^{i theta (n-j)} r_nj, n < rows, j < cols, theta =
    arg(alpha): the real factors of ``fock.radial_rows`` with the phases of
    ``fock.turn``; column 0 is |alpha>."""
    phase = turn(np.angle(alpha), np.arange(max(rows, cols)))
    return radial_rows(alpha, rows, cols) * phase[:rows, None] * phase[:cols].conj()


def cat_coherence(rho, alpha: complex) -> float:
    """|<alpha| rho |-alpha>| by the matrix path, normalized by the ceiling
    (1 + e^{-2|alpha|^2})/2 that a fresh even cat attains: the one-state
    reference for ``dynamics.coherence_trajectory``."""
    spec = HilbertSpec(rho.dim)
    bra = coherent_state(spec, alpha).amplitudes.conj()
    ket = coherent_state(spec, -alpha).amplitudes
    return float(abs(bra @ rho.matrix @ ket) / ((1.0 + np.exp(-2.0 * abs(alpha) ** 2)) / 2.0))


def reconstruct_exact(rho, angles, grid, q_range=None):
    """Noise-free reconstruction from exact marginals on 801 points of q in
    [-q_range, q_range]; `q_range` must be finite and positive (DomainError),
    and None takes the sampler's default range."""
    q_range = _q_range(rho, q_range)
    q = np.linspace(-q_range, q_range, 801)
    return inverse_radon(angles, q, marginal_distribution(rho, angles, q), grid)


def complex_fft_back_projection(thetas, q, densities, grid) -> np.ndarray:
    """The filtered back-projection of ``tomo.inverse_radon``, one angle at a
    time with a complex FFT over the two-sided ramp-Hann filter: the
    reference for its one real FFT per block of angles.  Returns the values."""
    n_pad = _next_fast_len(4 * q.size)
    filt = _ramp_hann(n_pad, float(q[1] - q[0]))
    q1, q2 = grid.q1_axis[:, None], grid.q2_axis[None, :]
    acc = np.zeros((grid.n1, grid.n2))
    for theta, density in zip(thetas, densities):
        filtered = np.real(np.fft.ifft(np.fft.fft(density, n_pad) * filt))[: q.size]
        acc += np.interp(q1 * np.cos(theta) + q2 * np.sin(theta), q, filtered,
                         left=0.0, right=0.0)
    return 2.0 * np.pi * acc * np.pi / thetas.size


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()
