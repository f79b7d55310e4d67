"""Direct Wigner measurement (Lutterbach & Davidovich, PRL 78, 2547 (1997)):
inject a coherent amplitude, run one atom through the Ramsey interferometer
with a conditional phase shift, and read the detection probabilities.

Defining identity (the module's executable contract): the atom reads the
field through the weights w(n) = |m_g(n)|^2 - |m_e(n)|^2 of its Kraus
operators (``protocol.field_kraus``), so P_g - P_e = Tr[D rho D^dag diag(w)].
The readouts use the pi-dispersive weights, which at the parity angles are
exactly the photon-number parity (-1)^n, so
    P_g - P_e = W(-alpha, -alpha*) / 2,
and 2 (P_g - P_e) equals ``wigner.wigner_point(rho0, -alpha)`` to rounding
for every state the DensityOperator gate passes: it keeps rho0's Hermitian
part, which this readout and the Laguerre series both read.  No readout
names its interaction: the opposite-shift probe has the same |m_s(n)|^2 bit
for bit, and the resonant probe reads the origin alone, through
``protocol.probe_atom(rho0, "resonant-2pi")``, which guards its subspace.
One ``direct_point_exact`` call reads one alpha or an array of them: each
alpha is injected with the exact elements <n|D(alpha)|j> (their real
factors from ``fock.radial_rows``, the phases moved onto rho0) and read on
photon numbers n < N, its own N doubled past rho0.dim until the displaced
populations capture Tr rho0 within 1e-10.  ``scan_map`` evaluates the same
identity on a whole grid with the Laguerre kernel of ``wigner_map``, and
``monitor_origin`` at alpha = 0 along a damping trajectory, from the damped
populations alone (``dynamics.damped_populations``).  As |m_e(n)|^2 +
|m_g(n)|^2 = 1 exactly, P_e + P_g is Tr rho0 to rounding, which the
DensityOperator gate already bounds.  Detector inefficiency only erases
shots, so the estimator stays unbiased.
"""

from __future__ import annotations

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import protocol
from .dynamics import DampingModel, damped_populations
from .errors import MAX_COUNT, NoDetectionError, complex_array, instance, number
from .fock import MAX_DISPLACED_ENTRIES, DensityOperator, radial_rows
from .wigner import PhaseSpaceGrid, WignerMap, wigner_map


def _populations(rho0: DensityOperator, alpha):
    """Populations of D(alpha) rho0 D(alpha)^dag for the flat array `alpha`,
    yielded as (index, pops) groups: pops[i] holds the populations at
    alpha[index[i]] on n < N, N the first of 2, 4, 8, ... times rho0.dim that
    captures Tr rho0 within 1e-10 at that alpha alone.  The alpha = 0 entries
    share one row, rho0's own diagonal.  The readout errs by at most twice
    the uncaptured mass, which N = rho0.dim could leave just under 1e-10.
    Each ``radial_rows`` call holds at most MAX_DISPLACED_ENTRIES entries, so
    an alpha whose own N breaks that cap raises TruncationError."""
    origin = alpha == 0
    if origin.any():
        yield np.flatnonzero(origin), rho0.diagonal()[None]
    mat = rho0.matrix
    total = float(np.real(np.trace(mat)))
    pending = np.flatnonzero(~origin)
    n = 2 * rho0.dim
    while pending.size:
        unsettled = []
        block = max(1, MAX_DISPLACED_ENTRIES // (n * rho0.dim))
        for start in range(0, pending.size, block):
            index = pending[start:start + block]
            # <n|D|j> = e^{i theta (n-j)} r_nj, so pops_n = r_n . Re(rho') . r_n with
            # rho'_lj = e^{-i theta l} rho_lj e^{i theta j}: the Hermitian rho' has an
            # antisymmetric imaginary part, which the real quadratic form drops
            ph = np.exp(1j * np.angle(alpha[index])[:, None] * np.arange(rho0.dim))
            turned = np.real(mat * (ph.conj()[:, :, None] * ph[:, None, :]))
            r = radial_rows(alpha[index], n, rho0.dim)
            pops = np.sum((r @ turned) * r, axis=-1)
            settled = np.abs(total - pops.sum(axis=-1)) <= 1e-10
            yield index[settled], pops[settled]
            unsettled.append(index[~settled])
        pending = np.concatenate(unsettled)
        n *= 2


def direct_point_exact(rho0: DensityOperator, alpha) -> tuple:
    """Exact Born probabilities (P_e, P_g) of one pi-dispersive probe atom at
    each injection alpha, shaped like `alpha` (NumPy scalars for a scalar
    alpha); the atom reads W(-alpha) = 2 (P_g - P_e).  Every alpha reads what
    its own one-point call reads, bit for bit; DomainError for an alpha that
    is not a finite number."""
    alpha = complex_array(alpha, "alpha")
    probs = np.empty((2,) + alpha.shape)
    p_e, p_g = probs.reshape(2, -1)
    for index, pops in _populations(instance(rho0, DensityOperator, "rho0"), alpha.ravel()):
        p_e[index], p_g[index] = protocol.detection_probabilities(pops)
    return probs[0][()], probs[1][()]


def _sample(p_e: float, n_shots: int, efficiency: float, seed) -> tuple:
    """`n_shots` Bernoulli shots reading e with probability `p_e`, each
    detected with probability `efficiency`: (n_detected, estimate, stderr),
    the estimate conditioned on detected shots only and unbiased."""
    rng = default_rng(seed)
    outcomes_e = rng.random(n_shots) < p_e
    detected = rng.random(n_shots) < efficiency
    n_det = int(detected.sum())
    if n_det == 0:
        raise NoDetectionError(f"no detections in {n_shots} shots at efficiency {efficiency}")
    k_e = int((outcomes_e & detected).sum())
    frac_e = k_e / n_det
    estimate = 2.0 * (1.0 - 2.0 * frac_e)
    stderr = 4.0 * np.sqrt(max(frac_e * (1.0 - frac_e), 1.0 / (4.0 * n_det)) / n_det)
    return n_det, estimate, float(stderr)


def scan_map(rho0: DensityOperator, grid: PhaseSpaceGrid) -> WignerMap:
    """Exact direct-scheme estimates over an injection grid.

    The readout at alpha is W(-alpha), so the map is ``wigner_map`` on the
    reflected grid, flipped back onto `grid`, in rho0's own dimension.
    """
    rho0 = instance(rho0, DensityOperator, "rho0")
    exact = wigner_map(rho0, instance(grid, PhaseSpaceGrid, "grid").reflected())
    return WignerMap(grid, exact.values[::-1, ::-1], provenance="measured-direct",
                     diagnostics={key: exact.diagnostics[key]
                                  for key in ("eval_dim", "distinct_radii")})


def monitor_origin(rho0: DensityOperator, model: DampingModel, times,
                   n_shots: int = 0, efficiency: float = 1.0, seed=None) -> np.ndarray:
    """W(0) read by the pi-dispersive probe at the sorted `times` of a damping
    trajectory: a (3, T) array whose rows are the exact W(0), the finite-shot
    estimate and its stderr, the last two NaN unless `n_shots` > 0.  Time k
    draws its shots from child k of SeedSequence(seed).spawn(T).

    The probe reads photon-number populations only, and damping carries them
    apart from the coherences, so only the damped populations
    (``dynamics.damped_populations``) are formed, and every time is read by
    one Born-rule call.  For an even cat the series starts near +2, collapses
    toward 0 on the decoherence timescale, and climbs back to +2 as the field
    empties.  Raises DomainError for a `rho0` that is not a DensityOperator,
    no times or times that are not sorted finite numbers >= 0, an `n_shots`
    that is not an integer in [0, MAX_COUNT], an `efficiency`
    outside [0, 1] or a `seed` that is neither None nor an integer >= 0, and
    TruncationError when the damped populations put more than 1e-8 on the
    top Fock level."""
    n_shots = number(n_shots, "n_shots", integral=True, minimum=0, maximum=MAX_COUNT)
    seed = seed if seed is None else number(seed, "seed", integral=True, minimum=0)
    number(efficiency, "efficiency", minimum=0, maximum=1)
    pops = damped_populations([instance(rho0, DensityOperator, "rho0")], model, times)[0]
    p_e, p_g = protocol.detection_probabilities(pops)
    w0 = np.full((3, p_e.size), np.nan)
    w0[0] = 2.0 * (p_g - p_e)
    if n_shots > 0:
        for k, child in enumerate(SeedSequence(seed).spawn(p_e.size)):
            w0[1:, k] = _sample(float(p_e[k]), n_shots, efficiency, child)[1:]
    return w0
