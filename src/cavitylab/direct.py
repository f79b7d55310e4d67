"""Direct Wigner measurement: inject a coherent amplitude, run one atom
through the Ramsey interferometer with a conditional phase shift, and read
the detection probabilities.

Defining identity (the module's executable contract): the atom reads the
field through the weights w(n) = |m_g(n)|^2 - |m_e(n)|^2 of its Kraus
operators (``protocol.field_kraus``), so P_g - P_e = Tr[D rho D^dag diag(w)].
When w is the photon-number parity (-1)^n,
    P_g - P_e = W(-alpha, -alpha*) / 2,
so 2 (P_g - P_e) equals ``wigner.wigner_point(rho0, -alpha)``.  Every entry
point checks w against parity and raises ``DomainError`` otherwise, since
any other weights read a number that is not W.  The pointwise readouts
inject with the exact elements <n|D(alpha)|j> of ``fock.displaced_rows``
and read photon numbers n < N, N doubled past rho0.dim until the displaced
populations capture Tr rho0 within 1e-10, so the readout matches the exact
W of the truncated rho0 to rounding.  ``scan_map`` evaluates the same
identity on a whole grid with the Laguerre kernel of ``wigner_map``.
Detector inefficiency only erases shots, so the estimator stays unbiased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import protocol
from .dynamics import DampingModel, evolve_trajectory
from .errors import DomainError, NoDetectionError
from .fock import DensityOperator, displaced_rows
from .protocol import ProtocolConfig
from .wigner import PhaseSpaceGrid, WignerMap, wigner_map


@dataclass(frozen=True)
class MeasurementRecord:
    """One point of the direct scheme: exact Born probabilities plus the
    (optional) finite-shot estimate built from detected atoms only."""

    alpha: complex
    p_e: float
    p_g: float
    n_shots: int
    n_detected: int
    estimate: float
    stderr: float

    def __post_init__(self):
        if abs(self.p_e + self.p_g - 1.0) > 1e-10:
            raise ValueError(f"P_e + P_g = {self.p_e + self.p_g} deviates from 1")
        if self.n_detected > self.n_shots:
            raise ValueError("n_detected cannot exceed n_shots")


# the configs a variant runs at when none is given: the opposite-shift readout
# reproduces the pi-dispersive one at phi = eta = pi/2
_DEFAULT_CONFIG = {"opposite": ProtocolConfig(phi=np.pi / 2, eta=np.pi / 2)}


def _populations(rho0: DensityOperator, alpha, rows: int = 0) -> np.ndarray:
    """Populations of D(alpha) rho0 D(alpha)^dag on n < N, the first N = 2, 4,
    8, ... times rho0.dim capturing Tr rho0 within 1e-10 at every alpha; at
    alpha = 0, rho0's own.  The readout errs by at most twice the uncaptured
    mass, which N = rho0.dim could leave just under 1e-10.  A build of R rows
    settles every N <= R; the first has max(`rows`, 2 rho0.dim) rows."""
    if np.all(np.asarray(alpha) == 0):
        return rho0.diagonal()
    mat = rho0.matrix
    total = float(np.real(np.trace(mat)))
    n = 2 * rho0.dim
    rows = max(rows, n)
    while True:
        d = displaced_rows(alpha, rows, rho0.dim)
        # one 2-D product for every alpha: the stacked matmul is slower
        pops = np.real(np.sum((d.reshape(-1, rho0.dim) @ mat).reshape(d.shape) * d.conj(),
                              axis=-1))
        while n <= rows:
            if np.all(np.abs(total - pops[..., :n].sum(axis=-1)) <= 1e-10):
                return pops[..., :n]
            n *= 2
        rows *= 2


def direct_point_exact(rho0: DensityOperator, alpha: complex,
                       config: ProtocolConfig | None = None,
                       variant: str = "dispersive") -> MeasurementRecord:
    """Exact Born probabilities of one probe atom at one alpha.

    `variant` names the interaction as ``protocol.field_kraus`` does:
    ``"dispersive"`` (phi = pi by default), ``"opposite"`` (phi = eta = pi/2
    by default) or ``"resonant-2pi"``, which reads the origin only (alpha = 0,
    DomainError otherwise) of a field supported on n <= 1 (SubspaceError).
    """
    if variant == "resonant-2pi" and alpha != 0:
        raise DomainError("the resonant variant measures the origin only (alpha = 0)")
    config = config or _DEFAULT_CONFIG.get(variant, ProtocolConfig())
    pops = _populations(rho0, alpha)
    p_e, p_g = protocol.detection_probabilities(pops, config, variant)
    # the resonant probe refused any field above one photon
    protocol._require_parity(config, variant, 2 if variant == "resonant-2pi" else pops.size)
    return MeasurementRecord(alpha, p_e, p_g, 0, 0, 2.0 * (p_g - p_e), 0.0)


def _sample(exact: MeasurementRecord, n_shots: int, efficiency: float,
            seed) -> MeasurementRecord:
    """`n_shots` Bernoulli shots drawn from `exact`'s probabilities, each
    detected with probability `efficiency`; the estimate conditions on
    detected shots only and stays unbiased."""
    if n_shots < 1:
        raise DomainError(f"n_shots must be >= 1, got {n_shots}")
    if not 0.0 <= efficiency <= 1.0:
        raise DomainError(f"efficiency must lie in [0, 1], got {efficiency}")
    rng = np.random.default_rng(seed)
    outcomes_e = rng.random(n_shots) < exact.p_e
    detected = rng.random(n_shots) < efficiency
    n_det = int(detected.sum())
    if n_det == 0:
        raise NoDetectionError(f"no detections in {n_shots} shots at efficiency {efficiency}")
    k_e = int((outcomes_e & detected).sum())
    frac_e = k_e / n_det
    estimate = 2.0 * (1.0 - 2.0 * frac_e)
    stderr = 4.0 * np.sqrt(max(frac_e * (1.0 - frac_e), 1.0 / (4.0 * n_det)) / n_det)
    return MeasurementRecord(exact.alpha, exact.p_e, exact.p_g, n_shots, n_det,
                             estimate, float(stderr))


def direct_point_sampled(rho0: DensityOperator, alpha: complex, n_shots: int,
                         efficiency: float, seed) -> MeasurementRecord:
    """Finite-shot estimate of the standard scheme at one alpha: `n_shots`
    Bernoulli shots, each detected with probability `efficiency`."""
    return _sample(direct_point_exact(rho0, alpha), n_shots, efficiency, seed)


def scan_map(rho0: DensityOperator, grid: PhaseSpaceGrid,
             config: ProtocolConfig | None = None,
             variant: str = "dispersive") -> WignerMap:
    """Exact direct-scheme estimates over an injection grid.

    The readout at alpha is W(-alpha), so the map is ``wigner_map`` on the
    reflected grid, flipped back onto `grid`, in rho0's own dimension.  The
    atom's weights are checked against parity on every photon number the
    injection reaches: the largest readout N over the grid's four corners,
    where the displaced mean photon number, convex in alpha, peaks.  With no
    `config`, the ``"opposite"`` variant runs at phi = eta = pi/2.
    """
    config = config or _DEFAULT_CONFIG.get(variant, ProtocolConfig())
    corners = np.add.outer([grid.q1_min, grid.q1_max], [1j * grid.q2_min, 1j * grid.q2_max])
    corners /= np.sqrt(2.0)
    # at the far corners one build of 4 rho0.dim rows settles N = 2 and 4 rho0.dim
    protocol._require_parity(config, variant,
                             _populations(rho0, corners, 4 * rho0.dim).shape[-1])
    exact = wigner_map(rho0, grid.reflected())
    return WignerMap(grid, exact.values[::-1, ::-1], provenance="measured-direct",
                     diagnostics=dict(exact.diagnostics))


@dataclass(frozen=True)
class MonitorPoint:
    t: float
    exact: MeasurementRecord
    sampled: Optional[MeasurementRecord]


def monitor_origin(rho0: DensityOperator, model: DampingModel, times,
                   n_shots: int = 0, efficiency: float = 1.0,
                   seed=None) -> list[MonitorPoint]:
    """W(0) read by the pi-dispersive probe at the sorted `times` of a damping
    trajectory, with a finite-shot estimate at each time if `n_shots` > 0.

    For an even cat the series starts near +2, collapses toward 0 on the
    decoherence timescale, and climbs back to +2 as the field empties.
    """
    times = np.asarray(times, dtype=float)
    traj = evolve_trajectory(rho0, model, times)
    seq = np.random.SeedSequence(seed).spawn(len(traj)) if n_shots > 0 else None
    out = []
    for k, (t, rho_t) in enumerate(zip(times, traj)):
        exact = direct_point_exact(rho_t, 0.0)
        sampled = _sample(exact, n_shots, efficiency, seq[k]) if n_shots > 0 else None
        out.append(MonitorPoint(float(t), exact, sampled))
    return out
