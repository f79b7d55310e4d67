"""Atom-field experiment engine: one atom crossing the cavity as a field
measurement, cat preparation, and the two-atom correlation monitor.

An atom prepared in |e> crosses the first Ramsey zone R1, interacts with
the field, crosses the second zone R2 and is detected in s = e or g.  Each
interaction (dispersive, opposite-shift, resonant 2pi) is diagonal in the
photon number n, so detecting s acts on the field as the Kraus operator
M_s = diag(m_s(n)) built by ``field_kraus``:
    P_s = sum_n |m_s(n)|^2 rho_nn,   field after = M_s rho M_s^dag / P_s.

Pulse convention (fixed throughout): each Ramsey zone applies
    |e> -> (|e> + |g>)/sqrt(2),   |g> -> (-|e> + |g>)/sqrt(2),
so two zones on an empty cavity act as a pi pulse, e -> g.  A nonzero
`eta` inserts the relative phase e^{i eta} on |e> just before the second
zone; a nonzero `ramsey_phase` rotates the microwave phase of both zones
(detection probabilities are invariant under it).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import DampingModel, evolve_trajectory
from .errors import DegenerateBranchError, DomainError, SubspaceError
from .fock import (
    DensityOperator,
    FieldState,
    HilbertSpec,
    coherent_state,
    default_dim,
    pure_to_density,
)

_E, _G = 0, 1  # atom level indices


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-photon conditional phase, Ramsey zone phase, and R2 dephasing."""

    phi: float = np.pi
    ramsey_phase: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        for name in ("phi", "ramsey_phase", "eta"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")


def _pulse_matrix(chi: float) -> np.ndarray:
    return np.array([[1.0, -np.exp(1j * chi)],
                     [np.exp(-1j * chi), 1.0]]) / np.sqrt(2.0)


def field_kraus(config: ProtocolConfig, variant: str, dim: int) -> np.ndarray:
    """Kraus amplitudes m[s, n] (s = 0 for e, 1 for g) of one atom crossing
    R1 -> interaction -> R2 in a field truncated to `dim`:
    m = R2 . diag(f[:, n]) . R1|e>, where f[s, n] is the phase the
    interaction puts on atom level s with n photons.

    * ``"dispersive"``: e^{i phi n} on |e>, nothing on |g>.
    * ``"opposite"``: dispersive shifts of opposite sign, e^{-i phi n} on
      |g> and e^{+i phi n} on |e> times the constant differential Stark
      phase e^{-i phi}.  That constant is what makes the phi = pi/2 shift,
      read out with an eta = pi/2 dephasing on the second zone, reproduce
      the standard phi = pi conditional-parity measurement.
    * ``"resonant-2pi"``: sign flip of |e>|1>; exact only on n <= 1.
    """
    n = np.arange(dim)
    if variant == "dispersive":
        f = np.stack([np.exp(1j * config.phi * n), np.ones(dim)])
    elif variant == "opposite":
        f = np.stack([np.exp(1j * config.phi * (n - 1)), np.exp(-1j * config.phi * n)])
    elif variant == "resonant-2pi":
        f = np.ones((2, dim), dtype=complex)
        f[_E, 1] = -1.0
    else:
        raise ValueError(f"unknown interaction variant {variant!r}")
    r1 = _pulse_matrix(config.ramsey_phase)
    r2 = r1 @ np.diag([np.exp(1j * config.eta), 1.0])
    return r2 @ (f * r1[:, _E, None])


def _require_parity(config: ProtocolConfig, variant: str, dim: int) -> None:
    """Raise unless the atom's weights w = |m_g|^2 - |m_e|^2 equal (-1)^n for
    n < dim within 1e-12, so that detecting it measures photon-number parity:
    |2 (P_g - P_e) - W(0)| is then below 2e-12 for any field supported there."""
    m = field_kraus(config, variant, dim)
    w = np.abs(m[_G]) ** 2 - np.abs(m[_E]) ** 2
    dev = float(np.max(np.abs(w - (-1.0) ** np.arange(dim))))
    if dev > 1e-12:
        raise DomainError(
            f"{variant} probe with phi = {config.phi}, eta = {config.eta} weighs the "
            f"photon numbers {dev:.3e} away from parity; it is not a parity measurement"
        )


@dataclass(frozen=True)
class Branch:
    """One projective-detection branch with its normalized field state."""

    outcome: str
    probability: float
    field_after: Optional[DensityOperator]

    def field(self) -> DensityOperator:
        if self.field_after is None:
            raise DegenerateBranchError(
                f"branch {self.outcome!r} has probability {self.probability:.3e}; "
                "no normalized post-measurement state exists"
            )
        return self.field_after


def detection_probabilities(pops: np.ndarray, config: ProtocolConfig,
                            variant: str) -> tuple[float, float]:
    """Born rule of one atom reading a field with photon-number populations
    `pops`: (P_e, P_g), P_s = sum_n |m_s(n)|^2 pops_n with m from ``field_kraus``.
    The resonant probe is exact only on n <= 1, so it refuses (SubspaceError)
    a field with more than 1e-8 population above one photon."""
    if variant == "resonant-2pi":
        tail = float(np.sum(np.abs(pops[2:])))
        if tail > 1e-8:
            raise SubspaceError(
                f"field population {tail:.3e} above one photon; resonant probe is not exact"
            )
    m = field_kraus(config, variant, pops.size)
    return float(np.abs(m[_E]) ** 2 @ pops), float(np.abs(m[_G]) ** 2 @ pops)


def probe_atom(field, config: ProtocolConfig | None = None,
               variant: str = "dispersive") -> dict[str, Branch]:
    """Send one atom (prepared in |e>) through R1 -> interaction -> R2 -> detector;
    returns both branches with Born probabilities and post-measurement fields."""
    config = config or ProtocolConfig()
    if isinstance(field, FieldState):
        field = pure_to_density(field)
    elif not isinstance(field, DensityOperator):
        raise TypeError(f"field must be FieldState or DensityOperator, got {type(field)}")
    probs = detection_probabilities(field.diagonal(), config, variant)
    m = field_kraus(config, variant, field.dim)
    out = {}
    for idx, name in ((_E, "e"), (_G, "g")):
        p = probs[idx]
        rho = None
        if p >= 1e-14:
            rho = DensityOperator(m[idx][:, None] * field.matrix * m[idx].conj() / p)
        out[name] = Branch(name, p, rho)
    return out


def prepare_cat(alpha: complex, config: ProtocolConfig | None = None,
                spec: HilbertSpec | None = None) -> dict[str, Branch]:
    """Inject |alpha>, run one atom through the interferometer, detect.
    The probe must measure photon-number parity (DomainError otherwise):
    then detecting g leaves the even cat (psi1 = 0), detecting e the odd
    cat (psi1 = pi), with probabilities (1 +- e^{-2|alpha|^2})/2.
    """
    config = config or ProtocolConfig()
    spec = spec or HilbertSpec(default_dim(abs(alpha)))
    _require_parity(config, "dispersive", spec.dim)
    return probe_atom(coherent_state(spec, alpha), config)


@dataclass(frozen=True)
class ConditionalTable:
    """Two-atom outcome statistics at one delay."""

    alpha: complex
    delay: float
    p_e1: float
    p_g1: float
    p_e2_given_e1: float
    p_g2_given_e1: float
    p_e2_given_g1: float
    p_g2_given_g1: float
    p_e2: float
    p_g2: float


@dataclass(frozen=True)
class TwoAtomScan(Sequence):
    """A delay scan: one ConditionalTable per delay (indexable like a list),
    plus the damped field after each non-degenerate first-atom outcome
    ("e", "g") at every delay."""

    rows: tuple[ConditionalTable, ...]
    trajectories: dict[str, list[DensityOperator]]

    def __getitem__(self, k):
        return self.rows[k]

    def __len__(self) -> int:
        return len(self.rows)


def two_atom_scan(alpha: complex, delays, model: DampingModel,
                  config: ProtocolConfig | None = None,
                  spec: HilbertSpec | None = None) -> TwoAtomScan:
    """Delay scan of the two-atom correlations, sharing one damping
    trajectory per first-atom branch."""
    config = config or ProtocolConfig()
    delays = np.asarray(delays, dtype=float)
    first = prepare_cat(alpha, config, spec)
    trajs = {o: evolve_trajectory(first[o].field_after, model, delays)
             for o in ("e", "g") if first[o].field_after is not None}
    p_e1, p_g1 = first["e"].probability, first["g"].probability
    rows = []
    for k, delay in enumerate(delays):
        cond = {o: {"e": np.nan, "g": np.nan} for o in ("e", "g")}
        for o, traj in trajs.items():
            p_e2, p_g2 = detection_probabilities(traj[k].diagonal(), config, "dispersive")
            cond[o] = {"e": p_e2, "g": p_g2}
        p_e2 = sum(first[o].probability * cond[o]["e"] for o in trajs)
        rows.append(ConditionalTable(
            alpha=alpha, delay=float(delay),
            p_e1=p_e1, p_g1=p_g1,
            p_e2_given_e1=cond["e"]["e"], p_g2_given_e1=cond["e"]["g"],
            p_e2_given_g1=cond["g"]["e"], p_g2_given_g1=cond["g"]["g"],
            p_e2=p_e2, p_g2=1.0 - p_e2,
        ))
    return TwoAtomScan(tuple(rows), trajs)


def two_atom_conditional(alpha: complex, delay: float, model: DampingModel,
                         config: ProtocolConfig | None = None,
                         spec: HilbertSpec | None = None) -> ConditionalTable:
    """Conditional probabilities P(o2 | o1) with a damping delay between atoms."""
    return two_atom_scan(alpha, [delay], model, config, spec)[0]
