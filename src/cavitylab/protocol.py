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
zone.

Cat preparation, the two-atom monitor and the direct readouts measure
photon-number parity: they run each variant at the angles of
``parity_config``, where the weights |m_g(n)|^2 - |m_e(n)|^2 equal (-1)^n
(the tests check this to 1e-12 for n < 2^19).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import DampingModel, _diagonals
from .errors import DegenerateBranchError, DomainError, SubspaceError, TruncationError
from .fock import (
    DensityOperator,
    FieldState,
    HilbertSpec,
    coherent_state,
    default_dim,
    pure_to_density,
    require_hermitian,
)

_E, _G = 0, 1  # atom level indices


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-photon conditional phase and R2 dephasing."""

    phi: float = np.pi
    eta: float = 0.0

    def __post_init__(self):
        for name in ("phi", "eta"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")


# one Ramsey zone in the (e, g) basis, by the pulse convention above
_ZONE = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


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
    r2 = _ZONE @ np.diag([np.exp(1j * config.eta), 1.0])
    return r2 @ (f * _ZONE[:, _E, None])


# the angles at which each variant reads photon-number parity; the opposite
# shift reproduces the pi-dispersive readout at phi = eta = pi/2 (Lutterbach
# & Davidovich, PRL 78, 2547 (1997)), and phi does not enter the resonant one
_PARITY = {
    "dispersive": ProtocolConfig(phi=np.pi, eta=0.0),
    "opposite": ProtocolConfig(phi=np.pi / 2, eta=np.pi / 2),
    "resonant-2pi": ProtocolConfig(eta=0.0),
}


def parity_config(variant: str) -> ProtocolConfig:
    """The angles at which `variant` measures photon-number parity."""
    if variant not in _PARITY:
        raise ValueError(f"unknown interaction variant {variant!r}")
    return _PARITY[variant]


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
                            variant: str) -> tuple:
    """Born rule of one atom reading fields with photon-number populations
    `pops`, shape (..., dim): (P_e, P_g), each of shape (...), with
    P_s = sum_n |m_s(n)|^2 pops_n and m from ``field_kraus``.  The resonant
    probe is exact only on n <= 1, so it refuses (SubspaceError) any field
    with more than 1e-8 population above one photon."""
    return _born(field_kraus(config, variant, pops.shape[-1]), pops, variant)


def _born(m: np.ndarray, pops: np.ndarray, variant: str) -> tuple:
    """``detection_probabilities`` with the Kraus amplitudes m already built,
    for a caller that also reads the post-measurement fields."""
    if variant == "resonant-2pi":
        tail = float(np.max(np.sum(np.abs(pops[..., 2:]), axis=-1), initial=0.0))
        if tail > 1e-8:
            raise SubspaceError(
                f"field population {tail:.3e} above one photon; resonant probe is not exact"
            )
    # a sum along each row rounds alike whatever the stack's shape
    return (pops * np.abs(m[_E]) ** 2).sum(-1), (pops * np.abs(m[_G]) ** 2).sum(-1)


def probe_atom(field, config: ProtocolConfig | None = None,
               variant: str = "dispersive") -> dict[str, Branch]:
    """Send one atom (prepared in |e>) through R1 -> interaction -> R2 -> detector;
    returns both branches with Born probabilities and post-measurement fields.
    The angles default to the variant's parity angles (``parity_config``)."""
    config = config or parity_config(variant)
    if isinstance(field, FieldState):
        field = pure_to_density(field)
    elif not isinstance(field, DensityOperator):
        raise TypeError(f"field must be FieldState or DensityOperator, got {type(field)}")
    m = field_kraus(config, variant, field.dim)
    probs = _born(m, field.diagonal(), variant)
    out = {}
    for idx, name in ((_E, "e"), (_G, "g")):
        p = float(probs[idx])
        rho = None
        if p >= 1e-14:
            rho = DensityOperator(m[idx][:, None] * field.matrix * m[idx].conj() / p)
        out[name] = Branch(name, p, rho)
    return out


def prepare_cat(alpha: complex, spec: HilbertSpec | None = None) -> dict[str, Branch]:
    """Inject |alpha>, run one pi-dispersive atom through the interferometer,
    detect: detecting g leaves the even cat (psi1 = 0), detecting e the odd
    cat (psi1 = pi), with probabilities (1 +- e^{-2|alpha|^2})/2.
    """
    spec = spec or HilbertSpec(default_dim(abs(alpha)))
    return probe_atom(coherent_state(spec, alpha), _PARITY["dispersive"])


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
    plus the field left by each non-degenerate first-atom outcome ("e", "g")
    at zero delay."""

    rows: tuple[ConditionalTable, ...]
    fields: dict[str, DensityOperator]

    def __getitem__(self, k):
        return self.rows[k]

    def __len__(self) -> int:
        return len(self.rows)


def two_atom_scan(alpha: complex, delays, model: DampingModel,
                  spec: HilbertSpec | None = None) -> TwoAtomScan:
    """Delay scan of the two-atom correlations: the populations of both
    first-atom branches are damped in one pass (the first diagonal of
    ``dynamics._diagonals``; the Born rule reads nothing else) and read by
    one pi-dispersive Born rule.  The default truncation allows for the
    model's thermal photons (``fock.default_dim``).  Raises TruncationError
    when a damped branch puts more than 1e-8 on its top Fock level."""
    delays = np.asarray(delays, dtype=float)
    if delays.size == 0:
        raise DomainError("a delay scan needs at least one delay")
    first = prepare_cat(alpha, spec or HilbertSpec(default_dim(abs(alpha), model.n_thermal)))
    fields = {o: first[o].field_after for o in ("e", "g") if first[o].field_after is not None}
    # diagonal 0 comes first and is never zero in a field of unit trace
    pops = next(_diagonals(np.stack([require_hermitian(f) for f in fields.values()]),
                           model, delays))[1].real
    top = float(np.max(pops[..., -1]))
    if top > 1e-8:
        raise TruncationError(f"damped field holds {top:.3e} > 1e-8 on its top Fock level "
                              f"(dim {pops.shape[-1]}); increase dim")
    p_e, p_g = detection_probabilities(pops, _PARITY["dispersive"], "dispersive")
    nan = [np.nan] * delays.size
    cond = {o: (nan, nan) for o in ("e", "g")}
    cond.update({o: (p_e[b].tolist(), p_g[b].tolist()) for b, o in enumerate(fields)})
    p_e2 = sum(first[o].probability * p_e[b] for b, o in enumerate(fields)).tolist()
    p_e1, p_g1 = first["e"].probability, first["g"].probability
    rows = tuple(ConditionalTable(
        alpha=alpha, delay=delay, p_e1=p_e1, p_g1=p_g1,
        p_e2_given_e1=cond["e"][0][k], p_g2_given_e1=cond["e"][1][k],
        p_e2_given_g1=cond["g"][0][k], p_g2_given_g1=cond["g"][1][k],
        p_e2=p_e2[k], p_g2=1.0 - p_e2[k],
    ) for k, delay in enumerate(delays.tolist()))
    return TwoAtomScan(rows, fields)
