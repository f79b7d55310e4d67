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
so two zones on an empty cavity act as a pi pulse, e -> g.  A dephasing
eta puts the relative phase e^{i eta} on |e> just before the second zone.

Every reader of an atom (cat preparation, the two-atom monitor, the
direct readouts) measures photon-number parity, so each variant runs at
the one pair of angles (phi, eta) at which its weights
|m_g(n)|^2 - |m_e(n)|^2 equal (-1)^n.  There every arm phase is a quarter
turn, and ``field_kraus`` writes the amplitudes exactly: the weights are
(-1)^n with no rounding (the tests check every n < 2^19).  The variants
share |m_s(n)|^2 there, so the Born rule names no interaction; only
``probe_atom`` does, and it guards the resonant probe's subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import DampingModel, damped_populations
from .errors import (MAX_COUNT, DegenerateBranchError, DomainError, SubspaceError, array, bound,
                     instance, number)
from .fock import DensityOperator, HilbertSpec, coherent_state, pure_to_density, turn

_E, _G = 0, 1  # atom level indices


def field_kraus(variant: str, dim: int) -> np.ndarray:
    """Kraus amplitudes m[s, n] (s = 0 for e, 1 for g) of one atom crossing
    R1 -> interaction -> R2 at the angles where `variant` reads photon-number
    parity, in a field truncated to `dim`.  With arm_s(n) the phase that
    the atom's |s> arm carries between the zones (|e>'s including the R2
    dephasing e^{i eta}), the pulse convention gives
    m = R2 . diag(arm) . R1|e> = (arm_e - arm_g, arm_e + arm_g) / 2.

    * ``"dispersive"`` (phi = pi, eta = 0): arm_e = (-1)^n, arm_g = 1.
    * ``"opposite"``: dispersive shifts of opposite sign, e^{-i phi n} on
      |g> and e^{i eta} e^{i phi (n - 1)} on |e>, the e^{-i phi} being the
      constant differential Stark phase.  At phi = eta = pi/2 this reads
      the same parity as the pi-dispersive probe (Lutterbach & Davidovich,
      PRL 78, 2547 (1997)): arm_e = i^n, arm_g = (-i)^n.
    * ``"resonant-2pi"`` (eta = 0): sign flip of |e>|1> only; exact only on
      n <= 1.

    The arm phases are quarter turns (``fock.turn``), read from a table, not
    ``np.exp``, so every amplitude is exactly 0, +-1 or +-i.  An unknown
    variant, or a `dim` not an integer in [0, MAX_COUNT], raises DomainError.
    """
    n = np.arange(number(dim, "dim", integral=True, minimum=0, maximum=MAX_COUNT))
    if variant == "dispersive":
        arm_e, arm_g = turn(np.pi, n), turn(0.0, n)
    elif variant == "opposite":
        arm_e, arm_g = turn(np.pi / 2, n), turn(-np.pi / 2, n)
    elif variant == "resonant-2pi":
        arm_e, arm_g = turn(np.pi, n == 1), turn(0.0, n)
    else:
        raise DomainError(f"unknown interaction variant {variant!r}")
    return 0.5 * np.stack([arm_e - arm_g, arm_e + arm_g])


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


def detection_probabilities(pops) -> tuple:
    """Born rule of one parity probe reading fields with photon-number
    populations `pops`, shape (..., dim): (P_e, P_g), each of shape (...),
    with P_s = sum_n |m_s(n)|^2 pops_n and m the pi-dispersive amplitudes of
    ``field_kraus``, whose |m_s|^2 every variant shares.  A population not
    finite or below -1e-12 (the DensityOperator gate's floor), and
    populations with no level axis or no levels, raise DomainError."""
    pops = array(pops, "pops", minimum=-1e-12)
    levels = number(pops.shape[-1] if pops.ndim else 0, "levels of pops", minimum=1)
    return _born(field_kraus("dispersive", levels), pops)


def _born(m: np.ndarray, pops: np.ndarray) -> tuple:
    """``detection_probabilities`` with the Kraus amplitudes m already built,
    for a caller that also reads the post-measurement fields."""
    # a sum along each row rounds alike whatever the stack's shape
    return (pops * np.abs(m[_E]) ** 2).sum(-1), (pops * np.abs(m[_G]) ** 2).sum(-1)


def probe_atom(field: DensityOperator, variant: str = "dispersive") -> dict[str, Branch]:
    """Send one atom (prepared in |e>) through R1 -> interaction -> R2 -> detector;
    returns both branches with Born probabilities and post-measurement fields.
    A `field` that is not a DensityOperator raises DomainError; the resonant
    probe, exact only on n <= 1, refuses (SubspaceError) a field with more
    than 1e-8 above one photon."""
    pops = instance(field, DensityOperator, "field").diagonal()
    if variant == "resonant-2pi":
        bound(float(np.sum(np.abs(pops[2:]))), 1e-8,
              "resonant probe's field population above one photon", SubspaceError)
    m = field_kraus(variant, field.dim)
    probs = _born(m, pops)
    out = {}
    for idx, name in ((_E, "e"), (_G, "g")):
        p = float(probs[idx])
        rho = None
        if p >= 1e-14:
            rho = DensityOperator(m[idx][:, None] * field.matrix * m[idx].conj() / p)
        out[name] = Branch(name, p, rho)
    return out


def prepare_cat(alpha: complex, spec: HilbertSpec) -> dict[str, Branch]:
    """Inject |alpha> in `spec`, run one pi-dispersive atom through the
    interferometer, detect: detecting g leaves the even cat (psi1 = 0),
    detecting e the odd cat (psi1 = pi), with probabilities (1 +- e^{-2|alpha|^2})/2.
    """
    return probe_atom(pure_to_density(coherent_state(spec, alpha)))


def two_atom_scan(alpha: complex, delays, model: DampingModel, spec: HilbertSpec) -> dict:
    """Delay scan of the two-atom correlations: the populations of both
    first-atom branches are damped in one pass
    (``dynamics.damped_populations``; the Born rule reads nothing else) and
    read by one pi-dispersive Born rule.  Returns a dict: `branches`, the
    first atom's ``prepare_cat`` outcome (P(e1) and P(g1) are their
    probabilities), and the (T,) arrays `p_e2_given_e1`, `p_g2_given_e1`,
    `p_e2_given_g1`, `p_g2_given_g1` and `p_e2` (P(g2) = 1 - p_e2), indexed
    like `delays`.  A conditional on a first-atom outcome of probability 0
    reads NaN.  Raises DomainError, before the cat is prepared, for a `model`
    that is not a DampingModel, then for the delays that
    ``damped_populations`` refuses as times, and TruncationError when a
    damped branch puts more than 1e-8 on its top Fock level."""
    instance(model, DampingModel, "model")
    first = prepare_cat(alpha, spec)
    live = [o for o in ("e", "g") if first[o].field_after is not None]
    pops = damped_populations([first[o].field_after for o in live], model, delays)
    p_e, p_g = detection_probabilities(pops)
    cond = {o: np.full((2, pops.shape[1]), np.nan) for o in ("e", "g")}
    cond.update({o: (p_e[b], p_g[b]) for b, o in enumerate(live)})
    return {"branches": first,
            "p_e2_given_e1": cond["e"][0], "p_g2_given_e1": cond["e"][1],
            "p_e2_given_g1": cond["g"][0], "p_g2_given_g1": cond["g"][1],
            "p_e2": sum(first[o].probability * p_e[b] for b, o in enumerate(live))}
