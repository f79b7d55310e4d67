"""cavitylab: a numerical laboratory for cavity-QED field states.

Prepare coherent-state superpositions with dispersive atom-field
interferometry, watch them decohere under cavity damping, and reconstruct
their Wigner functions both tomographically (inverse Radon) and directly
(displaced-parity readout).
"""

__version__ = "0.1.0"

from .errors import (
    CavityLabError,
    ConfigError,
    CoverageError,
    DegenerateBranchError,
    DegenerateStateError,
    DomainError,
    IntegrationError,
    NoDetectionError,
    NonHermitianError,
    QuadratureError,
    SamplingError,
    SubspaceError,
    TruncationError,
    WeightError,
)
from .fock import (
    DensityOperator,
    FieldState,
    HilbertSpec,
    cat_state,
    coherent_state,
    default_dim,
    fock_state,
    mix,
    promote,
    pure_to_density,
    vacuum,
)
from .dynamics import (
    DampingModel,
    coherence_trajectory,
    damped_populations,
    decoherence_time,
    evolve,
    separation_measure,
)
from .protocol import (
    detection_probabilities,
    field_kraus,
    prepare_cat,
    probe_atom,
    two_atom_scan,
)
from .wigner import (
    PhaseSpaceGrid,
    WignerMap,
    default_grid,
    fringe_contrast,
    marginal_distribution,
    moyal_average,
    radon_of_map,
    wigner_map,
    wigner_point,
    wigner_position,
)
from .tomo import (
    inverse_radon,
    pauli_incompleteness_demo,
    reconstruct_from_samples,
    sample_homodyne,
    uniform_angles,
)
from .direct import (
    direct_point_exact,
    monitor_origin,
    scan_map,
)
