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
    annihilation,
    cat_state,
    coherent_state,
    creation,
    default_dim,
    displaced_rows,
    fock_state,
    mix,
    number_operator,
    parity,
    promote,
    pure_to_density,
    vacuum,
)
from .dynamics import (
    DampingModel,
    TimeGrid,
    cat_coherence,
    coherence_series,
    decoherence_time,
    evolve,
    evolve_trajectory,
    separation_measure,
)
from .protocol import (
    ConditionalTable,
    ProtocolConfig,
    TwoAtomScan,
    detection_probabilities,
    field_kraus,
    prepare_cat,
    probe_atom,
    two_atom_conditional,
    two_atom_scan,
)
from .wigner import (
    PhaseSpaceGrid,
    WignerMap,
    default_grid,
    fringe_contrast,
    marginal_distribution,
    moyal_average,
    pauli_counterexample,
    photon_number_distribution,
    radon_of_map,
    wigner_map,
    wigner_point,
    wigner_position,
)
from .tomo import (
    QuadratureHistogram,
    SinogramSet,
    inverse_radon,
    pauli_incompleteness_demo,
    reconstruct_exact,
    reconstruct_from_samples,
    sample_homodyne,
    uniform_angles,
)
from .direct import (
    MeasurementRecord,
    MonitorPoint,
    direct_point_exact,
    direct_point_sampled,
    monitor_origin,
    scan_map,
)
