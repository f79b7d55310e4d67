"""Exception types shared across the package."""


class CavityLabError(Exception):
    """Base class for all package-specific errors."""


class TruncationError(CavityLabError):
    """Requested amplitude or operator would corrupt the truncated Fock space."""


class DegenerateStateError(CavityLabError):
    """Superposition normalization vanished (e.g. odd cat at alpha -> 0)."""


class WeightError(CavityLabError):
    """Mixture weights are negative or do not sum to one."""


class IntegrationError(CavityLabError):
    """Damped evolution drifted from the initial trace beyond its tolerance."""


class DomainError(CavityLabError):
    """Argument outside the physical domain of the operation."""


class SubspaceError(CavityLabError):
    """State has support outside the subspace where the operation is exact."""


class DegenerateBranchError(CavityLabError):
    """A zero-probability measurement branch was asked for a normalized state."""


class QuadratureError(CavityLabError):
    """Numerical quadrature failed its convergence estimate."""


class NonHermitianError(CavityLabError):
    """A density matrix is not Hermitian, or a real-valued quantity came out
    with too large an imaginary residue."""


class SamplingError(CavityLabError):
    """Sampling density tabulation failed its normalization check."""


class CoverageError(CavityLabError):
    """Tomographic data does not cover the requested reconstruction."""


class NoDetectionError(CavityLabError):
    """No shots survived detector inefficiency; nothing to estimate."""


class ConfigError(CavityLabError):
    """Experiment configuration is invalid."""
