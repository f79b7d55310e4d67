"""Exception types shared across the package, the rules by which every
entry point checks its arguments (``number`` for a scalar, the CLI's option
table too, ``array`` for the entries of a real array, ``complex_array``
for those of a complex one and ``instance`` for an argument of any package
type: a state, a HilbertSpec, a DampingModel, a PhaseSpaceGrid or a
WignerMap), and ``bound``, the one place a measured value meets its
tolerance."""

import math
import numbers

import numpy as np

# the largest count or size an entry point takes: numpy's sizes and counts are int64
MAX_COUNT = int(np.iinfo(np.int64).max)


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


def number(value, name, integral=False, minimum=None, exclusive_minimum=None, maximum=None):
    """`value` unchanged, or as an int if `integral`, when it is a finite real
    number (not a bool), integral if `integral` (10.0 is taken), at least
    `minimum`, above `exclusive_minimum` and at most `maximum`; otherwise a
    DomainError that ends with `name` in parentheses."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    whole = isinstance(value, numbers.Integral)
    if real and not (whole or math.isfinite(value)):
        what = "is not a finite number"
    elif not real or integral and not (whole or value.is_integer()):
        what = f"is not of type {'integer' if integral else 'number'!r}"
    elif minimum is not None and value < minimum:
        what = f"is less than the minimum of {minimum!r}"
    elif exclusive_minimum is not None and value <= exclusive_minimum:
        what = f"is less than or equal to the minimum of {exclusive_minimum!r}"
    elif maximum is not None and value > maximum:
        what = f"is greater than the maximum of {maximum!r}"
    else:
        return int(value) if integral else value
    raise DomainError(f"{value!r} {what} ({name})")


def _entries(value, name, kinds):
    try:
        values = np.asarray(value)
    except ValueError:  # numpy refuses a ragged nesting of sequences
        raise DomainError(f"ragged entries do not form an array ({name})") from None
    if values.dtype.kind not in kinds:
        raise DomainError(f"entries of dtype {values.dtype} are not of type 'number' ({name})")
    return values


def array(value, name, minimum=None, below=None):
    """`value` as a float array when its entries are finite real numbers, at
    least `minimum` and below `below`; otherwise a DomainError that quotes
    the first refused entry and ends with `(name)`, as ``number``'s do."""
    values = _entries(value, name, "iuf").astype(float, copy=False)
    # a finite sum of squares (which may overflow) and extremes within the
    # bounds pass every entry; only an array that fails is searched
    if (math.isfinite(np.vdot(values, values))
            and (minimum is None or values.min(initial=np.inf) >= minimum)
            and (below is None or values.max(initial=-np.inf) < below)):
        return values
    refused = ~np.isfinite(values)
    if minimum is not None:
        refused |= values < minimum
    if below is not None:
        refused |= values >= below
    if refused.any():
        entry = values.flat[np.argmax(refused)].item()
        number(entry, name, minimum=minimum)
        raise DomainError(f"{entry!r} is greater than or equal to the maximum of {below!r} "
                          f"({name})")
    return values


def complex_array(value, name):
    """`value` as a complex array when its entries are numbers (not bools), finite
    or not; otherwise a DomainError that ends with `(name)`."""
    return _entries(value, name, "iufc").astype(complex, copy=False)


def instance(value, cls, name):
    """`value` when it is an instance of `cls`; otherwise a DomainError that
    ends with `(name)`, as ``number``'s do."""
    if isinstance(value, cls):
        return value
    raise DomainError(f"{type(value).__name__} is not of type {cls.__name__!r} ({name})")


def bound(value, limit, name, error):
    """`value` when it is at most `limit`; otherwise, NaN and inf included,
    an `error` that names the measured `name`, its value and the limit."""
    if value <= limit:
        return value
    raise error(f"{name} {value:.4g} exceeds the limit of {limit!r}")
