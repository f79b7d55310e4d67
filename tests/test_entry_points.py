"""Every numeric parameter of every package export, swept over NaN, inf, -1,
0 and 2.5 one at a time in an otherwise valid call.

Each call must raise a CavityLabError, or, where the function documents the
value as valid (VALID), return a finite result.  No call may raise a bare
exception or return NaN, except the NaN a function documents (PARTLY_NAN).
Array parameters take the substitute as one of their entries.  Below the
sweep, each hole the sweep closed has a named test of its own.  At the end,
every parameter annotated with a class the package exports is swept over
values of other types.
"""

import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest

import cavitylab
from cavitylab import (
    CavityLabError,
    DampingModel,
    DomainError,
    FieldState,
    HilbertSpec,
    IntegrationError,
    PhaseSpaceGrid,
    TruncationError,
    WeightError,
    WignerMap,
    cat_state,
    coherence_trajectory,
    coherent_state,
    damped_populations,
    decoherence_time,
    default_dim,
    default_grid,
    detection_probabilities,
    direct_point_exact,
    evolve,
    field_kraus,
    fock_state,
    fringe_contrast,
    inverse_radon,
    marginal_distribution,
    mix,
    monitor_origin,
    moyal_average,
    pauli_incompleteness_demo,
    prepare_cat,
    probe_atom,
    promote,
    pure_to_density,
    radon_of_map,
    reconstruct_from_samples,
    sample_homodyne,
    scan_map,
    separation_measure,
    two_atom_scan,
    uniform_angles,
    vacuum,
    wigner_map,
    wigner_point,
    wigner_position,
)
from cavitylab import protocol, tomo
from cavitylab.dynamics import fit_coherence_decay
from cavitylab.errors import MAX_COUNT, array, bound
from cavitylab.fock import DensityOperator, quadrature_q1, quadrature_q2, radial_rows
from cavitylab.wigner import MAX_GRID_NODES

SUBSTITUTES = {"nan": float("nan"), "inf": float("inf"), "-1": -1, "0": 0, "2.5": 2.5}

SPEC = HilbertSpec(40)
FIELD = cat_state(SPEC, 1.0, 0.0)
RHO = pure_to_density(FIELD)
MODEL = DampingModel(1.0)
GRID = PhaseSpaceGrid(-1.5, 1.5, -1.5, 1.5, 7, 7)
WMAP = wigner_map(RHO, GRID)
Q = np.linspace(-1.0, 1.0, 3)
# a sinogram inverse_radon reads onto GRID: 8 angles, q over [-3, 3]
ANGLES = uniform_angles(8)
SINO_Q = np.linspace(-3.0, 3.0, 61)
DENSITIES = marginal_distribution(RHO, ANGLES, SINO_Q)


def _with(values, index, x):
    """A float copy of `values` with x at `index`."""
    out = np.array(values, dtype=float)
    out[index] = x
    return out


# "export.parameter" -> the call with x in that parameter
CALLS = {
    "HilbertSpec.dim": lambda x: HilbertSpec(x),
    "cat_state.alpha": lambda x: cat_state(SPEC, x, 0.0),
    "cat_state.psi1": lambda x: cat_state(SPEC, 1.0, x),
    "coherent_state.alpha": lambda x: coherent_state(SPEC, x),
    "default_dim.alpha_max": lambda x: default_dim(x),
    "default_dim.n_thermal": lambda x: default_dim(1.0, x),
    "fock_state.n": lambda x: fock_state(SPEC, x),
    "mix.weights": lambda x: mix([vacuum(SPEC), FIELD], [x, 1 - x]),
    "DampingModel.kappa": lambda x: DampingModel(x),
    "DampingModel.n_thermal": lambda x: DampingModel(1.0, x),
    "coherence_trajectory.times": lambda x: coherence_trajectory(RHO, MODEL, [0.0, x], 1.0),
    "coherence_trajectory.alpha": lambda x: coherence_trajectory(RHO, MODEL, [0.0, 1.0], x),
    "damped_populations.times": lambda x: damped_populations([RHO], MODEL, [0.0, x]),
    "decoherence_time.mean_n": lambda x: decoherence_time(MODEL, x),
    "evolve.t": lambda x: evolve(RHO, MODEL, x),
    "separation_measure.d": lambda x: separation_measure(x, 1.0, 1.0),
    "separation_measure.mass": lambda x: separation_measure(1.0, x, 1.0),
    "separation_measure.temperature": lambda x: separation_measure(1.0, 1.0, x),
    "field_kraus.dim": lambda x: field_kraus("dispersive", x),
    "detection_probabilities.pops": lambda x: detection_probabilities([x, 1 - x]),
    "prepare_cat.alpha": lambda x: prepare_cat(x, SPEC),
    "two_atom_scan.alpha": lambda x: two_atom_scan(x, [0.0, 1.0], MODEL, SPEC),
    "two_atom_scan.delays": lambda x: two_atom_scan(1.0, [0.0, x], MODEL, SPEC),
    "PhaseSpaceGrid.q1_min": lambda x: PhaseSpaceGrid(x, 3, -3, 3, 5, 5),
    "PhaseSpaceGrid.q1_max": lambda x: PhaseSpaceGrid(-3, x, -3, 3, 5, 5),
    "PhaseSpaceGrid.q2_min": lambda x: PhaseSpaceGrid(-3, 3, x, 3, 5, 5),
    "PhaseSpaceGrid.q2_max": lambda x: PhaseSpaceGrid(-3, 3, -3, x, 5, 5),
    "PhaseSpaceGrid.n1": lambda x: PhaseSpaceGrid(-3, 3, -3, 3, x, 5),
    "PhaseSpaceGrid.n2": lambda x: PhaseSpaceGrid(-3, 3, -3, 3, 5, x),
    "default_grid.alpha_max": lambda x: default_grid(x),
    "default_grid.step": lambda x: default_grid(1.0, step=x),
    "default_grid.pad": lambda x: default_grid(1.0, pad=x),
    "marginal_distribution.theta": lambda x: marginal_distribution(RHO, x, Q),
    "marginal_distribution.q_theta": lambda x: marginal_distribution(RHO, 0.3, [0.0, x]),
    "moyal_average.monomial": lambda x: moyal_average(RHO, (x, 1)),
    "radon_of_map.theta": lambda x: radon_of_map(WMAP, x),
    "wigner_point.alpha": lambda x: wigner_point(RHO, x),
    "wigner_position.q": lambda x: wigner_position(RHO, x, 0.5),
    "wigner_position.p": lambda x: wigner_position(RHO, 0.5, x),
    "inverse_radon.thetas": lambda x: inverse_radon(_with(ANGLES, 0, x), SINO_Q, DENSITIES,
                                                    GRID),
    "inverse_radon.q": lambda x: inverse_radon(ANGLES, _with(SINO_Q, 0, x), DENSITIES, GRID),
    "inverse_radon.densities": lambda x: inverse_radon(ANGLES, SINO_Q,
                                                       _with(DENSITIES, (3, 30), x), GRID),
    "reconstruct_from_samples.angles": lambda x: reconstruct_from_samples(
        RHO, np.r_[0.0, x, uniform_angles(8)[2:]], 200, 1, GRID),
    "reconstruct_from_samples.n_per_angle": lambda x: reconstruct_from_samples(
        RHO, uniform_angles(8), x, 1, GRID),
    "reconstruct_from_samples.seed": lambda x: reconstruct_from_samples(
        RHO, uniform_angles(8), 200, x, GRID),
    "reconstruct_from_samples.bin_width": lambda x: reconstruct_from_samples(
        RHO, uniform_angles(8), 200, 1, GRID, bin_width=x),
    "reconstruct_from_samples.q_range": lambda x: reconstruct_from_samples(
        RHO, uniform_angles(8), 200, 1, GRID, q_range=x),
    "sample_homodyne.theta": lambda x: sample_homodyne(RHO, x, 100, 1),
    "sample_homodyne.n_samples": lambda x: sample_homodyne(RHO, 0.3, x, 1),
    "sample_homodyne.seed": lambda x: sample_homodyne(RHO, 0.3, 100, x),
    "sample_homodyne.bin_width": lambda x: sample_homodyne(RHO, 0.3, 100, 1, bin_width=x),
    "sample_homodyne.q_range": lambda x: sample_homodyne(RHO, 0.3, 100, 1, q_range=x),
    "uniform_angles.count": lambda x: uniform_angles(x),
    "direct_point_exact.alpha": lambda x: direct_point_exact(RHO, x),
    "monitor_origin.times": lambda x: monitor_origin(RHO, MODEL, [0.0, x], 50, 0.9, 1),
    "monitor_origin.n_shots": lambda x: monitor_origin(RHO, MODEL, [0.0, 0.5], x, 0.9, 1),
    "monitor_origin.efficiency": lambda x: monitor_origin(RHO, MODEL, [0.0, 0.5], 50, x, 1),
    "monitor_origin.seed": lambda x: monitor_origin(RHO, MODEL, [0.0, 0.5], 50, 0.9, x),
}

# the substitutes each function documents as valid; every other one is refused
VALID = {
    "cat_state.alpha": {"-1", "0", "2.5"},  # 0: the even cat at alpha = 0 is the vacuum
    "cat_state.psi1": {"-1", "0", "2.5"},
    "coherent_state.alpha": {"-1", "0", "2.5"},
    "default_dim.alpha_max": {"-1", "0", "2.5"},  # |alpha_max|, floored at 1
    "default_dim.n_thermal": {"0", "2.5"},
    "fock_state.n": {"0"},
    "mix.weights": {"0"},  # weights 0 and 1
    "DampingModel.kappa": {"2.5"},
    "DampingModel.n_thermal": {"0", "2.5"},
    "coherence_trajectory.times": {"0", "2.5"},
    "coherence_trajectory.alpha": {"-1", "0", "2.5"},
    "damped_populations.times": {"0", "2.5"},
    "decoherence_time.mean_n": {"2.5"},
    "evolve.t": {"0", "2.5"},
    "separation_measure.d": {"2.5"},
    "separation_measure.mass": {"2.5"},
    "separation_measure.temperature": {"2.5"},
    "field_kraus.dim": {"0"},  # no levels: the variant check alone
    "detection_probabilities.pops": {"0"},  # 2.5 leaves a population of -1.5
    "prepare_cat.alpha": {"-1", "0", "2.5"},  # 0: the e branch has probability 0
    "two_atom_scan.alpha": {"-1", "0", "2.5"},
    "two_atom_scan.delays": {"0", "2.5"},
    "PhaseSpaceGrid.q1_min": {"-1", "0", "2.5"},
    "PhaseSpaceGrid.q1_max": {"-1", "0", "2.5"},
    "PhaseSpaceGrid.q2_min": {"-1", "0", "2.5"},
    "PhaseSpaceGrid.q2_max": {"-1", "0", "2.5"},
    "default_grid.alpha_max": {"-1", "0", "2.5"},
    "default_grid.step": {"2.5"},
    "default_grid.pad": {"0", "2.5"},
    "marginal_distribution.theta": {"0", "2.5"},
    "marginal_distribution.q_theta": {"-1", "0", "2.5"},
    "moyal_average.monomial": {"0"},
    "radon_of_map.theta": {"0", "2.5"},
    "wigner_point.alpha": {"-1", "0", "2.5"},
    "wigner_position.q": {"-1", "0", "2.5"},
    "wigner_position.p": {"-1", "0", "2.5"},
    "inverse_radon.thetas": {"0", "2.5"},  # 0 is the angle it replaces
    "inverse_radon.densities": {"-1", "0", "2.5"},
    "reconstruct_from_samples.angles": {"2.5"},  # 0 repeats the angle 0
    "reconstruct_from_samples.seed": {"0"},
    "reconstruct_from_samples.bin_width": {"2.5"},
    "sample_homodyne.theta": {"0", "2.5"},
    "sample_homodyne.seed": {"0"},
    "sample_homodyne.bin_width": {"2.5"},
    # no q_range here: a window of 2.5 holds 95 % of RHO's marginal, and
    # sample_homodyne refuses (SamplingError) any window losing more than 1e-8
    "direct_point_exact.alpha": {"-1", "0", "2.5"},
    "monitor_origin.times": {"0", "2.5"},
    "monitor_origin.n_shots": {"0"},
    "monitor_origin.seed": {"0"},
}

# valid calls whose result is documented to hold NaN: the parts that must be finite
PARTLY_NAN = {
    # the conditionals on a first atom in e, which alpha = 0 never detects, read NaN
    ("two_atom_scan.alpha", "0"): lambda scan: (scan["branches"], scan["p_e2"],
                                                 scan["p_e2_given_g1"], scan["p_g2_given_g1"]),
    # no shots: the estimate and its stderr read NaN
    ("monitor_origin.n_shots", "0"): lambda w0: w0[0],
}

# exports, or parameters of a swept export, with no number to sweep
NOT_SWEPT = {
    "damped_populations.rhos": "takes density operators",
    "DensityOperator": "takes a matrix; its gate refuses a non-finite entry",
    "FieldState": "takes an amplitude array, the value record of the constructors",
    "WignerMap": "takes a grid and a values array",
    "promote": "takes a state and a HilbertSpec",
    "pure_to_density": "takes a state",
    "vacuum": "takes a HilbertSpec",
    "probe_atom": "takes a state and a variant name",
    "fringe_contrast": "takes a WignerMap",
    "wigner_map": "takes a state and a PhaseSpaceGrid",
    "pauli_incompleteness_demo": "takes a PhaseSpaceGrid",
    "scan_map": "takes a state and a PhaseSpaceGrid",
}


def _finite(result) -> bool:
    if result is None or isinstance(result, (str, bool)):
        return True
    if isinstance(result, dict):
        return all(_finite(v) for v in result.values())
    if isinstance(result, (tuple, list)):
        return all(_finite(v) for v in result)
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    return bool(np.all(np.isfinite(result)))


def test_every_export_is_swept_or_has_no_number():
    exports = {name for name, obj in vars(cavitylab).items()
               if not name.startswith("_") and not inspect.ismodule(obj)
               and not (inspect.isclass(obj) and issubclass(obj, Exception))}
    swept = {key.split(".")[0] for key in CALLS}
    assert exports == swept | {key.split(".")[0] for key in NOT_SWEPT}
    assert not (swept | CALLS.keys()) & NOT_SWEPT.keys()
    assert VALID.keys() <= CALLS.keys()
    assert all(labels <= SUBSTITUTES.keys() for labels in VALID.values())


@pytest.mark.parametrize("label", list(SUBSTITUTES))
@pytest.mark.parametrize("key", list(CALLS))
def test_entry_point_refuses_or_returns_a_documented_finite_result(key, label):
    try:
        result = CALLS[key](SUBSTITUTES[label])
    except CavityLabError:
        assert label not in VALID.get(key, ()), f"{key} = {label} is documented as valid"
        return
    assert label in VALID.get(key, ()), f"{key} = {label} was not refused"
    part = PARTLY_NAN.get((key, label), lambda r: r)
    assert _finite(part(result)), f"{key} = {label} returned a non-finite result"


# -- the holes the sweep closed ----------------------------------------------------


def test_default_dim_refuses_a_non_finite_amplitude():
    # nan raised a bare ValueError ("cannot convert float NaN to integer"), inf
    # an OverflowError; only the CLI calls it, and its config refuses both first
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match=r"\(alpha_max\)"):
            default_dim(bad)
    # a NaN n_thermal read as no thermal photons
    with pytest.raises(DomainError, match=r"\(n_thermal\)"):
        default_dim(1.0, np.nan)


def test_hilbert_spec_and_fock_state_refuse_a_non_integral_level():
    # HilbertSpec(2.5) and HilbertSpec(0) raised a bare ValueError, and
    # fock_state(spec, 2.5) and fock_state(spec, -1) a bare IndexError
    for dim in (2.5, 0):
        with pytest.raises(DomainError, match=r"\(dim\)"):
            HilbertSpec(dim)
    for n in (2.5, -1):
        with pytest.raises(DomainError, match=r"\(n\)"):
            fock_state(SPEC, n)
    # an integral float is taken and kept as an int
    assert HilbertSpec(4.0) == HilbertSpec(4) and type(HilbertSpec(4.0).dim) is int
    assert np.array_equal(fock_state(SPEC, 3.0).amplitudes, fock_state(SPEC, 3).amplitudes)


def test_decoherence_time_and_separation_measure_refuse_nan():
    # both returned NaN
    with pytest.raises(DomainError, match=r"\(mean_n\)"):
        decoherence_time(MODEL, np.nan)
    with pytest.raises(DomainError, match=r"\(d\)"):
        separation_measure(np.nan, 1.0, 1.0)


def test_default_grid_refuses_a_negative_pad():
    # pad = -1 returned a grid of +-0.41
    with pytest.raises(DomainError, match=r"\(pad\)"):
        default_grid(1.0, pad=-1)


def test_counts_past_the_int64_limit_are_refused():
    # 1e308 shots or Kraus levels raised a bare ValueError from numpy
    # ("Maximum allowed dimension exceeded", "Maximum allowed size exceeded");
    # both take the int64 maximum that the sample count has
    assert MAX_COUNT == np.iinfo(np.int64).max
    for call, name in ((lambda x: monitor_origin(RHO, MODEL, [0.0], n_shots=x), "n_shots"),
                       (lambda x: field_kraus("dispersive", x), "dim")):
        with pytest.raises(DomainError,
                           match=rf"1e\+308 is greater than the maximum of {MAX_COUNT} \({name}\)"):
            call(1e308)


def test_sample_homodyne_refuses_a_non_integral_sample_count():
    # 2.5 samples returned a histogram
    with pytest.raises(DomainError, match=r"\(n_samples\)"):
        sample_homodyne(RHO, 0.0, 2.5, 1)


def test_moyal_average_refuses_a_non_integral_power():
    # (1.5, 1) raised a bare TypeError from the symmetrized word
    with pytest.raises(DomainError, match=r"\(monomial power\)"):
        moyal_average(RHO, (1.5, 1))


def test_moyal_average_refuses_a_monomial_that_is_not_a_pair():
    # 5 raised a bare TypeError and (1,) a bare ValueError on unpacking
    for monomial in (5, (1,)):
        with pytest.raises(DomainError, match=r"is not a pair of powers \(monomial\)$"):
            moyal_average(RHO, monomial)


def test_wigner_map_refuses_values_that_are_not_finite_numbers():
    # strings raised a bare ValueError, and a NaN map was taken, on which
    # fringe_contrast read nan
    grid = PhaseSpaceGrid(-1, 1, -1, 1, 3, 3)
    with pytest.raises(DomainError, match=r"not of type 'number' \(values\)$"):
        WignerMap(grid, [["a"] * 3] * 3)
    values = np.zeros((3, 3))
    values[1, 2] = np.nan
    with pytest.raises(DomainError, match=r"nan is not a finite number \(values\)$"):
        WignerMap(grid, values)


def test_detection_probabilities_refuses_populations_no_state_has():
    # [-1, 2] read P_e = 2 and P_g = -1, [nan, 1] read NaN, and a plain list
    # raised a bare AttributeError
    with pytest.raises(DomainError, match=r"-1.0 is less than the minimum of -1e-12 \(pops\)"):
        detection_probabilities(np.array([-1.0, 2.0]))
    with pytest.raises(DomainError, match=r"nan is not a finite number \(pops\)"):
        detection_probabilities(np.array([np.nan, 1.0]))
    listed = detection_probabilities([0.25, 0.75])
    assert np.array_equal(listed, detection_probabilities(np.array([0.25, 0.75])))


@pytest.mark.parametrize("diag", [[1.0, 1.0, 0, 0], [0.5, 0.5j, 0, 0], [1.5, -0.5, 0, 0]],
                         ids=["trace-2", "imaginary-population", "negative-population"])
def test_damped_populations_refuses_a_raw_stack_that_holds_no_state(diag):
    # a raw stack was read as states: a trace of 2 read populations [1, 1]
    # then [1.39, 0.61], an imaginary population was dropped and a negative
    # one stayed negative; the DensityOperator gate refuses each matrix
    with pytest.raises(DomainError, match=r"is not a list or tuple \(rhos\)$"):
        damped_populations(np.array([np.diag(diag)]), MODEL, [0.0, 0.5])
    with pytest.raises(CavityLabError):
        DensityOperator(np.diag(diag))


@pytest.mark.parametrize("rhos", [[], [RHO, RHO.matrix],
                                  [RHO, pure_to_density(vacuum(HilbertSpec(4)))]],
                         ids=["empty", "non-state-element", "two-dimensions"])
def test_damped_populations_takes_density_operators_of_one_dimension(rhos):
    with pytest.raises(DomainError, match=r"\(rhos\)$"):
        damped_populations(rhos, MODEL, [0.0, 0.5])
    assert np.array_equal(damped_populations((RHO, RHO), MODEL, [0.0, 0.5]),
                          damped_populations([RHO, RHO], MODEL, [0.0, 0.5]))


def test_inverse_radon_refuses_a_non_finite_density():
    # one NaN density read NaN at every node, with a bound_excess of 0.0
    with pytest.raises(DomainError, match=r"nan is not a finite number \(densities\)"):
        inverse_radon(ANGLES, SINO_Q, _with(DENSITIES, (2, 7), np.nan), GRID)


def test_default_dim_refuses_an_amplitude_whose_square_overflows():
    # 1e200 raised a bare OverflowError; 16.1 stays a (too large) dimension
    for bad in (1e200, -1e200):
        with pytest.raises(DomainError, match=r"\(alpha_max\)"):
            default_dim(bad)
    assert default_dim(16.1) == 1047


def test_fit_coherence_decay_refuses_an_empty_window():
    # t_max = 0 warned, printed LAPACK errors and raised a bare LinAlgError
    with pytest.raises(DomainError, match=r"\(t_max\)"):
        fit_coherence_decay(RHO, MODEL, 1.0, 0.0)


def test_structural_misuse_raises_typed_errors():
    # each raised a bare ValueError or TypeError (promote and WignerMap: see
    # test_fock and test_wigner)
    with pytest.raises(DomainError, match="square"):
        DensityOperator(np.eye(3)[:2] / 2.0)
    with pytest.raises(DomainError, match="one dimension"):
        mix([vacuum(SPEC), vacuum(HilbertSpec(8))], [0.5, 0.5])
    with pytest.raises(DomainError, match=r"not of type 'DensityOperator' \(field\)$"):
        probe_atom(RHO.matrix)


def test_mix_refuses_nan_weights():
    # [nan, nan] passed the weight checks and raised a NonHermitianError
    with pytest.raises(WeightError):
        mix([FIELD, FIELD], [np.nan, np.nan])


def test_reconstruct_from_samples_refuses_a_two_dimensional_angle_array():
    with pytest.raises(DomainError, match="1-D"):
        reconstruct_from_samples(RHO, ANGLES.reshape(2, 4), 200, 1, GRID)


def test_damping_reads_a_scalar_time_as_one_time():
    # a scalar time raised a bare ValueError from np.diff
    for read in (lambda t: coherence_trajectory(RHO, MODEL, t, 1.0),
                 lambda t: damped_populations([RHO], MODEL, t)):
        assert np.array_equal(np.asarray(read(0.5)), np.asarray(read([0.5])))


def test_bound_passes_at_the_limit_and_refuses_above_it_nan_and_inf():
    assert bound(1e-8, 1e-8, "tail", TruncationError) == 1e-8
    assert bound(4, 4, "degree", TruncationError) == 4
    for value in (1.1e-8, np.nan, np.inf):
        with pytest.raises(TruncationError, match=r"^tail .+ exceeds the limit of 1e-08$"):
            bound(value, 1e-8, "tail", TruncationError)


def test_array_rule_passes_entries_whose_squares_overflow():
    # the cheap pass's sum of squares overflows here, so the entries are
    # searched one by one, and none is refused
    values = array([1e200, -1e200, 0.0], "x", minimum=-1e300, below=1e300)
    assert values.tolist() == [1e200, -1e200, 0.0]


@pytest.mark.parametrize("alpha", ["0.5", "x", None, object(), True, ["0.5"], [1.0, None]])
@pytest.mark.parametrize("call", [
    lambda x: wigner_point(RHO, x), lambda x: direct_point_exact(RHO, x),
    lambda x: coherent_state(SPEC, x), lambda x: cat_state(SPEC, x, 0.0),
    lambda x: radial_rows(x, 4, 2),
], ids=["wigner_point", "direct_point_exact", "coherent_state", "cat_state", "radial_rows"])
def test_alpha_that_is_not_a_number_is_refused(call, alpha):
    # "0.5" read as W(0.5), "x" and None raised bare errors or a NaN message
    with pytest.raises(DomainError, match=r"\(alpha\)$"):
        call(alpha)


@pytest.mark.parametrize("times", [["0.0", "0.5"], ["x"], [0.5j]])
@pytest.mark.parametrize("call", [
    lambda t: monitor_origin(RHO, MODEL, t), lambda t: two_atom_scan(1.0, t, MODEL, SPEC),
    lambda t: evolve(RHO, MODEL, t), lambda t: damped_populations([RHO], MODEL, t),
], ids=["monitor_origin", "two_atom_scan", "evolve", "damped_populations"])
def test_times_that_are_not_numbers_are_refused(call, times):
    # monitor_origin and two_atom_scan cast to float first: strings of digits
    # were read as times, "x" and 0.5j raised bare numpy errors
    with pytest.raises(DomainError, match=r"\(times\)$"):
        call(times)


def test_array_rule_refuses_a_ragged_nesting():
    # numpy's bare ValueError ("inhomogeneous shape") came through the rule
    with pytest.raises(DomainError, match=r"\(theta\)"):
        marginal_distribution(RHO, [[0.1], [0.2, 0.3]], [0.0])


def test_detection_probabilities_refuses_populations_with_no_levels():
    # a scalar raised a bare IndexError, and zero levels read P_e = P_g = 0
    for pops in (0.5, np.zeros((3, 0))):
        with pytest.raises(DomainError, match=r"\(levels of pops\)"):
            detection_probabilities(pops)


def test_decoherence_time_and_separation_measure_refuse_an_infinite_result():
    # both returned inf
    with pytest.raises(DomainError, match=r"inf is not a finite number \(decoherence time\)"):
        decoherence_time(DampingModel(1e-300), 1e-300)
    with pytest.raises(DomainError, match=r"inf is not a finite number \(separation measure\)"):
        separation_measure(1e308, 1e-3, 300.0)


def test_damping_refuses_a_time_at_which_the_trace_is_lost():
    # at kappa t = 1e20 the damped populations summed to 0, and at 1e308 they
    # were NaN after numpy warned of the overflow (with thermal photons it
    # warned at 1e20 too); evolve named the NaN a Hermiticity failure.  The
    # overflow now reaches the trace bound as NaN, with no warning
    rho = pure_to_density(cat_state(HilbertSpec(20), 1.5, 0.0))
    for model in (MODEL, DampingModel(1.0, 0.05)):
        reads = (lambda t: damped_populations([rho], model, [0.0, t]),
                 lambda t: coherence_trajectory(rho, model, [0.0, t], 1.5),
                 lambda t: evolve(rho, model, [0.0, t]))
        for read in reads:
            for t in (1e20, 1e308):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(IntegrationError, match="trace drift .+ exceeds"):
                        read(t)
        with pytest.raises(IntegrationError, match="trace drift nan exceeds"):
            damped_populations([rho], model, [0.0, 1e308])


def test_expm_does_not_square_a_matrix_of_non_finite_norm():
    # the scaling exponent of an infinite norm was the cast of inf to int,
    # which happens to be negative on x86; no scaling makes it finite, so
    # the matrix is not squared, and its exponential reads NaN
    from cavitylab.dynamics import _expm

    stack = np.array([[[np.inf, 0.0], [0.0, -1.0]], [[-1.0, 0.0], [0.0, -2.0]]])
    with np.errstate(over="ignore", invalid="ignore"):
        out = _expm(stack)
    assert np.isnan(out[0]).any()
    np.testing.assert_allclose(out[1], np.diag(np.exp([-1.0, -2.0])), rtol=1e-14)


def test_sample_homodyne_refuses_a_sinogram_too_large_to_build():
    # a bin_width of 1e-300 raised a bare ValueError from np.arange, and a
    # q_range of 1e308 a bare OverflowError (a RuntimeWarning from np.linspace
    # under the warning filter): the window and the table are refused as an
    # oversized grid is, before any array is built
    for kwargs, what in (({"bin_width": 1e-300}, r"2\.\d+e\+301"),
                         ({"q_range": 1e308}, "inf")):
        with pytest.raises(DomainError, match=rf"^bin count of a sinogram .+ {what} exceeds"):
            sample_homodyne(RHO, 0.3, 100, 1, **kwargs)
    # 2 x 10 / 2e-5 = 10^6 bins stay in range for one angle, not for five
    sample_homodyne(RHO, 0.3, 100, 1, bin_width=2e-5, q_range=10.0)
    with pytest.raises(DomainError, match=r"node count of a sinogram \(5 angles x 1000000 bins\)"):
        sample_homodyne(RHO, uniform_angles(5), 100, 1, bin_width=2e-5, q_range=10.0)


def test_sample_and_angle_counts_have_a_maximum():
    # 1e308 samples raised a bare OverflowError in numpy's multinomial, and
    # 1e308 angles a bare ValueError from np.arange
    with pytest.raises(DomainError, match=r"greater than the maximum of 9223372036854775807 "
                                          r"\(n_samples\)"):
        sample_homodyne(RHO, 0.3, 1e308, 1)
    for count in (1e308, MAX_GRID_NODES + 1):
        with pytest.raises(DomainError, match=r"greater than the maximum of 4194304 \(count\)"):
            uniform_angles(count)


def test_default_dim_refuses_a_thermal_tail_too_long_to_count():
    # from about n_th = 2^53 on, n_th / (n_th + 1) rounds to 1, and the tail
    # raised a bare ZeroDivisionError, in the CLI's decoherence-scan too
    # (test_cli's scan-n-thermal case)
    for n_th in (1e308, 2.0 ** 60):
        with pytest.raises(DomainError, match=r"thermal tail too long to count \(n_thermal\)"):
            default_dim(1.0, n_th)
    assert default_dim(1.0, 1e15) > 1e15


# -- every parameter of a package type, swept over substitutes --------------------

# the class a parameter takes -> "function.parameter" -> the call with x in that
# parameter; a key may carry a note after a space when one parameter is swept
# through two paths
TYPED_CALLS = {
    DensityOperator: {
        "wigner_point.rho": lambda x: wigner_point(x, 0.5),
        "wigner_map.rho": lambda x: wigner_map(x, GRID),
        "wigner_position.rho": lambda x: wigner_position(x, 0.5, 0.5),
        "marginal_distribution.rho": lambda x: marginal_distribution(x, 0.3, Q),
        "moyal_average.rho": lambda x: moyal_average(x, (1, 1)),
        "direct_point_exact.rho0": lambda x: direct_point_exact(x, 0.5),
        "scan_map.rho0": lambda x: scan_map(x, GRID),
        "monitor_origin.rho0": lambda x: monitor_origin(x, MODEL, [0.0, 0.5]),
        "evolve.rho": lambda x: evolve(x, MODEL, 0.5),
        "evolve.rho (t = 0)": lambda x: evolve(x, MODEL, 0),
        "coherence_trajectory.rho": lambda x: coherence_trajectory(x, MODEL, [0.0, 0.5], 1.0),
        "damped_populations.rhos": lambda x: damped_populations([RHO, x], MODEL, [0.0, 0.5]),
        "sample_homodyne.rho": lambda x: sample_homodyne(x, 0.3, 100, 1),
        "reconstruct_from_samples.rho_true": lambda x: reconstruct_from_samples(
            x, ANGLES, 200, 1, GRID),
        "probe_atom.field": lambda x: probe_atom(x),
        "promote.obj": lambda x: promote(x, HilbertSpec(50)),
        "fit_coherence_decay.rho": lambda x: fit_coherence_decay(x, MODEL, 1.0, 1.0),
    },
    FieldState: {
        "pure_to_density.state": lambda x: pure_to_density(x),
        "DensityOperator.fidelity_pure.state": lambda x: RHO.fidelity_pure(x),
        "mix.states": lambda x: mix([FIELD, x], [0.5, 0.5]),
        "mix.states (as the list)": lambda x: mix(x, [1.0]),
    },
    HilbertSpec: {
        "fock_state.spec": lambda x: fock_state(x, 0),
        "vacuum.spec": lambda x: vacuum(x),
        "coherent_state.spec": lambda x: coherent_state(x, 1.0),
        "cat_state.spec": lambda x: cat_state(x, 1.0, 0.0),
        "promote.spec": lambda x: promote(RHO, x),
        "prepare_cat.spec": lambda x: prepare_cat(1.0, x),
        "two_atom_scan.spec": lambda x: two_atom_scan(1.0, [0.0, 1.0], MODEL, x),
        "quadrature_q1.spec": lambda x: quadrature_q1(x),
        "quadrature_q2.spec": lambda x: quadrature_q2(x),
    },
    DampingModel: {
        "evolve.model": lambda x: evolve(RHO, x, 0.5),
        "evolve.model (t = 0)": lambda x: evolve(RHO, x, 0),
        "coherence_trajectory.model": lambda x: coherence_trajectory(RHO, x, [0.0, 0.5], 1.0),
        "damped_populations.model": lambda x: damped_populations([RHO], x, [0.0, 0.5]),
        "decoherence_time.model": lambda x: decoherence_time(x, 2.0),
        "two_atom_scan.model": lambda x: two_atom_scan(1.0, [0.0, 1.0], x, SPEC),
        "monitor_origin.model": lambda x: monitor_origin(RHO, x, [0.0, 0.5]),
    },
    PhaseSpaceGrid: {
        "wigner_map.grid": lambda x: wigner_map(RHO, x),
        "scan_map.grid": lambda x: scan_map(RHO, x),
        "inverse_radon.grid": lambda x: inverse_radon(ANGLES, SINO_Q, DENSITIES, x),
        "reconstruct_from_samples.grid": lambda x: reconstruct_from_samples(
            RHO, ANGLES, 200, 1, x),
        "pauli_incompleteness_demo.grid": lambda x: pauli_incompleteness_demo(x),
        "WignerMap.grid": lambda x: WignerMap(x, WMAP.values),
    },
    WignerMap: {
        "radon_of_map.wmap": lambda x: radon_of_map(x, 0.3),
        "fringe_contrast.wmap": lambda x: fringe_contrast(x),
    },
}

# keys the completeness check does not derive from the exports: a dataclass
# field, and parameters of functions the package does not export
EXPLICIT = {"WignerMap.grid", "quadrature_q1.spec", "quadrature_q2.spec",
            "fit_coherence_decay.rho"}

# what each class's parameters are fed instead: a raw stand-in, another
# package type and None, and for a state its entries as a nested list
SUBSTITUTES_FOR = {
    DensityOperator: {"raw": RHO.matrix, "wrong-type": FIELD, "nested-list": RHO.matrix.tolist(),
                      "none": None},
    FieldState: {"raw": FIELD.amplitudes, "wrong-type": RHO,
                 "nested-list": [FIELD.amplitudes.tolist()], "none": None},
    HilbertSpec: {"raw": 8, "wrong-type": MODEL, "none": None},
    DampingModel: {"raw": 1.0, "wrong-type": SPEC, "none": None},
    PhaseSpaceGrid: {"raw": (-1.5, 1.5, -1.5, 1.5), "wrong-type": WMAP, "none": None},
    WignerMap: {"raw": WMAP.values, "wrong-type": GRID, "none": None},
}


def _typed_parameters():
    """export.parameter -> its annotation, for every parameter of an export,
    or of a public method of an exported class, annotated with a class the
    package exports."""
    classes = "|".join(name for name, obj in vars(cavitylab).items()
                       if not name.startswith("_") and inspect.isclass(obj))
    found = {}
    for name, obj in vars(cavitylab).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        methods = ([(f"{name}.{m}", f) for m, f in vars(obj).items()
                    if inspect.isfunction(f) and not m.startswith("_")]
                   if inspect.isclass(obj) else [(name, obj)] if callable(obj) else [])
        for label, fn in methods:
            found.update({f"{label}.{p.name}": str(p.annotation)
                          for p in inspect.signature(fn).parameters.values()
                          if re.search(rf"\b({classes})\b", str(p.annotation))})
    return found


def test_every_typed_parameter_is_swept():
    swept = {key.split()[0]: cls.__name__ for cls, calls in TYPED_CALLS.items() for key in calls}
    found = _typed_parameters()
    assert found.keys() == swept.keys() - EXPLICIT
    # each is fed the substitutes of the class its annotation names
    assert all(re.search(rf"\b{swept[key]}\b", annotation) for key, annotation in found.items())


@pytest.mark.parametrize("cls,key,label", [
    pytest.param(cls, key, label, id=f"{key}-{label}")
    for cls, calls in TYPED_CALLS.items() for key in calls for label in SUBSTITUTES_FOR[cls]])
def test_typed_parameter_refuses_a_substitute(cls, key, label):
    # 12 of the state readers and every reader of the other types raised a
    # bare AttributeError, evolve at t = 0 returned its argument without
    # reading its model, and probe_atom converted a FieldState
    param = key.split()[0].rsplit(".", 1)[1]
    with pytest.raises(DomainError, match=rf"\({param}\)$"):
        TYPED_CALLS[cls][key](SUBSTITUTES_FOR[cls][label])


def test_grid_and_model_are_refused_before_the_work(monkeypatch):
    # reconstruct_from_samples drew every sample, pauli_incompleteness_demo
    # built its marginals and two_atom_scan prepared its cat before the grid
    # or model they were given was read
    def work(*args, **kwargs):
        raise AssertionError("the work began before the argument was checked")

    for module, name in ((tomo, "sample_homodyne"), (tomo, "marginal_distribution"),
                         (protocol, "prepare_cat")):
        monkeypatch.setattr(module, name, work)
    with pytest.raises(DomainError, match=r"\(grid\)$"):
        reconstruct_from_samples(RHO, ANGLES, 200, 1, None)
    with pytest.raises(DomainError, match=r"\(grid\)$"):
        pauli_incompleteness_demo(None)
    with pytest.raises(DomainError, match=r"\(model\)$"):
        two_atom_scan(1.0, [0.0, 1.0], None, SPEC)


def test_state_gates_refuse_entries_that_are_not_numbers():
    # strings of digits were read as amplitudes and matrix entries
    with pytest.raises(DomainError, match=r"\(amplitudes\)$"):
        FieldState(["1", "0"])
    with pytest.raises(DomainError, match=r"\(density matrix\)$"):
        DensityOperator([["1", "0"], ["0", "0"]])
    with pytest.raises(DomainError, match=r"\(amplitudes\)$"):
        FieldState([1.0, None])


@pytest.mark.parametrize("amplitudes", [np.eye(2) / np.sqrt(2.0), [], 1.0],
                         ids=["matrix", "empty", "scalar"])
def test_field_state_is_a_nonempty_vector(amplitudes):
    # a matrix of amplitudes became a 4-level state of trace 1 in pure_to_density
    with pytest.raises(DomainError, match=r"is not a nonempty vector \(amplitudes\)$"):
        FieldState(amplitudes)


def test_mix_refuses_weights_that_are_not_numbers():
    # ["0.5", "0.5"] gave populations [0.5, 0.5]; negative and NaN weights
    # stay a WeightError
    with pytest.raises(DomainError, match=r"\(weights\)$"):
        mix([FIELD, FIELD], ["0.5", "0.5"])
    for weights in ([-0.5, 1.5], [np.nan, 1.0]):
        with pytest.raises(WeightError, match="negative or NaN weight"):
            mix([FIELD, FIELD], weights)


def test_fidelity_pure_refuses_a_reference_of_another_dimension():
    # a bare ValueError from the matrix product
    with pytest.raises(DomainError, match=r"does not fit dim 40 \(state\)$"):
        RHO.fidelity_pure(vacuum(HilbertSpec(8)))
    assert abs(RHO.fidelity_pure(FIELD) - 1.0) < 1e-12


@pytest.mark.parametrize("call", [
    lambda x: coherent_state(SPEC, x), lambda x: cat_state(SPEC, x, 0.0),
    lambda x: prepare_cat(x, SPEC), lambda x: two_atom_scan(x, [0.0, 1.0], MODEL, SPEC),
    lambda x: coherence_trajectory(RHO, MODEL, [0.0, 1.0], x),
], ids=["coherent_state", "cat_state", "prepare_cat", "two_atom_scan", "coherence_trajectory"])
def test_alpha_that_is_not_one_number_is_refused(call):
    # each raised a bare TypeError ("only 0-dimensional arrays can be
    # converted to Python scalars"); wigner_point and direct_point_exact
    # take arrays of alpha (test_alpha_that_is_not_a_number_is_refused)
    for alpha in ([0.5, 0.6], np.array([[1.0j]])):
        with pytest.raises(DomainError, match=r"is not one number \(alpha\)$"):
            call(alpha)
