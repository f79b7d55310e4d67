import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cavitylab
from cavitylab import (
    DampingModel,
    DensityOperator,
    FieldState,
    HilbertSpec,
    PhaseSpaceGrid,
    TruncationError,
    cat_state,
    coherent_state,
    default_grid,
    evolve,
    fock_state,
    marginal_distribution,
    mix,
    moyal_average,
    promote,
    pure_to_density,
    radon_of_map,
    sample_homodyne,
    vacuum,
    wigner_map,
    wigner_point,
    wigner_position,
)
from cavitylab import wigner
from cavitylab.errors import DomainError, QuadratureError, SamplingError
from cavitylab.fock import laguerre_functions
from cavitylab.wigner import _BLOCK, WignerMap, _bilinear, _gh_nodes, hermite_functions

from conftest import eigh_displacement


def make_coherent_rho(alpha, dim):
    return pure_to_density(coherent_state(HilbertSpec(dim), alpha))


# -- Laguerre-series construction ---------------------------------------------


def test_vacuum_at_origin():
    rho = pure_to_density(vacuum(HilbertSpec(10)))
    assert abs(wigner_point(rho, 0.0) - 2.0) < 1e-12


def test_one_photon_at_origin():
    rho = pure_to_density(fock_state(HilbertSpec(10), 1))
    assert abs(wigner_point(rho, 0.0) + 2.0) < 1e-12


def test_coherent_gaussian_against_position_construction():
    # the position-integral construction acts as the independent oracle
    alpha0 = 1.2
    rho = make_coherent_rho(alpha0, 60)
    for alpha in (0.0, 0.4 + 0.3j, 1.0, 1.5 - 0.5j):
        analytic = 2 * np.exp(-2 * abs(alpha - alpha0) ** 2)
        q, p = np.sqrt(2) * alpha.real, np.sqrt(2) * alpha.imag
        assert abs(wigner_point(rho, alpha) - analytic) < 1e-7
        assert abs(wigner_position(rho, q, p) - analytic) < 1e-7


def test_truncation_guard():
    # the series is exact at any alpha: |alpha|^2 = 9 > dim/4 is evaluated,
    # pointwise and in a map, as 2 e^{-2|alpha|^2}
    rho = pure_to_density(vacuum(HilbertSpec(8)))
    exact = 2.0 * np.exp(-18.0)
    assert abs(wigner_point(rho, 3.0) - exact) < 1e-12 * exact
    assert abs(wigner_position(rho, 3.0 * np.sqrt(2), 0.0) - exact) < 1e-12 * exact
    wm = wigner_map(rho, PhaseSpaceGrid(0.0, 3.0 * np.sqrt(2), -1.0, 1.0, 3, 3))
    assert abs(wm.values[2, 1] - exact) < 1e-12 * exact


def test_wigner_position_refuses_orders_hermgauss_cannot_build():
    # dim + 56 > 370 overflowed inside hermgauss (a RuntimeWarning) at dim 320
    rho = pure_to_density(coherent_state(HilbertSpec(300), 1.2 - 0.4j))
    q, p = 0.9, -0.3
    want = wigner_point(rho, (q + 1j * p) / np.sqrt(2))
    assert abs(wigner_position(rho, q, p) - want) < 1e-12
    for dim in (315, 320):
        with pytest.raises(QuadratureError):
            wigner_position(promote(rho, HilbertSpec(dim)), q, p)


def test_cross_construction_on_mixed_state():
    spec = HilbertSpec(40)
    rho = mix([cat_state(spec, 1.2, 0.0), fock_state(spec, 2)], [0.6, 0.4])
    # |alpha|^2 = 3.15^2 is about dim/4 for the even cat's dim-40 space, where
    # a displacement truncated to dim 40 read 0.02375 against 0.07098
    even_cat = pure_to_density(cat_state(spec, 2.0, 0.0))
    for state in (rho, promote(rho, HilbertSpec(90)), even_cat):
        for q, p in ((0.0, 0.0), (0.9, -0.7), (-1.8, 0.3), (2.2, 1.9),
                     (3.15 * np.sqrt(2), 0.0)):
            alpha = (q + 1j * p) / np.sqrt(2)
            assert abs(wigner_point(state, alpha) - wigner_position(state, q, p)) < 1e-10


def test_non_finite_alpha_is_rejected():
    rho = pure_to_density(cat_state(HilbertSpec(20), 1.0, 0.0))
    # 4|alpha|^2 overflows at |alpha| = 1e160, which read W = nan
    for alpha in (complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0), 1e160):
        with pytest.raises(DomainError):
            wigner_point(rho, alpha)


def test_wigner_position_fock3_oscillates():
    # number states have negative phase-space regions; the n = 3 radial
    # profile changes sign twice inside the classical region
    rho = pure_to_density(fock_state(HilbertSpec(30), 3))
    radial = [wigner_position(rho, q, 0.0) for q in (0.0, 0.9, 1.6)]
    assert radial[0] < -1.9
    assert radial[1] > 0.2
    assert radial[2] < -0.01


def test_wigner_symmetry_for_parity_symmetric_state():
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.4, 0.0))
    for q, p in ((0.7, 0.2), (1.1, -0.9)):
        assert abs(wigner_position(rho, q, p) - wigner_position(rho, -q, -p)) < 1e-9


# -- maps ----------------------------------------------------------------------


def test_grid_rejects_non_finite_extents():
    for extents in ((-np.inf, 1, -1, 1), (-1, np.inf, -1, 1), (-1, 1, np.nan, 1),
                    (-1, 1, -1, np.nan)):
        with pytest.raises(DomainError):
            PhaseSpaceGrid(*extents, 3, 3)
    # a non-integral node count built a 4-point axis for 3.5; 3.0 is taken
    for n1, n2 in ((3.5, 3), (3, 2.5), (np.nan, 3), (3, np.inf)):
        with pytest.raises(DomainError, match=r"\(n[12]\)"):
            PhaseSpaceGrid(-1, 1, -1, 1, n1, n2)
    grid = PhaseSpaceGrid(-1, 1, -1, 1, 3.0, 3)
    assert grid.q1_axis.size == 3
    np.testing.assert_array_equal(grid.alpha_grid(),
                                  PhaseSpaceGrid(-1, 1, -1, 1, 3, 3).alpha_grid())
    for alpha_max in (np.inf, np.nan):
        with pytest.raises(DomainError):
            default_grid(alpha_max)


def test_grid_size_and_step_are_bounded_before_any_array():
    # a grid past MAX_GRID_NODES (2048^2) and a step that is not finite and
    # positive are refused; a 1e-4 step over span 8 would ask for 160,001^2 nodes
    assert wigner.MAX_GRID_NODES == 2048 ** 2
    PhaseSpaceGrid(-1, 1, -1, 1, 2048, 2048)
    for n1, n2 in ((2049, 2048), (2, 2 ** 21 + 1), (10 ** 12, 10 ** 12)):
        with pytest.raises(DomainError, match="exceeds the limit"):
            PhaseSpaceGrid(-1, 1, -1, 1, n1, n2)
    with pytest.raises(DomainError, match="exceeds the limit"):
        default_grid(0.0, step=1e-4, pad=8.0)
    for step in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(DomainError, match="step"):
            default_grid(1.0, step=step)


def test_map_refuses_non_finite_values():
    grid = PhaseSpaceGrid(-1, 1, -1, 1, 3, 3)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((3, 3))
        values[1, 2] = bad
        with pytest.raises(DomainError, match=r"\(values\)$"):
            WignerMap(grid, values)


def test_kernel_map_with_a_non_finite_value_is_refused_by_the_bound(monkeypatch):
    # the map's entry rule refuses a non-finite value too; a map the kernel
    # builds meets the |W| bound first, so its refusal still names max |W|
    def series(rho, alphas):
        return np.full(np.shape(alphas), fill), 1

    monkeypatch.setattr(wigner, "_laguerre_series", series)
    rho = pure_to_density(vacuum(HilbertSpec(4)))
    for fill, shown in ((np.nan, "nan"), (3.0, "3")):
        with pytest.raises(DomainError, match=rf"^max \|W\| {shown} exceeds"):
            wigner.wigner_map(rho, PhaseSpaceGrid(-1, 1, -1, 1, 3, 3))


def test_every_map_records_its_own_peak_and_normalization():
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5 * np.exp(0.4j), 0.7))
    grid = PhaseSpaceGrid(-3.0, 3.2, -2.9, 2.9, 21, 19)
    angles, q = cavitylab.uniform_angles(12), np.linspace(-6.0, 6.0, 241)
    caller = {"note": "kept"}
    maps = {
        "wigner_map": wigner_map(rho, grid),
        "scan_map": cavitylab.scan_map(rho, grid),
        "inverse_radon": cavitylab.inverse_radon(angles, q,
                                                 marginal_distribution(rho, angles, q), grid),
        "user": WignerMap(grid, np.linspace(-0.5, 3.0, 21 * 19).reshape(21, 19),
                          diagnostics=caller),
    }
    for name, wm in maps.items():
        assert wm.diagnostics["max_abs"] == float(np.max(np.abs(wm.values))), name
        assert wm.diagnostics["normalization_sum"] == float(
            wm.values.sum() * grid.cell_area / (2.0 * np.pi)), name
    assert maps["user"].diagnostics["max_abs"] == 3.0
    assert maps["user"].diagnostics["note"] == "kept"
    # the map keeps a new dict: the caller's is not written to
    assert caller == {"note": "kept"} and maps["user"].diagnostics is not caller
    assert maps["scan_map"].diagnostics.keys() == maps["wigner_map"].diagnostics.keys()
    assert maps["inverse_radon"].diagnostics["n_angles"] == 12
    assert maps["inverse_radon"].diagnostics["bound_excess"] == max(
        0.0, maps["inverse_radon"].diagnostics["max_abs"] - wigner.BOUND)
    with pytest.raises(DomainError, match=r"\(diagnostics\)$"):
        WignerMap(grid, maps["user"].values, diagnostics=[("max_abs", 0.0)])


def test_moyal_integrals_read_one_map(monkeypatch):
    # the Moyal integral reads one wigner_map over a square grid of step 0.2
    # with an odd node count, and no Laguerre series of its own
    calls = []
    real_map = wigner.wigner_map

    def counted(rho, grid):
        calls.append(grid)
        return real_map(rho, grid)

    monkeypatch.setattr(wigner, "wigner_map", counted)
    rho = pure_to_density(coherent_state(HilbertSpec(26), 0.9))
    wigner.moyal_grid_integral(rho, [(0, 0), (2, 1), (1, 1)])
    (grid,) = calls
    assert grid.n1 == grid.n2 and grid.n1 % 2 == 1
    assert grid.q1_min == grid.q2_min == -grid.q1_max == -grid.q2_max
    assert np.allclose(grid.spacing, 0.2, rtol=1e-12, atol=0)
    assert np.array_equal(grid.q1_axis, -grid.q1_axis[::-1])


def test_map_on_shared_radii_against_position_construction():
    # a symmetric odd-sized grid through alpha = 0, where mirror points share
    # a radius and one radial pass serves several angles; the complex cat has
    # no mirror symmetry, so each point's angular sum is tested on its own
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5 * np.exp(0.4j), 0.7))
    grid = PhaseSpaceGrid(-4.0, 4.0, -4.0, 4.0, 21, 21)
    wm = wigner_map(rho, grid)
    assert grid.q1_axis[10] == 0.0 and grid.q2_axis[10] == 0.0
    assert wm.diagnostics["eval_dim"] == 30
    assert wm.diagnostics["distinct_radii"] < grid.n1 * grid.n2 / 3
    for i, q in enumerate(grid.q1_axis):
        for j, p in enumerate(grid.q2_axis):
            assert abs(wm.values[i, j] - wigner_position(rho, q, p)) < 1e-10


def test_axes_are_bitwise_antisymmetric_with_exact_endpoints():
    # symmetric extents give axis == -axis[::-1] bitwise at odd and even n,
    # with the odd centre at exactly 0.0, so mirror points share x = 4|alpha|^2
    for n in (2, 7, 8, 55, 206):
        for span in (1.0, 0.3, 8.0 / 3.0, 5.3033008588991066):
            axis = PhaseSpaceGrid(-span, span, -1.0, 1.0, n, 2).q1_axis
            assert np.array_equal(axis, -axis[::-1])
            assert axis[0] == -span and axis[-1] == span
            if n % 2:
                assert axis[n // 2] == 0.0
    # off-centre extents keep their endpoints exactly and step uniformly
    grid = PhaseSpaceGrid(-3.1, 4.3, -2.2, 5.0, 37, 29)
    for axis, lo, hi, n in ((grid.q1_axis, -3.1, 4.3, 37), (grid.q2_axis, -2.2, 5.0, 29)):
        assert axis.size == n and axis[0] == lo and axis[-1] == hi
        assert np.max(np.abs(axis - np.linspace(lo, hi, n))) < 4e-15
    # a reflected grid's axes are the negated, reversed axes
    flipped = grid.reflected()
    assert np.array_equal(flipped.q1_axis, -grid.q1_axis[::-1])
    assert np.array_equal(flipped.q2_axis, -grid.q2_axis[::-1])


def test_mirror_points_share_one_radial_recurrence():
    # the selfcheck's radon grid: 206 x 206 points on 4,491 distinct radii
    # (8,114 when mirror points missed each other by one ulp of x)
    rho = pure_to_density(cat_state(HilbertSpec(26), 1.5, 0.0))
    grid = default_grid(1.5, step=0.06)
    assert grid.n1 == 206
    wm = wigner_map(rho, grid)
    assert wm.diagnostics["distinct_radii"] <= 4491
    assert wm.diagnostics["distinct_radii"] == np.unique(4.0 * np.abs(grid.alpha_grid()) ** 2).size


def _complex_radial_sums(mat, ks, x):
    """The radial sums S_k over the diagonals `ks`, accumulated in complex
    arithmetic, as one (ks.size, x.size) complex array: the reference for
    the real accumulation."""
    dim = mat.shape[0]
    ells = laguerre_functions(x, ks, dim)
    sums = mat[0, ks, None] * next(ells)
    for n, ell in enumerate(ells, start=1):
        m = ell.shape[0]
        sums[:m] += (-1) ** n * mat[n, n + ks[:m], None] * ell
    return sums


def test_real_accumulation_matches_complex_accumulation_bitwise(monkeypatch):
    rho = mix([cat_state(HilbertSpec(30), 1.5, 0.0), fock_state(HilbertSpec(30), 3)], [0.7, 0.3])
    assert not np.any(rho.matrix.imag)
    grid = PhaseSpaceGrid(-4.0, 4.3, -3.7, 4.0, 41, 37)
    got = wigner_map(rho, grid).values

    def complex_parts(mat, ks, x):
        sums = _complex_radial_sums(mat, ks, x)
        return [sums.real, sums.imag]

    monkeypatch.setattr(wigner, "_radial_sums", complex_parts)
    want = wigner_map(rho, grid).values
    assert np.array_equal(got, want)


def test_imaginary_part_on_one_far_diagonal_is_summed():
    # rho's only imaginary entries are rho_{0,k} and rho_{k,0} at k = dim - 1:
    # the Im pass must run, and its one nonzero diagonal must reach the map
    dim, k = 24, 23
    psi = np.zeros(dim, dtype=complex)
    psi[0], psi[k] = 1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)
    mat = 0.5 * np.outer(psi, psi.conj()) + 0.5 * pure_to_density(
        cat_state(HilbertSpec(dim), 1.2, 0.0)).matrix
    assert set(zip(*np.nonzero(mat.imag))) == {(0, k), (k, 0)}
    rho = DensityOperator(mat)
    grid = PhaseSpaceGrid(-6.0, 6.0, -6.0, 6.0, 25, 25)
    wm = wigner_map(rho, grid)
    real_part = wigner_map(DensityOperator(mat.real), grid)
    assert np.max(np.abs(wm.values - real_part.values)) > 1e-3
    for i in range(0, 25, 3):
        for j in range(1, 25, 4):
            want = wigner_position(rho, grid.q1_axis[i], grid.q2_axis[j])
            assert abs(wm.values[i, j] - want) < 1e-10


def test_map_across_radial_blocks_against_position_construction():
    # an off-centre, non-square grid with more distinct radii than one radial
    # block holds: points on both sides of every block boundary are checked
    rng = np.random.default_rng(60)
    vecs = rng.normal(size=(2, 60)) + 1j * rng.normal(size=(2, 60))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    rho = DensityOperator(0.6 * np.outer(vecs[0], vecs[0].conj())
                          + 0.4 * np.outer(vecs[1], vecs[1].conj()))
    grid = PhaseSpaceGrid(-2.3, 6.1, -4.7, 1.9, 97, 61)
    wm = wigner_map(rho, grid)
    x = 4.0 * np.abs(grid.alpha_grid()) ** 2
    radii = np.unique(x)
    step = _BLOCK // rho.dim
    assert wm.diagnostics["distinct_radii"] == radii.size > step
    picks = [0, radii.size - 1]
    for edge in range(step, radii.size, step):
        picks += [edge - 2, edge - 1, edge, edge + 1]
    for r in picks:
        for i, j in zip(*np.nonzero(x == radii[r])):
            want = wigner_position(rho, grid.q1_axis[i], grid.q2_axis[j])
            assert abs(wm.values[i, j] - want) < 1e-10


def test_map_memory_stays_blocked():
    # the radial pass works on blocks of radii, not on a dim x (distinct
    # radii) table: a 401 x 401 grid at dim 100 stays below 32 MB
    import tracemalloc

    rho = pure_to_density(cat_state(HilbertSpec(100), 3.0, 0.0))
    grid = PhaseSpaceGrid(-8.0, 8.0, -8.0, 8.0, 401, 401)
    tracemalloc.start()
    try:
        wigner_map(rho, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def _pure(dim, amplitudes):
    """The normalised pure state sum_n amplitudes[n] |n>."""
    psi = np.zeros(dim, dtype=complex)
    for n, amp in amplitudes.items():
        psi[n] = amp
    return FieldState(psi / np.linalg.norm(psi))


def _superposition(dim, amplitudes):
    """``_pure`` as a density operator."""
    return pure_to_density(_pure(dim, amplitudes))


def test_live_diagonal_patterns_against_position_construction():
    # the kernel runs only the diagonals k of rho that are not exactly zero
    # and sums their angles by Horner in z^g, g the gcd of the live k > 0;
    # each pattern is checked against the position integral of rho embedded
    # in dim + 10, on a symmetric grid through alpha = 0 and an asymmetric one
    dim = 20
    spec = HilbertSpec(dim)
    rng = np.random.default_rng(23)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    full = a @ a.conj().T
    cases = [
        (pure_to_density(fock_state(spec, 3)), [0]),
        (pure_to_density(cat_state(spec, 1.3, 0.0)), list(range(0, dim, 2))),
        (pure_to_density(cat_state(spec, 1.3, np.pi)), list(range(0, dim, 2))),
        (_superposition(dim, {0: 1.0, 3: 1.0}), [0, 3]),
        (_superposition(dim, {0: 1.0, 2: 1j}), [0, 2]),  # the Pauli pair's |0> + i|2>
        # gcd 2 with a gap at k = 2, where Horner multiplies and adds nothing
        (mix([_pure(dim, {0: 1.0, 4: 1j}), _pure(dim, {1: 1.0, 7: np.exp(0.3j)})],
             [0.6, 0.4]), [0, 4, 6]),
        (DensityOperator(full / np.trace(full).real), list(range(dim))),
    ]
    grids = (PhaseSpaceGrid(-4.0, 4.0, -4.0, 4.0, 9, 9),
             PhaseSpaceGrid(-3.1, 4.3, -2.2, 5.0, 8, 7))
    for rho, live in cases:
        assert rho.live.tolist() == live
        oracle = promote(rho, HilbertSpec(dim + 10))
        for grid in grids:
            values = wigner_map(rho, grid).values
            for i, q in enumerate(grid.q1_axis):
                for j, p in enumerate(grid.q2_axis):
                    assert abs(values[i, j] - wigner_position(oracle, q, p)) < 1e-10
        for alpha in (0.0, 0.7 - 0.4j, -1.1 + 0.9j):
            q, p = np.sqrt(2) * alpha.real, np.sqrt(2) * alpha.imag
            assert abs(wigner_point(rho, alpha) - wigner_position(oracle, q, p)) < 1e-10


def test_map_nodes_equal_points_bitwise_and_real_maps_mirror():
    # every node of a map is, bit for bit, wigner_point at its alpha; a real
    # rho's map on a symmetric q2 axis (odd n2 through q2 = 0, and even n2)
    # is evaluated on q2 <= 0 alone and is its own column reversal bit for bit
    spec = HilbertSpec(26)
    real = [pure_to_density(cat_state(spec, 1.5, 0.0)),
            pure_to_density(coherent_state(spec, 1.1)),
            mix([cat_state(spec, 1.5, np.pi), fock_state(spec, 2)], [0.7, 0.3])]
    complex_cat = pure_to_density(cat_state(spec, 1.2 * np.exp(0.4j), 0.7))
    symmetric = [PhaseSpaceGrid(-4.0, 4.0, -4.0, 4.0, 11, 11),
                 PhaseSpaceGrid(-3.1, 4.3, -3.0, 3.0, 9, 10)]
    asymmetric = PhaseSpaceGrid(-3.1, 4.3, -2.2, 5.0, 9, 8)
    for rho in real + [complex_cat]:
        for grid in symmetric + [asymmetric]:
            values = wigner_map(rho, grid).values
            points = [[wigner_point(rho, alpha) for alpha in row] for row in grid.alpha_grid()]
            assert np.array_equal(values, points)
    for rho in real:
        for grid in symmetric:
            values = wigner_map(rho, grid).values
            assert np.array_equal(values, values[:, ::-1])


def test_array_point_call_equals_one_point_calls_bitwise():
    # wigner_point over an array (alpha = 0 entries, repeated radii, mirror
    # points) gives each entry bit for bit its one-point call's float
    spec = HilbertSpec(26)
    rng = np.random.default_rng(17)
    scattered = rng.normal(scale=1.3, size=(2, 14))
    alphas = np.concatenate([[0.0, 0.8 - 0.3j, -0.8 + 0.3j, 0.0, 0.3 + 0.8j, 2.2j],
                             scattered[0] + 1j * scattered[1]]).reshape(4, 5)
    for rho in (pure_to_density(cat_state(spec, 1.5, 0.0)),
                pure_to_density(cat_state(spec, 1.2 * np.exp(0.4j), 0.7)),
                mix([coherent_state(spec, 1.1), fock_state(spec, 3)], [0.4, 0.6])):
        values = wigner_point(rho, alphas)
        assert values.shape == alphas.shape
        for k in np.ndindex(alphas.shape):
            one = wigner_point(rho, alphas[k])
            assert isinstance(one, float) and one == values[k]


def test_map_matches_promoted_displaced_parity():
    # independent oracle: 2 Tr[rho D P D^dag], the displacement built by eigh
    # in a space promoted well beyond the grid's reach; the complex cat has
    # no mirror symmetry, so the phase of every series term is tested
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5 * np.exp(0.4j), 0.7))
    grid = default_grid(1.5, step=0.5)
    wm = wigner_map(rho, grid)
    mat = promote(rho, HilbertSpec(200)).matrix
    p = (-1.0) ** np.arange(200)
    rng = np.random.default_rng(7)
    for _ in range(25):
        i = rng.integers(grid.n1)
        j = rng.integers(grid.n2)
        alpha = (grid.q1_axis[i] + 1j * grid.q2_axis[j]) / np.sqrt(2)
        d = eigh_displacement(200, alpha)
        oracle = 2.0 * np.real(np.trace(mat @ (d * p) @ d.conj().T))
        assert abs(wm.values[i, j] - oracle) < 1e-10


def test_laguerre_recurrence_at_high_order():
    # a random mixed state filling dim 250, checked out to |alpha| = 15
    # against the position-representation integral
    rng = np.random.default_rng(250)
    vecs = rng.normal(size=(2, 250)) + 1j * rng.normal(size=(2, 250))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    rho = DensityOperator(0.7 * np.outer(vecs[0], vecs[0].conj())
                          + 0.3 * np.outer(vecs[1], vecs[1].conj()))
    grid = PhaseSpaceGrid(-15.0, 15.0, -15.0, 15.0, 7, 7)
    assert abs(np.abs(grid.alpha_grid()).max() - 15.0) < 1e-12
    wm = wigner_map(rho, grid)
    for i, q in enumerate(grid.q1_axis):
        for j, p in enumerate(grid.q2_axis):
            assert abs(wm.values[i, j] - wigner_position(rho, q, p)) < 1e-10


def test_cat_map_fringes_match_lobes():
    alpha0 = 3.0
    rho = pure_to_density(cat_state(HilbertSpec(46), alpha0, 0.0))
    wm = wigner_map(rho, default_grid(alpha0, step=0.075))
    fringe = np.abs(wm.values[np.abs(wm.grid.q1_axis) < 0.5, :]).max()
    lobe_region = np.abs(wm.grid.q1_axis - np.sqrt(2) * alpha0) < 0.5
    lobe = np.abs(wm.values[lobe_region, :]).max()
    assert abs(fringe - 2.0) < 0.01
    assert abs(lobe - 1.0) < 0.05  # each lobe carries half the cat's weight
    assert abs(fringe / lobe - 2.0) < 0.1


def test_mixture_map_has_no_fringes():
    alpha0 = 3.0
    spec = HilbertSpec(46)
    rho = mix([coherent_state(spec, alpha0), coherent_state(spec, -alpha0)],
              [0.5, 0.5])
    wm = wigner_map(rho, default_grid(alpha0, step=0.15))
    strip = np.abs(wm.grid.q1_axis) < 0.5
    assert np.abs(wm.values[strip, :]).max() < 1e-6


def test_map_normalization_on_reference_grid():
    # 161 x 161 spanning +-6: Riemann sum within 1e-3 of 1
    grid = PhaseSpaceGrid(-6, 6, -6, 6, 161, 161)
    spec = HilbertSpec(30)
    for rho in (pure_to_density(vacuum(spec)),
                pure_to_density(fock_state(spec, 1)),
                make_coherent_rho(1.0, 30)):
        wm = wigner_map(rho, grid)
        assert abs(wm.diagnostics["normalization_sum"] - 1.0) < 1e-3


def test_map_normalization_grid_refinement():
    # a step of 0.6 under-resolves the alpha0 = 2 fringes (wavelength ~1.1)
    # and aliases the normalization sum; refining recovers it
    rho = pure_to_density(cat_state(HilbertSpec(36), 2.0, 0.0))
    coarse = wigner_map(rho, PhaseSpaceGrid(-6, 6, -6, 6, 21, 21))
    fine = wigner_map(rho, PhaseSpaceGrid(-6, 6, -6, 6, 81, 81))
    err_coarse = abs(coarse.diagnostics["normalization_sum"] - 1.0)
    err_fine = abs(fine.diagnostics["normalization_sum"] - 1.0)
    assert err_coarse > 1e-3
    assert err_fine < err_coarse / 10
    assert err_fine < 1e-4


def test_map_bound():
    rho = pure_to_density(cat_state(HilbertSpec(36), 2.0, 0.0))
    wm = wigner_map(rho, default_grid(2.0, step=0.1))
    assert wm.diagnostics["max_abs"] <= 2.0 + 1e-8


def test_linearity_of_wigner_in_the_state():
    spec = HilbertSpec(30)
    rho_a = pure_to_density(coherent_state(spec, 1.0))
    rho_b = pure_to_density(fock_state(spec, 2))
    mixed = mix([coherent_state(spec, 1.0), fock_state(spec, 2)], [0.3, 0.7])
    for alpha in (0.0, 0.5 + 0.2j, -1.1j):
        combo = 0.3 * wigner_point(rho_a, alpha) + 0.7 * wigner_point(rho_b, alpha)
        assert abs(wigner_point(mixed, alpha) - combo) < 1e-10


def test_map_values_shape_validation():
    grid = PhaseSpaceGrid(-1, 1, -1, 1, 4, 4)
    from cavitylab.wigner import WignerMap

    with pytest.raises(DomainError):
        WignerMap(grid, np.zeros((3, 4)))
    # a map built by hand records its |W| as it is; only wigner_map bounds it
    bogus = WignerMap(grid, 3.0 * np.ones((4, 4)))
    assert bogus.diagnostics["max_abs"] == 3.0


# -- marginals ------------------------------------------------------------------


def test_vacuum_marginal_is_rotation_invariant_gaussian():
    rho = pure_to_density(vacuum(HilbertSpec(12)))
    qs = np.linspace(-3, 3, 41)
    target = np.exp(-qs ** 2) / np.sqrt(np.pi)
    for theta in (0.0, 0.7, np.pi / 2, 2.9):
        np.testing.assert_allclose(marginal_distribution(rho, theta, qs), target,
                                   atol=1e-10)


def test_fock1_marginal_profile():
    # |psi_1(q)|^2 = 2 q^2 e^{-q^2} / sqrt(pi)
    rho = pure_to_density(fock_state(HilbertSpec(12), 1))
    qs = np.linspace(-4, 4, 81)
    target = 2 * qs ** 2 * np.exp(-qs ** 2) / np.sqrt(np.pi)
    np.testing.assert_allclose(marginal_distribution(rho, 0.0, qs), target, atol=1e-8)


def test_marginal_equals_map_line_integral():
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5, 0.0))
    wm = wigner_map(rho, default_grid(1.5, step=0.06))
    for theta in np.linspace(0, np.pi, 18, endpoint=False):
        qs, p_map = radon_of_map(wm, float(theta))
        p_quantum = marginal_distribution(rho, float(theta), qs)
        assert np.max(np.abs(p_map - p_quantum)) < 5e-3


def test_radon_rows_equal_the_one_angle_call_bitwise():
    # one call over an angle array returns np.shape(theta) + q.shape, each
    # row bit for bit the one-angle call's, on the default q axis
    # [-min(q1_max, q2_max), min(q1_max, q2_max)] of max(n1, n2) points
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5 * np.exp(0.4j), 0.7))
    wm = wigner_map(rho, PhaseSpaceGrid(-3.1, 4.3, -2.2, 5.0, 37, 29))
    thetas = np.linspace(0, np.pi, 12, endpoint=False).reshape(3, 4)
    qs, every = radon_of_map(wm, thetas)
    np.testing.assert_array_equal(qs, np.linspace(-4.3, 4.3, 37))
    assert every.shape == (3, 4, 37)
    for theta, row in zip(thetas.ravel(), every.reshape(12, 37)):
        q_one, one = radon_of_map(wm, float(theta))
        np.testing.assert_array_equal(q_one, qs)
        np.testing.assert_array_equal(row, one)
    assert radon_of_map(wm, [0.3])[1].shape == (1, 37)
    for bad in (np.pi, -0.1, np.nan, [0.2, np.pi]):
        with pytest.raises(DomainError):
            radon_of_map(wm, bad)


def test_radon_matches_grid_interpolator_on_asymmetric_grid():
    # reference: scipy's linear RegularGridInterpolator (zero outside the
    # grid) sampled along the same lines as radon_of_map
    from scipy.interpolate import RegularGridInterpolator

    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5 * np.exp(0.4j), 0.7))
    grid = PhaseSpaceGrid(-3.1, 4.3, -2.2, 5.0, 37, 29)
    wm = wigner_map(rho, grid)
    interp = RegularGridInterpolator((grid.q1_axis, grid.q2_axis),
                                     wm.values / (2 * np.pi),
                                     bounds_error=False, fill_value=0.0)
    radius = math.hypot(4.3, 5.0)
    assert grid.corner_radius == radius
    assert PhaseSpaceGrid(-6.0, 1.0, -2.0, 0.5, 3, 3).corner_radius == math.hypot(6.0, 2.0)
    step = min(7.4 / 36, 7.2 / 28)
    s = np.arange(-radius, radius + step, step)
    for theta in np.linspace(0, np.pi, 13, endpoint=False):
        qs, got = radon_of_map(wm, float(theta))
        pts1 = qs[:, None] * np.cos(theta) - s * np.sin(theta)
        pts2 = qs[:, None] * np.sin(theta) + s * np.cos(theta)
        vals = interp(np.stack([pts1.ravel(), pts2.ravel()], axis=-1))
        want = np.trapezoid(vals.reshape(pts1.shape), dx=step, axis=1)
        assert np.max(np.abs(got - want)) < 1e-14
    # the interpolation itself at every node, along all four edges (the last
    # row and column included) and one ulp outside each edge, where it reads 0
    values = wm.values / (2 * np.pi)
    nodes = np.meshgrid(grid.q1_axis, grid.q2_axis, indexing="ij")
    along1, along2 = np.linspace(-3.1, 4.3, 50), np.linspace(-2.2, 5.0, 50)
    edges = [(np.full(50, -3.1), along2), (np.full(50, 4.3), along2),
             (along1, np.full(50, -2.2)), (along1, np.full(50, 5.0))]
    for pts1, pts2 in [nodes] + edges:
        want = interp(np.stack([pts1.ravel(), pts2.ravel()], axis=-1)).reshape(pts1.shape)
        assert np.max(np.abs(_bilinear(grid, values, pts1, pts2) - want)) < 1e-14
    assert np.max(np.abs(_bilinear(grid, values, *nodes) - values)) < 1e-14
    beyond = [(np.full(50, np.nextafter(-3.1, -np.inf)), along2),
              (np.full(50, np.nextafter(4.3, np.inf)), along2),
              (along1, np.full(50, np.nextafter(-2.2, -np.inf))),
              (along1, np.full(50, np.nextafter(5.0, np.inf)))]
    for pts1, pts2 in beyond:
        assert not np.any(_bilinear(grid, values, pts1, pts2))


def _coherent_wave_packet(beta, x):
    """<x|beta> = pi^(-1/4) exp(-x^2/2 + sqrt(2) beta x - beta^2/2 - |beta|^2/2)."""
    return np.pi ** -0.25 * np.exp(-x ** 2 / 2 + np.sqrt(2) * beta * x
                                   - beta ** 2 / 2 - abs(beta) ** 2 / 2)


def test_marginal_matches_coherent_wave_packet_closed_form():
    # cat (|a> + e^{i psi1}|-a>)/N with complex a: P_theta(x) = |<x| e^{-i theta n} |cat>|^2
    # and e^{-i theta n}|beta> = |beta e^{-i theta}>, so the closed form is a
    # sum of two Gaussian wave packets; a rotation of the wrong sign fails it
    alpha, psi1, dim = 1.5 * np.exp(0.4j), 0.7, 40
    n = np.arange(dim)
    log_norm = np.array([0.5 * math.lgamma(k + 1.0) for k in n])
    amps = np.exp(-abs(alpha) ** 2 / 2 - log_norm) * (alpha ** n + np.exp(1j * psi1) * (-alpha) ** n)
    amps /= np.linalg.norm(amps)
    rho = DensityOperator(np.outer(amps, amps.conj()))
    norm_sq = 2.0 * (1.0 + np.cos(psi1) * np.exp(-2.0 * abs(alpha) ** 2))
    xs = np.linspace(-7.0, 7.0, 281)
    thetas = np.array([0.0, 0.3, np.pi / 4, 1.2, np.pi / 2, 2.7])
    every = marginal_distribution(rho, thetas, xs)  # all angles in one call
    for theta, row in zip(thetas, every):
        beta = alpha * np.exp(-1j * theta)
        packet = (_coherent_wave_packet(beta, xs)
                  + np.exp(1j * psi1) * _coherent_wave_packet(-beta, xs))
        closed = np.abs(packet) ** 2 / norm_sq
        assert np.max(np.abs(marginal_distribution(rho, theta, xs) - closed)) < 1e-10
        assert np.max(np.abs(row - closed)) < 1e-10


def _marginal_by_turned_rho(rho, theta, qs):
    """The per-angle product: sum_n psi_n (Re(e^{-i theta n} rho e^{i theta n}) @ psi)_n."""
    psi = hermite_functions(qs, rho.dim)
    phase = np.exp(-1j * theta * np.arange(rho.dim))
    turned = phase[:, None] * rho.matrix * phase.conj()[None, :]
    return np.sum(psi * (turned.real @ psi), axis=0)


def test_marginal_by_diagonals_matches_turned_rho_product():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    mixed = DensityOperator(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    assert np.min(np.abs(np.tril(mixed.matrix.imag, -1)[np.tril_indices(40, -1)])) > 0
    even, odd = (pure_to_density(cat_state(HilbertSpec(26), 2.0, psi1))
                 for psi1 in (0.0, np.pi))
    for cat in (even, odd):  # the odd lower diagonals are exact zeros, and skipped
        assert not any(np.diagonal(cat.matrix, -k).any() for k in range(1, 26, 2))
    thetas = np.concatenate([np.linspace(0, np.pi, 36, endpoint=False), [0.3, 1.9, 3.1]])
    qs = np.linspace(-9.0, 9.0, 1201)
    for rho in (mixed, even, odd):
        every = marginal_distribution(rho, thetas, qs)
        for theta, row in zip(thetas, every):
            assert np.max(np.abs(row - _marginal_by_turned_rho(rho, theta, qs))) < 1e-13


def test_marginal_angle_array_matches_single_angles():
    rho = pure_to_density(cat_state(HilbertSpec(30), 1.5 * np.exp(0.4j), 0.7))
    thetas = np.linspace(0, np.pi, 36, endpoint=False)
    qs = np.linspace(-6.0, 6.0, 301)
    every = marginal_distribution(rho, thetas, qs)
    assert every.shape == (36, 301)
    assert np.array_equal(every, np.stack([marginal_distribution(rho, th, qs)
                                           for th in thetas]))
    # shapes: np.shape(theta) + np.shape(q)
    assert marginal_distribution(rho, 0.3, qs).shape == (301,)
    assert isinstance(marginal_distribution(rho, 0.3, 0.5), float)
    assert marginal_distribution(rho, [0.3], qs).shape == (1, 301)
    at_one_q = marginal_distribution(rho, thetas, 0.5)
    assert at_one_q.shape == (36,)
    assert np.array_equal(at_one_q, [marginal_distribution(rho, th, 0.5) for th in thetas])


def test_marginal_refuses_a_non_finite_q_node():
    # a NaN node read NaN there, and an infinite one warned and read NaN
    rho = pure_to_density(vacuum(HilbertSpec(6)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match=r"is not a finite number \(q_theta\)"):
            marginal_distribution(rho, 0.0, [bad, 0.0])
        with pytest.raises(DomainError, match=r"is not a finite number \(q_theta\)"):
            marginal_distribution(rho, [0.0, 1.0], [[0.0, 1.0], [2.0, bad]])


def test_marginal_domain():
    rho = pure_to_density(vacuum(HilbertSpec(6)))
    from cavitylab.errors import NonHermitianError

    with pytest.raises(DomainError):
        marginal_distribution(rho, -0.1, 0.0)
    with pytest.raises(DomainError):
        marginal_distribution(rho, np.pi, 0.0)
    # one bad angle in an array refuses the whole call
    for bad in (-0.1, np.pi, np.nan):
        with pytest.raises(DomainError):
            marginal_distribution(rho, [0.0, 1.0, bad, 2.0], [0.0, 1.0])
    # Re(rho) alone is a valid-looking state, and the marginals read only the
    # lower triangle: the state gate refuses it before any reader sees it
    mat = np.zeros((6, 6), dtype=complex)
    mat[0, 0], mat[0, 1] = 1.0, 0.5j
    with pytest.raises(NonHermitianError):
        DensityOperator(mat)


def test_hermite_functions_orthonormal():
    xs = np.linspace(-12, 12, 4001)
    psi = hermite_functions(xs, 8)
    gram = psi @ psi.T * (xs[1] - xs[0])
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-7)


def test_hermite_recurrence_in_place_is_bitwise_the_expression():
    # the rows are written in place, by the same operations in the same order
    def by_expression(x, nmax):
        out = np.zeros((nmax, x.size))
        out[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
        if nmax > 1:
            out[1] = np.sqrt(2.0) * x * out[0]
        for n in range(2, nmax):
            out[n] = np.sqrt(2.0 / n) * x * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
        return out

    rng = np.random.default_rng(5)
    for size in (1, 58, 801, 1024):
        xs = rng.uniform(-12.0, 12.0, size)
        for nmax in (1, 2, 26, 82):
            assert np.array_equal(hermite_functions(xs, nmax), by_expression(xs, nmax))


def test_hermite_functions_vanish_without_a_warning_past_the_square_overflow():
    # past |x| ~ 1e154, x * x overflowed and numpy warned; psi_n there is 0,
    # so sample_homodyne's CDF bound refuses such a window with a typed error
    rho = pure_to_density(cat_state(HilbertSpec(30), 2.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = hermite_functions(np.array([-1e200, 1e155, 3.0]), 6)
        with pytest.raises(SamplingError):
            sample_homodyne(rho, 0.0, 100, 1, bin_width=1e199, q_range=1e200)
    assert not psi[:, :2].any()
    np.testing.assert_array_equal(psi[:, 2], hermite_functions(3.0, 6)[:, 0])


def test_gauss_hermite_nodes_match_scipy():
    from scipy.special import roots_hermite

    # wigner_position integrates at orders dim + 32 and dim + 56; the total
    # weights w e^{x^2} of the two independent builds agree to 3e-12 up to order 205
    for order in range(34, 206):
        x, total = _gh_nodes(order)
        ref_x, ref_w = roots_hermite(order)
        np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(total, ref_w * np.exp(ref_x ** 2), rtol=1e-11, atol=0)


# -- Moyal correspondence ---------------------------------------------------------


def test_moyal_vacuum_odd_moment_vanishes():
    operator_value, integral_value = moyal_average(pure_to_density(vacuum(HilbertSpec(12))),
                                                   (2, 1))
    assert abs(operator_value) < 1e-12
    assert abs(integral_value) < 1e-9


def test_moyal_coherent_state_consistency():
    rho = make_coherent_rho(1.1, 20)
    for monomial in ((1, 0), (2, 0), (1, 1), (2, 1), (0, 3)):
        operator_value, integral_value = moyal_average(rho, monomial)
        assert abs(operator_value - integral_value) < 1e-6


def test_moyal_fock1_q_squared():
    # <q^2> = n + 1/2 = 3/2 for the one-photon state
    operator_value, integral_value = moyal_average(
        pure_to_density(fock_state(HilbertSpec(16), 1)), (2, 0))
    assert abs(operator_value - 1.5) < 1e-6
    assert abs(integral_value - 1.5) < 1e-6


def test_moyal_operator_value_does_not_depend_on_hash_seed():
    # the symmetrized word sums its orderings in a fixed order, so the value
    # is bitwise the same under every string-hash seed
    code = ("from cavitylab import HilbertSpec, coherent_state, moyal_average, pure_to_density\n"
            "rho = pure_to_density(coherent_state(HilbertSpec(26), 0.9))\n"
            "print(moyal_average(rho, (2, 2))[0].hex())")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cavitylab.__file__)))
    values = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src,
                                                  PYTHONHASHSEED=seed)).stdout
              for seed in ("1", "2")}
    assert len(values) == 1


def test_moyal_degree_guard():
    rho = pure_to_density(vacuum(HilbertSpec(12)))
    with pytest.raises(TruncationError):
        moyal_average(rho, (3, 2))


# -- photon statistics -------------------------------------------------------------


def photon_number_distribution(rho):
    """Photon-number populations, refused unless they sum to 1 within 1e-10."""
    p = rho.diagonal()
    if abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"diagonal sums to {p.sum()}, not 1 within 1e-10")
    return p


def test_photon_number_distribution_fock():
    p = photon_number_distribution(pure_to_density(fock_state(HilbertSpec(6), 1)))
    np.testing.assert_allclose(p, [0, 1, 0, 0, 0, 0], atol=1e-15)


def test_photon_number_distribution_poisson():
    alpha = 1.3
    rho = make_coherent_rho(alpha, 30)
    p = photon_number_distribution(rho)
    n = np.arange(30)
    from math import factorial

    poisson = np.array([np.exp(-alpha ** 2) * alpha ** (2 * k) / factorial(k)
                        for k in n])
    np.testing.assert_allclose(p, poisson, atol=1e-10)


def test_photon_number_distribution_damped_one_photon():
    # amplitude damping of |1><1|: p1(t) = e^{-kappa t}, p0 = 1 - p1
    rho0 = pure_to_density(fock_state(HilbertSpec(8), 1))
    t = 0.45
    p = photon_number_distribution(evolve(rho0, DampingModel(kappa=1.0), t))
    assert abs(p[1] - np.exp(-t)) < 1e-7
    assert abs(p[0] - (1 - np.exp(-t))) < 1e-7
    assert np.all(p[2:] < 1e-10)


# -- decoherence visible in the fringes ----------------------------------------------


def test_fringe_amplitude_decays_at_decoherence_rate():
    # |W(0, t)| of an even cat decays with the decoherence time constant
    n_mean = 5.0
    alpha = np.sqrt(n_mean)
    model = DampingModel(kappa=1.0)
    rho0 = pure_to_density(cat_state(HilbertSpec(32), alpha, 0.0))
    t_dec = 1.0 / (2 * n_mean)
    times = np.linspace(0, 0.5 * t_dec, 11)
    w0 = np.array([wigner_point(r, 0.0) for r in evolve(rho0, model, times)])
    rate = -np.polyfit(times, np.log(w0 / w0[0]), 1)[0]
    assert abs(rate * t_dec - 1.0) < 0.10
