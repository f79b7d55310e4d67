"""Property tests over random mixed states and phase-space points.

Each example draws a density matrix of dimension <= 30 (a mixture of up to
three random pure states) and a point alpha with |alpha|^2 <= dim/4.  No
function refuses points outside that disc; it only bounds where they are
drawn.  The Wigner function must respect |W| <= 2, the Laguerre-series
point value must equal the position-representation integral, and the
direct readout at alpha must read W(-alpha).  Every rotated-quadrature
marginal must be a probability density: nonnegative, with unit integral.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cavitylab import (
    DensityOperator,
    direct_point_exact,
    marginal_distribution,
    wigner_point,
    wigner_position,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def mixed_states(draw, max_dim=30):
    dim = draw(st.integers(2, max_dim))
    rank = draw(st.integers(1, 3))
    parts = draw(hnp.arrays(np.float64, (rank, 2, dim), elements=st.floats(-1.0, 1.0)))
    vecs = parts[:, 0] + 1j * parts[:, 1]
    norms = np.linalg.norm(vecs, axis=1)
    assume(np.all(norms > 1e-3))
    vecs /= norms[:, None]
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=rank, max_size=rank)))
    weights /= weights.sum()
    return DensityOperator(np.einsum("r,ri,rj->ij", weights, vecs, vecs.conj()))


@st.composite
def states_and_points(draw):
    rho = draw(mixed_states())
    radius = draw(st.floats(0.0, 0.999)) * np.sqrt(rho.dim / 4.0)
    phase = draw(st.floats(0.0, 2.0 * np.pi))
    return rho, complex(radius * np.exp(1j * phase))


@PROPERTY_SETTINGS
@given(states_and_points())
def test_wigner_bounded_by_two(case):
    rho, alpha = case
    assert abs(wigner_point(rho, alpha)) <= 2.0 + 1e-12


@PROPERTY_SETTINGS
@given(states_and_points())
def test_point_value_equals_position_integral(case):
    rho, alpha = case
    q, p = np.sqrt(2.0) * alpha.real, np.sqrt(2.0) * alpha.imag
    assert abs(wigner_point(rho, alpha) - wigner_position(rho, q, p)) < 1e-10


@PROPERTY_SETTINGS
@given(states_and_points())
def test_direct_readout_equals_reflected_wigner(case):
    rho, alpha = case
    p_e, p_g = direct_point_exact(rho, alpha)
    assert abs(2.0 * (p_g - p_e) - wigner_point(rho, -alpha)) < 1e-8


@PROPERTY_SETTINGS
@given(mixed_states(), st.floats(0.0, np.pi, exclude_max=True))
def test_marginal_is_a_probability_density(rho, theta):
    # psi_n with n < 30 is negligible beyond |q| = 14, and the trapezoid rule
    # on a Gaussian-decaying integrand is spectrally accurate at this step
    qs = np.linspace(-14.0, 14.0, 1401)
    p = marginal_distribution(rho, theta, qs)
    assert p.min() >= -1e-12
    assert abs(np.trapezoid(p, qs) - 1.0) < 1e-8
