"""Property tests over the model's valid parameter box.

Inputs are drawn from gamma_tau in (0, 0.01], |alpha|^2 >= 100,
theta_bar in [0, pi] and unit Bloch vectors, with records of up to ten
vacuum standard deviations.  Every run draws the same examples
(derandomized, no example database), so a failure reproduces as is.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from monitored_atom import (
    BlochVector,
    FeedbackLaw,
    HomodyneConfig,
    SimConfig,
    UpdateMode,
    combined_diffusion_step,
    feedback_amplitude,
)
from monitored_atom import cli, trajectory

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

gamma_taus = st.floats(min_value=0.0, max_value=0.01, exclude_min=True)
alpha_mags = st.floats(min_value=10.0, max_value=1e4)
theta_bars = st.floats(min_value=0.0, max_value=math.pi)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)
# A record or a shift in units of |alpha|, the vacuum standard deviation.
records = st.floats(min_value=-10.0, max_value=10.0)
modes = st.sampled_from(UpdateMode)


@st.composite
def unit_vectors(draw):
    theta = draw(theta_bars)
    phi = draw(angles)
    r = math.sin(theta)
    return BlochVector(r * math.cos(phi), r * math.sin(phi), math.cos(theta))


@st.composite
def off_plane_vectors(draw):
    # |s_y| >= sin(0.01)^2, so the amplitudes are complex beyond rounding.
    theta = draw(st.floats(min_value=0.01, max_value=math.pi - 0.01))
    phi = draw(st.floats(min_value=0.01, max_value=math.pi - 0.01))
    sign = draw(st.sampled_from([1.0, -1.0]))
    r = math.sin(theta)
    return BlochVector(r * math.cos(phi), sign * r * math.sin(phi), math.cos(theta))


@st.composite
def plane_vectors(draw):
    # s_y = 0 starts, which the exact kernel runs on float64 amplitudes.
    a = draw(angles)
    return BlochVector(math.sin(a), 0.0, math.cos(a))


def _one_step(hom, law, initial, field, xi):
    # One interval of the mode's lockstep kernel on a single column, with
    # the fed-back amplitude ``field`` due; returns the Bloch vector after
    # it and the dtype the kernel ran on.
    cfg = SimConfig(homodyne=hom, law=law, initial=initial, steps=1, trajectories=1)
    exact = hom.mode is UpdateMode.EXACT
    kernel = trajectory._exact_kernel if exact else trajectory._first_order_kernel
    state, step, bloch, _ = kernel(cfg, 1)
    dtype = state[0].dtype
    step(state, np.array([[field]]), 0, np.array([xi]))
    state = bloch(state)
    return tuple(float(c[0]) for c in state), dtype


@PROPERTY
@given(gamma_taus, alpha_mags, modes, st.booleans(), theta_bars,
       st.one_of(plane_vectors(), off_plane_vectors()), records, records)
def test_one_step_keeps_unit_norm(gt, alpha, mode, enabled, tb, s0, shift, xi):
    hom = HomodyneConfig(alpha_mag=alpha, gamma_tau=gt, mode=mode)
    law = FeedbackLaw(theta_bar=tb, enabled=enabled)
    # The amplitude whose shift, 2 alpha f, is alpha * shift.
    (sx, sy, sz), dtype = _one_step(hom, law, s0, 0.5 * shift, xi)
    if mode is UpdateMode.EXACT:
        assert dtype == (np.float64 if s0.sy == 0.0 else np.complex128)
    assert abs(math.sqrt(sx * sx + sy * sy + sz * sz) - 1.0) <= 2e-15


@PROPERTY
@given(gamma_taus, alpha_mags, theta_bars, unit_vectors(), records)
def test_first_order_increments_are_tangent(gt, alpha, tb, s, xi):
    hom = HomodyneConfig(alpha_mag=alpha, gamma_tau=gt, mode=UpdateMode.FIRST_ORDER)
    dn = alpha * xi
    kappa = hom.sqrt_gamma_tau * (dn / alpha)
    for ds in (combined_diffusion_step(s, dn, FeedbackLaw(enabled=False), hom),
               combined_diffusion_step(s, dn, FeedbackLaw(theta_bar=tb), hom)):
        dot = s.sx * ds.sx + s.sy * ds.sy + s.sz * ds.sz
        # The floor covers subnormal records, whose products round in steps
        # of the smallest subnormal rather than relative to kappa.
        assert abs(dot) <= 2e-15 * abs(kappa) + 8.0 * math.ulp(0.0)


@PROPERTY
@given(gamma_taus, alpha_mags, modes, records)
def test_ground_state_is_stationary_for_every_record(gt, alpha, mode, xi):
    hom = HomodyneConfig(alpha_mag=alpha, gamma_tau=gt, mode=mode)
    ground = BlochVector(0.0, 0.0, -1.0)
    s, _ = _one_step(hom, FeedbackLaw(enabled=False), ground, 0.0, xi)
    assert s == (0.0, 0.0, -1.0)
    ds = combined_diffusion_step(ground, alpha * xi, FeedbackLaw(enabled=False), hom)
    assert ds.as_tuple() == (0.0, 0.0, 0.0)


@PROPERTY
@given(gamma_taus, alpha_mags, theta_bars, angles, records)
def test_law_keeps_the_target_latitude(gt, alpha, tb, phi, xi):
    """With the law on, a state on the circle s_z = cos(theta_bar) gets
    exactly no s_z increment, whatever the record."""
    hom = HomodyneConfig(alpha_mag=alpha, gamma_tau=gt, mode=UpdateMode.FIRST_ORDER)
    law = FeedbackLaw(theta_bar=tb)
    r = math.sin(tb)
    s = BlochVector(r * math.cos(phi), r * math.sin(phi), law.cos_theta_bar)
    assert combined_diffusion_step(s, alpha * xi, law, hom).sz == 0.0


@PROPERTY
@given(alpha_mags, theta_bars, st.booleans(), records)
def test_residual_rotation_identity(alpha, tb, enabled, xi):
    """dn/(2 alpha) + f(dn) is -cos(theta_bar) dn/(2 alpha) to rounding
    with the law on, and exactly dn/(2 alpha) with it off."""
    hom = HomodyneConfig(alpha_mag=alpha)
    law = FeedbackLaw(theta_bar=tb, enabled=enabled)
    dn = alpha * xi
    r = dn / (2.0 * alpha)
    out = r + feedback_amplitude(dn, law, hom)
    if enabled:
        assert abs(out + law.cos_theta_bar * r) <= 2e-15 * max(1.0, abs(r))
    else:
        assert out == r


@PROPERTY
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_csv_cell_round_trips_every_float(x):
    back = float(cli._cell(x))
    assert back == x
    assert math.copysign(1.0, back) == math.copysign(1.0, x)
