"""Outcome-law and state-update tests.

Oracles:
* Gaussian outcome densities are checked against scipy quadrature
  (normalization, mean, variance computed independently of the formula).
* The conditioned amplitude update is checked against a dense 2x2 matrix
  applied and renormalized with numpy.
* First-order steps are checked against the exact update at small
  gamma*tau and against hand-derived special cases that must come out
  exact in floating point.
"""

import math
import pickle
import types

import numpy as np
import pytest
from scipy import integrate

from monitored_atom import homodyne
from monitored_atom import (
    BlochAngle,
    BlochVector,
    CoherentAmplitude,
    HomodyneConfig,
    PureState,
    UpdateMode,
    angle_of,
    bloch_from_state,
    coherent_outcome_pdf,
    conditioned_update_exact,
    decompose_step,
    delta_theta,
    diffusion_step_first_order,
    sample_outcome,
    sample_outcome_conditioned,
    state_from_bloch,
    vacuum_outcome_pdf,
)

CFG = HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4)


def matrix_update_oracle(c_e, c_g, dn, cfg):
    # Independent route: dense matrix, numpy norm, then the same phase
    # convention as PureState.
    m = np.array(
        [
            [1.0 - 0.5 * cfg.gamma_tau, 0.0],
            [math.sqrt(cfg.gamma_tau) * dn / cfg.alpha_mag, 1.0],
        ],
        dtype=complex,
    )
    v = m @ np.array([c_e, c_g])
    v = v / np.linalg.norm(v)
    anchor = v[0] if abs(v[0]) > 0 else v[1]
    return v * (anchor.conjugate() / abs(anchor))


def random_states(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, 4))
    out = []
    for a, b, c, d in raw:
        nrm = math.sqrt(a * a + b * b + c * c + d * d)
        out.append(PureState(complex(a, b) / nrm, complex(c, d) / nrm))
    return out


def test_vacuum_pdf_normalization_and_moments():
    """Quadrature oracle: the density integrates to 1 with mean 0 and
    variance |alpha|^2."""
    lim = 12.0 * CFG.alpha_mag
    total, _ = integrate.quad(lambda x: vacuum_outcome_pdf(x, CFG), -lim, lim)
    assert math.isclose(total, 1.0, rel_tol=1e-9)
    mean, _ = integrate.quad(lambda x: x * vacuum_outcome_pdf(x, CFG), -lim, lim)
    assert abs(mean) < 1e-9
    second, _ = integrate.quad(lambda x: x * x * vacuum_outcome_pdf(x, CFG), -lim, lim)
    assert math.isclose(second, CFG.alpha_sq, rel_tol=1e-9)


def test_vacuum_pdf_peak_and_symmetry():
    peak = 1.0 / math.sqrt(2.0 * math.pi * CFG.alpha_sq)
    assert math.isclose(float(vacuum_outcome_pdf(0.0, CFG)), peak, rel_tol=1e-14)
    for x in (1.0, 37.5, 250.0):
        assert vacuum_outcome_pdf(x, CFG) == vacuum_outcome_pdf(-x, CFG)


def test_coherent_pdf_mean_shift():
    """A weak field beta moves the mean to 2*|alpha|*Re(beta), nothing else."""
    beta = CoherentAmplitude(0.05)
    lim = 12.0 * CFG.alpha_mag
    mean, _ = integrate.quad(
        lambda x: x * coherent_outcome_pdf(x, beta, CFG), -lim, lim
    )
    assert math.isclose(mean, 2.0 * CFG.alpha_mag * 0.05, rel_tol=1e-9)
    var, _ = integrate.quad(
        lambda x: (x - mean) ** 2 * coherent_outcome_pdf(x, beta, CFG), -lim, lim
    )
    assert math.isclose(var, CFG.alpha_sq, rel_tol=1e-9)


def test_out_of_phase_field_is_invisible():
    """Im(beta) does not couple to the measured quadrature: the density is
    identical to the vacuum one."""
    xs = np.linspace(-400.0, 400.0, 101)
    assert np.array_equal(
        coherent_outcome_pdf(xs, CoherentAmplitude(0.05j), CFG),
        vacuum_outcome_pdf(xs, CFG),
    )


def test_coherent_amplitude_warns_beyond_weak_field():
    with pytest.warns(UserWarning, match="weak-field"):
        CoherentAmplitude(0.5)
    import warnings as _w

    with _w.catch_warnings(record=True) as caught:
        _w.simplefilter("always")
        CoherentAmplitude(0.05)
    assert not caught


def test_sample_outcome_moments():
    """Sampled records follow the stated Gaussian to within standard
    sampling error (fixed seed; bounds sized for N = 20000)."""
    rng = np.random.default_rng(2101)
    n = 20000
    dns = np.array([sample_outcome(0.0, CFG, rng).dn_qf for _ in range(n)])
    assert abs(dns.mean()) <= 4.0 * CFG.alpha_mag / math.sqrt(n)
    assert abs(dns.var(ddof=1) - CFG.alpha_sq) <= 0.04 * CFG.alpha_sq
    z = (dns - dns.mean()) / dns.std(ddof=1)
    assert abs(np.mean(z**3)) < 0.05


def test_sample_outcome_shift_bookkeeping():
    rng = np.random.default_rng(7)
    for shift in (0.0, 10.0, -250.0):
        out = sample_outcome(shift, CFG, rng)
        assert out.dn_total == out.dn_qf + shift
        assert out.shift == shift


def test_conditioned_sampler_mean_tracks_dipole():
    """The conditioned record mean is sqrt(gamma*tau)*|alpha|*s_x, which is
    also within ordinary sampling error of zero (the law stays consistent
    with the state-independent one at this resolution)."""
    rng = np.random.default_rng(331)
    n = 20000
    for sx_target, psi in [
        (1.0, state_from_bloch(BlochVector(1.0, 0.0, 0.0))),
        (0.0, PureState(1.0, 0.0)),
        (0.0, PureState(0.0, 1.0)),
        (-1.0, state_from_bloch(BlochVector(-1.0, 0.0, 0.0))),
    ]:
        dns = np.array(
            [sample_outcome_conditioned(psi, 0.0, CFG, rng).dn_qf for _ in range(n)]
        )
        mu = CFG.sqrt_gamma_tau * CFG.alpha_mag * sx_target
        band = 4.0 * CFG.alpha_mag / math.sqrt(n)
        assert abs(dns.mean() - mu) <= band
        assert abs(dns.mean()) <= band + abs(mu)
        assert abs(dns.var(ddof=1) - CFG.alpha_sq) <= 0.04 * CFG.alpha_sq


def test_conditioned_update_matches_matrix_oracle():
    rng = np.random.default_rng(43)
    for psi in random_states(300, seed=47):
        dn = rng.uniform(-3.0 * CFG.alpha_mag, 3.0 * CFG.alpha_mag)
        got = conditioned_update_exact(psi, dn, CFG)
        want = matrix_update_oracle(psi.c_e, psi.c_g, dn, CFG)
        assert abs(got.c_e - want[0]) < 1e-13
        assert abs(got.c_g - want[1]) < 1e-13


def test_conditioned_update_ground_state_fixed():
    """The ground state cannot emit: every record leaves it untouched."""
    ground = PureState(0.0, 1.0)
    for dn in (-500.0, -1.0, 0.0, 3.0, 500.0):
        after = conditioned_update_exact(ground, dn, CFG)
        assert after.c_e == 0.0 + 0.0j and after.c_g == 1.0 + 0.0j


def test_conditioned_update_excited_null_record():
    """dn = 0 from the excited state renormalizes back to the excited state."""
    after = conditioned_update_exact(PureState(1.0, 0.0), 0.0, CFG)
    assert after.c_e == 1.0 + 0.0j and after.c_g == 0.0 + 0.0j


def test_conditioned_update_excited_generic_record():
    dn = 150.0
    after = conditioned_update_exact(PureState(1.0, 0.0), dn, CFG)
    k = CFG.sqrt_gamma_tau * (dn / CFG.alpha_mag)
    d = 1.0 - 0.5 * CFG.gamma_tau
    nrm = math.sqrt(d * d + k * k)
    assert abs(after.c_e - d / nrm) < 1e-15
    assert abs(after.c_g - k / nrm) < 1e-15


def test_first_order_step_matches_exact_update():
    """Componentwise agreement within 10*gamma_tau for |dn| <= 3|alpha|
    (the regime where the first-order expansion is advertised)."""
    rng = np.random.default_rng(53)
    worst = 0.0
    for psi in random_states(300, seed=59):
        dn = rng.uniform(-3.0 * CFG.alpha_mag, 3.0 * CFG.alpha_mag)
        s = bloch_from_state(psi)
        exact = bloch_from_state(conditioned_update_exact(psi, dn, CFG))
        ds = diffusion_step_first_order(s, dn, CFG)
        v = np.array([s.sx + ds.sx, s.sy + ds.sy, s.sz + ds.sz])
        v = v / np.linalg.norm(v)
        diff = np.max(np.abs(v - [exact.sx, exact.sy, exact.sz]))
        worst = max(worst, diff)
    assert worst <= 10.0 * CFG.gamma_tau


def test_step_special_cases_exact():
    """Hand-derived cases that must hold exactly: the ground state is dark,
    the excited state moves along +s_x by 2*kappa, and at the dipole states
    the step is purely the classical rotation."""
    for dn in (-500.0, -37.0, 1.0, 250.0, 500.0):
        k = CFG.sqrt_gamma_tau * (dn / CFG.alpha_mag)

        ds = diffusion_step_first_order(BlochVector(0.0, 0.0, -1.0), dn, CFG)
        assert (ds.sx, ds.sy, ds.sz) == (0.0, 0.0, 0.0)

        ds = diffusion_step_first_order(BlochVector(0.0, 0.0, 1.0), dn, CFG)
        assert ds.sx == 2.0 * k and ds.sy == 0.0 and ds.sz == 0.0

        for sx in (1.0, -1.0):
            lin, nl = decompose_step(BlochVector(sx, 0.0, 0.0), dn, CFG)
            assert (nl.sx, nl.sy, nl.sz) == (0.0, 0.0, 0.0)
            assert lin.sy == 0.0 and abs(lin.sz + k * sx) == 0.0


def test_step_tangency():
    """ds must be tangent to the sphere: |s . ds| stays at rounding level
    even for records five oscillator amplitudes out."""
    rng = np.random.default_rng(61)
    v = rng.standard_normal((2000, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    dns = rng.uniform(-5.0 * CFG.alpha_mag, 5.0 * CFG.alpha_mag, 2000)
    for (sx, sy, sz), dn in zip(v, dns):
        ds = diffusion_step_first_order(BlochVector(sx, sy, sz), dn, CFG)
        assert abs(sx * ds.sx + sy * ds.sy + sz * ds.sz) <= 1e-12


def test_decompose_remainder_is_the_exact_difference():
    """The nonlinear part is defined as full minus linear (bitwise), and the
    linear part is the hand formula kappa*(s_z, 0, -s_x); re-summing then
    reconstructs the full step to within the rounding of the subtraction,
    which scales with the larger part when the two nearly cancel."""
    rng = np.random.default_rng(67)
    v = rng.standard_normal((200, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    dns = rng.uniform(-5.0 * CFG.alpha_mag, 5.0 * CFG.alpha_mag, 200)
    for (sx, sy, sz), dn in zip(v, dns):
        s = BlochVector(sx, sy, sz)
        full = diffusion_step_first_order(s, dn, CFG)
        lin, nl = decompose_step(s, dn, CFG)
        k = CFG.sqrt_gamma_tau * (dn / CFG.alpha_mag)
        assert lin.sx == k * s.sz and lin.sy == 0.0 and lin.sz == -(k * s.sx)
        assert nl.sx == full.sx - lin.sx
        assert nl.sy == full.sy - lin.sy
        assert nl.sz == full.sz - lin.sz
        eps = np.finfo(float).eps
        for a, b, want in (
            (lin.sx, nl.sx, full.sx),
            (lin.sy, nl.sy, full.sy),
            (lin.sz, nl.sz, full.sz),
        ):
            assert abs((a + b) - want) <= 2.0 * eps * (abs(a) + abs(want)) + 1e-30


def test_decompose_linear_part_is_a_rotation():
    """kappa*(s_z, 0, -s_x) preserves |s| to first order, so the norm may
    grow only at O(kappa^2)."""
    rng = np.random.default_rng(71)
    v = rng.standard_normal((200, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    dns = rng.uniform(-3.0 * CFG.alpha_mag, 3.0 * CFG.alpha_mag, 200)
    for (sx, sy, sz), dn in zip(v, dns):
        lin, _ = decompose_step(BlochVector(sx, sy, sz), dn, CFG)
        k = CFG.sqrt_gamma_tau * (dn / CFG.alpha_mag)
        grown = math.sqrt((sx + lin.sx) ** 2 + (sy + lin.sy) ** 2 + (sz + lin.sz) ** 2)
        assert abs(grown - 1.0) <= k * k


def test_delta_theta_matches_vector_step_in_plane():
    rng = np.random.default_rng(73)
    for _ in range(200):
        theta = rng.uniform(0.0, math.pi)
        dn = rng.uniform(-CFG.alpha_mag, CFG.alpha_mag)
        k = CFG.sqrt_gamma_tau * (dn / CFG.alpha_mag)
        s = BlochVector(math.sin(theta), 0.0, math.cos(theta))
        ds = diffusion_step_first_order(s, dn, CFG)
        # atan2 rather than angle_of: a large negative record can push the
        # state just past the excited pole, where the continued angle is
        # slightly negative.
        moved = math.atan2(s.sx + ds.sx, s.sz + ds.sz)
        predicted = theta + delta_theta(BlochAngle(theta), dn, CFG)
        assert abs(moved - predicted) <= 5.0 * k * k + 1e-12


def test_delta_theta_examples():
    dn = 200.0
    k = CFG.sqrt_gamma_tau * (dn / CFG.alpha_mag)
    assert delta_theta(BlochAngle(math.pi), dn, CFG) == 0.0
    assert delta_theta(BlochAngle(0.0), dn, CFG) == 2.0 * k
    # cos(pi/2) rounds below half an ulp of 1, so the angle step at the
    # equator is exactly kappa.
    assert delta_theta(BlochAngle(math.pi / 2.0), dn, CFG) == k


def test_config_validation_messages():
    with pytest.raises(ValueError, match="floor"):
        HomodyneConfig(alpha_mag=5.0)
    with pytest.raises(ValueError, match="ceiling"):
        HomodyneConfig(gamma_tau=0.5)
    with pytest.raises(ValueError, match="positive"):
        HomodyneConfig(gamma_tau=0.0)
    with pytest.raises(ValueError, match="positive"):
        HomodyneConfig(alpha_mag=-100.0)
    assert UpdateMode("first-order") is UpdateMode.FIRST_ORDER


def test_outcome_dataclass_identity():
    out = sample_outcome(-12.5, CFG, np.random.default_rng(0))
    assert out.dn_total - out.shift == out.dn_qf


@pytest.mark.parametrize("gamma_tau", [1e-4, 3e-3, 0.01, 2.0**-20])
def test_sqrt_gamma_tau_is_stored_once(monkeypatch, gamma_tau):
    """The kernels read sqrt_gamma_tau every interval; it is computed on
    the first read and kept, bitwise equal to math.sqrt, while equality,
    hashing and pickling see only the declared fields."""
    fresh = HomodyneConfig(gamma_tau=gamma_tau)
    read = HomodyneConfig(gamma_tau=gamma_tau)
    assert read.sqrt_gamma_tau == math.sqrt(gamma_tau)
    assert vars(read)["sqrt_gamma_tau"] == math.sqrt(gamma_tau)
    calls = []
    counting = types.SimpleNamespace(sqrt=lambda x: calls.append(x) or math.sqrt(x))
    monkeypatch.setattr(homodyne, "math", counting)
    for _ in range(3):
        assert read.sqrt_gamma_tau == math.sqrt(gamma_tau)
    assert calls == []
    monkeypatch.undo()
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    for cfg in (fresh, read):
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg and hash(copy) == hash(cfg)
        assert copy.sqrt_gamma_tau == math.sqrt(gamma_tau)
