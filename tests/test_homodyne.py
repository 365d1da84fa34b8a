"""Outcome-law and state-update tests.

Oracles:
* Sampled records are checked against the stated Gaussian's moments.
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

from monitored_atom import homodyne
from monitored_atom import (
    BlochVector,
    FeedbackLaw,
    HomodyneConfig,
    PureState,
    UpdateMode,
    bloch_from_state,
    combined_diffusion_step,
    conditioned_update_exact,
    decompose_step,
    sample_outcome,
    sample_outcome_conditioned,
    state_from_bloch,
)

CFG = HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4)
OFF = FeedbackLaw(enabled=False)


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
    k = CFG.kappa_gain * dn
    d = 1.0 - 0.5 * CFG.gamma_tau
    nrm = math.sqrt(d * d + k * k)
    assert abs(after.c_e - d / nrm) < 1e-15
    assert abs(after.c_g - k / nrm) < 1e-15


def test_conditioned_update_rejects_an_unnormalizable_record():
    """A record too large to renormalize raises the documented error, and
    no floating-point warning on the way."""
    for dn in (math.inf, math.nan, 1e300):
        with pytest.raises(RuntimeError, match="unnormalizable"):
            conditioned_update_exact(PureState(1.0, 0.0), dn, CFG)


def test_first_order_step_matches_exact_update():
    """Componentwise agreement within 10*gamma_tau for |dn| <= 3|alpha|
    (the regime where the first-order expansion is advertised)."""
    rng = np.random.default_rng(53)
    worst = 0.0
    for psi in random_states(300, seed=59):
        dn = rng.uniform(-3.0 * CFG.alpha_mag, 3.0 * CFG.alpha_mag)
        s = bloch_from_state(psi)
        exact = bloch_from_state(conditioned_update_exact(psi, dn, CFG))
        ds = combined_diffusion_step(s, dn, OFF, CFG)
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
        k = CFG.kappa_gain * dn

        ds = combined_diffusion_step(BlochVector(0.0, 0.0, -1.0), dn, OFF, CFG)
        assert (ds.sx, ds.sy, ds.sz) == (0.0, 0.0, 0.0)

        ds = combined_diffusion_step(BlochVector(0.0, 0.0, 1.0), dn, OFF, CFG)
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
        ds = combined_diffusion_step(BlochVector(sx, sy, sz), dn, OFF, CFG)
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
        full = combined_diffusion_step(s, dn, OFF, CFG)
        lin, nl = decompose_step(s, dn, CFG)
        k = CFG.kappa_gain * dn
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
        k = CFG.kappa_gain * dn
        grown = math.sqrt((sx + lin.sx) ** 2 + (sy + lin.sy) ** 2 + (sz + lin.sz) ** 2)
        assert abs(grown - 1.0) <= k * k


def test_delta_theta_matches_vector_step_in_plane():
    """The paper's angle form of the step, d(theta) = kappa*(1 + cos(theta)),
    follows the in-plane vector step to second order in kappa."""
    rng = np.random.default_rng(73)
    for _ in range(200):
        theta = rng.uniform(0.0, math.pi)
        dn = rng.uniform(-CFG.alpha_mag, CFG.alpha_mag)
        k = CFG.kappa_gain * dn
        s = BlochVector(math.sin(theta), 0.0, math.cos(theta))
        ds = combined_diffusion_step(s, dn, OFF, CFG)
        # The continued angle: a large negative record can push the state
        # just past the excited pole, where it is slightly negative.
        moved = math.atan2(s.sx + ds.sx, s.sz + ds.sz)
        assert abs(moved - (theta + k * (1.0 + math.cos(theta)))) <= 5.0 * k * k + 1e-12


def test_delta_theta_examples():
    """At the poles and the equator the in-plane vector step has length
    d(theta) = kappa*(1 + cos(theta)) exactly: 0 at the ground state, 2*kappa
    at the excited state and, since cos(pi/2) rounds below half an ulp of 1,
    kappa at the equator."""
    dn = 200.0
    k = CFG.kappa_gain * dn
    for theta, d in ((math.pi, 0.0), (0.0, 2.0 * k), (math.pi / 2.0, k)):
        ds = combined_diffusion_step(
            BlochVector(math.sin(theta), 0.0, math.cos(theta)), dn, OFF, CFG)
        assert ds.norm() == k * (1.0 + math.cos(theta)) == d


@pytest.mark.parametrize("plane", [True, False], ids=["in-plane", "out-of-plane"])
def test_field_and_record_mean_write_the_bits_of_their_fresh_form(plane):
    """_step_field and _record_mean given ``out`` arrays write the bits of
    their fresh form, signed zeros included, into those arrays, and leave
    their inputs alone.  On Python floats, _step_field, _record_mean and
    _kappa return floats with the bits of the same element of their array
    result."""
    rng = np.random.default_rng(3)
    sx, sy, sz = rng.uniform(-1.0, 1.0, (3, 64))
    sx[:4] = sz[:4] = [0.0, -0.0, 0.0, -0.0]
    sz[4:8] = 0.5
    sy[8:12] = [0.0, -0.0, 0.0, -0.0]
    if plane:
        sy = None
    inputs = [a.tobytes() for a in (sx, sz)]

    def same_bits(scalar, want):
        return isinstance(scalar, float) and np.float64(scalar).tobytes() == want.tobytes()

    for cz in (-1.0, 0.5):
        want = homodyne._step_field(sx, sy, sz, cz)
        out = tuple(np.full(64, np.nan) for _ in range(4))
        got = homodyne._step_field(sx, sy, sz, cz, out)
        assert got[1] is None if plane else got[1] is out[1]
        for g, w, o in zip(got, want, out):
            if w is not None:
                assert g is o and g.tobytes() == w.tobytes()
        for j in range(64):
            one = homodyne._step_field(sx[j].item(), None if plane else sy[j].item(),
                                       sz[j].item(), cz)
            assert (one[1] is None) == plane
            assert all(w is None or same_bits(g, w[j]) for g, w in zip(one, want))
    mean = np.empty(64)
    assert homodyne._record_mean(sx, CFG, mean) is mean
    assert mean.tobytes() == homodyne._record_mean(sx, CFG).tobytes()
    dn = 100.0 * sz
    kappa = homodyne._kappa(dn, CFG)
    for j in range(64):
        assert same_bits(homodyne._record_mean(sx[j].item(), CFG), mean[j])
        assert same_bits(homodyne._kappa(dn[j].item(), CFG), kappa[j])
    assert [a.tobytes() for a in (sx, sz)] == inputs


def _shifts_of(h, cfg):
    # The record shifts whose drive turns by the half angles h, to rounding.
    return h / cfg.drive_gain


def _same_bits(a, b):
    return np.asarray(a, np.float64).tobytes() == np.asarray(b, np.float64).tobytes()


def test_drive_polynomials_are_within_an_ulp_of_libm():
    """Up to the bound, the drive's cosine and sine come from Taylor
    polynomials.  On a dense grid of half angles each is within 1 ulp of
    libm's, cos^2 + sin^2 is 1 to rounding, and a Python float gives the
    bits of the same element of an array."""
    bound = homodyne._DRIVE_H_MAX
    # The largest shift whose half angle rounds to the bound or below it.
    top = _shifts_of(bound, CFG)
    while CFG.drive_gain * top > bound:
        top = np.nextafter(top, 0.0)
    shift = np.linspace(-top, top, 100_001)
    half = CFG.drive_gain * shift
    assert np.abs(half).max() <= bound
    c, s = homodyne._drive_factors(shift, CFG)
    assert np.all(np.abs(c - np.cos(half)) <= np.spacing(np.cos(half)))
    assert np.all(np.abs(s - np.sin(half)) <= np.abs(np.spacing(np.sin(half))))
    assert np.abs(c * c + s * s - 1.0).max() <= 2.3e-16
    for j in range(0, shift.size, 37):
        cj, sj = homodyne._drive_factors(shift[j].item(), CFG)
        assert _same_bits(cj, c[j]) and _same_bits(sj, s[j])


def test_drive_takes_libm_per_element_past_the_bound():
    """A half angle past the bound takes libm's cos and sin bit for bit.
    The choice is made per element.  In a window that mixes both kinds,
    the others keep the bits they have in a window of their own, so a
    trajectory's bits do not depend on its neighbours.  A half angle of
    1e100 overflows no term.  Written into ``out``, the bits are the same,
    and so they are for each element as a Python float."""
    rng = np.random.default_rng(8)
    h = rng.normal(0.0, homodyne._DRIVE_H_MAX, (64, 5))
    h[0, :2] = 1e100, -1e100
    shift = _shifts_of(h, CFG)
    half = CFG.drive_gain * shift
    big = np.abs(half) > homodyne._DRIVE_H_MAX
    assert 20 < big.sum() < 300
    c, s = homodyne._drive_factors(shift, CFG)
    assert _same_bits(c[big], np.cos(half[big])) and _same_bits(s[big], np.sin(half[big]))
    alone = homodyne._drive_factors(shift[~big], CFG)
    assert _same_bits(c[~big], alone[0]) and _same_bits(s[~big], alone[1])
    out = (*(np.full((64, 5), np.nan) for _ in range(4)), np.zeros((64, 5), bool))
    got = homodyne._drive_factors(shift, CFG, out)
    assert got[0] is out[0] and got[1] is out[1]
    assert _same_bits(got[0], c) and _same_bits(got[1], s)
    for j in np.ndindex(shift.shape):
        cj, sj = homodyne._drive_factors(shift[j].item(), CFG)
        assert _same_bits(cj, c[j]) and _same_bits(sj, s[j])


def test_config_validation_messages():
    with pytest.raises(ValueError, match="floor"):
        HomodyneConfig(alpha_mag=5.0)
    with pytest.raises(ValueError, match="ceiling"):
        HomodyneConfig(gamma_tau=0.5)
    with pytest.raises(ValueError, match="positive"):
        HomodyneConfig(gamma_tau=0.0)
    with pytest.raises(ValueError, match="positive"):
        HomodyneConfig(alpha_mag=-100.0)
    with pytest.raises(ValueError, match="finite"):
        HomodyneConfig(gamma_tau=math.inf)
    assert UpdateMode("first-order") is UpdateMode.FIRST_ORDER


def test_outcome_dataclass_identity():
    out = sample_outcome(-12.5, CFG, np.random.default_rng(0))
    assert out.dn_total == out.dn_qf + out.shift


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
