"""Feedback-law tests.

Oracles are hand-derived closed forms: the law is linear in the record,
the residual rotation has the exact closed form -cos(theta_bar)*dn/(2a),
and the combined step must hold the target state and the whole circle
s_z = cos(theta_bar) exactly stationary in floating point.
"""

import math
import pickle
import types

import numpy as np
import pytest

from monitored_atom import feedback
from monitored_atom import (
    BlochVector,
    FeedbackLaw,
    FeedbackState,
    HomodyneConfig,
    advance_feedback,
    combined_diffusion_step,
    feedback_amplitude,
)

CFG = HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4)


def test_amplitude_worked_examples():
    """At theta_bar = pi/2 the law returns exactly -dn/(2*alpha); at
    theta_bar = 0 it doubles and flips; at theta_bar = pi it vanishes."""
    half = FeedbackLaw(theta_bar=math.pi / 2.0)
    assert feedback_amplitude(100.0, half, CFG) == -0.5
    assert advance_feedback(FeedbackState(), 100.0, half, CFG).pending == (-100.0,)

    flip = FeedbackLaw(theta_bar=0.0)
    assert feedback_amplitude(-50.0, flip, CFG) == 0.5
    assert advance_feedback(FeedbackState(), -50.0, flip, CFG).pending == (100.0,)

    none = FeedbackLaw(theta_bar=math.pi)
    for dn in (-300.0, 0.0, 7.25):
        assert feedback_amplitude(dn, none, CFG) == 0.0

    off = FeedbackLaw(theta_bar=math.pi / 2.0, enabled=False)
    assert feedback_amplitude(1234.0, off, CFG) == 0.0


@pytest.mark.parametrize("law", [FeedbackLaw(theta_bar=1.2), FeedbackLaw(theta_bar=math.pi),
                                 FeedbackLaw(theta_bar=1.2, enabled=False)],
                         ids=["on", "theta-pi", "off"])
def test_amplitude_out_holds_the_bits_of_the_fresh_form(law):
    """feedback_amplitude given ``out`` writes and returns the bits of its
    fresh form, into a strided column of a ring too, and into dn_qf
    itself; with the law off it writes zeros.  On a Python float it
    returns a float with the bits of the same element of its fresh form."""
    dn = 100.0 * np.random.default_rng(4).standard_normal(32)
    dn[:2] = [0.0, -0.0]
    want = np.broadcast_to(feedback_amplitude(dn, law, CFG), dn.shape)
    for d, w in zip(dn.tolist(), want):
        f = feedback_amplitude(d, law, CFG)
        assert isinstance(f, float) and np.float64(f).tobytes() == w.tobytes()
    ring = np.full((32, 3), np.nan)
    assert feedback_amplitude(dn, law, CFG, ring[:, 1]).tobytes() == want.tobytes()
    assert ring[:, 1].tobytes() == want.tobytes()
    assert np.isnan(ring[:, [0, 2]]).all()
    same = dn.copy()
    assert feedback_amplitude(same, law, CFG, same) is same
    assert same.tobytes() == want.tobytes()


def test_queue_advances_in_order():
    law = FeedbackLaw(theta_bar=math.pi / 2.0)
    fb = FeedbackState((0.0, 0.0, 0.0))
    fb = advance_feedback(fb, 100.0, law, CFG)
    assert fb.pending == (0.0, 0.0, -100.0)
    fb = advance_feedback(fb, -60.0, law, CFG)
    assert fb.pending == (0.0, -100.0, 60.0)
    assert fb.pending[0] == 0.0
    fb = advance_feedback(fb, 0.0, law, CFG)
    assert fb.pending == (-100.0, 60.0, 0.0)
    assert fb.pending[0] == -100.0


def test_residual_rotation_closed_form():
    """Sweep theta_bar and the record range: the net rotation amplitude
    after feedback equals -cos(theta_bar)*dn/(2*alpha) to under 1e-15."""
    for theta_bar in np.linspace(0.0, math.pi, 25):
        law = FeedbackLaw(theta_bar=float(theta_bar))
        for dn in np.linspace(-2.0 * CFG.alpha_mag, 2.0 * CFG.alpha_mag, 41):
            r = float(dn) / (2.0 * CFG.alpha_mag)
            got = r + feedback_amplitude(float(dn), law, CFG)
            assert abs(got - (-math.cos(theta_bar) * r)) <= 1e-15


def test_residual_rotation_disabled_law():
    off = FeedbackLaw(theta_bar=0.3, enabled=False)
    r = 80.0 / (2.0 * CFG.alpha_mag)
    assert r + feedback_amplitude(80.0, off, CFG) == r


def test_combined_step_target_is_exact_fixed_point():
    """The stabilized state must not move at all, for any record value:
    every component of the step is exactly zero there."""
    rng = np.random.default_rng(83)
    for theta_bar in (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi):
        law = FeedbackLaw(theta_bar=theta_bar)
        target = law.target
        for dn in rng.uniform(-5.0 * CFG.alpha_mag, 5.0 * CFG.alpha_mag, 50):
            ds = combined_diffusion_step(target, float(dn), law, CFG)
            assert ds.sx == 0.0 and ds.sy == 0.0 and ds.sz == 0.0


def test_combined_step_keeps_the_target_circle():
    """delta s_z vanishes identically on the circle s_z = cos(theta_bar):
    feedback confines the leak to motion along the circle."""
    rng = np.random.default_rng(89)
    for _ in range(300):
        theta_bar = rng.uniform(0.0, math.pi)
        law = FeedbackLaw(theta_bar=theta_bar)
        cz = law.cos_theta_bar
        phi = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(max(0.0, 1.0 - cz * cz))
        s = BlochVector(r * math.cos(phi), r * math.sin(phi), cz)
        dn = float(rng.uniform(-5.0 * CFG.alpha_mag, 5.0 * CFG.alpha_mag))
        ds = combined_diffusion_step(s, dn, law, CFG)
        assert ds.sz == 0.0


def test_combined_step_reduces_to_bare_step():
    """theta_bar = pi needs no feedback, and a disabled law must change
    nothing: both reduce bitwise to the law-off (bare) diffusion step."""
    rng = np.random.default_rng(97)
    v = rng.standard_normal((100, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    dns = rng.uniform(-5.0 * CFG.alpha_mag, 5.0 * CFG.alpha_mag, 100)
    ground_law = FeedbackLaw(theta_bar=math.pi)
    off_law = FeedbackLaw(theta_bar=0.42, enabled=False)
    for (sx, sy, sz), dn in zip(v, dns):
        s = BlochVector(sx, sy, sz)
        bare = combined_diffusion_step(s, float(dn), FeedbackLaw(enabled=False), CFG)
        for law in (ground_law, off_law):
            ds = combined_diffusion_step(s, float(dn), law, CFG)
            assert (ds.sx, ds.sy, ds.sz) == (bare.sx, bare.sy, bare.sz)


def test_combined_step_tangency():
    rng = np.random.default_rng(101)
    v = rng.standard_normal((500, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    for (sx, sy, sz) in v:
        law = FeedbackLaw(theta_bar=float(rng.uniform(0.0, math.pi)))
        dn = float(rng.uniform(-5.0 * CFG.alpha_mag, 5.0 * CFG.alpha_mag))
        ds = combined_diffusion_step(BlochVector(sx, sy, sz), dn, law, CFG)
        assert abs(sx * ds.sx + sy * ds.sy + sz * ds.sz) <= 1e-12


def test_law_validation():
    with pytest.raises(ValueError, match="0, pi"):
        FeedbackLaw(theta_bar=-0.1)
    with pytest.raises(ValueError, match="0, pi"):
        FeedbackLaw(theta_bar=math.pi + 0.1)
    with pytest.raises(ValueError, match="at least one"):
        FeedbackState(())
    with pytest.raises(ValueError, match="finite"):
        FeedbackState((math.nan,))


def test_law_target_is_unit():
    for theta_bar in np.linspace(0.0, math.pi, 17):
        t = FeedbackLaw(theta_bar=float(theta_bar)).target
        assert abs(t.norm() - 1.0) < 1e-15
        assert t.sy == 0.0


@pytest.mark.parametrize("theta_bar", [0.0, 1.2, math.pi / 2.0, math.pi])
def test_cos_theta_bar_is_stored_once(monkeypatch, theta_bar):
    """feedback_amplitude reads cos_theta_bar every interval; it is
    computed on the first read and kept, bitwise equal to math.cos, while
    equality, hashing and pickling see only the declared fields."""
    fresh = FeedbackLaw(theta_bar=theta_bar)
    read = FeedbackLaw(theta_bar=theta_bar)
    assert read.cos_theta_bar == math.cos(theta_bar)
    assert vars(read)["cos_theta_bar"] == math.cos(theta_bar)
    calls = []
    counting = types.SimpleNamespace(cos=lambda x: calls.append(x) or math.cos(x))
    monkeypatch.setattr(feedback, "math", counting)
    for _ in range(3):
        assert read.cos_theta_bar == math.cos(theta_bar)
        feedback_amplitude(1.0, read, CFG)
    assert calls == []
    monkeypatch.undo()
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    for law in (fresh, read):
        copy = pickle.loads(pickle.dumps(law))
        assert copy == law and hash(copy) == hash(law)
        assert copy.cos_theta_bar == math.cos(theta_bar)
