"""State and Bloch-conversion tests.

Oracle: Bloch components are Pauli expectation values, computed here
independently with dense 2x2 matrices on random normalized amplitude
pairs; the conversion functions must agree.  Pole and equator cases have
hand-derivable exact values.
"""

import math

import numpy as np
import pytest

from monitored_atom import (
    BlochVector,
    PureState,
    bloch_from_state,
    state_from_bloch,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def pauli_bloch(c_e: complex, c_g: complex) -> tuple[float, float, float]:
    # Independent oracle: <psi| sigma |psi> with the excited level first.
    v = np.array([c_e, c_g])
    return tuple(float(np.real(np.conj(v) @ (P @ v))) for P in (SX, SY, SZ))


def random_states(n: int, seed: int) -> list[PureState]:
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, 4))
    out = []
    for a, b, c, d in raw:
        z = complex(a, b), complex(c, d)
        nrm = math.sqrt(abs(z[0]) ** 2 + abs(z[1]) ** 2)
        out.append(PureState(z[0] / nrm, z[1] / nrm))
    return out


def random_unit_vectors(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_bloch_matches_pauli_expectations():
    """The conversion must equal Pauli expectation values on random states."""
    for psi in random_states(500, seed=11):
        s = bloch_from_state(psi)
        ox, oy, oz = pauli_bloch(psi.c_e, psi.c_g)
        assert np.allclose([s.sx, s.sy, s.sz], [ox, oy, oz], rtol=0.0, atol=1e-12)
        assert abs(s.norm() - 1.0) < 1e-12


def test_pole_states_are_exact():
    """Excited and ground states sit exactly on the s_z poles."""
    up = bloch_from_state(PureState(1.0, 0.0))
    assert (up.sx, up.sy, up.sz) == (0.0, 0.0, 1.0)
    down = bloch_from_state(PureState(0.0, 1.0))
    assert (down.sx, down.sy, down.sz) == (0.0, 0.0, -1.0)


def test_state_from_bloch_poles_exact():
    psi = state_from_bloch(BlochVector(0.0, 0.0, 1.0))
    assert psi.c_e == 1.0 + 0.0j and psi.c_g == 0.0 + 0.0j
    psi = state_from_bloch(BlochVector(0.0, 0.0, -1.0))
    assert psi.c_e == 0.0 + 0.0j and psi.c_g == 1.0 + 0.0j


def test_state_from_bloch_equator():
    """Equator states are equal-weight superpositions; the s_y axis fixes
    the relative phase to +-i."""
    psi = state_from_bloch(BlochVector(1.0, 0.0, 0.0))
    r = math.sqrt(0.5)
    assert abs(psi.c_e - r) < 1e-15 and abs(psi.c_g - r) < 1e-15
    psi = state_from_bloch(BlochVector(0.0, 1.0, 0.0))
    assert abs(psi.c_e - r) < 1e-15 and abs(psi.c_g - 1.0j * r) < 1e-15


def test_round_trip_state_to_bloch_to_state():
    """state -> bloch -> state is the identity (canonical phase on both sides)."""
    for psi in random_states(300, seed=23):
        back = state_from_bloch(bloch_from_state(psi))
        assert abs(back.c_e - psi.c_e) < 1e-12
        assert abs(back.c_g - psi.c_g) < 1e-12


def test_round_trip_bloch_to_state_to_bloch():
    for v in random_unit_vectors(300, seed=29):
        s = BlochVector(*v)
        t = bloch_from_state(state_from_bloch(s))
        assert np.allclose([t.sx, t.sy, t.sz], v, rtol=0.0, atol=1e-12)


def test_global_phase_is_canonicalized():
    """Amplitudes differing by a global phase collapse to one representative
    with c_e real and nonnegative."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / nrm, b / nrm
        gamma = rng.uniform(0.0, 2.0 * math.pi)
        ph = complex(math.cos(gamma), math.sin(gamma))
        p1 = PureState(a, b)
        p2 = PureState(a * ph, b * ph)
        assert p1.c_e.imag == 0.0 and p1.c_e.real >= 0.0
        assert abs(p1.c_e - p2.c_e) < 1e-12 and abs(p1.c_g - p2.c_g) < 1e-12


def test_phase_fix_falls_back_to_ground_amplitude():
    psi = PureState(0.0, 1.0j)
    assert psi.c_g == 1.0 + 0.0j and psi.c_e == 0.0 + 0.0j


def test_norm_validation():
    with pytest.raises(ValueError, match="norm"):
        PureState(1.0, 1.0)
    with pytest.raises(ValueError, match="norm"):
        PureState(0.5, 0.0)
    with pytest.raises(ValueError, match="unit length"):
        state_from_bloch(BlochVector(0.0, 0.0, 2.0))
    with pytest.raises(ValueError, match="finite"):
        BlochVector(math.nan, 0.0, 0.0)


def test_near_normalized_input_is_renormalized():
    scale = 1.0 + 5e-7
    psi = PureState(scale * math.sqrt(0.5), scale * math.sqrt(0.5))
    s = bloch_from_state(psi)
    assert abs(s.norm() - 1.0) < 1e-12


def test_angle_round_trip_over_the_quadrant():
    """The polar angle atan2(s_x, s_z), the one the angle_var column reads,
    survives the round trip through the amplitude pair."""
    for theta in np.linspace(0.0, math.pi, 101):
        s = bloch_from_state(state_from_bloch(BlochVector(math.sin(theta), 0.0, math.cos(theta))))
        assert abs(math.atan2(s.sx, s.sz) - theta) < 1e-12
