"""Pure states of a decaying two-level atom and Bloch-sphere conversions.

The atom is described in the interaction picture, so free precession is
absorbed into the basis and the only dynamics left are spontaneous decay
and measurement back-action.  A pure state is the amplitude pair
(c_e, c_g) on the excited and ground levels.  The equivalent Bloch vector
is

    s_x = 2 Re(c_e* c_g),   s_y = 2 Im(c_e* c_g),   s_z = |c_e|^2 - |c_g|^2.

Trajectories driven by a single measured field quadrature stay in the
s_y = 0 half-plane when they start there; such states are parametrized by
the polar angle theta measured from the positive s_z axis, with
s_x = sin(theta) and s_z = cos(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

NORM_TOL = 1e-6
UNIT_TOL = 1e-9
PLANE_TOL = 1e-9


def _finite(x) -> bool:
    # math.isfinite(x), but False for an int beyond the float range, on
    # which math.isfinite raises OverflowError.
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _norm3(x, y, z) -> float:
    # The length of (x, y, z), squared as floats: an int squared in int
    # arithmetic can leave the float range, where math.sqrt raises
    # OverflowError; as floats the square overflows to inf.
    x, y, z = float(x), float(y), float(z)
    return math.sqrt(x * x + y * y + z * z)


def _abs2(z):
    # |z|^2 without the extra rounding of abs(); also works elementwise.
    return z.real * z.real + z.imag * z.imag


def _bloch(c_e, c_g):
    # (s_x, s_y, s_z) of the amplitude pair; also works elementwise.
    d = c_e.conjugate() * c_g
    return 2.0 * d.real, 2.0 * d.imag, _abs2(c_e) - _abs2(c_g)


@dataclass(frozen=True)
class PureState:
    """Normalized two-level amplitude pair with a canonical global phase.

    Amplitudes are renormalized at construction and the global phase is
    fixed so that ``c_e`` is real and nonnegative (``c_g`` is, when
    ``c_e`` vanishes).  Construction rejects pairs whose squared norm
    deviates from 1 by more than ``2 * NORM_TOL``; after construction the
    norm is 1 within 1e-12.

    Attributes
    ----------
    c_e, c_g : complex
        Excited- and ground-level amplitudes.
    """

    c_e: complex
    c_g: complex

    def __post_init__(self):
        if not all(_finite(x) for c in (self.c_e, self.c_g) for x in (c.real, c.imag)):
            raise ValueError(f"amplitudes must be finite, got {self.c_e!r}, {self.c_g!r}")
        ce = complex(self.c_e)
        cg = complex(self.c_g)
        n2 = _abs2(ce) + _abs2(cg)
        if not math.isfinite(n2) or abs(n2 - 1.0) > 2.0 * NORM_TOL:
            raise ValueError(
                f"state norm must be 1 within {NORM_TOL:g}, got |psi|^2 = {n2!r}"
            )
        n = math.sqrt(n2)
        ce /= n
        cg /= n
        # The leading amplitude becomes its exact modulus (real and
        # nonnegative by construction); already-canonical pairs pass
        # through bitwise unchanged.
        if ce != 0.0:
            if ce.imag != 0.0 or ce.real < 0.0:
                m = math.sqrt(_abs2(ce))
                ce, cg = complex(m), cg * (ce.conjugate() / m)
        elif cg != 0.0 and (cg.imag != 0.0 or cg.real < 0.0):
            mg = math.sqrt(_abs2(cg))
            ce, cg = ce * (cg.conjugate() / mg), complex(mg)
        object.__setattr__(self, "c_e", ce)
        object.__setattr__(self, "c_g", cg)


@dataclass(frozen=True)
class BlochVector:
    """Real triple (s_x, s_y, s_z).

    Unit length for pure states; increments returned by the step
    functions are unconstrained vectors in the same coordinates.
    """

    sx: float
    sy: float
    sz: float

    def __post_init__(self):
        for name in ("sx", "sy", "sz"):
            v = getattr(self, name)
            if not _finite(v):
                raise ValueError(f"Bloch component {name} must be finite, got {v!r}")

    def norm(self) -> float:
        return _norm3(self.sx, self.sy, self.sz)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.sx, self.sy, self.sz)


def bloch_from_state(psi: PureState) -> BlochVector:
    """Bloch vector of a pure state.

    Parameters
    ----------
    psi : PureState

    Returns
    -------
    BlochVector
        Unit vector (s_x, s_y, s_z); exactly (0, 0, 1) for the excited
        state and (0, 0, -1) for the ground state.
    """
    return BlochVector(*_bloch(psi.c_e, psi.c_g))


def state_from_bloch(s: BlochVector) -> PureState:
    """Pure state with the given unit Bloch vector.

    Inverse of :func:`bloch_from_state` up to rounding, using the
    half-angle amplitudes ``c_e = sqrt((1+s_z)/2)`` and
    ``c_g = sqrt((1-s_z)/2) * (s_x + i*s_y)/|s_x + i*s_y|``, which
    already carry the canonical global phase.  Only the larger modulus
    comes from its half-angle formula; the smaller is
    ``|s_x + i*s_y| / (2 * larger)``, since near a pole ``1 -+ s_z``
    has lost the digits that the transverse components still carry.

    Raises
    ------
    ValueError
        If ``|s|`` deviates from 1 by more than 1e-9.
    """
    n = s.norm()
    if abs(n - 1.0) > UNIT_TOL:
        raise ValueError(
            f"Bloch vector must be unit length within {UNIT_TOL:g}, got |s| = {n!r}"
        )
    # The larger modulus is at least sqrt(1/2), so the division is safe.
    r = math.hypot(s.sx, s.sy)
    if s.sz >= 0.0:
        c_e = math.sqrt(0.5 * (1.0 + s.sz))
        mg = r / (2.0 * c_e)
    else:
        mg = math.sqrt(0.5 * (1.0 - s.sz))
        c_e = r / (2.0 * mg)
    # The unit phase comes from the in-plane components directly rather
    # than through atan2/cos/sin, so vectors with s_y = 0 map to exactly
    # real amplitudes (sin(atan2(0, -1)) would leave a 1e-16 residue that
    # a long conditioned run then amplifies).
    if r > 0.0:
        c_g = complex(mg * (s.sx / r), mg * (s.sy / r))
    else:
        c_g = complex(mg, 0.0)
    return PureState(complex(c_e, 0.0), c_g)

