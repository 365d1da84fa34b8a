"""Time-resolved balanced homodyne monitoring of a decaying two-level atom.

Model
-----
During each interval of length tau the atom can deposit at most one photon
into a traveling field mode.  That mode is mixed with a strong resonant
local oscillator on a balanced beam splitter and the observed quantity is
the photon-number difference dn between the two output ports.  The local
oscillator amplitude alpha is taken real and positive; it defines the
measured quadrature.  For gamma*tau << 1 and |alpha|^2 >> 1:

* with only vacuum in the monitored mode, dn is Gaussian with mean 0 and
  variance |alpha|^2;
* a weak coherent field beta in the mode shifts the mean to
  2*|alpha|*Re(beta) and leaves the variance unchanged, so only the
  in-phase quadrature is visible.  The fed-back field f is real, so the
  code applies this law as the shift 2*alpha*f, in ``feedback._shift``.

Conditioning the atomic state on the observed dn gives the unnormalized
amplitude update

    c_e -> c_e * (1 - gamma*tau/2)
    c_g -> c_g + c_e * sqrt(gamma*tau) * dn / alpha

followed by renormalization.  Expanded to first order in sqrt(gamma*tau),
the Bloch vector makes the tangent diffusion step

    ds = kappa * (1 + s_z - s_x^2, -s_x*s_y, -s_x - s_x*s_z),
    kappa = sqrt(gamma*tau) * dn / |alpha|.

Its linear part kappa*(s_z, 0, -s_x) is exactly the rotation about s_y
that a classical field of amplitude dn/(2*alpha) would produce; the
nonlinear remainder is measurement back-action.  For states in the
s_y = 0 plane the step reduces to the angle increment
d(theta) = kappa * (1 + cos(theta)).

The atom sees the record only as dn/alpha, so alpha sets only the scale
of what is recorded.  In units of alpha the record is
x = dn/alpha = sqrt(gamma*tau)*s_x + xi, with xi standard normal, and
each law is one multiply by a gain: kappa = sqrt(gamma*tau)*x, the
fed-back field f = -(1 + cos(theta_bar))*x/2 (see ``feedback``) and the
drive's half angle sqrt(gamma*tau)*f.  The trajectory kernels run the
laws in these units, and alpha enters only where a run writes its records
dn_qf = alpha*x and shift = 2*alpha*f.  The public functions here take and
return photon counts, and a HomodyneConfig answers the laws' gains in
counts: ``kappa_gain`` sqrt(gamma*tau)/alpha, ``drive_gain``
sqrt(gamma*tau)/(2*alpha) per count of shift, and ``amplitude_gain(law)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
# The laws call their ufuncs by these names: CPython caches none of the
# attribute loads on numpy (trajectory's Per-step cost, the lookup rule).
from numpy import (add, cos, divide, greater, maximum, minimum, multiply, negative, reciprocal,
                   sin, sqrt, subtract)

from .state import BlochVector, PureState, _abs2, _finite, bloch_from_state

# Validity limits of the model: the Gaussian outcome law needs a strong
# local oscillator, and the update laws keep only the leading orders in
# gamma*tau.
MIN_ALPHA_SQ = 100.0
MAX_GAMMA_TAU = 0.01
# The drive's half angles h up to this bound take their cosine and sine
# from the Taylor polynomials through h^6 and h^7.  The first terms left
# out, h^8/8! and h^9/9!, are then at most 1.6e-17 of the cosine and
# 1.8e-19 of the sine, below a quarter of an ulp.  At theta_bar = pi/2 and
# gamma tau = 1e-4, |h| is 0.005 per standard deviation of the record.
# The coefficients are 0-d operands (trajectory's operand rule).
_DRIVE_H_MAX = 0.03
_DRIVE_H2_MAX = _DRIVE_H_MAX * _DRIVE_H_MAX
_C2, _C4, _C6, _S3, _S5, _S7, _ONE = (
    np.array(c) for c in (-1 / 2, 1 / 24, -1 / 720, -1 / 6, 1 / 120, -1 / 5040, 1.0))


class UpdateMode(Enum):
    """How a trajectory advances the atomic state each interval."""

    EXACT = "exact"
    FIRST_ORDER = "first-order"


@dataclass(frozen=True)
class HomodyneConfig:
    """Detection and timestep parameters.

    Parameters
    ----------
    alpha_mag : float
        Local oscillator amplitude |alpha| (real, positive).  The squared
        amplitude must stay at or above ``MIN_ALPHA_SQ``; the
        strong-oscillator limit is what makes the outcome law Gaussian.
    gamma_tau : float
        Decay probability per interval, gamma*tau.  Must be positive and
        at most ``MAX_GAMMA_TAU``; the update laws keep only the leading
        orders in this parameter.
    mode : UpdateMode or its value
        EXACT applies the renormalized amplitude update; FIRST_ORDER
        applies the tangent Bloch diffusion step.  A value such as
        "exact" is converted to the member.
    """

    alpha_mag: float = 100.0
    gamma_tau: float = 1e-4
    mode: UpdateMode = UpdateMode.EXACT

    def __post_init__(self):
        object.__setattr__(self, "mode", UpdateMode(self.mode))
        if not (_finite(self.alpha_mag) and self.alpha_mag > 0.0):
            raise ValueError(f"alpha_mag must be finite and positive, got {self.alpha_mag!r}")
        if self.alpha_mag * self.alpha_mag < MIN_ALPHA_SQ:
            raise ValueError(
                f"|alpha|^2 = {self.alpha_mag * self.alpha_mag:g} is below the "
                f"floor {MIN_ALPHA_SQ:g}; the Gaussian outcome law needs a "
                f"strong local oscillator"
            )
        if not (_finite(self.gamma_tau) and self.gamma_tau > 0.0):
            raise ValueError(f"gamma_tau must be finite and positive, got {self.gamma_tau!r}")
        if self.gamma_tau > MAX_GAMMA_TAU:
            raise ValueError(
                f"gamma_tau = {self.gamma_tau:g} exceeds the ceiling "
                f"{MAX_GAMMA_TAU:g}; the per-interval expansion breaks down"
            )

    @property
    def alpha_sq(self) -> float:
        return self.alpha_mag * self.alpha_mag

    @cached_property
    def sqrt_gamma_tau(self) -> float:
        # Kept after the first read, like the products below that the laws
        # multiply by; none is a field, so == and hash ignore them.
        return math.sqrt(self.gamma_tau)

    @cached_property
    def record_gain(self) -> float:
        # The record mean per unit s_x, sqrt(gamma tau) * |alpha|.
        return self.sqrt_gamma_tau * self.alpha_mag

    @cached_property
    def damping(self) -> float:
        # The excited amplitude's factor per interval, 1 - gamma tau / 2.
        return 1.0 - 0.5 * self.gamma_tau

    @cached_property
    def two_alpha(self) -> float:
        # The record shift per unit of fed-back field amplitude.
        return 2.0 * self.alpha_mag

    @cached_property
    def kappa_gain(self) -> float:
        # kappa per count of the record, sqrt(gamma tau) / |alpha|.
        return self.sqrt_gamma_tau / self.alpha_mag

    @cached_property
    def drive_gain(self) -> float:
        # The drive's half angle per count of record shift, sqrt(gamma tau) / 2|alpha|.
        return self.sqrt_gamma_tau / self.two_alpha

    def amplitude_gain(self, law) -> float:
        # The fed-back field per count of dn_qf, -(1 + cos(theta_bar)) / 2|alpha|.
        return law.gain / self.two_alpha


@dataclass(frozen=True)
class MeasurementOutcome:
    """One interval's record, split into fluctuation and known shift.

    ``dn_qf`` is the part of the record carrying information about the
    atom and the vacuum; ``shift`` is the displacement a deliberately
    applied feedback field adds to the record.  ``dn_total`` is their sum
    by construction, so the bookkeeping identity holds exactly.  Only
    ``dn_qf`` may feed the feedback law.
    """

    dn_qf: float
    shift: float = 0.0

    @property
    def dn_total(self) -> float:
        return self.dn_qf + self.shift


def sample_outcome(shift, cfg: HomodyneConfig, rng: np.random.Generator) -> MeasurementOutcome:
    """Draw one interval's record from the state-independent outcome law.

    ``dn_qf`` is Normal(0, |alpha|^2); the known ``shift`` is stored
    alongside it.  This is the idealized law the first-order analysis is
    built on; exact-mode trajectories use
    :func:`sample_outcome_conditioned` instead so that ensemble averages
    reproduce the unconditional decay.
    """
    return MeasurementOutcome(cfg.alpha_mag * rng.standard_normal(), float(shift))


def _record_mean(sx, cfg: HomodyneConfig, out=None):
    # Dipole interference term of the record mean, cfg.record_gain times
    # sx: sqrt(gamma tau) * alpha per unit s_x on a HomodyneConfig, and in
    # the kernels, whose records are in units of alpha, 2 sqrt(gamma tau)
    # per unit of c_e c_g = s_x / 2.  ``out`` as for _kappa below.
    return multiply(cfg.record_gain, sx, out)


def sample_outcome_conditioned(
    psi: PureState, shift, cfg: HomodyneConfig, rng: np.random.Generator
) -> MeasurementOutcome:
    """Draw a record whose mean carries the atomic dipole signal.

    A dipole component s_x radiates a field that interferes with the
    local oscillator and moves the record mean to
    sqrt(gamma*tau)*|alpha|*s_x, leaving the variance at |alpha|^2 to
    leading order.  Averaging the conditioned update over this law
    reproduces the unconditional ensemble decay, which the centered law
    of :func:`sample_outcome` does not.
    """
    dn_qf = _record_mean(bloch_from_state(psi).sx, cfg) + cfg.alpha_mag * rng.standard_normal()
    return MeasurementOutcome(dn_qf, float(shift))


def _kappa(dn, cfg: HomodyneConfig, out=None):
    # Pinned evaluation order: one multiply by the gain cfg.kappa_gain, the
    # kappa per unit of dn: sqrt(gamma tau) / alpha on a HomodyneConfig,
    # whose records count photons, and sqrt(gamma tau) in the kernels,
    # whose records are in units of alpha.  This law and those below take
    # an optional ``out``: arrays to write in place of fresh ones, passed as
    # positional ufunc arguments.  The same ufuncs run either way, so the
    # bits do not depend on it.
    return multiply(cfg.kappa_gain, dn, out)


def _drive_factors(shift, cfg: HomodyneConfig, out=None):
    # Cosine and sine of half the angle sqrt(gamma tau) * shift / alpha by
    # which a shift's fed-back field rotates the atom about s_y, the
    # first-order effect of that field.  The half angle is cfg.drive_gain
    # times ``shift``: a shift in counts on a HomodyneConfig, and in the
    # kernels the fed-back amplitude f itself, whose half angle is
    # sqrt(gamma tau) * f.  Elementwise, on a scalar or on a
    # whole feedback window: a half angle h with |h| <= _DRIVE_H_MAX takes
    # the polynomials, by Horner's rule in h^2, and any other libm's cos
    # and sin, so each element's bits depend on its own h alone.  One
    # reduction over h^2 tells whether any element needs libm; only then
    # are they marked, and the polynomials run on h^2 clipped to the bound,
    # where no term overflows.  ``out`` is (cosines, sines, half angles,
    # squares, a bool mask), arrays of the shape of shift.
    c, s, a, q, big = out or (None,) * 5
    half = multiply(cfg.drive_gain, shift, a)
    sq = multiply(half, half, q)
    wide = maximum.reduce(sq, None) > _DRIVE_H2_MAX
    if wide:
        big = greater(sq, _DRIVE_H2_MAX, big)
        sq = minimum(sq, _DRIVE_H2_MAX, out=q)
    p = multiply(add(multiply(sq, _C6, c), _C4, c), sq, c)
    cs = add(multiply(add(p, _C2, c), sq, c), _ONE, c)
    p = multiply(add(multiply(sq, _S7, s), _S5, s), sq, s)
    sn = add(half, multiply(multiply(add(p, _S3, s), sq, s), half, s), s)
    if not wide:
        return cs, sn
    if big.ndim == 0:
        # A scalar past the bound: no array to write libm's values into.
        return cos(half), sin(half)
    return cos(half, cs, where=big), sin(half, sn, where=big)


def _rotate(c_e, c_g, hc, hs, out=None):
    # The drive's rotation of the amplitudes, from its _drive_factors.
    # ``out`` is the rotated pair, which may be c_e and c_g themselves, and
    # two scratch arrays of their dtype for hs*c_g and hs*c_e.  Each product
    # is by a real factor, so written into its own operand it rounds alike.
    e, g, a, b = out or (None,) * 4
    sg, se = multiply(hs, c_g, a), multiply(hs, c_e, b)
    return subtract(multiply(hc, c_e, e), sg, e), add(se, multiply(hc, c_g, g), g)


def _condition(c_e, c_g, dn, cfg: HomodyneConfig, out=None):
    # The conditioned update, elementwise on numpy amplitudes, then a
    # multiply by the reciprocal norm.  Amplitudes of a real dtype take the
    # real norm, which rounds as |c|^2 does on the complex ones.  ``out``
    # is the updated pair, which may be c_e and c_g themselves, and scratch:
    # t of their dtype and float64 u, v and w; on real amplitudes t may be
    # u, and w goes unused.
    oe, og, t, u, v, w = out or (None,) * 6
    k = _kappa(dn, cfg, u)
    g = add(c_g, multiply(c_e, k, t), og)
    e = multiply(c_e, cfg.damping, oe)
    if e.dtype.kind == "f":
        n2 = add(multiply(e, e, u), multiply(g, g, v), u)
    else:
        # _abs2(e) + _abs2(g), each into its own array.
        n2 = add(add(multiply(e.real, e.real, u), multiply(e.imag, e.imag, w), u),
                 add(multiply(g.real, g.real, v), multiply(g.imag, g.imag, w), v), u)
    # The correctly rounded 1 / x, without a Python float operand.
    inv = reciprocal(sqrt(n2, u), u)
    return multiply(e, inv, oe), multiply(g, inv, og)


def conditioned_update_exact(psi: PureState, dn, cfg: HomodyneConfig) -> PureState:
    """Renormalized conditioned amplitude update for an observed record dn.

    Applies the unnormalized map
    ``c_e -> c_e*(1 - gamma*tau/2)``,
    ``c_g -> c_g + c_e*sqrt(gamma*tau)*dn/alpha``
    and renormalizes.  The ground state is exactly stationary for every
    record value.

    Raises
    ------
    RuntimeError
        If the updated amplitudes cannot be normalized (internal error).
    """
    # An unnormalizable pair comes out non-finite or zero, not as a warning.
    with np.errstate(all="ignore"):
        ce, cg = _condition(np.complex128(psi.c_e), np.complex128(psi.c_g), dn, cfg)
    n2 = _abs2(ce) + _abs2(cg)
    if not (math.isfinite(n2) and n2 > 0.0):
        raise RuntimeError("conditioned update produced an unnormalizable state")
    return PureState(ce, cg)


def _step_field(sx, sy, sz, cz, out=None):
    # Per-unit-kappa diffusion field with feedback parameter cz = cos(theta_bar)
    # folded in (cz = -1 recovers the bare step).  Equal to
    # (1 - s_x^2 - cz*s_z, -s_x*s_y, cz*s_x - s_x*s_z) on the unit sphere;
    # factored so states with s_z = cz are exactly stationary in floating
    # point.  Accepts scalars or arrays.  sy = None stands for s_y = +0.0:
    # f_y, a zero there, is None, and f_x still adds the +0.0 of s_y^2.
    # ``out`` is (f_x, f_y, f_z, scratch for s_y^2), f_y and the scratch
    # unused when sy is None, none of them one of sx, sy and sz.
    plane = sy is None
    fx, fy, fz, t = out or (None,) * 4
    f = multiply(sz, subtract(sz, cz, fx), fx)
    return (add(0.0 if plane else multiply(sy, sy, t), f, fx),
            None if plane else negative(multiply(sx, sy, fy), fy),
            multiply(sx, subtract(cz, sz, fz), fz))


def _advance(s, ds, out=None):
    # The first-order update: s + ds, renormalized, for sequences s and ds
    # of Bloch components, scalars or arrays; the squares add in x, y, z
    # order.  ``out`` is the updated components, which may be s itself, then
    # scratch for the norm and for a square.
    *o, n, t = out or (None,) * (len(s) + 2)
    v = [add(c, d, oc) for c, d, oc in zip(s, ds, o)]
    n2 = multiply(v[0], v[0], n)
    for c in v[1:]:
        n2 = add(n2, multiply(c, c, t), n)
    nrm = sqrt(n2, n)
    return tuple(divide(c, nrm, oc) for c, oc in zip(v, o))


def _rotation_field(sx, sz):
    # Per-unit-kappa linear part of the step, (s_z, 0, -s_x): the rotation
    # about s_y that a classical field of amplitude dn/(2*alpha) drives.
    return sz, 0.0, -sx


def _diffusion_step(s: BlochVector, dn, cfg: HomodyneConfig, cz) -> BlochVector:
    # First-order Bloch increment for record dn with feedback parameter cz;
    # cz = -1 is the bare step.
    k = _kappa(dn, cfg)
    fx, fy, fz = _step_field(s.sx, s.sy, s.sz, cz)
    return BlochVector(k * fx, k * fy, k * fz)


def decompose_step(
    s: BlochVector, dn, cfg: HomodyneConfig
) -> tuple[BlochVector, BlochVector]:
    """Split the first-order step into drive-like and back-action parts.

    The linear part kappa*(s_z, 0, -s_x) is the rotation about s_y that a
    classical field of amplitude dn/(2*alpha) would produce; the remainder
    is the nonlinear measurement back-action, computed as the exact
    floating-point difference between the bare first-order step (that of
    :func:`~monitored_atom.combined_diffusion_step` with the law disabled)
    and the linear part (re-summing the parts reconstructs the full step
    to within the rounding of that subtraction).  The remainder vanishes
    at the equator states s_z = 0, s_x = +-1.
    """
    full = _diffusion_step(s, dn, cfg, -1.0)
    k = _kappa(dn, cfg)
    lin = BlochVector(*(k * c for c in _rotation_field(s.sx, s.sz)))
    return lin, BlochVector(full.sx - lin.sx, full.sy - lin.sy, full.sz - lin.sz)

