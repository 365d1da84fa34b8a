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
  in-phase quadrature is visible.

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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .state import BlochAngle, BlochVector, PureState, _abs2

WEAK_FIELD_CEILING = 0.1
# Validity limits of the model: the Gaussian outcome law needs a strong
# local oscillator, and the update laws keep only the leading orders in
# gamma*tau.
MIN_ALPHA_SQ = 100.0
MAX_GAMMA_TAU = 0.01


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
        if not (math.isfinite(self.alpha_mag) and self.alpha_mag > 0.0):
            raise ValueError(f"alpha_mag must be positive, got {self.alpha_mag!r}")
        if self.alpha_mag * self.alpha_mag < MIN_ALPHA_SQ:
            raise ValueError(
                f"|alpha|^2 = {self.alpha_mag * self.alpha_mag:g} is below the "
                f"floor {MIN_ALPHA_SQ:g}; the Gaussian outcome law needs a "
                f"strong local oscillator"
            )
        if not (math.isfinite(self.gamma_tau) and self.gamma_tau > 0.0):
            raise ValueError(f"gamma_tau must be positive, got {self.gamma_tau!r}")
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
        # Kept after the first read; not a field, so == and hash ignore it.
        return math.sqrt(self.gamma_tau)


@dataclass(frozen=True)
class CoherentAmplitude:
    """Weak coherent field amplitude in the monitored mode.

    The one-photon-per-interval treatment assumes |beta|^2 << 1;
    construction warns when |beta|^2 exceeds 0.1.
    """

    beta: complex

    def __post_init__(self):
        b = complex(self.beta)
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise ValueError(f"beta must be finite, got {b!r}")
        if _abs2(b) > WEAK_FIELD_CEILING:
            warnings.warn(
                f"|beta|^2 = {_abs2(b):g} exceeds the weak-field ceiling "
                f"{WEAK_FIELD_CEILING:g}; the Gaussian outcome law degrades",
                stacklevel=2,
            )


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


def vacuum_outcome_pdf(dn, cfg: HomodyneConfig):
    """Probability density of dn with only vacuum entering the detector.

    Gaussian with mean 0 and variance |alpha|^2: the coherent density at
    beta = 0.  Accepts scalars or arrays.
    """
    return coherent_outcome_pdf(dn, CoherentAmplitude(0.0), cfg)


def coherent_outcome_pdf(dn, beta: CoherentAmplitude, cfg: HomodyneConfig):
    """Density of dn with a weak coherent field beta in the monitored mode.

    The mean moves to 2*|alpha|*Re(beta); the out-of-phase quadrature
    Im(beta) leaves no trace.
    """
    mu = 2.0 * cfg.alpha_mag * beta.beta.real
    v = cfg.alpha_sq
    d = dn - mu
    return np.exp(-(d * d) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)


def sample_outcome(shift, cfg: HomodyneConfig, rng: np.random.Generator) -> MeasurementOutcome:
    """Draw one interval's record from the state-independent outcome law.

    ``dn_qf`` is Normal(0, |alpha|^2); the known ``shift`` is stored
    alongside it.  This is the idealized law the first-order analysis is
    built on; exact-mode trajectories use
    :func:`sample_outcome_conditioned` instead so that ensemble averages
    reproduce the unconditional decay.
    """
    return MeasurementOutcome(cfg.alpha_mag * rng.standard_normal(), float(shift))


def _record_mean(sx, cfg: HomodyneConfig):
    # Dipole interference term of the record mean; shared by the scalar
    # sampler and the vectorized kernels so both produce identical values.
    return (cfg.sqrt_gamma_tau * cfg.alpha_mag) * sx


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
    d = psi.c_e.conjugate() * psi.c_g
    dn_qf = _record_mean(2.0 * d.real, cfg) + cfg.alpha_mag * rng.standard_normal()
    return MeasurementOutcome(dn_qf, float(shift))


def _kappa(dn, cfg: HomodyneConfig):
    # Pinned evaluation order: sqrt(gamma tau) * (dn / alpha).
    return cfg.sqrt_gamma_tau * (dn / cfg.alpha_mag)


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
    k = _kappa(dn, cfg)
    ce = psi.c_e * (1.0 - 0.5 * cfg.gamma_tau)
    cg = psi.c_g + psi.c_e * k
    n2 = _abs2(ce) + _abs2(cg)
    if not (math.isfinite(n2) and n2 > 0.0):
        raise RuntimeError("conditioned update produced an unnormalizable state")
    n = math.sqrt(n2)
    return PureState(ce / n, cg / n)


def _step_field(sx, sy, sz, cz):
    # Per-unit-kappa diffusion field with feedback parameter cz = cos(theta_bar)
    # folded in (cz = -1 recovers the bare step).  Equal to
    # (1 - s_x^2 - cz*s_z, -s_x*s_y, cz*s_x - s_x*s_z) on the unit sphere;
    # factored so states with s_z = cz are exactly stationary in floating
    # point.  Accepts scalars or arrays.
    return (sy * sy + sz * (sz - cz), -(sx * sy), sx * (cz - sz))


def diffusion_step_first_order(s: BlochVector, dn, cfg: HomodyneConfig) -> BlochVector:
    """First-order Bloch increment conditioned on record dn (no feedback).

    Tangent to the sphere for unit ``s``.  The ground state is exactly
    stationary; the excited state moves by (2*kappa, 0, 0).

    Returns
    -------
    BlochVector
        The increment ds, not the updated vector.
    """
    k = _kappa(dn, cfg)
    fx, fy, fz = _step_field(s.sx, s.sy, s.sz, -1.0)
    return BlochVector(k * fx, k * fy, k * fz)


def decompose_step(
    s: BlochVector, dn, cfg: HomodyneConfig
) -> tuple[BlochVector, BlochVector]:
    """Split the first-order step into drive-like and back-action parts.

    The linear part kappa*(s_z, 0, -s_x) is the rotation about s_y that a
    classical field of amplitude dn/(2*alpha) would produce; the remainder
    is the nonlinear measurement back-action, computed as the exact
    floating-point difference between :func:`diffusion_step_first_order`
    and the linear part (re-summing the parts reconstructs the full step
    to within the rounding of that subtraction).  The remainder vanishes
    at the equator states s_z = 0, s_x = +-1.
    """
    full = diffusion_step_first_order(s, dn, cfg)
    k = _kappa(dn, cfg)
    lin = BlochVector(k * s.sz, 0.0, -(k * s.sx))
    return lin, BlochVector(full.sx - lin.sx, full.sy - lin.sy, full.sz - lin.sz)


def delta_theta(angle: BlochAngle, dn, cfg: HomodyneConfig) -> float:
    """Angle form of the first-order step for in-plane states.

    d(theta) = kappa * (1 + cos(theta)): maximal at the excited state,
    exactly zero at the ground state.
    """
    return _kappa(dn, cfg) * (1.0 + math.cos(angle.theta))
