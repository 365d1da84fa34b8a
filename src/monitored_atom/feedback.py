"""Coherent feedback that cancels record-driven diffusion to first order.

Each interval's record dn moves the atom as if a classical field of
amplitude dn/(2*alpha) had driven it, plus a smaller nonlinear
back-action.  Feeding a compensating field

    f(dn_qf) = -(1 + cos(theta_bar)) * dn_qf / (2*alpha)

back onto the atom in a later interval turns the net first-order effect
of fluctuation plus feedback into

    ds = kappa * (1 - s_x^2 - cos(theta_bar)*s_z,
                  -s_x*s_y,
                  cos(theta_bar)*s_x - s_x*s_z),

whose stationary set is the whole circle s_z = cos(theta_bar); the target
state (sin(theta_bar), 0, cos(theta_bar)) is a fixed point for every
record value.  The net rotation amplitude left after feedback is
-cos(theta_bar) * dn/(2*alpha): full cancellation at theta_bar = pi/2,
sign reversal at theta_bar = 0, and no feedback at all at theta_bar = pi
(the ground state needs none).

Only the fluctuation part dn_qf of a record may enter the law: the shift
contributed by the previously applied feedback field is known and carries
no information, and compensating it would cancel the feedback itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from numpy import multiply

from .state import BlochVector, _finite
from .homodyne import HomodyneConfig, _diffusion_step


@dataclass(frozen=True)
class FeedbackLaw:
    """Feedback target and switch.

    Parameters
    ----------
    theta_bar : float
        Polar angle of the state to stabilize, in [0, pi].
    enabled : bool
        Disabled law contributes no field and leaves records unshifted.
    """

    theta_bar: float = math.pi
    enabled: bool = True

    def __post_init__(self):
        if not (_finite(self.theta_bar) and 0.0 <= self.theta_bar <= math.pi):
            raise ValueError(f"theta_bar must lie in [0, pi], got {self.theta_bar!r}")

    @cached_property
    def cos_theta_bar(self) -> float:
        return math.cos(self.theta_bar)

    @cached_property
    def gain(self) -> float:
        # The fed-back field per unit dn_qf / (2 alpha), -(1 + cos(theta_bar)).
        return -(1.0 + self.cos_theta_bar)

    @property
    def target(self) -> BlochVector:
        """The stabilized state (sin(theta_bar), 0, cos(theta_bar))."""
        return BlochVector(math.sin(self.theta_bar), 0.0, math.cos(self.theta_bar))


@dataclass(frozen=True)
class FeedbackState:
    """Queue of record shifts not yet applied to the atom, earliest first.

    The queue length equals the feedback delay in intervals; a fresh
    queue of zeros means no feedback is pending.
    """

    pending: tuple = (0.0,)

    def __post_init__(self):
        if len(self.pending) < 1:
            raise ValueError("pending queue needs at least one slot (delay >= 1)")
        if not all(map(_finite, self.pending)):
            raise ValueError(f"pending shifts must be finite, got {self.pending!r}")
        object.__setattr__(self, "pending", tuple(map(float, self.pending)))


def feedback_amplitude(dn_qf, law: FeedbackLaw, cfg: HomodyneConfig, out=None):
    """Feedback field amplitude for the fluctuation part of a record.

    f = -(1 + cos(theta_bar)) * dn_qf / (2*alpha); exactly 0 when the law
    is disabled or theta_bar = pi.  Accepts scalar or array dn_qf.  An
    array ``out`` of dn_qf's shape, which may be dn_qf itself, receives
    the amplitude, the same bits, and is returned.  It is one multiply by
    ``cfg.amplitude_gain(law)``, the amplitude per unit of dn_qf: on a
    HomodyneConfig, whose records count photons, -(1 + cos(theta_bar)) /
    (2*alpha); the trajectory kernels, whose records are in units of
    alpha, pass constants that answer -(1 + cos(theta_bar)) / 2.
    """
    if not law.enabled:
        if out is None:
            return 0.0
        out.fill(0.0)
        return out
    return multiply(cfg.amplitude_gain(law), dn_qf, out)


def _shift(f, cfg: HomodyneConfig, out=None):
    # The displacement 2*alpha*f that an applied field of amplitude f adds
    # to the mean of the record it is applied in.  Scalar or array f;
    # ``out`` may be f itself.
    return multiply(cfg.two_alpha, f, out)


def advance_feedback(
    fb: FeedbackState, dn_qf, law: FeedbackLaw, cfg: HomodyneConfig
) -> FeedbackState:
    """Pop the shift just applied and append the one this record generates.

    The applied field f displaces a later record's mean by 2*alpha*f, so
    the appended shift is _shift(feedback_amplitude(dn_qf)); the queue
    length stays fixed.
    """
    new = _shift(feedback_amplitude(dn_qf, law, cfg), cfg)
    return FeedbackState(fb.pending[1:] + (new,))


def combined_diffusion_step(
    s: BlochVector, dn, law: FeedbackLaw, cfg: HomodyneConfig
) -> BlochVector:
    """First-order increment with feedback folded into the same interval.

    This is the zero-delay idealization: the record's rotation and the
    compensating field act together, leaving the stationary circle
    s_z = cos(theta_bar).  With the law disabled it is the bare
    first-order step: tangent to the sphere for unit ``s``, the ground
    state exactly stationary, the excited state moved by (2*kappa, 0, 0).

    Returns
    -------
    BlochVector
        The increment ds, not the updated vector.
    """
    return _diffusion_step(s, dn, cfg, law.cos_theta_bar if law.enabled else -1.0)
