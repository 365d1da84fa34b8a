"""A 40-digit oracle for whole trajectories.

The scalar reference and the lockstep kernels run the same law bodies, so
comparing them checks the loop, not the laws.  Here each law is written
again, in decimal arithmetic at 40 significant digits, and one
run_trajectory record is replayed from its start: the oracle shares only
the noise stream, whose normals it redraws from trajectory_seed, and the
run's float constants sqrt(gamma_tau), |alpha| and 1 - gamma_tau/2, which
it takes as exact inputs.  It forms dn_qf as the record mean plus
|alpha|*z, and each shift as 2*alpha*f from the dn_qf of ``delay`` steps
earlier, then compares dn_qf, the shifts and the Bloch rows.  What is
left is the rounding that a run of float64 steps accumulates: a wrong or
reordered law moves the rows by far more than the bounds below, which
sit a few times above the measured gaps (see each case).
"""

import decimal
import math
from decimal import Decimal as D

import numpy as np
import pytest

from monitored_atom import (
    BlochVector,
    FeedbackLaw,
    HomodyneConfig,
    SimConfig,
    UpdateMode,
    run_trajectory,
    trajectory_seed,
)

CTX = decimal.Context(prec=40)


def _sin_cos(x):
    # Taylor series to past 40 digits, for |x| <= pi: term is x^n / n!.
    s = c = D(0)
    term, n = D(1), 0
    while n < 2 or abs(term) > D("1e-45"):
        if n % 2:
            s += -term if n // 2 % 2 else term
        else:
            c += -term if n // 2 % 2 else term
        n += 1
        term = term * x / n
    return s, c


def _bloch(ce, cg):
    # (s_x, s_y, s_z) of amplitudes given as pairs (re, im): 2 conj(c_e) c_g
    # and |c_e|^2 - |c_g|^2.
    re = ce[0] * cg[0] + ce[1] * cg[1]
    im = ce[0] * cg[1] - ce[1] * cg[0]
    return 2 * re, 2 * im, ce[0] ** 2 + ce[1] ** 2 - cg[0] ** 2 - cg[1] ** 2


def _start(s: BlochVector):
    # The half-angle amplitudes of the start, scaled to unit length first,
    # at 40 digits, where 1 - |s_z| keeps its digits near a pole too.
    sx, sy, sz = (D(c) for c in s.as_tuple())
    norm = (sx * sx + sy * sy + sz * sz).sqrt()
    sx, sy, sz = sx / norm, sy / norm, sz / norm
    ce = ((1 + sz) / 2).sqrt()
    mg, r = ((1 - sz) / 2).sqrt(), (sx * sx + sy * sy).sqrt()
    cg = (mg * sx / r, mg * sy / r) if r else (mg, D(0))
    return (ce, D(0)), cg


def _replay(cfg: SimConfig, index: int):
    """The rows (s_x, s_y, s_z, dn_qf, shift) of steps 1..steps."""
    hom, law = cfg.homodyne, cfg.law
    z = np.random.default_rng(trajectory_seed(cfg.master_seed, index)).standard_normal(cfg.steps)
    alpha, sg, damping = D(hom.alpha_mag), D(hom.sqrt_gamma_tau), D(hom.damping)
    cz = _sin_cos(D(law.theta_bar))[1] if law.enabled else D(-1)
    gain = -(1 + cz)
    # The queue of shifts, slot k % delay due at step k.
    queue = [D(0)] * cfg.delay
    rows = []
    exact = hom.mode is UpdateMode.EXACT
    if exact:
        ce, cg = _start(cfg.initial)
    else:
        s = [D(c) for c in cfg.initial.as_tuple()]
    for k in range(cfg.steps):
        j = k % cfg.delay
        shift = queue[j]
        if exact:
            if law.enabled:
                # The fed-back field rotates the amplitudes about s_y by
                # the angle sqrt(gamma tau) * shift / alpha.
                sn, cs = _sin_cos(sg * shift / alpha / 2)
                ce, cg = (tuple(cs * e - sn * g for e, g in zip(ce, cg)),
                          tuple(sn * e + cs * g for e, g in zip(ce, cg)))
            dn = sg * alpha * _bloch(ce, cg)[0] + alpha * D(z[k])
            kappa = sg * dn / alpha
            e = tuple(damping * c for c in ce)
            g = tuple(c + kappa * x for c, x in zip(cg, ce))
            n = (sum(c * c for c in e + g)).sqrt()
            ce, cg = tuple(c / n for c in e), tuple(c / n for c in g)
            bloch = _bloch(ce, cg)
        else:
            dn = alpha * D(z[k])
            kappa = sg * dn / alpha
            sx, sy, sz = s
            field = (1 - sx * sx - cz * sz, -sx * sy, cz * sx - sx * sz)
            v = [c + kappa * f for c, f in zip(s, field)]
            n = (sum(c * c for c in v)).sqrt()
            s = bloch = [c / n for c in v]
        if law.enabled:
            f = gain * dn / (2 * alpha)
            queue[j] = 2 * alpha * f
        rows.append((*bloch, dn, shift))
    return rows


def _gaps(cfg: SimConfig, index: int):
    # The largest |kernel - oracle| over the Bloch rows, and over dn_qf and
    # the shifts in units of |alpha|, the records' vacuum standard deviation.
    rec = run_trajectory(cfg, index)
    with decimal.localcontext(CTX):
        want = np.array([[float(x) for x in row] for row in _replay(cfg, index)])
    got = np.column_stack((rec.bloch[1:], rec.dn_qf[1:], rec.shift[1:]))
    gap = np.abs(got - want)
    return gap[:, :3].max(), gap[:, 3:].max() / cfg.homodyne.alpha_mag


EXACT = HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4, mode=UpdateMode.EXACT)
FIRST = HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4, mode=UpdateMode.FIRST_ORDER)
# Drive angles of about 0.017 per standard deviation at theta_bar = 0.
GUARD = HomodyneConfig(alpha_mag=100.0, gamma_tau=3e-4, mode=UpdateMode.EXACT)
COMPLEX = BlochVector(0.36, 0.48, 0.8)
# Starts 1e-12 from a pole: 1 - |s_z| = 1 - cos(1.4e-6).
NORTH = BlochVector(math.sin(1.4e-6), 0.0, math.cos(1.4e-6))
SOUTH = BlochVector(math.sin(1.4e-6), 0.0, -math.cos(1.4e-6))


# Each case runs 3000 steps from seed 2024, trajectory 3.  Measured (numpy
# 2.4.6), with the kernels stepping in units of alpha: the largest Bloch
# gap 8.3e-15 at pi/2 and delay 1, 2.7e-15 at pi/3 and delay 3, 4.7e-15 at
# 2.5 and delay 20, 4.0e-15 and 2.9e-15 with the law off, 1.0e-14 and
# 4.4e-16 from the poles, 2.2e-15 where 249 of the 3000 drive angles pass
# the bound of its polynomials and take libm's cos and sin, 1.8e-15 and
# 2.2e-15 in the first-order mode; the largest record gap 1.1e-15 |alpha|,
# the rounding of dn_qf and of the shift.  Scaling every record by alpha
# and dividing it out again read 1.3e-14, 2.8e-15, 5.6e-15, 8.7e-15,
# 2.5e-15, 1.0e-14, 4.4e-16, 2.1e-15, 1.8e-15 and 1.9e-15; over 40
# trajectories per case no mean gap rose by more than 0.24 of its
# standard error.
# Pole starts whose amplitudes both come from the half-angle formula read
# 4.9e-12 and 4.4e-12.  A drive whose cosine and sine are Taylor
# polynomials through only h^4 and h^5 reads 5.0e-14 and 2.4e-14 |alpha|
# at pi/3 and delay 3: its cosine is off by up to h^6/720, about 1e-12,
# so it does not conserve the norm, and the record mean sees that before
# the conditioned update renormalizes it away.
@pytest.mark.parametrize("hom,law,initial,delay", [
    pytest.param(EXACT, FeedbackLaw(theta_bar=math.pi / 2), None, 1, id="exact-pi/2-d1"),
    pytest.param(EXACT, FeedbackLaw(theta_bar=math.pi / 3), None, 3, id="exact-pi/3-d3"),
    pytest.param(EXACT, FeedbackLaw(theta_bar=2.5), COMPLEX, 20, id="exact-2.5-d20-complex"),
    pytest.param(EXACT, FeedbackLaw(enabled=False), BlochVector(0.6, 0.0, 0.8), 1,
                 id="exact-off-real"),
    pytest.param(EXACT, FeedbackLaw(enabled=False), COMPLEX, 1, id="exact-off-complex"),
    pytest.param(EXACT, FeedbackLaw(enabled=False), NORTH, 1, id="exact-off-north-pole"),
    pytest.param(EXACT, FeedbackLaw(theta_bar=math.pi), SOUTH, 2, id="exact-pi-d2-south-pole"),
    pytest.param(GUARD, FeedbackLaw(theta_bar=0.0), BlochVector(0.6, 0.0, 0.8), 1,
                 id="exact-0-d1-drive-fallback"),
    pytest.param(FIRST, FeedbackLaw(theta_bar=1.2), BlochVector(-0.6, 0.0, 0.8), 2,
                 id="first-order-in-plane"),
    pytest.param(FIRST, FeedbackLaw(theta_bar=1.2), COMPLEX, 3, id="first-order-out-of-plane"),
])
def test_trajectory_matches_the_40_digit_oracle(hom, law, initial, delay):
    cfg = SimConfig(homodyne=hom, law=law, initial=law.target if initial is None else initial,
                    steps=3000, master_seed=2024, delay=delay)
    bloch, records = _gaps(cfg, 3)
    assert bloch <= 5e-14
    assert records <= 4e-15
