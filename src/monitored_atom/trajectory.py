"""Monte Carlo trajectories of the monitored atom and ensemble statistics.

A trajectory alternates measurement intervals with optional feedback.
Each interval: the pending feedback field (if any) drives the atom, the
interval's record dn is drawn, the state update conditioned on the record
is applied, and the fluctuation part of the record is pushed into the
delay queue as the shift a later interval will apply.  One lockstep loop
runs that cycle for every mode: the queue is a ring of ``delay`` slots
per trajectory, and each mode supplies only its state and its
one-interval step.  Two update modes:

* EXACT: the renormalized amplitude update.  The record mean carries the
  atomic dipole signal (see homodyne.sample_outcome_conditioned) so that
  trajectory averages reproduce the unconditional decay; the pending
  shift acts as a coherent drive (a rotation about s_y by
  sqrt(gamma*tau)*shift/alpha) and the conditioned update sees only
  dn_qf = dn_total - shift, since the known classical offset carries no
  information about the atom.  The amplitudes are kept up to a global
  phase, which no record or Bloch component depends on; PureState fixes
  it once, in the final state.  Every map of this cycle is real, so a
  start in the s_y = 0 plane runs on float64 amplitudes and any other
  start on complex128; the output bits are those the complex128 run of
  the same start would give.
* FIRST_ORDER: the tangent diffusion step driven by the centered outcome
  law, with the feedback law folded into the same interval as the record
  (the zero-delay idealization).  With the law enabled, the target state
  is a strict fixed point of this mode.  The emitted records still honor
  the configured delay: the shift column is the slot of the queue due
  that interval and dn_total = dn_qf + shift holds exactly in every row.

:func:`step_trajectory` is a scalar reference for the same cycle, written
independently of the lockstep loop so that each can check the other.

Reproducibility
---------------
Trajectory i draws its noise from
``numpy.random.default_rng(SeedSequence(master_seed, spawn_key=(i,)))``,
one standard normal per interval.  Every trajectory owns its stream, all
reductions run over arrays reassembled in index order, so any partition
of an ensemble over worker processes yields bitwise identical statistics.
"""

from __future__ import annotations

import math
import multiprocessing
import operator
import os
from dataclasses import dataclass

import numpy as np

from .state import (
    PLANE_TOL,
    UNIT_TOL,
    BlochVector,
    PureState,
    _abs2,
    bloch_from_state,
    state_from_bloch,
)
from .homodyne import (
    HomodyneConfig,
    MeasurementOutcome,
    UpdateMode,
    _kappa,
    _record_mean,
    _step_field,
    conditioned_update_exact,
    sample_outcome,
    sample_outcome_conditioned,
)
from .feedback import (
    FeedbackLaw,
    FeedbackState,
    advance_feedback,
    combined_diffusion_step,
    feedback_amplitude,
)

LONG_RUN_CEILING = 1.0

_BLOCH_NAMES = ("sx", "sy", "sz")
_REC_NAMES = _BLOCH_NAMES + ("dn_qf", "shift")
# The Bloch readout runs on blocks of about this many recorded cells, so
# its temporaries stay small next to the records however long the run.
_READOUT_CELLS = 1 << 16


@dataclass(frozen=True)
class DensityMatrix2:
    """Mixed single-atom state as the triple of Bloch expectation values."""

    ux: float
    uy: float
    uz: float

    def __post_init__(self):
        for name in ("ux", "uy", "uz"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"component {name} must be finite, got {v!r}")
        n = math.sqrt(self.ux**2 + self.uy**2 + self.uz**2)
        if n > 1.0 + 1e-12:
            raise ValueError(f"Bloch expectation length {n!r} exceeds 1")

    def purity(self) -> float:
        return 0.5 * (1.0 + self.ux**2 + self.uy**2 + self.uz**2)


def master_evolve(rho: DensityMatrix2, gamma_t: float) -> DensityMatrix2:
    """Unconditional (record-averaged) evolution after a time gamma_t.

    Closed form of free decay: the transverse components shrink by
    exp(-gamma_t/2) and the inversion relaxes to -1 as
    u_z(t) = -1 + (u_z(0) + 1) * exp(-gamma_t).  This is the oracle that
    trajectory averages must reproduce.
    """
    if not (math.isfinite(gamma_t) and gamma_t >= 0.0):
        raise ValueError(f"gamma_t must be nonnegative, got {gamma_t!r}")
    h = math.exp(-0.5 * gamma_t)
    g = math.exp(-gamma_t)
    # u_z * g + (g - 1) rather than -1 + (u_z + 1) * g: algebraically the
    # same, but this form is the exact identity at gamma_t = 0 and exactly
    # stationary at the ground state, where 1 + u_z would round.
    return DensityMatrix2(rho.ux * h, rho.uy * h, rho.uz * g + (g - 1.0))


@dataclass(frozen=True)
class SimConfig:
    """Complete description of a trajectory experiment.

    Parameters
    ----------
    homodyne : HomodyneConfig
        Detection parameters and update mode.
    law : FeedbackLaw
        Feedback target and switch.
    initial : BlochVector
        Initial pure state (unit vector within 1e-9).
    steps : int
        Number of measurement intervals; 0 records only the initial state.
        A run with steps*gamma_tau above ``LONG_RUN_CEILING`` accumulates
        unchecked per-interval error and is rejected.
    trajectories : int
        Ensemble size.
    master_seed : int
        Root of all per-trajectory noise streams, nonnegative.
    delay : int
        Feedback latency in intervals, at least 1.
    record_stride : int
        Record every this-many steps (step 0 and the final step always).
    """

    homodyne: HomodyneConfig = HomodyneConfig()
    law: FeedbackLaw = FeedbackLaw(enabled=False)
    initial: BlochVector = BlochVector(0.0, 0.0, 1.0)
    steps: int = 100
    trajectories: int = 1
    master_seed: int = 0
    delay: int = 1
    record_stride: int = 1

    def __post_init__(self):
        if not isinstance(self.steps, int) or self.steps < 0:
            raise ValueError(f"steps must be a nonnegative int, got {self.steps!r}")
        if not isinstance(self.trajectories, int) or self.trajectories < 1:
            raise ValueError(f"trajectories must be a positive int, got {self.trajectories!r}")
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ValueError(f"master_seed must be a nonnegative int, got {self.master_seed!r}")
        if not isinstance(self.delay, int) or self.delay < 1:
            raise ValueError(f"delay must be an int >= 1, got {self.delay!r}")
        if not isinstance(self.record_stride, int) or self.record_stride < 1:
            raise ValueError(f"record_stride must be a positive int, got {self.record_stride!r}")
        if abs(self.initial.norm() - 1.0) > UNIT_TOL:
            raise ValueError(
                f"initial Bloch vector must be unit length within {UNIT_TOL:g}, "
                f"got |s| = {self.initial.norm()!r}"
            )
        total = self.steps * self.homodyne.gamma_tau
        if total > LONG_RUN_CEILING:
            raise ValueError(
                f"steps * gamma_tau = {total:g} exceeds {LONG_RUN_CEILING:g}; "
                f"per-interval truncation error accumulates unchecked"
            )


@dataclass(frozen=True)
class TrajectoryRecord:
    """One trajectory's recorded history.

    ``bloch`` has shape (n_recorded, 3); the record rows for step 0 hold
    the initial state and zero record values.  ``dn_total - dn_qf ==
    shift`` holds exactly in every row.
    """

    trajectory_index: int
    steps: np.ndarray
    gamma_t: np.ndarray
    bloch: np.ndarray
    dn_total: np.ndarray
    dn_qf: np.ndarray
    shift: np.ndarray
    final_state: PureState


@dataclass(frozen=True)
class EnsembleStats:
    """Across-trajectory statistics at each recorded step.

    ``mean``, ``var`` and ``se`` have shape (n_recorded, 3) in Bloch
    order (x, y, z); ``var`` is the unbiased sample variance and
    ``se = sqrt(var / n_trajectories)``.  ``fidelity`` is the mean of
    1 - |s - target|^2 / 4 over trajectories, which for unit vectors
    equals the state overlap with the target and is exactly 1 when every
    trajectory sits on it.  ``purity`` is the purity of the ensemble-mean
    Bloch vector, (1 + |mean|^2)/2.  ``angle_var`` is the variance of the
    polar angle atan2(s_x, s_z), available (not None) only when every
    recorded sample stayed in the s_y = 0 plane.
    """

    n_trajectories: int
    target: BlochVector
    steps: np.ndarray
    gamma_t: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    se: np.ndarray
    fidelity: np.ndarray
    purity: np.ndarray
    angle_var: np.ndarray | None


def trajectory_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Per-trajectory seed: SeedSequence(master_seed, spawn_key=(index,)).

    This rule is part of the reproducibility contract; it gives every
    trajectory an independent stream addressable by index alone.
    """
    return np.random.SeedSequence(master_seed, spawn_key=(operator.index(index),))


def _noise_matrix(cfg: SimConfig, indices) -> np.ndarray:
    # The vacuum part alpha*xi of every interval's record, drawn in full up
    # front from one standard normal per interval per trajectory; a scalar
    # one-at-a-time consumer of the same generator sees the same sequence.
    out = np.empty((len(indices), cfg.steps), dtype=np.float64)
    for row, idx in enumerate(indices):
        gen = np.random.default_rng(trajectory_seed(cfg.master_seed, idx))
        gen.standard_normal(out=out[row])
    out *= cfg.homodyne.alpha_mag
    return out


def _recorded_steps(steps: int, stride: int) -> np.ndarray:
    ks = list(range(0, steps + 1, stride))
    if ks[-1] != steps:
        ks.append(steps)
    return np.asarray(ks, dtype=np.int64)


def _exact_kernel(cfg: SimConfig, n: int):
    # State: the amplitude pair (c_e, c_g), renormalized every interval and
    # kept up to a global phase, on float64 when the start's amplitudes are
    # real and on complex128 otherwise.  Each operation rounds alike on both
    # dtypes (numpy multiplies a complex by a real divisor's reciprocal, so
    # real divisors are applied that way here too).  The step branches once
    # on the dtype of the arrays it is handed.
    hom = cfg.homodyne
    law = cfg.law
    damp = 1.0 - 0.5 * hom.gamma_tau
    psi0 = state_from_bloch(cfg.initial)
    amps = (psi0.c_e, psi0.c_g)
    if not any(c.imag for c in amps):
        amps = tuple(c.real for c in amps)

    def step(state, shift, noise):
        cE, cG = state
        real = cE.dtype.kind == "f"
        if law.enabled:
            half = 0.5 * _kappa(shift, hom)
            hc = np.cos(half)
            hs = np.sin(half)
            cE, cG = hc * cE - hs * cG, hs * cE + hc * cG
        sx = 2.0 * (cE * cG) if real else 2.0 * (cE.conj() * cG).real
        dn_qf = _record_mean(sx, hom) + noise
        kap = _kappa(dn_qf, hom)
        cE, cG = cE * damp, cG + cE * kap
        inv = 1.0 / np.sqrt(cE * cE + cG * cG if real else _abs2(cE) + _abs2(cG))
        return (cE * inv, cG * inv), dn_qf

    def bloch(state, out):
        # Writes (s_x, s_y, s_z) into ``out``, three float64 arrays of the
        # amplitudes' shape, and returns them.  It runs once per block of
        # recorded rows, not per step, so one form serves both dtypes: on
        # real amplitudes the imaginary parts add exact zeros.
        cE, cG = state
        sx, sy, sz = out
        prod = cE.conj() * cG
        np.multiply(prod.real, 2.0, out=sx)
        np.multiply(prod.imag, 2.0, out=sy)
        np.subtract(_abs2(cE), _abs2(cG), out=sz)
        return sx, sy, sz

    def final(state, i):
        # PureState fixes the global phase the kernel leaves free.
        return PureState(complex(state[0][i]), complex(state[1][i]))

    start = tuple(np.full(n, c) for c in amps)
    return start, step, bloch, final


def _first_order_kernel(cfg: SimConfig, n: int):
    # State: the Bloch components (s_x, s_y, s_z), so it needs no readout.
    # The feedback law enters through cz in the same interval as the
    # record, so the pending shift never acts on the atom here.
    hom = cfg.homodyne
    cz = cfg.law.cos_theta_bar if cfg.law.enabled else -1.0

    def step(state, shift, noise):
        sx, sy, sz = state
        kap = _kappa(noise, hom)
        fx, fy, fz = _step_field(sx, sy, sz, cz)
        sx = sx + kap * fx
        sy = sy + kap * fy
        sz = sz + kap * fz
        nrm = np.sqrt(sx * sx + sy * sy + sz * sz)
        return (sx / nrm, sy / nrm, sz / nrm), noise

    def final(state, i):
        return state_from_bloch(BlochVector(*(float(c[i]) for c in state)))

    s0 = cfg.initial
    start = tuple(np.full(n, c, dtype=np.float64) for c in (s0.sx, s0.sy, s0.sz))
    return start, step, None, final


def _simulate(cfg: SimConfig, indices, names=_REC_NAMES):
    """Advance the given trajectory indices in lockstep.

    The update mode supplies only its state, its one-interval step and
    its Bloch readout; the loop around them is shared.  Each step reads
    the shift due now from slot ``k % delay`` of a (n, delay) ring,
    records it, and only then overwrites that slot with the shift this
    interval's record calls for, which falls due ``delay`` steps later.
    The loop records the state itself; the Bloch readout runs after the
    noise matrix is released, on blocks of the recorded rows.

    ``names`` is a leading part of ``_REC_NAMES``: the records to keep.
    Returns (recorded_steps, rec, final) where rec maps each of ``names``
    to an array of shape (n_recorded, len(indices)) and ``final(i)`` is
    the final PureState of column i.
    """
    hom = cfg.homodyne
    law = cfg.law
    n = len(indices)
    kernel = _exact_kernel if hom.mode is UpdateMode.EXACT else _first_order_kernel
    state, step, bloch, final = kernel(cfg, n)
    xi = _noise_matrix(cfg, indices)
    ks = _recorded_steps(cfg.steps, cfg.record_stride)
    row_of = {int(k): r for r, k in enumerate(ks)}
    rec = {name: np.zeros((len(ks), n), dtype=np.float64) for name in names}
    out = tuple(rec[name] for name in _BLOCH_NAMES)
    # A mode without a readout keeps its state in the Bloch records.
    rows = out if bloch is None else tuple(np.zeros((len(ks), n), c.dtype) for c in state)
    kept = tuple(rec[name] for name in names[len(_BLOCH_NAMES):])
    ring = np.zeros((n, cfg.delay), dtype=np.float64)
    for k in range(cfg.steps):
        shift = ring[:, k % cfg.delay]
        state, dn_qf = step(state, shift, xi[:, k])
        r = row_of.get(k + 1)
        if r is not None:
            for a, v in zip(rows + kept, state + (dn_qf, shift)):
                a[r] = v
        if law.enabled:
            shift[:] = (2.0 * hom.alpha_mag) * feedback_amplitude(dn_qf, law, hom)
    xi = dn_qf = None  # a first-order dn_qf is a view of the noise matrix
    if bloch is not None:
        block = max(1, _READOUT_CELLS // n)
        for b in range(0, len(ks), block):
            bloch(tuple(c[b:b + block] for c in rows), tuple(a[b:b + block] for a in out))
    # Step 0 is the initial condition itself; record it verbatim rather
    # than the amplitude round trip, which can be off by an ulp.
    for a, v in zip(out, cfg.initial.as_tuple()):
        a[0] = v

    for name in names:
        if not np.all(np.isfinite(rec[name])):
            raise RuntimeError(f"trajectory kernel produced non-finite {name}")
    return ks, rec, lambda i: final(state, i)


def _simulate_chunk(args):
    # Worker entry point: statistics need only the Bloch records.
    cfg, indices = args
    return _simulate(cfg, indices, _BLOCH_NAMES)[1]


def step_trajectory(
    psi: PureState, fb: FeedbackState, cfg: SimConfig, rng: np.random.Generator
) -> tuple[PureState, FeedbackState, MeasurementOutcome]:
    """Advance a single trajectory by one measurement interval.

    Scalar reference cycle: drive by the pending shift (EXACT mode, law
    enabled), draw the record, apply the conditioned update, advance the
    feedback queue.  :func:`run_trajectory` applies the same cycle in
    vectorized form; consuming one standard normal per call from ``rng``
    keeps the two paths on the same noise sequence.  ``fb`` must hold
    ``cfg.delay`` slots, or a ValueError is raised.
    """
    hom = cfg.homodyne
    law = cfg.law
    if len(fb.pending) != cfg.delay:
        raise ValueError(
            f"feedback queue has {len(fb.pending)} slots, but cfg.delay is {cfg.delay}"
        )
    shift = fb.pending[0]
    if hom.mode is UpdateMode.EXACT:
        if law.enabled:
            psi = _drive(psi, shift, hom)
        out = sample_outcome_conditioned(psi, shift, hom, rng)
        psi = conditioned_update_exact(psi, out.dn_qf, hom)
    else:
        out = sample_outcome(shift, hom, rng)
        s = bloch_from_state(psi)
        ds = combined_diffusion_step(s, out.dn_qf, law, hom)
        vx, vy, vz = s.sx + ds.sx, s.sy + ds.sy, s.sz + ds.sz
        nrm = math.sqrt(vx * vx + vy * vy + vz * vz)
        psi = state_from_bloch(BlochVector(vx / nrm, vy / nrm, vz / nrm))
    if law.enabled:
        fb = advance_feedback(fb, out.dn_qf, law, hom)
    return psi, fb, out


def _drive(psi: PureState, shift: float, hom: HomodyneConfig) -> PureState:
    # Coherent rotation about s_y by sqrt(gamma tau) * shift / alpha, the
    # first-order effect of the fed-back field on the atom.
    phi = hom.sqrt_gamma_tau * (shift / hom.alpha_mag)
    hc = math.cos(0.5 * phi)
    hs = math.sin(0.5 * phi)
    return PureState(hc * psi.c_e - hs * psi.c_g, hs * psi.c_e + hc * psi.c_g)


def run_trajectory(cfg: SimConfig, trajectory_index: int = 0) -> TrajectoryRecord:
    """Run one trajectory and return its recorded history.

    The result is bitwise identical to the corresponding column of an
    ensemble run containing the same index.
    """
    if trajectory_index < 0:
        raise ValueError(f"trajectory_index must be nonnegative, got {trajectory_index!r}")
    ks, rec, final = _simulate(cfg, [trajectory_index])
    bloch = np.column_stack((rec["sx"][:, 0], rec["sy"][:, 0], rec["sz"][:, 0]))
    return TrajectoryRecord(
        trajectory_index=trajectory_index,
        steps=ks,
        gamma_t=ks * cfg.homodyne.gamma_tau,
        bloch=bloch,
        dn_total=rec["dn_qf"][:, 0] + rec["shift"][:, 0],
        dn_qf=rec["dn_qf"][:, 0].copy(),
        shift=rec["shift"][:, 0].copy(),
        final_state=final(0),
    )


def _row_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Mean and unbiased variance along axis 1, pivoted on the first column,
    # so identical columns average to exactly their common value and give
    # a variance of exactly 0.0 (summing 10^4 equal floats directly can
    # land an ulp off).
    d = x - x[:, :1]
    m = np.mean(d, axis=1, keepdims=True)
    return x[:, 0] + m[:, 0], np.sum((d - m) ** 2, axis=1) / (x.shape[1] - 1)


def run_ensemble(cfg: SimConfig, workers: int = 1) -> EnsembleStats:
    """Run the configured ensemble and aggregate per-step statistics.

    Parameters
    ----------
    cfg : SimConfig
        Needs ``trajectories >= 2`` for meaningful variances.
    workers : int
        Process count, capped at the CPUs this process may run on.  Any
        value yields bitwise identical statistics: trajectories own
        index-keyed streams, chunks are reassembled in index order, and
        every reduction runs over the full arrays.
    """
    if cfg.trajectories < 2:
        raise ValueError("ensemble statistics need at least 2 trajectories")
    if workers < 1:
        raise ValueError(f"workers must be a positive int, got {workers!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)
    idx = np.arange(cfg.trajectories)
    if workers == 1 or cfg.trajectories < 2 * workers:
        parts = [_simulate_chunk((cfg, idx))]
    else:
        chunks = np.array_split(idx, workers)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        with ctx.Pool(processes=workers) as pool:
            parts = pool.map(_simulate_chunk, [(cfg, c) for c in chunks])
    ks = _recorded_steps(cfg.steps, cfg.record_stride)
    stacked = {c: np.concatenate([p[c] for p in parts], axis=1) for c in _BLOCH_NAMES}
    stats = [_row_stats(stacked[c]) for c in _BLOCH_NAMES]
    mean = np.column_stack([m for m, _ in stats])
    var = np.column_stack([v for _, v in stats])
    se = np.sqrt(var / cfg.trajectories)
    target = cfg.law.target if cfg.law.enabled else cfg.initial
    # 1 - |s - t|^2/4 equals the target overlap for unit vectors; the
    # subtracted form is exactly 1.0 for trajectories sitting on the target.
    dev = (
        (stacked["sx"] - target.sx) ** 2
        + (stacked["sy"] - target.sy) ** 2
        + (stacked["sz"] - target.sz) ** 2
    )
    fidelity = np.mean(1.0 - 0.25 * dev, axis=1)
    purity = 0.5 * (1.0 + mean[:, 0] ** 2 + mean[:, 1] ** 2 + mean[:, 2] ** 2)
    if np.all(np.abs(stacked["sy"]) <= PLANE_TOL):
        angle_var = _row_stats(np.arctan2(stacked["sx"], stacked["sz"]))[1]
    else:
        angle_var = None
    return EnsembleStats(
        n_trajectories=cfg.trajectories,
        target=target,
        steps=ks,
        gamma_t=ks * cfg.homodyne.gamma_tau,
        mean=mean,
        var=var,
        se=se,
        fidelity=fidelity,
        purity=purity,
        angle_var=angle_var,
    )


def angle_variance(stats: EnsembleStats, step: int) -> float:
    """Across-trajectory variance of the polar angle at a recorded step.

    Raises
    ------
    ValueError
        If the run left the s_y = 0 plane (the polar angle does not
        capture the state then) or the step was not recorded.
    """
    if stats.angle_var is None:
        raise ValueError(
            "angle statistics are defined only for runs confined to the s_y = 0 plane"
        )
    rows = np.nonzero(stats.steps == step)[0]
    if rows.size == 0:
        raise ValueError(f"step {step!r} is not among the recorded steps")
    return float(stats.angle_var[rows[0]])
