"""Monte Carlo trajectories of the monitored atom and ensemble statistics.

A trajectory alternates measurement intervals with optional feedback.
Each interval: the pending feedback field (if any) drives the atom, the
interval's record dn is drawn, the state update conditioned on the record
is applied, and the fluctuation part of the record is pushed into the
delay queue as the shift a later interval will apply.  One lockstep loop
runs that cycle for every mode: the queue is a ring of ``delay`` slots
per trajectory, and each mode supplies only its state, its one-interval
step and its Bloch readout.  Two update modes:

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
one standard normal per interval.  That PCG64 is seeded with the four
64-bit words ``generate_state(4, uint64)`` hashes from the SeedSequence's
entropy pool.  The generators are built in chunks of indices: each chunk
reads its SeedSequences' pools and hashes them in one vectorized pass of
the same algorithm, so every generator starts on the very stream
default_rng would give it.  Each process draws its trajectories' streams
in slabs of consecutive intervals, every row from its own generator;
numpy's Generator keeps no normal-draw state between calls, so the slabs
join into the very stream one call would draw, whatever their size.
Every trajectory owns its stream, and every statistic reduces one
recorded row over all trajectories.  The rows reach the reduction in
blocks, each joined across worker processes in index order, so neither
the partition of an ensemble over processes nor the slab and block
lengths change a bit of the statistics.
"""

from __future__ import annotations

import functools
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
    _condition,
    _drive,
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
# The Bloch readout and the reduction run on blocks of about this many
# recorded cells, so their temporaries stay small next to a slab's records.
_READOUT_CELLS = 1 << 16
# Each process draws its noise in (n, block) slabs of about this many
# bytes.  Smaller slabs cost one more draw call per row per slab: at 4 MB,
# a 10^4-row run lost 16% of its throughput.
_NOISE_BYTES = 1 << 24
# ... and of at most this many steps.  Longer rows buy nothing: a draw
# call costs about 0.8 us of overhead against 4.2 us for 256 normals.
_SLAB_STEPS = 256
# Generators are seeded in chunks of this many indices, which bounds the
# list of pools alive at once (each SeedSequence is freed once its pool is
# read): a traced peak of 5.7 MB against 5.9 MB unchunked per 10^4 indices.
_SEED_CHUNK = 1024
# Memory of one trajectory's Generator and its PCG64 (tracemalloc: 586 B
# each over 10^4), for the memory check.
_GENERATOR_BYTES = 640
# Ensembles smaller than this run in one process whatever the worker
# count.  On 2 cores (10 alternating pairs, 1000 steps) 2 workers lost to
# 1 or tied at 1024 trajectories in both modes; at 2048 they won in the
# first-order mode and tied in the exact one; at 4096 they won in both.
_POOL_MIN_TRAJECTORIES = 2048


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


def _int_at_least(name: str, v, low: int) -> int:
    # The rule for every integer input: any integer type converts to int,
    # as operator.index does; a bool is not a count.
    if isinstance(v, bool) or not hasattr(type(v), "__index__") or v < low:
        raise ValueError(f"{name} must be an int >= {low}, got {v!r}")
    return operator.index(v)


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
        for name, low in (("steps", 0), ("trajectories", 1), ("master_seed", 0),
                          ("delay", 1), ("record_stride", 1)):
            object.__setattr__(self, name, _int_at_least(name, getattr(self, name), low))
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
    the initial state and zero record values.  ``dn_total`` is the sum
    ``dn_qf + shift``, computed on each read.
    """

    trajectory_index: int
    steps: np.ndarray
    gamma_t: np.ndarray
    bloch: np.ndarray
    dn_qf: np.ndarray
    shift: np.ndarray
    final_state: PureState

    @property
    def dn_total(self) -> np.ndarray:
        return self.dn_qf + self.shift


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


def _seed_words(pools: np.ndarray) -> np.ndarray:
    # SeedSequence.generate_state(4, np.uint64) of each row of an (n, 4)
    # uint32 array of SeedSequence pools, in one pass over all rows.
    # numpy's algorithm: output word k is (pool[k % 4] ^ h_k) * h_(k+1)
    # mod 2^32, folded by x ^= x >> 16, where h_0 = INIT_B and each h is
    # the last times MULT_B mod 2^32; words 2j and 2j+1 join little-endian
    # into the j-th uint64.
    h = [0x8B51F9DD]  # INIT_B
    for _ in range(8):
        h.append(h[-1] * 0x58F38DED & 0xFFFFFFFF)  # MULT_B
    h = np.array(h, dtype=np.uint32)
    x = (np.tile(pools, 2) ^ h[:-1]) * h[1:]
    x ^= x >> 16
    return np.ascontiguousarray(x, "<u4").view("<u8").astype(np.uint64)


@functools.cache
def _words_seed_sequence():
    # The class is made on first use, so that importing this package does
    # not load numpy.random.
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeedSequence(ISeedSequence):
        # Hands each PCG64 built from it the next row of precomputed
        # generate_state(4, uint64) words.
        def __init__(self, words: np.ndarray):
            self._rows = iter(words)

        def generate_state(self, n_words, dtype=np.uint32):
            assert (n_words, np.dtype(dtype)) == (4, np.dtype(np.uint64))
            return next(self._rows)

    return WordsSeedSequence


def _generators(master_seed: int, indices) -> list:
    # default_rng(trajectory_seed(master_seed, i)) for each index.  Per
    # chunk of _SEED_CHUNK indices, the pools of their SeedSequences are
    # hashed into PCG64 seed words in one pass, and one adapter hands the
    # words to the chunk's PCG64s.
    from numpy.random import PCG64, Generator

    gens = []
    for c in range(0, len(indices), _SEED_CHUNK):
        chunk = indices[c:c + _SEED_CHUNK]
        pools = np.array([trajectory_seed(master_seed, i).pool for i in chunk])
        words = _words_seed_sequence()(_seed_words(pools))
        gens += [Generator(PCG64(words)) for _ in chunk]
    return gens


def _recorded_steps(steps: int, stride: int) -> np.ndarray:
    ks = list(range(0, steps + 1, stride))
    if ks[-1] != steps:
        ks.append(steps)
    return np.asarray(ks, dtype=np.int64)


def _slab_steps(steps: int, n: int) -> int:
    # Steps per noise slab of n rows: the whole run when it fits both limits.
    return max(1, min(steps, _SLAB_STEPS, _NOISE_BYTES // (8 * n)))


def _slab_width(block: int) -> int:
    # Row length of the noise buffer: ``block`` rounded up to an odd number
    # of 64-byte lines.  Each step reads one column, an element of every
    # row, and at a power-of-two row stride those elements share a few
    # cache sets: reading 2000 rows cost 14.3 us per step at a stride of
    # 256 floats and 5.5 us at 264.
    return block + (8 - block) % 16


def _exact_kernel(cfg: SimConfig, n: int):
    # State: the amplitude pair (c_e, c_g), renormalized every interval and
    # kept up to a global phase, on float64 when the start's amplitudes are
    # real and on complex128 otherwise.  Each operation rounds alike on both
    # dtypes (numpy multiplies a complex by a real divisor's reciprocal, so
    # real divisors are applied that way here too).  The step and the
    # conditioned update branch on the dtype of the arrays they are handed.
    hom = cfg.homodyne
    law = cfg.law
    psi0 = state_from_bloch(cfg.initial)
    amps = (psi0.c_e, psi0.c_g)
    if not any(c.imag for c in amps):
        amps = tuple(c.real for c in amps)

    def step(state, shift, noise):
        cE, cG = state
        if law.enabled:
            cE, cG = _drive(cE, cG, shift, hom)
        sx = 2.0 * (cE * cG) if cE.dtype.kind == "f" else 2.0 * (cE.conj() * cG).real
        dn_qf = _record_mean(sx, hom) + noise
        return _condition(cE, cG, dn_qf, hom), dn_qf

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
    # State: the Bloch components (s_x, s_y, s_z), which the readout hands
    # on as they are, without a copy.  The feedback law enters through cz
    # in the same interval as the record, so the pending shift never acts
    # on the atom here.
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
    return start, step, lambda state, out: state, final


def _kernel(cfg: SimConfig):
    return _exact_kernel if cfg.homodyne.mode is UpdateMode.EXACT else _first_order_kernel


def _slab_plan(cfg: SimConfig, state, block: int, rows: int, names=_BLOCH_NAMES):
    # The loop's layout for slabs of ``block`` steps over the columns of the
    # kernel's ``state``: the recorded steps, and the (shape, dtype) of each
    # buffer: the noise slab in padded rows, the delay ring, one slab's
    # state rows and other records, and one block's Bloch readout.  The
    # records have a row for each recorded step of the fullest slab; slab 0
    # also holds step 0, and a run of 0 steps is one slab of no steps.
    n, f8 = len(state[0]), np.dtype(np.float64)
    ks = _recorded_steps(cfg.steps, cfg.record_stride).tolist()
    ends = [min(k0 + block, cfg.steps) for k0 in range(0, max(cfg.steps, 1), block)]
    size = int(np.max(np.diff(np.searchsorted(ks, ends, side="right"), prepend=0)))
    plan = [((n, _slab_width(block)), f8), ((n, cfg.delay), f8)]
    plan += [((size, n), c.dtype) for c in state]
    plan += [((size, n), f8) for _ in names[len(_BLOCH_NAMES):]]
    return ks, plan + [((min(rows, size), n), f8)] * len(_BLOCH_NAMES)


def _slab_records(cfg: SimConfig, indices, block: int, rows: int, names=_BLOCH_NAMES):
    """Advance the given trajectory indices in lockstep, one noise slab at a time.

    The update mode supplies only its state, its one-interval step and
    its Bloch readout; the loop around them is shared.  Each step reads
    the shift due now from slot ``k % delay`` of a (n, delay) ring,
    records it, and only then overwrites that slot with the shift this
    interval's record calls for, which falls due ``delay`` steps later.
    The noise comes from an (n, block) slab of the per-row streams,
    refilled every ``block`` steps.  The loop records the state itself,
    in the kernel's dtype, next to the other records; at the end of each
    slab, that slab's recorded rows go out in blocks of ``rows``, the
    state rows through the mode's Bloch readout.

    ``names`` is a leading part of ``_REC_NAMES``: the records to keep.
    Returns (blocks, final).  ``blocks`` yields tuples of one array per
    name, each of shape (at most rows, len(indices)), that hold those
    records at consecutive recorded steps, in order from step 0; no block
    spans two slabs, and each is valid only until the next is drawn.
    Once ``blocks`` is exhausted, ``final(i)`` is the final PureState of
    column i.
    """
    hom = cfg.homodyne
    law = cfg.law
    state, step, bloch, final = _kernel(cfg)(cfg, len(indices))
    ks, plan = _slab_plan(cfg, state, block, rows, names)
    # The first-order kernel never reads the shift, so its ring is filled
    # only when the shift is recorded.
    push = law.enabled and (hom.mode is UpdateMode.EXACT or "shift" in names)

    def blocks():
        nonlocal state
        gens = _generators(cfg.master_seed, indices)
        slab, ring, *recs = (np.empty(shape, dtype) for shape, dtype in plan)
        ring.fill(0.0)
        # One slab's records: the state rows, which the readout turns into
        # a block's Bloch rows (in ``out`` if it computes them), and the
        # other records.
        recs, out = recs[:-3], recs[-3:]
        held, kept = recs[:len(state)], recs[len(state):]
        for a, v in zip(recs, state + (0.0, 0.0)):
            a[0] = v
        # Row r, the next to record, holds step ks[r]; the slab's records
        # hold it in slot r - r0.  The last step is always recorded, so
        # ks[r] exists at every step.
        r0, r = 0, 1
        for k0 in range(0, max(cfg.steps, 1), block):
            # Every slab, a short last one too, is a leading view of the same
            # buffer, so two slabs never live at once; each row stays
            # contiguous.
            xi = slab[:, :min(block, cfg.steps - k0)]
            for row, gen in zip(xi, gens):
                gen.standard_normal(out=row)
            xi *= hom.alpha_mag
            for k, noise in enumerate(xi.T, k0):
                shift = ring[:, k % cfg.delay]
                state, dn_qf = step(state, shift, noise)
                if k + 1 == ks[r]:
                    for a, v in zip(recs, state + (dn_qf, shift)):
                        a[r - r0] = v
                    r += 1
                if push:
                    shift[:] = (2.0 * hom.alpha_mag) * feedback_amplitude(dn_qf, law, hom)
            for b in range(0, r - r0, rows):
                e = min(b + rows, r - r0)
                part = (bloch(tuple(c[b:e] for c in held), tuple(c[:e - b] for c in out))
                        + tuple(c[b:e] for c in kept))
                if r0 + b == 0:
                    # Step 0 is the initial condition itself; record it
                    # verbatim rather than the amplitude round trip, which
                    # can be off by an ulp.
                    for a, v in zip(part, cfg.initial.as_tuple()):
                        a[0] = v
                for name, a in zip(names, part):
                    if not np.all(np.isfinite(a)):
                        raise RuntimeError(f"trajectory kernel produced non-finite {name}")
                yield part
            r0 = r

    return blocks(), lambda i: final(state, i)


def _simulate(cfg: SimConfig, indices):
    """Run the given trajectory indices and join their records.

    The full-record form of :func:`_slab_records`, whose blocks it joins:
    returns (recorded_steps, rec, final), where rec maps each of
    ``_REC_NAMES`` to an array of shape (n_recorded, len(indices)) and
    ``final(i)`` is the final PureState of column i.
    """
    n = len(indices)
    blocks, final = _slab_records(
        cfg, indices, _slab_steps(cfg.steps, n), max(1, _READOUT_CELLS // n), _REC_NAMES
    )
    parts = [[a.copy() for a in part] for part in blocks]
    rec = dict(zip(_REC_NAMES, map(np.concatenate, zip(*parts))))
    return _recorded_steps(cfg.steps, cfg.record_stride), rec, final


def _simulate_chunk(cfg: SimConfig, indices, block: int, rows: int, send) -> None:
    # Worker entry point: sends each block of its chunk's Bloch records in
    # order and then None, or else the exception that stopped the run, for
    # the parent to raise.
    try:
        for part in _slab_records(cfg, indices, block, rows)[0]:
            send(part)
        send(None)
    except Exception as exc:
        send(exc)


def _receive(proc, pipe):
    # A worker's next block of records, or None after its last; raises its
    # error, or a RuntimeError when it died without sending one.
    try:
        msg = pipe.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"worker process {proc.pid} exited with code {proc.exitcode} "
            f"before it sent all its records"
        ) from None
    if isinstance(msg, Exception):
        raise msg
    return msg


def _pool_blocks(cfg: SimConfig, chunks, block: int, rows: int):
    # Yields the blocks of Bloch records of the whole ensemble.  One forked
    # process per chunk sends its blocks through its own pipe, and the
    # chunks' rows of each block are joined in index order, until every
    # chunk has sent its end.  The parent closes each write end once its
    # child holds it, before it forks the next child, so a pipe reads EOF
    # as soon as its own child dies.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    procs, pipes = [], []
    try:
        for chunk in chunks:
            recv, send = ctx.Pipe(duplex=False)
            pipes.append(recv)
            proc = ctx.Process(target=_simulate_chunk, args=(cfg, chunk, block, rows, send.send),
                               daemon=True)
            proc.start()
            procs.append(proc)
            send.close()
        while (parts := [_receive(p, c) for p, c in zip(procs, pipes)]) != [None] * len(procs):
            if None in parts:
                raise RuntimeError("the workers' record streams ended at different blocks")
            # Rebound, so that the received rows are freed before the block
            # is reduced.
            parts = tuple(np.concatenate(c, axis=1) for c in zip(*parts))
            yield parts
        for proc in procs:
            proc.join()
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for recv in pipes:
            recv.close()


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
            psi = PureState(*_drive(psi.c_e, psi.c_g, shift, hom))
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


def run_trajectory(cfg: SimConfig, trajectory_index: int = 0) -> TrajectoryRecord:
    """Run one trajectory and return its recorded history.

    The result is bitwise identical to the corresponding column of an
    ensemble run containing the same index.
    """
    trajectory_index = _int_at_least("trajectory_index", trajectory_index, 0)
    ks, rec, final = _simulate(cfg, [trajectory_index])
    bloch = np.column_stack((rec["sx"][:, 0], rec["sy"][:, 0], rec["sz"][:, 0]))
    return TrajectoryRecord(
        trajectory_index=trajectory_index,
        steps=ks,
        gamma_t=ks * cfg.homodyne.gamma_tau,
        bloch=bloch,
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


def _mem_available() -> int | None:
    # MemAvailable from /proc/meminfo in bytes; None where it cannot be read.
    try:
        with open("/proc/meminfo", encoding="ascii") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_memory(cfg: SimConfig, pooled: bool, block: int, rows: int) -> None:
    # Raises ValueError when the run's estimated peak exceeds MemAvailable.
    # Nothing in it grows with the run's length but the statistics.  Per
    # trajectory, in whichever process runs it: its part of every buffer
    # of the slab plan, and its generator.
    ks, plan = _slab_plan(cfg, _kernel(cfg)(cfg, 1)[0], block, rows)
    need = cfg.trajectories * (_GENERATOR_BYTES + sum(
        math.prod(shape) * dtype.itemsize for shape, dtype in plan))
    # Per cell of a readout block, which never spans two slabs: the
    # readout's or the reduction's temporaries; in a pool also the pickled
    # copy a worker sends, and the parent's received rows, the pickle it
    # is reading and their join.  Then the statistics of each recorded step.
    need += (104 + 120 * pooled) * cfg.trajectories * plan[-1][0][0]
    need += 160 * len(ks)
    avail = _mem_available()
    if avail is not None and need > avail:
        raise ValueError(
            f"the run needs an estimated {need / 2**20:.0f} MB of memory, "
            f"more than the {avail / 2**20:.0f} MB available"
        )


def run_ensemble(cfg: SimConfig, workers: int = 1) -> EnsembleStats:
    """Run the configured ensemble and aggregate per-step statistics.

    Parameters
    ----------
    cfg : SimConfig
        Needs ``trajectories >= 2`` for meaningful variances.
    workers : int
        Process count, capped at the CPUs this process may run on.  An
        ensemble of fewer than ``_POOL_MIN_TRAJECTORIES`` runs in this
        process whatever the count, since a pool does not pay for its
        start there.  Any value yields bitwise identical statistics:
        trajectories own index-keyed streams, each slab's records are
        joined in index order, and every statistic reduces one recorded
        row over all trajectories.

    Raises
    ------
    ValueError
        Also when the run's estimated peak memory exceeds what the
        system reports available; the check runs before any draw or fork.
    """
    if cfg.trajectories < 2:
        raise ValueError("ensemble statistics need at least 2 trajectories")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(_int_at_least("workers", workers, 1), cpus or 1)
    if cfg.trajectories < max(_POOL_MIN_TRAJECTORIES, 2 * workers):
        workers = 1
    chunks = np.array_split(np.arange(cfg.trajectories), workers)
    ks = _recorded_steps(cfg.steps, cfg.record_stride)
    # Every process draws slabs as long as the largest chunk's, and sends
    # blocks of as many rows, so block b covers the same steps in all.
    block = _slab_steps(cfg.steps, len(chunks[0]))
    rows = max(1, _READOUT_CELLS // cfg.trajectories)
    _check_memory(cfg, workers > 1, block, rows)
    if workers == 1:
        blocks = _slab_records(cfg, chunks[0], block, rows)[0]
    else:
        blocks = _pool_blocks(cfg, chunks, block, rows)
    target = cfg.law.target if cfg.law.enabled else cfg.initial
    mean = np.empty((len(ks), 3))
    var = np.empty((len(ks), 3))
    fidelity = np.empty(len(ks))
    angle_var = np.empty(len(ks))
    r0 = 0
    try:
        for part in blocks:
            sx, sy, sz = part
            r = slice(r0, r0 + len(sx))
            r0 += len(sx)
            for c, x in enumerate(part):
                mean[r, c], var[r, c] = _row_stats(x)
            # 1 - |s - t|^2/4 equals the target overlap for unit vectors; the
            # subtracted form is exactly 1.0 for trajectories sitting on the
            # target.
            dev = (sx - target.sx) ** 2 + (sy - target.sy) ** 2 + (sz - target.sz) ** 2
            fidelity[r] = np.mean(1.0 - 0.25 * dev, axis=1)
            if angle_var is not None and np.all(np.abs(sy) <= PLANE_TOL):
                angle_var[r] = _row_stats(np.arctan2(sx, sz))[1]
            else:
                angle_var = None
    finally:
        blocks.close()
    purity = 0.5 * (1.0 + mean[:, 0] ** 2 + mean[:, 1] ** 2 + mean[:, 2] ** 2)
    return EnsembleStats(
        n_trajectories=cfg.trajectories,
        target=target,
        steps=ks,
        gamma_t=ks * cfg.homodyne.gamma_tau,
        mean=mean,
        var=var,
        se=np.sqrt(var / cfg.trajectories),
        fidelity=fidelity,
        purity=purity,
        angle_var=angle_var,
    )
