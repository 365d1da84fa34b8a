"""Monte Carlo trajectories of the monitored atom and ensemble statistics.

A trajectory alternates measurement intervals with optional feedback.
Each interval: the pending feedback field (if any) drives the atom, the
interval's record dn is drawn, the state update conditioned on the record
is applied, and the amplitude f of the field that the fluctuation part
of the record calls for is pushed into the delay queue for a later
interval.  One lockstep loop runs that cycle for every mode: the queue is
a ring of ``delay`` amplitudes per trajectory, which the exact drive reads
as they are and the readout turns into the record shifts 2*alpha*f
(feedback._shift), and each mode supplies only its state, its
one-interval step and its Bloch readout.  Two update modes:

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
  the configured delay: the shift column is that of the queue's slot due
  that interval and dn_total = dn_qf + shift holds exactly in every row.
  The state is the Bloch vector; a start with s_y = +0.0 keeps s_y at
  exactly +0.0, so it steps (s_x, s_z) only, and the output bits are those
  the three-component run of the same start would give.

:func:`step_trajectory` is a scalar reference for the same cycle, written
independently of the lockstep loop so that each can check the other.

Per-step cost
-------------
For small ensembles a step's time goes to numpy's per-call dispatch, not
to arithmetic, and five rules cut the cost of the exact step with the
law on.  The unit rule: the kernels step in units of the local-oscillator
amplitude alpha, which the atom sees only through dn/alpha.  The record
is x = dn/alpha, kappa = sqrt(gamma tau) x, the fed-back amplitude
f = -(1 + cos(theta_bar)) x / 2, and the drive's half angle is
sqrt(gamma tau) f, each one multiply by a gain (_operands); the record
mean takes c_e c_g = s_x / 2 with the gain 2 sqrt(gamma tau).  alpha
enters only the readout, which writes dn_qf = alpha x and the shifts
2 alpha f.  A delay-1 step and push make 37 ufunc calls, where scaling
each record by alpha and dividing it out again made 43.  At 2000
trajectories and delay 1 a loop of 1000 exact law-on steps and pushes took
35.3 ms at best against 43.4 ms, and at 16 trajectories 28.2 against
34.1 ms (median of 15; thread time, numpy 2.4, 2-core x86-64).  This rule
moves bits, but only alpha's roundings: the outputs are those the scaled
laws give at alpha = 128, where every scaling by alpha is exact.  The
four rules below move none.  The window rule: a record's field falls
due ``delay`` intervals after it is made, so when slot 0 of the ring
falls due, the ring holds the feedback amplitude of every field of the
next ``delay`` steps; the drive forms their half angles and its cosines
and sines for all of them in one pass.
The operand rule: the gains the kernels' steps and the feedback push
multiply by are 0-d float64 arrays, built once per run.  At 16
trajectories a ufunc call with a Python float operand took about 590 ns
and one with a 0-d array about 410 ns (numpy 2.4, 2-core x86-64); under
NEP 50 both select the same float64 or complex128 loop, so the bits are
those of the same gains as Python floats.  The buffer rule: no step
allocates.  Each kernel updates its state in place and writes its field
or scratch, the exact window's factors and dn_qf into arrays it builds
once per run, on 64-byte boundaries, with positional ufunc ``out``
arguments, where each operation would otherwise return a fresh array;
the feedback push writes into the ring's slot itself; and the views of
the ring's slots and of the window's columns are taken once per run.  At 2000 trajectories and
delay 1 a loop of 1000 exact steps and pushes went from 44.8 to 36.9 ms,
and one first-order step at 10^4 trajectories from 57 to 48 us (numpy
2.4, 2-core x86-64); the same ufuncs run, so the bits are those of the
fresh arrays.  The lookup rule: the law bodies, the kernels' steps and
the loop's per-step code call their ufuncs through names imported once
from numpy, and read their constants off a plain-class instance.  CPython
3.11 caches no attribute load on numpy, whose module has a
``__getattr__`` (47.9 against 14.0 ns a read), and none on a
types.SimpleNamespace (26.3 against 6.8 ns; thread CPU time, median of
15 rounds).  At 16 trajectories and delay 20, taking out the about 25
numpy reads per step cut the exact law-on step from 8.47 to 7.18 us
(2-core x86-64); the same ufuncs run on the same operands.
At large ensembles element cost dominates instead, and the drive takes
its cosines and sines from Taylor polynomials in the half angle, within
an ulp of libm's cos and sin: 14.2 against 23.8 us for a delay-1 window
of 2000 trajectories (numpy 2.4, 2-core x86-64).  An angle past the
polynomials' bound takes libm's, element by element, so that no
trajectory's bits depend on the others in its window.

Reproducibility
---------------
Trajectory i draws its noise from
``numpy.random.default_rng(SeedSequence(master_seed, spawn_key=(i,)))``,
one standard normal per interval.  That PCG64 is seeded with the four
64-bit words ``generate_state(4, uint64)`` hashes from the SeedSequence's
entropy pool.  Each process reads the pools of all its trajectories'
SeedSequences and hashes them in one vectorized pass of the same
algorithm, so every generator starts on the very stream default_rng
would give it.  Each process draws its trajectories' streams
in slabs of consecutive intervals, every row from its own generator;
numpy's Generator keeps no normal-draw state between calls, so the slabs
join into the very stream one call would draw, whatever their size.
Every trajectory owns its stream, and every statistic reduces one
recorded row over all trajectories.  The rows reach the reduction in
blocks, each joined across worker processes in index order, so neither
the partition of an ensemble over processes nor the slab and block
lengths change a bit of the statistics.  The kernels never scale by alpha
(the unit rule), so neither does alpha_mag: every alpha gives the same
Bloch rows, final states and statistics, and only dn_qf and the shifts
scale with it, each rounded once.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np
from numpy import add, conjugate, multiply

from .state import (
    PLANE_TOL,
    UNIT_TOL,
    BlochVector,
    PureState,
    _bloch,
    _finite,
    _norm3,
    bloch_from_state,
    state_from_bloch,
)
from .homodyne import (
    HomodyneConfig,
    MeasurementOutcome,
    UpdateMode,
    _advance,
    _condition,
    _drive_factors,
    _kappa,
    _record_mean,
    _rotate,
    _step_field,
    conditioned_update_exact,
    sample_outcome,
    sample_outcome_conditioned,
)
from .feedback import (
    FeedbackLaw,
    FeedbackState,
    _shift,
    advance_feedback,
    combined_diffusion_step,
    feedback_amplitude,
)

LONG_RUN_CEILING = 1.0

_BLOCH_NAMES = ("sx", "sy", "sz")
_REC_NAMES = _BLOCH_NAMES + ("dn_qf", "shift")
# The Bloch readout and the reduction run on blocks of about this many
# recorded cells, so that their temporaries, several arrays of 8 B per cell
# alive at once, stay small next to a slab's records: on stabilize-exact,
# run_ensemble's traced peak was 19.1 MB at 2^16 cells and 14.0 MB at 2^13.
_READOUT_CELLS = 1 << 13
# Each process draws its noise in (n, block) slabs of about this many
# bytes.  Smaller slabs cost one more draw call per row per slab: at 4 MB,
# a 10^4-row run lost 16% of its throughput.
_NOISE_BYTES = 1 << 24
# ... and of at most this many steps.  Longer rows buy nothing: a draw
# call costs about 0.8 us of overhead against 4.2 us for 256 normals.
_SLAB_STEPS = 256
# Memory of one trajectory's Generator and its PCG64 (tracemalloc: 586 B
# each over 10^4), for the memory check.
_GENERATOR_BYTES = 640
# Memory of each column view in list(a.T) (tracemalloc: 120 B with numpy
# 2.4), for the memory check: each process keeps one per delay slot of the
# ring, and two more per slot of the exact kernel's window.
_VIEW_BYTES = 120
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
            if not _finite(v):
                raise ValueError(f"component {name} must be finite, got {v!r}")
        n = _norm3(self.ux, self.uy, self.uz)
        if n > 1.0 + 1e-12:
            raise ValueError(f"Bloch expectation length {n!r} exceeds 1")


def master_evolve(rho: DensityMatrix2, gamma_t: float) -> DensityMatrix2:
    """Unconditional (record-averaged) evolution after a time gamma_t.

    Closed form of free decay: the transverse components shrink by
    exp(-gamma_t/2) and the inversion relaxes to -1 as
    u_z(t) = -1 + (u_z(0) + 1) * exp(-gamma_t).  This is the oracle that
    trajectory averages must reproduce.
    """
    if not (_finite(gamma_t) and gamma_t >= 0.0):
        raise ValueError(f"gamma_t must be finite and nonnegative, got {gamma_t!r}")
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
        unchecked per-interval error and is rejected, and so is one of
        2^63 steps or more, which the int64 step column cannot hold.
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
        if self.steps >= 2**63:
            raise ValueError(f"steps must be below 2^63 (int64 step column), got {self.steps!r}")
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


def _generators(master_seed: int, indices) -> list:
    # default_rng(trajectory_seed(master_seed, i)) for each index.  The
    # pools of their SeedSequences are hashed into PCG64 seed words in one
    # pass, and one adapter hands each PCG64 its row of the words.  The
    # imports stay here, so that importing this package does not load
    # numpy.random.
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeedSequence(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self._rows = iter(words)

        def generate_state(self, n_words, dtype=np.uint32):
            assert (n_words, np.dtype(dtype)) == (4, np.dtype(np.uint64))
            return next(self._rows)

    pools = np.array([trajectory_seed(master_seed, i).pool for i in indices])
    words = WordsSeedSequence(_seed_words(pools))
    return [Generator(PCG64(words)) for _ in indices]


def _recorded_steps(steps: int, stride: int) -> np.ndarray:
    # Step 0, every later multiple of the stride and the last step.
    return np.array([*range(0, steps, stride), steps], dtype=np.int64)


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


class _Operands:
    """The constants of one run, as :func:`_operands` sets them."""

    def amplitude_gain(self, law):
        # feedback_amplitude's gain per unit of dn_qf in units of alpha.
        return self.half_gain


def _operands(cfg: SimConfig) -> _Operands:
    # The constants that the kernels' steps and the feedback push multiply
    # by, as 0-d float64 arrays under the names the shared laws read off
    # their ``cfg`` and ``law`` arguments, so that one object stands in for
    # both.  The gains are those of records in units of alpha (the unit
    # rule); alpha itself is read only by the readout.  The record mean's
    # gain is 2 sqrt(gamma tau), for c_e c_g = s_x / 2: doubling is exact.
    # The dtype is explicit: an int alpha_mag above the int64 range, such
    # as 10**20, would make an object array.  A plain-class instance, not a
    # types.SimpleNamespace, so that CPython caches the reads of its
    # attributes (the lookup rule).
    hom, law = cfg.homodyne, cfg.law
    root = hom.sqrt_gamma_tau
    consts = {"kappa_gain": root, "drive_gain": root, "record_gain": 2.0 * root,
              "damping": hom.damping, "half_gain": 0.5 * law.gain,
              "alpha_mag": hom.alpha_mag, "two_alpha": hom.two_alpha}
    ops = _Operands()
    ops.__dict__.update(enabled=law.enabled,
                        **{name: np.array(v, np.float64) for name, v in consts.items()})
    return ops


def _aligned_empty(shape, dtype=np.float64) -> np.ndarray:
    # An uninitialized array whose data starts on a 64-byte boundary, a
    # cache line.  At 2000 float64 elements a multiply took 0.63 us aligned
    # and 0.96-1.11 us at offsets of 8, 16 or 32 bytes (numpy 2.4, 2-core
    # x86-64), and an array built once per run keeps its offset for every
    # step, where malloc's 16-byte alignment would leave it to chance.
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def _start(cfg: SimConfig) -> tuple:
    # The start as the kernel of cfg's mode holds it, in Python numbers:
    # the amplitudes (c_e, c_g), real when both are, or the Bloch
    # components, (s_x, s_z) for a start with s_y = +0.0.
    s0 = cfg.initial
    if cfg.homodyne.mode is UpdateMode.EXACT:
        psi0 = state_from_bloch(s0)
        amps = (psi0.c_e, psi0.c_g)
        return amps if any(c.imag for c in amps) else tuple(c.real for c in amps)
    plane = s0.sy == 0.0 and math.copysign(1.0, s0.sy) > 0.0
    return (s0.sx, s0.sz) if plane else s0.as_tuple()


def _exact_buffers(n: int, dtype, slots: int) -> tuple:
    # The arrays an exact step of n trajectories writes on amplitudes of
    # one dtype: the state pair and its scratch, together its _condition
    # ``out``; the window, the drive's _drive_factors ``out`` for ``slots``
    # delay slots (cosines, sines, half angles and their squares, 32 B per
    # slot, and a bool mask of the angles that take libm, 1 B); then dn_qf
    # and p, which holds c_e* c_g for s_x and is with t the rotation's
    # scratch.  Real amplitudes need two float64 scratch arrays (t is u; w
    # and p are v), complex ones a complex128 t and p and three float64.
    e, g = _aligned_empty((n,), dtype), _aligned_empty((n,), dtype)
    u, v = _aligned_empty((n,)), _aligned_empty((n,))
    if np.dtype(dtype).kind == "f":
        t, w, p = u, v, v
    else:
        t, w, p = _aligned_empty((n,), dtype), _aligned_empty((n,)), _aligned_empty((n,), dtype)
    window = (*(_aligned_empty((n, slots)) for _ in range(4)), _aligned_empty((n, slots), bool))
    return (e, g, t, u, v, w), window, (_aligned_empty((n,)), p)


def _exact_kernel(cfg: SimConfig, n: int):
    # State: the amplitude pair (c_e, c_g), renormalized every interval and
    # kept up to a global phase, on float64 when the start's amplitudes are
    # real and on complex128 otherwise.  Each operation rounds alike on both
    # dtypes (numpy multiplies a complex by a real divisor's reciprocal, so
    # real divisors are applied that way here too).  The step and the
    # conditioned update branch on the start's dtype.  The step runs the
    # laws in units of alpha (the unit rule), with _operands' gains.
    # The step updates the pair it is handed in place, returns dn_qf and
    # writes nothing else but arrays the kernel owns (_exact_buffers): with
    # the law on it rotates the pair in place, through the scratch t and p,
    # and then it conditions the pair in place.  The drive follows the
    # window rule: when slot 0 falls due, the half angles of the whole
    # ring's amplitudes, sqrt(gamma tau) * f, go into the window, of the
    # ring's shape, and its factors are computed from them there; each step
    # rotates by its slot's column of them, a view taken once per run.
    ops = _operands(cfg)
    amps = _start(cfg)
    dtype = np.result_type(*amps)
    real = dtype.kind == "f"
    out, window, (dn, p) = _exact_buffers(n, dtype, cfg.delay if ops.enabled else 0)
    hc, hs = (list(x.T) for x in window[:2])
    start, scratch, (t, u) = out[:2], out[2:], out[2:4]

    def step(state, ring, j, noise):
        cE, cG = state
        if ops.enabled:
            if j == 0:
                _drive_factors(ring, ops, window)
            _rotate(cE, cG, hc[j], hs[j], state + (t, p))
        # s_x / 2, which the record mean's gain doubles.
        if real:
            half_sx = multiply(cE, cG, u)
        else:
            # Into p, not t: written into one of its own operands, numpy's
            # complex multiply rounds differently at length 1 (run_trajectory).
            half_sx = multiply(conjugate(cE, t), cG, p).real
        dn_qf = add(_record_mean(half_sx, ops, dn), noise, dn)
        _condition(cE, cG, dn_qf, ops, state + scratch)
        return dn_qf

    def final(i):
        # PureState fixes the global phase the kernel leaves free.
        return PureState(complex(start[0][i]), complex(start[1][i]))

    for x, c in zip(start, amps):
        x.fill(c)
    # The Bloch readout returns fresh arrays through bloch_from_state's
    # formula.  It runs once per block of recorded rows, not per step, so
    # one form serves both dtypes: on real amplitudes the imaginary parts
    # add exact zeros.
    return start, step, lambda state: _bloch(*state), final


def _first_order_buffers(n: int, columns: int) -> tuple:
    # The arrays a first-order step of n trajectories writes: the state, of
    # ``columns`` Bloch components, and the field, as many components and
    # then (scratch, kappa, norm).
    return tuple(tuple(_aligned_empty((n,)) for _ in range(k)) for k in (columns, columns + 3))


def _first_order_kernel(cfg: SimConfig, n: int):
    # State: the Bloch components (s_x, s_y, s_z), which the readout hands
    # on as they are, without a copy.  A start with s_y = +0.0 keeps it bit
    # for bit (f_y = -s_x*s_y is a zero, and +0.0 plus either zero is
    # +0.0), so its state is (s_x, s_z) and its readout adds an s_y row of
    # +0.0.  Its step hands the field s_y = None, which leaves f_y
    # uncomputed but still adds the +0.0 of s_y^2 to f_x, turning a -0.0
    # there into +0.0.  The feedback law enters through cz in the same
    # interval as the record, so the pending shift never acts on the atom.
    # As in the exact kernel, the step updates the state it is handed in
    # place and writes nothing else but the kernel's field
    # (_first_order_buffers); it returns dn_qf in units of alpha, which is
    # the noise, and steps by kappa = sqrt(gamma tau) * noise (the unit rule).
    ops = _operands(cfg)
    cz = cfg.law.cos_theta_bar if cfg.law.enabled else -1.0
    s0 = _start(cfg)
    start, (*f, t, kap, nrm) = _first_order_buffers(n, len(s0))
    # The field's (f_x, f_y, f_z, scratch).
    field = (f[0], f[1] if len(f) == 3 else None, f[-1], t)

    def step(state, ring, j, noise):
        sx, *sy, sz = state
        _step_field(sx, sy[0] if sy else None, sz, cz, field)
        k = _kappa(noise, ops, kap)
        _advance(state, [multiply(v, k, v) for v in f], state + (nrm, t))
        return noise

    def bloch(state):
        sx, *sy, sz = state
        return sx, *(sy or [np.zeros_like(sx)]), sz

    def final(i):
        return state_from_bloch(BlochVector(*(float(c[i]) for c in bloch(start))))

    for x, c in zip(start, s0):
        x.fill(c)
    return start, step, bloch, final


def _pushes(cfg: SimConfig, names) -> bool:
    # Whether the loop fills the ring with each record's feedback amplitude:
    # where the exact kernel's drive or a recorded shift reads it.  The
    # first-order kernel never reads the ring.
    return cfg.law.enabled and (cfg.homodyne.mode is UpdateMode.EXACT or "shift" in names)


def _slab_plan(cfg: SimConfig, state, block: int, names=_BLOCH_NAMES):
    # The loop's layout for slabs of ``block`` steps over the columns of the
    # kernel's ``state``: the (shape, dtype) of the noise slab in padded
    # rows, the delay ring, and one slab's state rows and other records.
    # The ring has a slot per delay step where the loop fills it, and
    # otherwise one slot, which stays 0.  The records have a row for each
    # recorded step of slab 0, step 0 included, or for at most one step per
    # stride a later slab spans and the last step, whichever is more: at
    # most one row more than the fullest slab.  A run of 0 steps is one
    # slab of no steps.
    n, f8 = len(state[0]), np.dtype(np.float64)
    steps, stride = cfg.steps, cfg.record_stride
    b, tail = min(block, steps), steps % stride != 0
    size = max(1 + b // stride + (b == steps and tail), -(-b // stride) + tail)
    slots = cfg.delay if _pushes(cfg, names) else 1
    plan = [((n, _slab_width(block)), f8), ((n, slots), f8)]
    plan += [((size, n), c.dtype) for c in state]
    return plan + [((size, n), f8) for _ in names[len(_BLOCH_NAMES):]]


def _slab_records(cfg: SimConfig, indices, block: int, rows: int, names=_BLOCH_NAMES):
    """Advance the given trajectory indices in lockstep, one noise slab at a time.

    The update mode supplies only its state, its one-interval step, its
    Bloch readout and its final state; the loop around them is shared.
    Step k hands the kernel the (n, delay) ring of feedback amplitudes and
    the slot ``k % delay`` due now, records that slot's amplitude, and only
    then overwrites it with the amplitude f this interval's record calls
    for, which falls due ``delay`` steps later.  The kernels step in units
    of alpha (the unit rule), so the readout turns the recorded dn_qf into
    counts, alpha times it, and the recorded amplitudes into their shifts,
    2*alpha*f.  Where nothing reads the ring, it is one slot of zeros
    (_slab_plan).
    The noise, standard normals, the record's vacuum part in units of
    alpha, comes from an (n, block) slab of the per-row streams, refilled
    every ``block`` steps.  The loop records the state itself,
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
    ops = _operands(cfg)
    kernel = _exact_kernel if hom.mode is UpdateMode.EXACT else _first_order_kernel
    state, step, bloch, final = kernel(cfg, len(indices))
    plan = _slab_plan(cfg, state, block, names)
    push = _pushes(cfg, names)
    steps, stride = cfg.steps, cfg.record_stride

    def blocks():
        gens = _generators(cfg.master_seed, indices)
        slab, ring, *recs = (np.empty(shape, dtype) for shape, dtype in plan)
        ring.fill(0.0)
        # Each slot's view, taken once per run: the push writes into it.
        slots = list(ring.T)
        # One slab's records: the state rows, which the readout turns into
        # a block's Bloch rows, and the other records.
        held, kept = recs[:len(state)], recs[len(state):]
        for a, v in zip(recs, state + (0.0, 0.0)):
            a[0] = v
        # Row r, the next to record, holds step ``due``, the lesser of
        # r * stride and the last step; the slab's records hold it in slot
        # r - r0.
        r0, r, due = 0, 1, min(stride, steps)
        for k0 in range(0, max(steps, 1), block):
            # Every slab, a short last one too, is a leading view of the same
            # buffer, so two slabs never live at once; each row stays
            # contiguous.
            xi = slab[:, :min(block, steps - k0)]
            for row, gen in zip(xi, gens):
                gen.standard_normal(out=row)
            for k, noise in enumerate(xi.T, k0):
                j = k % len(slots)
                dn_qf = step(state, ring, j, noise)
                f = slots[j]
                if k + 1 == due:
                    for a, v in zip(recs, state + (dn_qf, f)):
                        a[r - r0] = v
                    r += 1
                    due = min(due + stride, steps)
                if push:
                    feedback_amplitude(dn_qf, ops, ops, f)
            # The slab's records leave the unit of alpha: dn_qf is alpha x,
            # and the recorded amplitudes become the shifts they cause.
            if kept:
                x, *amps = (a[:r - r0] for a in kept)
                multiply(ops.alpha_mag, x, x)
                for a in amps:
                    _shift(a, ops, a)
            for b in range(0, r - r0, rows):
                e = min(b + rows, r - r0)
                part = bloch(tuple(c[b:e] for c in held)) + tuple(c[b:e] for c in kept)
                if r0 + b == 0:
                    # Step 0 is the initial condition itself; record it
                    # verbatim rather than the amplitude round trip, which
                    # can be off by an ulp.
                    for a, v in zip(part, cfg.initial.as_tuple()):
                        a[0] = v
                for name, a in zip(names, part):
                    if not np.all(np.isfinite(a)):
                        row, col = np.argwhere(~np.isfinite(a))[0]
                        raise RuntimeError(
                            f"trajectory kernel produced non-finite {name} in trajectory "
                            f"{indices[col]} at step {min((r0 + b + int(row)) * stride, steps)}; "
                            f"run_trajectory(cfg, {indices[col]}) reproduces it"
                        )
                yield part
            r0 = r

    return blocks(), final


def _simulate(cfg: SimConfig, indices):
    """Run the given trajectory indices and join their records.

    The full-record form of :func:`_slab_records`, whose blocks it joins:
    returns (recorded_steps, rec, final), where rec maps each of
    ``_REC_NAMES`` to an array of shape (n_recorded, len(indices)) and
    ``final(i)`` is the final PureState of column i.
    """
    n = len(indices)
    block, rows = _slab_steps(cfg.steps, n), max(1, _READOUT_CELLS // n)
    _check_memory(cfg, n, 1, block, rows, _REC_NAMES)
    blocks, final = _slab_records(cfg, indices, block, rows, _REC_NAMES)
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
    # Imported here, so that a run that never forks does not load it.
    import multiprocessing

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
            # A pending shift whose half angle squares past the float range
            # (about 1e158 at alpha 100) takes libm's factors, which are
            # right, so the overflow of the square is no fault.
            with np.errstate(over="ignore"):
                factors = _drive_factors(shift, hom)
            psi = PureState(*_rotate(psi.c_e, psi.c_g, *factors))
        out = sample_outcome_conditioned(psi, shift, hom, rng)
        psi = conditioned_update_exact(psi, out.dn_qf, hom)
    else:
        out = sample_outcome(shift, hom, rng)
        s = bloch_from_state(psi)
        ds = combined_diffusion_step(s, out.dn_qf, law, hom)
        psi = state_from_bloch(BlochVector(*_advance(s.as_tuple(), ds.as_tuple())))
    if law.enabled:
        fb = advance_feedback(fb, out.dn_qf, law, hom)
    return psi, fb, out


def run_trajectory(cfg: SimConfig, trajectory_index: int = 0) -> TrajectoryRecord:
    """Run one trajectory and return its recorded history.

    The result is bitwise identical to the corresponding column of an
    ensemble run containing the same index.  Raises ValueError, before any
    stream is seeded, when the run's estimated peak memory exceeds what
    the system reports available.
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


def _check_memory(cfg: SimConfig, n: int, procs: int, block: int, rows: int,
                  names=_BLOCH_NAMES) -> None:
    # Raises ValueError when the estimated peak of a run of n trajectories
    # over ``procs`` processes that keeps the records ``names`` (as
    # _slab_records does) exceeds MemAvailable.  Nothing in it grows with
    # the run's length but the statistics, or the joined records of a run
    # that keeps them all.  Per trajectory, in whichever process runs it:
    # its part of every buffer of the slab plan, its generator, and the
    # kernel's own arrays (_exact_buffers, built at one slot with the
    # window counted per slot, or _first_order_buffers).  Per process, the
    # views of the ring's slots and of the window's columns.
    start = tuple(np.array([c]) for c in _start(cfg))
    plan = _slab_plan(cfg, start, block, names)
    if cfg.homodyne.mode is UpdateMode.EXACT:
        slots = cfg.delay if cfg.law.enabled else 0
        bufs = _exact_buffers(1, start[0].dtype, min(slots, 1))
    else:
        slots, bufs = 0, _first_order_buffers(1, len(start))
    # Each array once: on real amplitudes the exact scratch arrays overlap.
    own = sum({id(a): a.nbytes * (slots if a.ndim == 2 else 1)
               for out in bufs for a in out}.values())
    need = n * (_GENERATOR_BYTES + own + sum(
        math.prod(shape) * dtype.itemsize for shape, dtype in plan))
    ring_slots = plan[1][0][1]
    need += procs * _VIEW_BYTES * (ring_slots + 2 * slots)
    # Per cell of a readout block, which never spans two slabs and so has
    # at most a slab's recorded rows: the Bloch readout's 24 B and the
    # reduction's temporaries; in a pool also the pickled copy a worker
    # sends, and the parent's received rows, the pickle it is reading and
    # their join.  Then 160 B per recorded step, for the statistics or
    # run_trajectory's record, and where every record is kept (_simulate),
    # each block's copy of them and their join: 16 B per record, recorded
    # step and trajectory.
    need += (128 + 120 * (procs > 1)) * n * min(rows, plan[-1][0][0])
    recorded = -(-cfg.steps // cfg.record_stride) + 1  # as _recorded_steps lists them
    need += (160 + 16 * n * len(names) * (names == _REC_NAMES)) * recorded
    avail = _mem_available()
    if avail is not None and need > avail:
        # Tenths of a MB, rounded up and down in integer arithmetic, which
        # holds at sizes beyond the float range.
        up, down = -(-10 * need // 2**20), 10 * avail // 2**20
        raise ValueError(
            f"the run needs an estimated {up // 10}.{up % 10} MB of memory, "
            f"more than the {down // 10}.{down % 10} MB available"
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
    # Every process draws slabs as long as the largest chunk's, the first,
    # and sends blocks of as many rows, so block b covers the same steps in
    # all.  Nothing the size of the run is built before the memory check.
    block = _slab_steps(cfg.steps, -(-cfg.trajectories // workers))
    rows = max(1, _READOUT_CELLS // cfg.trajectories)
    _check_memory(cfg, cfg.trajectories, workers, block, rows)
    ks = _recorded_steps(cfg.steps, cfg.record_stride)
    chunks = np.array_split(np.arange(cfg.trajectories), workers)
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
