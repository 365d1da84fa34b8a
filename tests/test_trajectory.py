"""Trajectory, ensemble, and reproducibility tests.

Oracles:
* the closed-form unconditional evolution (master_evolve) for ensemble
  means, and for the exact step averaged over the record law by
  Gauss-Hermite quadrature, which has no sampling noise;
* frozen golden trajectory files under tests/data/ that pin the exact
  noise-to-state mapping bit for bit (regenerate them with
  tests/data/write_goldens.py only after an intended behavior change,
  never to make a failing test pass);
* the scalar step_trajectory cycle as an independent route through the
  same physics as the vectorized kernel.
"""

import dataclasses
import json
import math
import multiprocessing
import os
import pathlib
import pickle
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from monitored_atom import (
    BlochVector,
    DensityMatrix2,
    FeedbackLaw,
    FeedbackState,
    HomodyneConfig,
    PureState,
    SimConfig,
    UpdateMode,
    bloch_from_state,
    feedback_amplitude,
    master_evolve,
    run_ensemble,
    run_trajectory,
    state_from_bloch,
    step_trajectory,
    trajectory_seed,
)
from monitored_atom import trajectory
from monitored_atom.homodyne import (
    _DRIVE_H_MAX,
    _drive_factors,
    _rotate,
    conditioned_update_exact,
    sample_outcome_conditioned,
)
from monitored_atom.trajectory import _REC_NAMES, _simulate

DATA = pathlib.Path(__file__).parent / "data"

EXACT_CFG = HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4, mode=UpdateMode.EXACT)
FO_CFG = HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4, mode=UpdateMode.FIRST_ORDER)


def test_master_evolve_closed_form():
    rho = DensityMatrix2(0.3, -0.4, 0.5)
    out = master_evolve(rho, 0.7)
    assert math.isclose(out.ux, 0.3 * math.exp(-0.35), rel_tol=1e-15)
    assert math.isclose(out.uy, -0.4 * math.exp(-0.35), rel_tol=1e-15)
    assert math.isclose(out.uz, -1.0 + 1.5 * math.exp(-0.7), rel_tol=1e-14)
    ident = master_evolve(rho, 0.0)
    assert math.isclose(ident.ux, 0.3, rel_tol=1e-15)
    assert math.isclose(ident.uz, 0.5, rel_tol=1e-15)


def test_master_evolve_excited_half_life():
    """After gamma*t = ln 2 the excited state has half its population left,
    so the inversion crosses zero."""
    out = master_evolve(DensityMatrix2(0.0, 0.0, 1.0), math.log(2.0))
    assert abs(out.uz) <= 1e-15


def test_master_evolve_ground_is_stationary():
    out = master_evolve(DensityMatrix2(0.0, 0.0, -1.0), 3.0)
    assert (out.ux, out.uy, out.uz) == (0.0, 0.0, -1.0)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="exceeds 1"):
        DensityMatrix2(1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="component ux must be finite"):
        DensityMatrix2(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        master_evolve(DensityMatrix2(0.0, 0.0, 0.0), -0.1)


def test_seed_rule_gives_distinct_reproducible_streams():
    a1 = np.random.default_rng(trajectory_seed(5, 0)).standard_normal(8)
    a2 = np.random.default_rng(trajectory_seed(5, 0)).standard_normal(8)
    b = np.random.default_rng(trajectory_seed(5, 1)).standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_scalar_and_vector_draws_agree():
    """The kernels pre-draw noise vectors while step_trajectory consumes one
    draw per call; both must see the same sequence from the same stream."""
    g1 = np.random.default_rng(trajectory_seed(17, 3))
    g2 = np.random.default_rng(trajectory_seed(17, 3))
    scalars = np.array([g1.standard_normal() for _ in range(64)])
    assert np.array_equal(scalars, g2.standard_normal(64))


def test_stream_independence():
    draws = np.stack(
        [np.random.default_rng(trajectory_seed(0, i)).standard_normal(5000)
         for i in range(8)]
    )
    corr = np.corrcoef(draws)
    off = corr[~np.eye(8, dtype=bool)]
    assert np.max(np.abs(off)) < 0.05


def _golden_cfg(mode, config):
    # Every file names its start; law-on files also name theta_bar and
    # delay.  All but the out-of-plane file start with real amplitudes.
    if config["feedback"] == "on":
        law = FeedbackLaw(theta_bar=config["theta_bar"])
    else:
        law = FeedbackLaw(enabled=False)
    return SimConfig(
        homodyne=HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4, mode=mode),
        law=law,
        initial=BlochVector(*config["initial"]),
        steps=config["steps"],
        trajectories=1,
        master_seed=20260822,
        delay=config.get("delay", 1),
        record_stride=1,
    )


@pytest.mark.parametrize(
    "mode,fname",
    [
        (UpdateMode.EXACT, "golden_exact.json"),
        (UpdateMode.FIRST_ORDER, "golden_first_order.json"),
        (UpdateMode.EXACT, "golden_exact_feedback.json"),
        (UpdateMode.FIRST_ORDER, "golden_first_order_feedback.json"),
        (UpdateMode.EXACT, "golden_exact_out_of_plane.json"),
        (UpdateMode.EXACT, "golden_exact_long_delay.json"),
    ],
)
def test_golden_trajectory_bitwise(mode, fname):
    """The noise-to-record mapping is pinned bit for bit, with the feedback
    law off and, at theta_bar = pi/3 and delay 2, on; the out-of-plane
    start (theta_bar = 1.2) pins the complex-amplitude path.  The 700
    steps at delay 300 pin feedback windows that straddle the 256-step
    noise slabs and a run that ends partway through a window."""
    blob = json.loads((DATA / fname).read_text())
    assert blob["config"]["mode"] == mode.value
    rec = run_trajectory(_golden_cfg(mode, blob["config"]), 0)
    assert [int(k) for k in rec.steps] == blob["steps"]
    assert np.array_equal(rec.bloch, np.array(blob["bloch"]))
    assert np.array_equal(rec.dn_qf, np.array(blob["dn_qf"]))
    assert np.array_equal(rec.dn_total, np.array(blob["dn_total"]))
    assert np.array_equal(rec.shift, np.array(blob["shift"]))
    assert rec.final_state.c_e == complex(*blob["final_c_e"])
    assert rec.final_state.c_g == complex(*blob["final_c_g"])


def _stats_fields(st):
    return [st.mean, st.var, st.se, st.fidelity, st.purity, st.gamma_t,
            st.angle_var if st.angle_var is not None else np.zeros(1)]


def test_rerun_is_bitwise_identical():
    cfg = SimConfig(
        homodyne=EXACT_CFG,
        law=FeedbackLaw(theta_bar=math.pi / 2.0),
        initial=FeedbackLaw(theta_bar=math.pi / 2.0).target,
        steps=60,
        trajectories=40,
        master_seed=404,
        record_stride=20,
    )
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    for x, y in zip(_stats_fields(a), _stats_fields(b)):
        assert np.array_equal(x, y)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces the worker processes and their pipes with in-process
    stand-ins, so no process is started; returns the list of the chunk
    sizes of the workers started, in order."""
    started = []

    class Pipe:
        # Both ends of one pipe: messages are pickled, as a real pipe does.
        def __init__(self):
            self.messages = []

        def send(self, obj):
            self.messages.append(pickle.dumps(obj))

        def recv(self):
            if not self.messages:
                raise EOFError
            return pickle.loads(self.messages.pop(0))

        def close(self):
            pass

    class Process:
        def __init__(self, target, args, daemon):
            self.run = lambda: target(*args)
            self.chunk = len(args[1])

        def start(self):
            started.append(self.chunk)
            self.run()

        def terminate(self):
            pass

        def join(self):
            pass

    def pipe(duplex):
        end = Pipe()
        return end, end

    stub = types.SimpleNamespace(Pipe=pipe, Process=Process)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: stub)
    return started


@pytest.mark.parametrize("hom,law", [
    (EXACT_CFG, FeedbackLaw(theta_bar=math.pi / 2.0)),
    (FO_CFG, FeedbackLaw(enabled=False)),
])
def test_worker_count_does_not_change_results(monkeypatch, hom, law):
    # A lower pool floor makes this small ensemble fork for real.
    monkeypatch.setattr(trajectory, "_POOL_MIN_TRAJECTORIES", 2)
    initial = law.target if law.enabled else BlochVector(1.0, 0.0, 0.0)
    cfg = SimConfig(
        homodyne=hom, law=law, initial=initial,
        steps=50, trajectories=30, master_seed=11, record_stride=10,
    )
    serial = run_ensemble(cfg, workers=1)
    parallel = run_ensemble(cfg, workers=3)
    for x, y in zip(_stats_fields(serial), _stats_fields(parallel)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu-count"])
def test_worker_count_is_capped_at_available_cpus(monkeypatch, serial_pool, affinity):
    """An oversized worker request starts at most one process per usable
    CPU; checked with a stub pool, so no process is started."""
    if affinity:
        monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    else:
        monkeypatch.delattr(trajectory.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(trajectory.os, "cpu_count", lambda: 3)
    law = FeedbackLaw(theta_bar=math.pi / 3.0)
    cfg = SimConfig(
        homodyne=EXACT_CFG, law=law, initial=law.target, steps=30,
        trajectories=trajectory._POOL_MIN_TRAJECTORIES, master_seed=5, delay=2, record_stride=10,
    )
    serial = run_ensemble(cfg, workers=1)
    capped = run_ensemble(cfg, workers=5000)
    assert serial_pool == [683, 683, 682]
    for x, y in zip(_stats_fields(serial), _stats_fields(capped)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("below", [True, False], ids=["below-floor", "at-floor"])
@pytest.mark.parametrize("hom", [EXACT_CFG, FO_CFG], ids=["exact", "first-order"])
def test_small_ensembles_run_in_process(monkeypatch, serial_pool, hom, below):
    """Below _POOL_MIN_TRAJECTORIES two workers cannot pay for their start,
    so the ensemble runs in this process; from it on, the pool starts."""
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    n = trajectory._POOL_MIN_TRAJECTORIES - below
    cfg = SimConfig(homodyne=hom, initial=BlochVector(0.6, 0.0, 0.8), steps=3,
                    trajectories=n, master_seed=4)
    two = run_ensemble(cfg, workers=2)
    assert serial_pool == ([] if below else [n // 2, n // 2])
    for x, y in zip(_stats_fields(run_ensemble(cfg, workers=1)), _stats_fields(two)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("vectors", [
    pytest.param([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.6, 0.0, 0.8), (-0.8, 0.0, -0.6),
                  (1.0, 0.0, 0.0)], id="float64"),
    pytest.param([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.36, 0.48, 0.8), (-0.48, -0.36, -0.8),
                  (0.6, -0.8, 0.0)], id="complex128"),
])
def test_exact_readout_is_bloch_from_state(vectors):
    """The exact kernel's block readout returns bloch_from_state's bits, on
    the real amplitudes an in-plane start runs on and on complex ones, the
    excited and ground states included."""
    states = [state_from_bloch(BlochVector(*v)) for v in vectors]
    cfg = SimConfig(homodyne=EXACT_CFG, initial=BlochVector(*vectors[-1]), steps=1)
    start, _, bloch, _ = trajectory._exact_kernel(cfg, len(states))
    amps = tuple(np.array([getattr(psi, c) for psi in states]) for c in ("c_e", "c_g"))
    if start[0].dtype == np.float64:
        assert not any(np.any(a.imag) for a in amps)
        amps = tuple(a.real.copy() for a in amps)
    assert all(a.dtype == c.dtype for a, c in zip(amps, start))
    got = bloch(amps)
    want = np.array([bloch_from_state(psi).as_tuple() for psi in states]).T
    assert np.array(got).tobytes() == want.tobytes()


def test_first_order_readout_hands_on_its_own_rows():
    """The first-order state is the Bloch vector, (s_x, s_z) in the s_y = 0
    plane: its readout returns the state rows themselves, and in the plane
    an s_y row of +0.0 shaped like them."""
    for initial, held in [(BlochVector(0.6, 0.0, 0.8), (0, 2)),
                          (BlochVector(0.36, 0.48, 0.8), (0, 1, 2))]:
        cfg = SimConfig(homodyne=FO_CFG, initial=initial, steps=1)
        start, _, bloch, _ = trajectory._first_order_kernel(cfg, 4)
        assert len(start) == len(held)
        # A block of two recorded rows, as the loop hands the readout.
        rows = tuple(np.stack([c, -c]) for c in start)
        got = bloch(rows)
        assert len(got) == 3
        assert all(np.shares_memory(got[g], r) for g, r in zip(held, rows))
        if held == (0, 2):
            assert got[1].shape == rows[0].shape
            assert np.all(got[1] == 0.0) and not np.any(np.signbit(got[1]))


@pytest.mark.parametrize("skew", [-1, 1], ids=["ends-early", "ends-late"])
def test_workers_whose_record_streams_disagree_are_an_error(monkeypatch, serial_pool, skew):
    """Each worker ends its own stream of blocks; one that ends before or
    after the others makes the parent raise rather than drop or truncate
    blocks.  Checked with the stub pool, so no process is started."""
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(trajectory, "_POOL_MIN_TRAJECTORIES", 2)
    monkeypatch.setattr(trajectory, "_READOUT_CELLS", 4 * 7)  # blocks of 4 rows
    slab_records = trajectory._slab_records

    def skewed(cfg, indices, *args):
        blocks, final = slab_records(cfg, indices, *args)
        if indices[0] == 0:
            return blocks, final
        parts = [tuple(a.copy() for a in part) for part in blocks]
        return iter(parts[:-1] if skew < 0 else parts + parts[-1:]), final

    monkeypatch.setattr(trajectory, "_slab_records", skewed)
    cfg = SimConfig(homodyne=FO_CFG, initial=BlochVector(1.0, 0.0, 0.0), steps=30,
                    trajectories=7, master_seed=3)
    with pytest.raises(RuntimeError, match="ended at different blocks"):
        run_ensemble(cfg, workers=2)
    assert serial_pool == [4, 3]


@pytest.mark.parametrize("law,initial", [
    pytest.param(FeedbackLaw(theta_bar=math.pi / 3.0), FeedbackLaw(theta_bar=math.pi / 3.0).target,
                 id="target"),
    pytest.param(FeedbackLaw(enabled=False), BlochVector(1.0, 0.0, 0.0), id="equator-law-off"),
    pytest.param(FeedbackLaw(theta_bar=math.pi / 3.0), BlochVector(-0.6, 0.0, 0.8), id="negative-sx"),
    pytest.param(FeedbackLaw(enabled=False), BlochVector(0.0, 0.0, -1.0), id="ground"),
    pytest.param(FeedbackLaw(theta_bar=2.5), BlochVector(0.0, 0.0, 1.0), id="excited"),
    pytest.param(FeedbackLaw(theta_bar=math.pi / 3.0), BlochVector(1.0, -0.0, 0.0),
                 id="equator-negative-zero-sy"),
    pytest.param(FeedbackLaw(enabled=False), BlochVector(0.6, -0.0, 0.8),
                 id="negative-zero-sy-law-off"),
])
def test_real_amplitudes_match_their_complex_copies(law, initial):
    """In-plane starts run the exact step on float64 amplitudes, s_y = -0.0
    too, whose c_g has an imaginary part of -0.0.  The start's own complex
    amplitudes, stepped by the complex128 kernel of an out-of-plane start
    with the same homodyne config and law, must give the same bits with
    zero imaginary parts, so the dtype never shows in the output."""
    cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=initial, steps=200, trajectories=6)
    n = cfg.trajectories
    real, step, bloch, _ = trajectory._exact_kernel(cfg, n)
    assert [c.dtype for c in real] == [np.float64, np.float64]
    oop = SimConfig(homodyne=EXACT_CFG, law=law, initial=BlochVector(0.36, 0.48, 0.8))
    start, cplx_step, _, _ = trajectory._exact_kernel(oop, n)
    assert [c.dtype for c in start] == [np.complex128] * 2
    psi = state_from_bloch(initial)
    cplx = tuple(np.full(n, c, dtype=np.complex128) for c in (psi.c_e, psi.c_g))
    rng = np.random.default_rng(77)
    xi = rng.standard_normal((cfg.steps, n))
    # Amplitudes on the scale of feedback_amplitude's, whose half angles
    # the kernel forms, sqrt(gamma tau) times these.
    fields = rng.standard_normal((cfg.steps, n))
    for k in range(cfg.steps):
        ring = fields[k][:, None]
        dn_real = step(real, ring, 0, xi[k])
        dn_cplx = cplx_step(cplx, ring, 0, xi[k])
        assert np.array_equal(dn_real, dn_cplx)
        for r, c in zip(real, cplx):
            assert r.dtype == np.float64
            assert np.array_equal(c.real, r)
            assert np.all(c.imag == 0.0)
        for r, c in zip(bloch(real), bloch(cplx)):
            assert np.array_equal(r, c)


@pytest.mark.parametrize("law", [
    pytest.param(FeedbackLaw(theta_bar=1.2), id="law-on"),
    pytest.param(FeedbackLaw(enabled=False), id="law-off"),
])
def test_float64_kernel_rejects_complex_amplitudes(law):
    """An exact kernel owns buffers of its start's dtype only, so a float64
    kernel handed complex128 amplitudes raises numpy's casting error where
    it would write them into its float64 arrays."""
    n = 4
    cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=BlochVector(0.6, 0.0, 0.8),
                    trajectories=n)
    real, step, _, _ = trajectory._exact_kernel(cfg, n)
    assert [c.dtype for c in real] == [np.float64, np.float64]
    cplx = tuple(c.astype(np.complex128) for c in real)
    with pytest.raises(TypeError):
        step(cplx, np.zeros((n, 1)), 0, np.zeros(n))


def _step_handed_copies(kernel, ring, j, noise, copies):
    # Steps ``copies`` of a kernel's start with that kernel, on copies of
    # the ring and the noise, and checks that the step wrote neither them
    # nor the kernel's own start.  Returns the step's dn_qf.
    start, step, _, _ = kernel
    held = [c.tobytes() for c in start]
    ring_copy, noise_copy = ring.copy(), noise.copy()
    dn_qf = step(copies, ring_copy, j, noise_copy)
    assert ring_copy.tobytes() == ring.tobytes() and noise_copy.tobytes() == noise.tobytes()
    assert [c.tobytes() for c in start] == held
    return dn_qf


@pytest.mark.parametrize("initial,arrays", [
    pytest.param(BlochVector(0.6, 0.0, 0.8), 0, id="float64"),
    pytest.param(BlochVector(0.36, 0.48, 0.8), 2, id="complex128"),
])
def test_exact_step_writes_only_arrays_the_kernel_owns(initial, arrays):
    """Over 300 exact law-on steps at delay 5, with the loop's feedback
    push into the ring's slot after each step, each step updates the pair
    it is handed and returns dn_qf, one array the kernel owns.  A second
    kernel, handed copies of its start, writes into them the bits the
    first writes into its own start, and leaves its own start, the ring of
    amplitudes and the noise as they were.  After the first window, tracemalloc sees each step and
    push hold at most ``arrays`` float64 arrays of n elements at once
    beyond what was live before them, and never half an array more
    (measured 0.003 and 2.003; with fresh arrays for the record mean and
    the feedback amplitude they read 2.01 and 3.01, and a step returning
    fresh arrays 11.0 and 19.0).  On complex128 the step holds numpy's
    buffer of 16 B per element while a real factor of the conditioned
    update is cast to complex."""
    n, delay = 4096, 5
    cfg = SimConfig(homodyne=EXACT_CFG, law=FeedbackLaw(theta_bar=1.2), initial=initial,
                    steps=300, trajectories=n, delay=delay)
    ops = trajectory._operands(cfg)
    state, step, _, _ = trajectory._exact_kernel(cfg, n)
    other = trajectory._exact_kernel(cfg, n)
    copies = tuple(c.copy() for c in other[0])
    ring = np.zeros((n, delay))
    rng = np.random.default_rng(5)
    dns, held = [], []
    tracemalloc.start()
    try:
        for k in range(cfg.steps):
            j = k % delay
            noise = rng.standard_normal(n)
            want = _step_handed_copies(other, ring, j, noise, copies)
            handed = [c.tobytes() for c in state]
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dn_qf = step(state, ring, j, noise)
            feedback_amplitude(dn_qf, ops, ops, ring[:, j])
            if k >= delay:
                held.append(tracemalloc.get_traced_memory()[1] - live)
            dns.append(dn_qf)
            assert dn_qf is dns[0] and not any(np.shares_memory(dn_qf, c) for c in state)
            assert dn_qf.tobytes() == want.tobytes()
            assert [c.tobytes() for c in state] != handed
            assert [c.tobytes() for c in state] == [c.tobytes() for c in copies]
    finally:
        tracemalloc.stop()
    assert max(held) < (arrays + 0.5) * 8 * n


@pytest.mark.parametrize("initial", [
    pytest.param(BlochVector(0.6, 0.0, 0.8), id="in-plane"),
    pytest.param(BlochVector(0.36, 0.48, 0.8), id="out-of-plane"),
])
def test_first_order_step_writes_only_arrays_the_kernel_owns(initial):
    """Over 300 first-order law-on steps, each step updates the state it is
    handed and returns dn_qf, which is the noise.  A second kernel, handed
    copies of its start, writes into them the bits the first writes into
    its own start, and leaves its own start, the ring and the noise as
    they were.  tracemalloc sees no step hold half a float64 array of n
    elements beyond what was live before it (measured at most 0.008 in the
    plane and 0.006 out of it; a step returning fresh arrays read 5.1 and
    7.0)."""
    n = 4096
    cfg = SimConfig(homodyne=FO_CFG, law=FeedbackLaw(theta_bar=1.2), initial=initial,
                    steps=300, trajectories=n)
    state, step, _, _ = trajectory._first_order_kernel(cfg, n)
    assert len(state) == (2 if initial.sy == 0.0 else 3)
    other = trajectory._first_order_kernel(cfg, n)
    copies = tuple(c.copy() for c in other[0])
    ring = np.zeros((n, 1))
    rng = np.random.default_rng(5)
    held = []
    tracemalloc.start()
    try:
        for k in range(cfg.steps):
            noise = rng.standard_normal(n)
            _step_handed_copies(other, ring, 0, noise, copies)
            handed = [c.tobytes() for c in state]
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dn_qf = step(state, ring, 0, noise)
            held.append(tracemalloc.get_traced_memory()[1] - live)
            assert dn_qf is noise
            assert [c.tobytes() for c in state] != handed
            assert [c.tobytes() for c in state] == [c.tobytes() for c in copies]
    finally:
        tracemalloc.stop()
    assert max(held) < 0.5 * 8 * n


@pytest.mark.parametrize("law,initial", [
    pytest.param(FeedbackLaw(enabled=False), BlochVector(1.0, 0.0, 0.0), id="equator-law-off"),
    pytest.param(FeedbackLaw(theta_bar=math.pi / 3.0), FeedbackLaw(theta_bar=math.pi / 3.0).target,
                 id="target"),
    pytest.param(FeedbackLaw(theta_bar=math.pi / 3.0), BlochVector(-0.6, 0.0, 0.8), id="negative-sx"),
    pytest.param(FeedbackLaw(theta_bar=2.5), BlochVector(0.0, 0.0, 1.0), id="excited"),
    pytest.param(FeedbackLaw(enabled=False), BlochVector(-0.0, 0.0, -1.0), id="ground-negative-zero"),
])
def test_in_plane_first_order_state_matches_its_three_column_copy(law, initial):
    """First-order starts with s_y = +0.0 step (s_x, s_z) only.  The same
    start stepped as (s_x, s_y, s_z) on the same noise must give the same
    bits, signs of zero included, with s_y +0.0 throughout, so the layout
    never shows in the output.  From (-0.0, 0, -1) with the law off,
    s_z (s_z - cz) is -0.0: there s_x's sign follows the +0.0 that s_y^2
    adds to f_x.  A kernel owns states of its start's layout only, so the
    copy is stepped by the kernel of an out-of-plane start with the same
    homodyne config and law."""
    cfg = SimConfig(homodyne=FO_CFG, law=law, initial=initial, steps=200, trajectories=6)
    n = cfg.trajectories
    two, step, bloch, _ = trajectory._first_order_kernel(cfg, n)
    assert len(two) == 2
    for oop in (BlochVector(0.36, 0.48, 0.8), BlochVector(0.6, -0.0, 0.8)):
        start, three_step, _, _ = trajectory._first_order_kernel(
            dataclasses.replace(cfg, initial=oop), n)
        assert len(start) == 3
    three = (two[0].copy(), np.zeros(n), two[1].copy())
    rng = np.random.default_rng(77)
    xi = rng.standard_normal((cfg.steps, n))
    ring = np.zeros((n, 1))
    for k in range(cfg.steps):
        step(two, ring, 0, xi[k])
        three_step(three, ring, 0, xi[k])
        assert two[0].tobytes() == three[0].tobytes()
        assert two[1].tobytes() == three[2].tobytes()
        assert np.all(three[1] == 0.0) and not np.any(np.signbit(three[1]))
        for r, c in zip(bloch(two), bloch(three)):
            assert r.tobytes() == c.tobytes()


def _in_plane(a):
    return BlochVector(math.sin(a), 0.0, math.cos(a))


def _out_of_plane(theta, phi):
    r = math.sin(theta)
    return BlochVector(r * math.cos(phi), r * math.sin(phi), math.cos(theta))


# None starts on the law's target.  Out-of-plane starts keep
# |s_y| >= sin(0.01)^2, so their amplitudes are complex beyond rounding.
_starts = st.one_of(
    st.none(),
    st.floats(0.0, 2.0 * math.pi).map(_in_plane),
    st.builds(_out_of_plane, st.floats(0.01, math.pi - 0.01),
              st.floats(0.01, math.pi - 0.01) | st.floats(math.pi + 0.01, 2.0 * math.pi - 0.01)),
)


# The examples, indices 0-6 at stride 5, run with each mode and law pair:
# from the start (1, 0, 0) at delays 1 and 3, and from an out-of-plane
# start at delay 3, whose single exact law-on run rotates a complex128
# pair of length 1 in place.
@pytest.mark.parametrize("hom,enabled", [
    pytest.param(EXACT_CFG, False, id="exact-off"),
    pytest.param(EXACT_CFG, True, id="exact-on"),
    pytest.param(FO_CFG, False, id="first-order-off"),
    pytest.param(FO_CFG, True, id="first-order-on"),
])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(indices=st.lists(st.integers(0, 2**40 - 1), min_size=2, max_size=9, unique=True).map(sorted),
       start=_starts, delay=st.integers(1, 6), stride=st.integers(1, 6))
@example(indices=list(range(7)), start=BlochVector(1.0, 0.0, 0.0), delay=1, stride=5)
@example(indices=list(range(7)), start=BlochVector(1.0, 0.0, 0.0), delay=3, stride=5)
@example(indices=list(range(7)), start=BlochVector(0.36, 0.48, 0.8), delay=3, stride=5)
def test_single_trajectory_matches_its_ensemble_column(hom, enabled, indices, start, delay, stride):
    """Membership in a larger batch must not change a trajectory:
    run_trajectory(cfg, i) is column i of _simulate(cfg, indices) bit for
    bit, in its Bloch records, dn_qf, shift and final state, in both modes,
    with the law on and off, from starts on the target, in the plane and
    out of it, and a worker sends exactly those Bloch records."""
    law = FeedbackLaw(theta_bar=math.pi / 3.0, enabled=enabled)
    cfg = SimConfig(
        homodyne=hom, law=law, initial=law.target if start is None else start,
        steps=40, trajectories=len(indices), master_seed=2718, delay=delay,
        record_stride=stride,
    )
    _, rec, final = _simulate(cfg, indices)
    sent = []

    def send(part):
        sent.append(None if part is None else tuple(a.copy() for a in part))

    trajectory._simulate_chunk(cfg, indices, 15, 2, send)
    # A worker sends the Bloch records, as the full run has them, in blocks
    # of 2 rows that end with each slab of 15 steps, and then its end
    # marker; at stride 5 those are rows 0-3, 4-6 and 7-8.
    assert sent[-1] is None
    if stride == 5:
        assert [len(p[0]) for p in sent[:-1]] == [2, 2, 2, 1, 2]
    for name, rows in zip(("sx", "sy", "sz"), zip(*sent[:-1])):
        assert np.concatenate(rows).tobytes() == rec[name].tobytes()
    for col, i in enumerate(indices):
        single = run_trajectory(cfg, i)
        for c, name in enumerate(("sx", "sy", "sz")):
            assert single.bloch[:, c].tobytes() == rec[name][:, col].tobytes()
        assert single.dn_qf.tobytes() == rec["dn_qf"][:, col].tobytes()
        assert single.shift.tobytes() == rec["shift"][:, col].tobytes()
        psi, want = single.final_state, final(col)
        assert np.array([psi.c_e, psi.c_g]).tobytes() == np.array([want.c_e, want.c_g]).tobytes()


def test_drive_fallback_keeps_each_column_its_own():
    """At gamma_tau = 3e-4 and theta_bar = 0, the drive's half angle passes
    the polynomials' bound in about 8% of steps.  So most delay-1 windows
    of 16 trajectories mix libm's factors with the polynomials'.  Each
    column is still run_trajectory's bit for bit, whose windows hold one
    trajectory."""
    hom = HomodyneConfig(alpha_mag=100.0, gamma_tau=3e-4, mode=UpdateMode.EXACT)
    cfg = SimConfig(homodyne=hom, law=FeedbackLaw(theta_bar=0.0),
                    initial=BlochVector(0.6, 0.0, 0.8), steps=200, trajectories=16,
                    master_seed=2024)
    _, rec, _ = _simulate(cfg, list(range(16)))
    past = np.abs(hom.drive_gain * rec["shift"][1:]) > _DRIVE_H_MAX
    assert 0.3 < past.any(axis=1).mean() < 0.95
    for i in range(16):
        single = run_trajectory(cfg, i)
        for c, name in enumerate(("sx", "sy", "sz")):
            assert single.bloch[:, c].tobytes() == rec[name][:, i].tobytes()
        assert single.dn_qf.tobytes() == rec["dn_qf"][:, i].tobytes()


@pytest.mark.parametrize("mode", [UpdateMode.EXACT, UpdateMode.FIRST_ORDER])
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(theta_bar=st.floats(0.0, math.pi), enabled=st.booleans(), delay=st.integers(1, 5),
       gamma_tau=st.floats(1e-5, 3e-3), steps=st.integers(1, 300), start=_starts,
       seed=st.integers(0, 2**40 - 1), index=st.integers(0, 2**20 - 1))
@example(theta_bar=math.pi / 3.0, enabled=True, delay=2, gamma_tau=1e-4, steps=30,
         start=None, seed=55, index=0)
@example(theta_bar=math.pi, enabled=True, delay=1, gamma_tau=1e-4, steps=300,
         start=_in_plane(math.pi - 1.4e-6), seed=7, index=0)
@example(theta_bar=0.0, enabled=False, delay=1, gamma_tau=1e-4, steps=300,
         start=_in_plane(1.4e-6), seed=7, index=0)
def test_step_trajectory_agrees_with_kernel(mode, theta_bar, enabled, delay, gamma_tau,
                                            steps, start, seed, index):
    """The scalar cycle and the vectorized kernel are independent routes
    through the same update; they share the noise stream and must land on
    the same states and records to rounding, in both modes, with the law
    on and off, at delays 1-5, from starts on the target, in the plane and
    out of it, and within 1e-12 of either pole, where the first-order
    reference rebuilds its amplitudes every step with state_from_bloch.
    steps * gamma_tau stays at or below 0.9."""
    law = FeedbackLaw(theta_bar=theta_bar, enabled=enabled)
    initial = law.target if start is None else start
    hom = HomodyneConfig(alpha_mag=100.0, gamma_tau=gamma_tau, mode=mode)
    cfg = SimConfig(homodyne=hom, law=law, initial=initial, steps=steps,
                    master_seed=seed, delay=delay)
    kernel = run_trajectory(cfg, index)

    psi = state_from_bloch(initial)
    fb = FeedbackState((0.0,) * cfg.delay)
    rng = np.random.default_rng(trajectory_seed(cfg.master_seed, index))
    got = {"bloch": [], "dn_qf": [], "shift": []}
    for _ in range(steps):
        psi, fb, out = step_trajectory(psi, fb, cfg, rng)
        got["bloch"].append(bloch_from_state(psi).as_tuple())
        got["dn_qf"].append(out.dn_qf)
        got["shift"].append(out.shift)
    # The Bloch rows agree to 3.7e-15 over these examples.  A pole start
    # rebuilt by the half-angle formula alone drifts 4.6e-12.
    for name, bound in (("bloch", 1e-13), ("dn_qf", 1e-8), ("shift", 1e-8)):
        gap = np.abs(np.array(got[name]) - getattr(kernel, name)[1:]).max()
        assert gap <= bound, (name, gap)


def test_step_trajectory_golden_bitwise():
    """The scalar reference is pinned bit for bit too: its states, records
    and shifts over 300 exact law-on steps at delay 2, from the in-plane
    target at theta_bar = pi/3 and from an out-of-plane start at 1.2."""
    blob = json.loads((DATA / "golden_step_trajectory.json").read_text())
    config = blob["config"]
    hom = HomodyneConfig(alpha_mag=100.0, gamma_tau=config["gamma_tau"], mode=config["mode"])
    for run in blob["runs"]:
        start = BlochVector(*run["initial"])
        cfg = SimConfig(homodyne=hom, law=FeedbackLaw(theta_bar=run["theta_bar"]),
                        initial=start, steps=config["steps"], master_seed=config["master_seed"],
                        delay=config["delay"])
        psi, fb = state_from_bloch(start), FeedbackState((0.0,) * cfg.delay)
        rng = np.random.default_rng(trajectory_seed(cfg.master_seed, config["trajectory_index"]))
        got = {name: [] for name in ("c_e", "c_g", "dn_qf", "shift")}
        for _ in range(cfg.steps):
            psi, fb, out = step_trajectory(psi, fb, cfg, rng)
            got["c_e"].append([psi.c_e.real, psi.c_e.imag])
            got["c_g"].append([psi.c_g.real, psi.c_g.imag])
            got["dn_qf"].append(out.dn_qf)
            got["shift"].append(out.shift)
        # Compared as bytes, so that the sign of a zero counts too.
        for name, values in got.items():
            assert np.array(values).tobytes() == np.array(run[name]).tobytes(), name


def test_step_trajectory_rejects_a_queue_of_another_delay():
    """A queue shorter than cfg.delay would apply each shift early."""
    cfg = SimConfig(homodyne=EXACT_CFG, law=FeedbackLaw(theta_bar=1.0), steps=5, delay=3)
    with pytest.raises(ValueError, match="delay"):
        step_trajectory(PureState(1.0, 0.0), FeedbackState(), cfg, np.random.default_rng(0))


def test_step_trajectory_drives_a_huge_pending_shift_without_warning():
    """A pending shift whose half angle squares past the float range, 1e300
    counts at alpha 100, drives the atom by libm's cosine and sine of that
    half angle, and raises no floating-point warning."""
    law = FeedbackLaw(theta_bar=1.2)
    cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=law.target, steps=1)
    psi, shift = state_from_bloch(law.target), 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, out = step_trajectory(psi, FeedbackState((shift,)), cfg,
                                      np.random.default_rng(3))
    h = EXACT_CFG.drive_gain * shift
    assert h * h == math.inf
    driven = PureState(*_rotate(psi.c_e, psi.c_g, np.cos(h), np.sin(h)))
    want = sample_outcome_conditioned(driven, shift, EXACT_CFG, np.random.default_rng(3))
    assert out == want
    want = conditioned_update_exact(driven, want.dn_qf, EXACT_CFG)
    assert np.array([got.c_e, got.c_g]).tobytes() == np.array([want.c_e, want.c_g]).tobytes()


def _alpha_run(alpha, mode, law, initial, stats=True):
    # run_trajectory of index 5 and, with ``stats``, run_ensemble over 8
    # trajectories, at local-oscillator amplitude ``alpha``.
    hom = HomodyneConfig(alpha_mag=alpha, gamma_tau=1e-4, mode=mode)
    cfg = SimConfig(homodyne=hom, law=law, initial=initial, steps=60, trajectories=8,
                    master_seed=31, delay=2)
    return run_trajectory(cfg, 5), run_ensemble(cfg) if stats else None


_ALPHA_CASES = [
    pytest.param(mode, law, initial, id=f"{mode.value}-{name}")
    for mode in UpdateMode
    for name, law, initial in (
        ("law-on-in-plane", FeedbackLaw(theta_bar=1.2), BlochVector(0.6, 0.0, 0.8)),
        ("law-on-out-of-plane", FeedbackLaw(theta_bar=1.2), BlochVector(0.36, 0.48, 0.8)),
        ("law-off-out-of-plane", FeedbackLaw(enabled=False), BlochVector(0.36, 0.48, 0.8)),
    )
]


@pytest.mark.parametrize("mode,law,initial", _ALPHA_CASES)
def test_bloch_output_does_not_depend_on_alpha(mode, law, initial):
    """The kernels step in units of alpha, which sets only the scale of the
    records: run_ensemble's statistics and run_trajectory's Bloch rows and
    final state are the same bits at alpha_mag 10, 100, 128 and the int
    10**20."""
    def bits(alpha):
        rec, st = _alpha_run(alpha, mode, law, initial)
        psi = rec.final_state
        stats = [getattr(st, k) for k in ("mean", "var", "se", "fidelity", "purity", "angle_var")]
        return ([rec.bloch.tobytes(), np.array([psi.c_e, psi.c_g]).tobytes()]
                + [None if a is None else a.tobytes() for a in stats])

    want = bits(100.0)
    for alpha in (10.0, 128.0, 10**20):
        assert bits(alpha) == want, alpha


@pytest.mark.parametrize("mode,law,initial", _ALPHA_CASES)
def test_records_are_alpha_times_the_unit_record(mode, law, initial):
    """alpha enters only the readout: dn_qf is alpha times the record in
    units of alpha, and the shift 2 alpha times the fed-back amplitude.  So
    at alpha = 256 both are exactly twice those at 128, where the unit
    record is dn_qf / 128 and the amplitude shift / 256 exactly, and at 100
    and 10**20 they are alpha times those, rounded once."""
    base, _ = _alpha_run(128.0, mode, law, initial, stats=False)
    x, f = base.dn_qf / 128.0, base.shift / 256.0
    assert np.any(x != 0.0) and np.any(f != 0.0) == law.enabled
    for alpha in (100.0, 10**20):
        rec, _ = _alpha_run(alpha, mode, law, initial, stats=False)
        assert rec.dn_qf.tobytes() == (float(alpha) * x).tobytes(), alpha
        assert rec.shift.tobytes() == (2.0 * float(alpha) * f).tobytes(), alpha
    rec, _ = _alpha_run(256.0, mode, law, initial, stats=False)
    assert rec.dn_qf.tobytes() == (2.0 * base.dn_qf).tobytes()
    assert rec.shift.tobytes() == (2.0 * base.shift).tobytes()


def _assert_same_record(a, b):
    assert a.trajectory_index == b.trajectory_index
    for name in ("steps", "gamma_t", "bloch", "dn_total", "dn_qf", "shift"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.final_state == b.final_state


@pytest.mark.parametrize("mode", list(UpdateMode))
def test_mode_value_selects_the_same_kernel(mode):
    """HomodyneConfig takes a mode's value as well as the member and
    converts it, so "exact" runs the exact kernel, not the first-order one."""
    member = HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4, mode=mode)
    named = HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4, mode=mode.value)
    assert named.mode is mode
    assert named == member and hash(named) == hash(member)
    assert pickle.loads(pickle.dumps(named)) == member
    cfg = SimConfig(homodyne=member, law=FeedbackLaw(theta_bar=1.0),
                    initial=FeedbackLaw(theta_bar=1.0).target, steps=40, delay=2)
    _assert_same_record(run_trajectory(dataclasses.replace(cfg, homodyne=named), 0),
                        run_trajectory(cfg, 0))
    with pytest.raises(ValueError, match="bogus"):
        HomodyneConfig(mode="bogus")


@pytest.mark.parametrize("hom", [EXACT_CFG, FO_CFG], ids=lambda h: h.mode.value)
def test_disabled_law_ignores_its_theta_bar(hom):
    """A disabled law's theta_bar reaches no kernel: the records, final
    state and ensemble statistics are the bits of the default disabled law."""
    off, tilted = (SimConfig(homodyne=hom, law=law, initial=BlochVector(0.36, 0.48, 0.8),
                             steps=300, trajectories=5, master_seed=12, delay=3)
                   for law in (FeedbackLaw(enabled=False),
                               FeedbackLaw(theta_bar=0.42, enabled=False)))
    _assert_same_record(run_trajectory(off, 2), run_trajectory(tilted, 2))
    a, b = run_ensemble(off), run_ensemble(tilted)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


def test_trajectory_index_must_be_an_integer():
    """A float, string or bool index is rejected instead of running
    int(index) under its name; a numpy integer, as np.arange yields, is an
    index and is recorded as the int it equals."""
    cfg = SimConfig(homodyne=EXACT_CFG, initial=BlochVector(1.0, 0.0, 0.0), steps=20)
    for index in (1.5, "1", True):
        with pytest.raises(ValueError, match="trajectory_index must be an int >= 0"):
            run_trajectory(cfg, index)
    record = run_trajectory(cfg, np.arange(3)[1])
    assert type(record.trajectory_index) is int
    _assert_same_record(record, run_trajectory(cfg, 1))


def test_states_stay_on_the_sphere():
    cfg = SimConfig(
        homodyne=EXACT_CFG, law=FeedbackLaw(theta_bar=2.0),
        initial=FeedbackLaw(theta_bar=2.0).target,
        steps=200, trajectories=3, master_seed=9, record_stride=1,
    )
    rec = run_trajectory(cfg, 1)
    norms = np.linalg.norm(rec.bloch, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-12)


def test_record_bookkeeping_and_strides():
    cfg = SimConfig(
        homodyne=FO_CFG, law=FeedbackLaw(theta_bar=0.8),
        initial=FeedbackLaw(theta_bar=0.8).target,
        steps=95, trajectories=1, master_seed=31, delay=4, record_stride=20,
    )
    rec = run_trajectory(cfg, 0)
    assert list(rec.steps) == [0, 20, 40, 60, 80, 95]
    assert np.array_equal(rec.gamma_t, rec.steps * cfg.homodyne.gamma_tau)
    # the identity dn_total = dn_qf + shift holds exactly in every row
    assert np.array_equal(rec.dn_total, rec.dn_qf + rec.shift)
    assert rec.dn_qf[0] == 0.0 and rec.shift[0] == 0.0


def test_zero_steps_records_only_the_initial_state():
    cfg = SimConfig(
        homodyne=EXACT_CFG, law=FeedbackLaw(enabled=False),
        initial=BlochVector(0.0, 1.0, 0.0), steps=0,
        trajectories=1, master_seed=1,
    )
    rec = run_trajectory(cfg, 0)
    assert list(rec.steps) == [0]
    assert np.array_equal(rec.bloch[0], [0.0, 1.0, 0.0])
    s = bloch_from_state(rec.final_state)
    assert np.allclose([s.sx, s.sy, s.sz], [0.0, 1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("delay", [1, 3, 7, 15])
@pytest.mark.parametrize("hom", [EXACT_CFG, FO_CFG], ids=["exact", "first-order"])
def test_delay_queue_shifts_arrive_late(monkeypatch, hom, delay):
    """With delay d the shift applied at step k is, bit for bit, 2*alpha
    times the feedback field f pushed at step k - d, which each push of the
    loop is captured as; a delay longer than the run (15 > 12 steps) never
    delivers one.  At delays 3 and 7 a 40-step run in noise slabs of 5
    steps checks the same where windows straddle two slabs and where one
    opens on a slab's first step (steps 15, 30 and 35), where the readout
    turns a slab's recorded amplitudes into shifts."""
    law = FeedbackLaw(theta_bar=math.pi / 3.0)
    runs = [(12, trajectory._SLAB_STEPS)]
    if delay in (3, 7):
        runs.append((40, 5))
    push = trajectory.feedback_amplitude
    for steps, slab in runs:
        # f[k], the amplitude pushed at step k; step 0 pushes none.
        f = [None]

        def capture(*args):
            f.append(float(push(*args)[0]))
            return args[-1]

        monkeypatch.setattr(trajectory, "_SLAB_STEPS", slab)
        monkeypatch.setattr(trajectory, "feedback_amplitude", capture)
        cfg = SimConfig(
            homodyne=hom, law=law, initial=law.target,
            steps=steps, trajectories=1, master_seed=77, delay=delay, record_stride=1,
        )
        rec = run_trajectory(cfg, 0)
        assert len(f) == steps + 1
        # rows are steps 0..steps; shifts are zero until the queue fills
        for k in range(1, min(delay, steps) + 1):
            assert rec.shift[k] == 0.0
        for k in range(delay + 1, steps + 1):
            want = hom.two_alpha * f[k - delay]
            assert want != 0.0
            assert rec.shift[k] == want


def test_ensemble_matches_unconditional_decay():
    """Law-off exact-mode means must follow the closed-form decay; 3
    standard errors with a fixed seed (an out-of-plane state exercises the
    s_y channel too)."""
    for initial in (BlochVector(1.0, 0.0, 0.0), BlochVector(0.0, 1.0, 0.0)):
        cfg = SimConfig(
            homodyne=EXACT_CFG, law=FeedbackLaw(enabled=False), initial=initial,
            steps=300, trajectories=1500, master_seed=6021, record_stride=100,
        )
        st = run_ensemble(cfg)
        rho0 = DensityMatrix2(initial.sx, initial.sy, initial.sz)
        for r in range(st.steps.size):
            want = master_evolve(rho0, float(st.gamma_t[r]))
            for c, w in enumerate((want.ux, want.uy, want.uz)):
                assert abs(st.mean[r, c] - w) <= 3.0 * st.se[r, c] + 1e-14


def test_angle_variance_requires_in_plane_runs():
    cfg = SimConfig(
        homodyne=EXACT_CFG, law=FeedbackLaw(enabled=False),
        initial=BlochVector(0.0, 1.0, 0.0),
        steps=50, trajectories=10, master_seed=3, record_stride=50,
    )
    st = run_ensemble(cfg)
    assert st.angle_var is None


def test_angle_variance_lookup():
    law = FeedbackLaw(theta_bar=math.pi / 2.0)
    cfg = SimConfig(
        homodyne=FO_CFG, law=law, initial=law.target,
        steps=40, trajectories=20, master_seed=8, record_stride=10,
    )
    st = run_ensemble(cfg)
    assert list(st.steps) == [0, 10, 20, 30, 40]
    assert st.angle_var[0] == 0.0


def test_first_order_law_on_target_is_strictly_fixed():
    """Started on the target, a first-order feedback run never leaves it:
    fidelity is exactly 1 and angle variance exactly 0 at every record."""
    law = FeedbackLaw(theta_bar=2.0 * math.pi / 5.0)
    cfg = SimConfig(
        homodyne=FO_CFG, law=law, initial=law.target,
        steps=300, trajectories=40, master_seed=123, record_stride=75,
    )
    st = run_ensemble(cfg)
    assert np.all(st.fidelity == 1.0)
    assert np.all(st.angle_var == 0.0)
    assert np.all(st.se == 0.0)


def test_exact_mode_stabilization_fidelity():
    """Started on the target, the exact cycle's mean fidelity falls short
    of 1 by the delay law's (1 + cos(theta_bar))^2 gamma_tau / 4 and, away
    from theta_bar in {0, pi/2, pi}, by the drift of the feedback master
    equation along the circle, first order in time at the angular rate
    gamma sin(theta_bar) cos(theta_bar) / 2.  After 0.01/gamma of feedback
    both stay within the demanded 1 - 10*gamma_tau."""
    for theta_bar in (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0):
        law = FeedbackLaw(theta_bar=theta_bar)
        cfg = SimConfig(
            homodyne=EXACT_CFG, law=law, initial=law.target,
            steps=100, trajectories=200, master_seed=31415, record_stride=100,
        )
        st = run_ensemble(cfg)
        assert st.fidelity[-1] >= 1.0 - 10.0 * EXACT_CFG.gamma_tau


def test_angle_variance_grows_like_gamma_tau_per_step():
    """At the equator each record kicks the angle by kappa, so the
    variance grows by gamma_tau per step while the walk stays local."""
    law = FeedbackLaw(enabled=False)
    cfg = SimConfig(
        homodyne=FO_CFG, law=law, initial=BlochVector(1.0, 0.0, 0.0),
        steps=100, trajectories=3000, master_seed=271828, record_stride=25,
    )
    st = run_ensemble(cfg)
    for r in range(1, st.steps.size):
        n = float(st.steps[r])
        ratio = st.angle_var[r] / (n * FO_CFG.gamma_tau)
        assert abs(ratio - 1.0) <= 0.1


def test_long_run_guard():
    with pytest.raises(ValueError, match="exceeds"):
        SimConfig(homodyne=EXACT_CFG, law=FeedbackLaw(enabled=False),
                  initial=BlochVector(0.0, 0.0, 1.0), steps=20000, trajectories=1)
    # a run exactly at the ceiling is accepted, and the ground state
    # survives it untouched
    cfg = SimConfig(homodyne=EXACT_CFG, law=FeedbackLaw(enabled=False),
                    initial=BlochVector(0.0, 0.0, -1.0), steps=10000,
                    trajectories=1, record_stride=10000)
    assert cfg.steps * cfg.homodyne.gamma_tau == trajectory.LONG_RUN_CEILING
    rec = run_trajectory(cfg, 0)
    assert np.array_equal(rec.bloch[-1], [0.0, 0.0, -1.0])


def test_sim_config_validation():
    good = dict(homodyne=EXACT_CFG, law=FeedbackLaw(enabled=False),
                initial=BlochVector(0.0, 0.0, 1.0), steps=10, trajectories=2)
    SimConfig(**good)
    with pytest.raises(ValueError, match="steps"):
        SimConfig(**{**good, "steps": -1})
    with pytest.raises(ValueError, match="trajectories"):
        SimConfig(**{**good, "trajectories": 0})
    with pytest.raises(ValueError, match="master_seed"):
        SimConfig(**{**good, "master_seed": -1})
    with pytest.raises(ValueError, match="master_seed"):
        SimConfig(**{**good, "master_seed": 1.5})
    with pytest.raises(ValueError, match="delay"):
        SimConfig(**{**good, "delay": 0})
    with pytest.raises(ValueError, match="record_stride"):
        SimConfig(**{**good, "record_stride": 0})
    with pytest.raises(ValueError, match="unit length"):
        SimConfig(**{**good, "initial": BlochVector(0.0, 0.0, 0.5)})
    with pytest.raises(ValueError, match="at least 2"):
        run_ensemble(SimConfig(**{**good, "trajectories": 1}))
    with pytest.raises(ValueError, match="workers must be an int >= 1"):
        run_ensemble(SimConfig(**good), workers=0)
    with pytest.raises(ValueError, match="trajectory_index must be an int >= 0"):
        run_trajectory(SimConfig(**good), -1)


def test_sim_config_integer_fields_take_any_integer_type():
    """A numpy integer stands for the int it equals, as in the other integer
    inputs, which go through operator.index; a bool is not a count."""
    fields = dict(steps=10, trajectories=3, master_seed=7, delay=2, record_stride=5)
    cfg = SimConfig(**{k: np.int64(v) for k, v in fields.items()})
    assert cfg == SimConfig(**fields)
    assert all(type(getattr(cfg, k)) is int for k in fields)
    for k in fields:
        with pytest.raises(ValueError, match=k):
            SimConfig(**{k: True})


def test_final_state_consistent_with_last_record():
    cfg = SimConfig(
        homodyne=EXACT_CFG, law=FeedbackLaw(enabled=False),
        initial=BlochVector(1.0, 0.0, 0.0),
        steps=25, trajectories=1, master_seed=14, record_stride=25,
    )
    rec = run_trajectory(cfg, 0)
    s = bloch_from_state(rec.final_state)
    assert np.allclose([s.sx, s.sy, s.sz], rec.bloch[-1], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("initial,bound", [
    (BlochVector(1.0, 0.0, 0.0), 0.5),
    (BlochVector(0.6, 0.0, 0.8), 2.5),
    (BlochVector(0.0, 0.0, 1.0), 4.0),
    (BlochVector(0.6, 0.8, 0.0), 0.4),
])
def test_exact_step_is_weak_order_two(initial, bound):
    """Noise-free oracle: the exact step, averaged over the record law by
    80-node Gauss-Hermite quadrature, matches the unconditional evolution
    up to O(gamma_tau^2) (the measurement operators are complete only to
    1 + |c_e|^2 gamma_tau^2 / 4).  A wrong record mean or a missing
    damping factor leaves an O(gamma_tau) defect, which the fitted order
    and the per-state bound on defect / gamma_tau^2 both catch."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    weights = weights / weights.sum()
    rho = DensityMatrix2(*initial.as_tuple())
    gts = [1e-2 / 2**j for j in range(4)]
    defects = []
    for gt in gts:
        hom = HomodyneConfig(alpha_mag=100.0, gamma_tau=gt, mode=UpdateMode.EXACT)
        cfg = SimConfig(homodyne=hom, law=FeedbackLaw(enabled=False), initial=initial,
                        steps=1, trajectories=nodes.size)
        state, step, bloch, _ = trajectory._exact_kernel(cfg, nodes.size)
        step(state, np.zeros((nodes.size, 1)), 0, nodes)
        mean = np.array([weights @ c for c in bloch(state)])
        want = master_evolve(rho, gt)
        defects.append(np.max(np.abs(mean - [want.ux, want.uy, want.uz])))
    order = np.polyfit(np.log(gts), np.log(defects), 1)[0]
    assert order >= 1.9
    assert max(d / gt**2 for d, gt in zip(defects, gts)) <= bound


def _feedback_master_evolve(s: BlochVector, cz: float, gamma_t: float) -> np.ndarray:
    # Closed form of the Markovian feedback master equation
    # d(rho)/dt = gamma D[L] rho with L = (sigma_x + i cz sigma_y) / 2
    # (Wiseman and Milburn, PRL 70, 548 (1993)): its Bloch equations are
    # diagonal, and s_z relaxes to 2 cz / (1 + cz^2).
    z_inf = 2.0 * cz / (1.0 + cz * cz)
    return np.array([
        s.sx * math.exp(-0.5 * cz * cz * gamma_t),
        s.sy * math.exp(-0.5 * gamma_t),
        z_inf + (s.sz - z_inf) * math.exp(-0.5 * (1.0 + cz * cz) * gamma_t),
    ])


@pytest.mark.parametrize("theta_bar", [math.pi / 3.0, math.pi / 2.0, 2.0 * math.pi / 3.0],
                         ids=["pi/3", "pi/2", "2pi/3"])
@pytest.mark.parametrize("initial", [
    BlochVector(1.0, 0.0, 0.0), BlochVector(0.0, 0.0, 1.0), BlochVector(0.6, 0.0, 0.8),
    BlochVector(0.6, 0.8, 0.0), None,
], ids=["x", "z", "xz", "xy", "target"])
def test_law_on_exact_cycle_is_weak_order_two(theta_bar, initial):
    """Noise-free law-on oracle.  One exact interval, conditioned on its
    record, then driven by that same record's fed-back shift (the delay-1
    cycle with the drive moved into its own interval), averaged over the
    record law by 80-node Gauss-Hermite quadrature, matches the feedback
    master equation up to O(gamma_tau^2), from any start.  A flipped law
    sign, a doubled drive, or the drive applied before the conditioning
    leaves an O(gamma_tau) defect, which the fitted order and the bound on
    defect / gamma_tau^2 (measured at most 1.78) both catch."""
    law = FeedbackLaw(theta_bar=theta_bar)
    initial = law.target if initial is None else initial
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    weights = weights / weights.sum()
    gts = [1e-2 / 2**j for j in range(4)]
    defects = []
    for gt in gts:
        hom = HomodyneConfig(alpha_mag=100.0, gamma_tau=gt, mode=UpdateMode.EXACT)
        cfg = SimConfig(homodyne=hom, law=law, initial=initial, steps=1,
                        trajectories=nodes.size)
        state, step, bloch, _ = trajectory._exact_kernel(cfg, nodes.size)
        # The kernel's records are in units of alpha, and so are its gains.
        ops = trajectory._operands(cfg)
        x = step(state, np.zeros((nodes.size, 1)), 0, nodes)
        state = _rotate(*state, *_drive_factors(feedback_amplitude(x, ops, ops), ops))
        mean = np.array([weights @ c for c in bloch(state)])
        want = _feedback_master_evolve(initial, law.cos_theta_bar, gt)
        defects.append(np.max(np.abs(mean - want)))
    order = np.polyfit(np.log(gts), np.log(defects), 1)[0]
    assert order >= 1.9
    assert max(d / gt**2 for d, gt in zip(defects, gts)) <= 2.0


@pytest.mark.parametrize("initial,theta_bar", [
    pytest.param(BlochVector(0.0, 0.0, 1.0), math.pi / 3.0, id="z-pi/3"),
    pytest.param(BlochVector(0.0, 0.0, 1.0), 2.0 * math.pi / 3.0, id="z-2pi/3"),
    pytest.param(BlochVector(0.6, 0.8, 0.0), math.pi / 2.0, id="xy-pi/2"),
    pytest.param(BlochVector(-1.0, 0.0, 0.0), 2.0 * math.pi / 3.0, id="minus-x-2pi/3"),
])
def test_law_on_ensemble_matches_the_feedback_master_equation(initial, theta_bar):
    """Law-on exact-mode ensemble means at delay 1 follow the closed form of
    the feedback master equation up to gamma_t = 0.25, within 3 standard
    errors plus gamma_tau, the order of the discretization error the
    delay-1 cycle accumulates (at pi / 2 the mean sits about 1e-4 off the
    continuum value).  A flipped law sign misses every case by 30 SE or
    more, a doubled drive by 20 SE or more."""
    law = FeedbackLaw(theta_bar=theta_bar)
    cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=initial, steps=2500,
                    trajectories=2000, master_seed=5, record_stride=250)
    st = run_ensemble(cfg)
    for r, gt in enumerate(st.gamma_t):
        want = _feedback_master_evolve(initial, law.cos_theta_bar, float(gt))
        err = np.abs(st.mean[r] - want)
        assert np.all(err <= 3.0 * st.se[r] + EXACT_CFG.gamma_tau), (int(st.steps[r]), err / st.se[r])


@pytest.mark.parametrize("theta_bar", [math.pi / 3.0, math.pi / 2.0, 2.0 * math.pi / 3.0])
def test_delayed_feedback_undoes_the_first_record(theta_bar):
    """Noise-free oracle for the law-on exact cycle at delay 1.  Started on
    the target, each record rotates the state about s_y by
    kappa*(1 + cos(theta_bar)); the feedback applied in interval 2 undoes
    interval 1's rotation, so only interval 2's remains and the expected
    fidelity defect is E[kappa^2](1 + cos(theta_bar))^2 / 4, with
    E[kappa^2] = gamma_tau.  Averaged over both records by 80 x 80
    Gauss-Hermite quadrature.  A flipped law sign reads about 5 times
    that, a doubled drive or the law left off about 2 times."""
    law = FeedbackLaw(theta_bar=theta_bar)
    t = law.target
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    x1, x2 = (x.ravel() for x in np.meshgrid(nodes, nodes, indexing="ij"))
    w = np.outer(weights, weights).ravel() / weights.sum() ** 2
    for gt in [1e-2 / 2**j for j in range(5)]:
        hom = HomodyneConfig(alpha_mag=100.0, gamma_tau=gt, mode=UpdateMode.EXACT)
        cfg = SimConfig(homodyne=hom, law=law, initial=t, steps=2, trajectories=2)
        state, step, bloch, _ = trajectory._exact_kernel(cfg, x1.size)
        # The kernel's records are in units of alpha, and so are its gains.
        ops = trajectory._operands(cfg)
        x = step(state, np.zeros((x1.size, 1)), 0, x1)
        step(state, feedback_amplitude(x, ops, ops)[:, None], 0, x2)
        sx, sy, sz = bloch(state)
        defect = w @ (((sx - t.sx) ** 2 + (sy - t.sy) ** 2 + (sz - t.sz) ** 2) / 4.0)
        ratio = defect / (gt * (1.0 + law.cos_theta_bar) ** 2 / 4.0)
        assert abs(ratio - 1.0) <= 0.03, (gt, ratio)


@pytest.mark.parametrize("theta_bar", [math.pi / 3.0, math.pi / 2.0, 2.0 * math.pi / 3.0],
                         ids=["pi/3", "pi/2", "2pi/3"])
def test_fidelity_defect_grows_linearly_with_the_delay(theta_bar):
    """Delay-law oracle.  Started on the target, each record's kick of angle
    variance (1 + cos(theta_bar))^2 gamma_tau is undone d intervals later,
    so d kicks are pending at any step and add d (1 + cos(theta_bar))^2
    gamma_tau / 4 to the fidelity defect.  The drift of the feedback master
    equation along the circle, first order in time at the angular rate
    gamma sin(theta_bar) cos(theta_bar) / 2, adds the same term
    (1 - t.s(gamma_t)) / 2 at every delay, where s is the closed form's
    mean (zero at pi / 2, largest at 2 pi / 3).  So at every angle the
    slope [defect(d) - defect(1)] / (d - 1) is gated within 5% plus 3 SE
    of the per-trajectory differences (the runs share their noise
    streams), and the value at d = 1 within 10% of the delay law plus the
    drift term (measured 0.98-1.04; a ring one slot too long, which
    applies each shift an interval late, reads 1.5-2.0).  gamma_t stays at
    0.02, where that drift is still small."""
    law = FeedbackLaw(theta_bar=theta_bar)
    t = law.target
    unit = (1.0 + law.cos_theta_bar) ** 2 * EXACT_CFG.gamma_tau / 4.0
    n, steps = 2000, 200
    defect = {}
    for d in (1, 2, 5, 20):
        cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=t, steps=steps, trajectories=n,
                        master_seed=77, delay=d, record_stride=steps)
        _, rec, _ = _simulate(cfg, np.arange(n))
        # 1 - fidelity of each trajectory at the last step.
        defect[d] = ((rec["sx"][-1] - t.sx) ** 2 + (rec["sy"][-1] - t.sy) ** 2
                     + (rec["sz"][-1] - t.sz) ** 2) / 4.0
    for d in (2, 5, 20):
        slope = (defect[d] - defect[1]) / (d - 1)
        se = np.std(slope, ddof=1) / math.sqrt(n)
        assert abs(np.mean(slope) - unit) <= 0.05 * unit + 3.0 * se, (d, np.mean(slope) / unit)
    mean = _feedback_master_evolve(t, law.cos_theta_bar, steps * EXACT_CFG.gamma_tau)
    drift = (1.0 - np.dot(t.as_tuple(), mean)) / 2.0
    ratio = np.mean(defect[1]) / (unit + drift)
    assert abs(ratio - 1.0) <= 0.10, ratio


@pytest.mark.parametrize("law,initial", [
    pytest.param(FeedbackLaw(theta_bar=math.pi / 2.0), None, id="target-float64"),
    pytest.param(FeedbackLaw(theta_bar=1.2), BlochVector(0.36, 0.48, 0.8), id="out-of-plane-complex"),
])
def test_long_run_keeps_unit_norm_and_canonical_final_state(law, initial):
    """The kernel renormalizes every interval but leaves the global phase
    free; over 10^4 law-on steps the Bloch vector stays unit length to
    rounding, and the final state comes out in the canonical phase on the
    last recorded Bloch vector."""
    cfg = SimConfig(
        homodyne=EXACT_CFG, law=law, initial=initial or law.target,
        steps=10_000, trajectories=3, master_seed=99, delay=20, record_stride=1,
    )
    _, rec, final = _simulate(cfg, np.arange(cfg.trajectories))
    norm = np.sqrt(rec["sx"] ** 2 + rec["sy"] ** 2 + rec["sz"] ** 2)
    assert np.max(np.abs(norm - 1.0)) <= 4e-15
    for i in range(cfg.trajectories):
        psi = final(i)
        assert psi.c_e.imag == 0.0 and psi.c_e.real >= 0.0
        s = bloch_from_state(psi)
        last = [rec[name][-1, i] for name in ("sx", "sy", "sz")]
        assert np.allclose(s.as_tuple(), last, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("cells", [10, 1], ids=["3-row-blocks", "1-row-blocks"])
@pytest.mark.parametrize("initial", [
    pytest.param(BlochVector(0.6, 0.0, 0.8), id="float64"),
    pytest.param(BlochVector(0.36, 0.48, 0.8), id="complex128"),
])
def test_blocked_readout_matches_one_block(monkeypatch, initial, cells):
    """The Bloch readout runs on blocks of recorded rows.  Blocks that end
    short of the last row, or hold one row each, give the bits of a
    single block."""
    cfg = SimConfig(
        homodyne=EXACT_CFG, law=FeedbackLaw(theta_bar=1.2), initial=initial,
        steps=50, trajectories=3, master_seed=8, delay=2, record_stride=4,
    )
    idx = np.arange(cfg.trajectories)
    _, whole, _ = _simulate(cfg, idx)
    # 14 recorded rows of 3 cells: blocks of 3 rows (the last one 2), or 1.
    monkeypatch.setattr(trajectory, "_READOUT_CELLS", cells)
    _, blocked, _ = _simulate(cfg, idx)
    for name in _REC_NAMES:
        assert np.array_equal(blocked[name], whole[name])


@pytest.mark.parametrize("block", [1, 3], ids=["1-step-slabs", "3-step-slabs"])
@pytest.mark.parametrize("hom,initial", [
    pytest.param(EXACT_CFG, BlochVector(0.6, 0.0, 0.8), id="exact-float64"),
    pytest.param(EXACT_CFG, BlochVector(0.36, 0.48, 0.8), id="exact-complex128"),
    pytest.param(FO_CFG, BlochVector(0.6, 0.0, 0.8), id="first-order"),
])
def test_slabbed_noise_matches_one_slab(monkeypatch, hom, initial, block):
    """Noise drawn in slabs of a few steps, the last one short, gives the
    bits of one slab for the whole run.  The law is on with a delay longer
    than a slab, so fed-back shifts cross slab boundaries; in the
    first-order mode dn_qf is a view of the slab."""
    cfg = SimConfig(
        homodyne=hom, law=FeedbackLaw(theta_bar=1.2), initial=initial,
        steps=50, trajectories=3, master_seed=8, delay=5, record_stride=4,
    )
    idx = np.arange(cfg.trajectories)
    assert trajectory._slab_steps(cfg.steps, cfg.trajectories) == cfg.steps
    _, whole, whole_final = _simulate(cfg, idx)
    monkeypatch.setattr(trajectory, "_NOISE_BYTES", 8 * cfg.trajectories * block)
    assert trajectory._slab_steps(cfg.steps, cfg.trajectories) == block
    _, slabbed, slabbed_final = _simulate(cfg, idx)
    for name in _REC_NAMES:
        assert np.array_equal(slabbed[name], whole[name])
    for i in idx:
        assert slabbed_final(i) == whole_final(i)


def test_noise_memory_is_bounded_by_the_slab(monkeypatch):
    """A run's traced peak stays near its slab and generators, far below
    the 8 MB that drawing all of its noise up front would take."""
    n, steps = 256, 4000
    monkeypatch.setattr(trajectory, "_NOISE_BYTES", 1 << 18)
    cfg = SimConfig(homodyne=FO_CFG, initial=BlochVector(1.0, 0.0, 0.0), steps=steps,
                    trajectories=n, record_stride=steps)
    # A first call fills numpy's one-time caches, which are not the run's.
    _simulate(dataclasses.replace(cfg, steps=2), np.arange(n))
    tracemalloc.start()
    try:
        _simulate(cfg, np.arange(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measured 0.64 MB: a 256 KB slab, 256 generators and small arrays.
    assert peak < 1 << 20


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("block", [1, 3], ids=["1-step-slabs", "3-step-slabs"])
@pytest.mark.parametrize("hom,initial", [
    pytest.param(EXACT_CFG, BlochVector(0.6, 0.0, 0.8), id="exact-float64"),
    pytest.param(EXACT_CFG, BlochVector(0.36, 0.48, 0.8), id="exact-complex128"),
    pytest.param(FO_CFG, BlochVector(0.6, 0.0, 0.8), id="first-order"),
    pytest.param(FO_CFG, BlochVector(0.36, 0.48, 0.8), id="first-order-out-of-plane"),
])
def test_per_slab_reduction_matches_one_slab(monkeypatch, hom, initial, block, stride, workers):
    """Statistics reduced as each slab of 1 or 3 steps ends, in blocks of
    2 recorded rows, are the bits of one slab and one block for the whole
    run, in this process and on 2 forked workers.  7 trajectories split
    into chunks of 4 and 3, so the workers' blocks cover the same steps
    only because both draw the larger chunk's slab length."""
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(trajectory, "_POOL_MIN_TRAJECTORIES", 2)
    cfg = SimConfig(
        homodyne=hom, law=FeedbackLaw(theta_bar=1.2), initial=initial,
        steps=40, trajectories=7, master_seed=8, delay=5, record_stride=stride,
    )
    assert trajectory._slab_steps(cfg.steps, cfg.trajectories) == cfg.steps
    whole = run_ensemble(cfg)
    largest = 4 if workers == 2 else 7
    monkeypatch.setattr(trajectory, "_NOISE_BYTES", 8 * largest * block)
    monkeypatch.setattr(trajectory, "_READOUT_CELLS", 2 * cfg.trajectories)
    assert trajectory._slab_steps(cfg.steps, largest) == block
    pools = []
    pool_blocks = trajectory._pool_blocks
    monkeypatch.setattr(trajectory, "_pool_blocks",
                        lambda cfg, chunks, *a: pools.append(len(chunks)) or pool_blocks(cfg, chunks, *a))
    sliced = run_ensemble(cfg, workers)
    assert pools == ([2] if workers == 2 else [])
    assert (sliced.angle_var is None) == (whole.angle_var is None) == (initial.sy != 0.0)
    for x, y in zip(_stats_fields(whole), _stats_fields(sliced)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("mode", [UpdateMode.EXACT, UpdateMode.FIRST_ORDER])
@settings(derandomize=True, database=None, deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(enabled=st.booleans(), start=_starts, n=st.integers(2, 9), steps=st.integers(1, 40),
       delay=st.integers(1, 6), stride=st.integers(1, 6), seed=st.integers(0, 2**40 - 1),
       block=st.integers(1, 12), cells=st.integers(1, 40), workers=st.integers(1, 3))
def test_statistics_ignore_slabs_blocks_and_partition(serial_pool, mode, enabled, start, n, steps,
                                                      delay, stride, seed, block, cells, workers):
    """run_ensemble's statistics are the same bits whatever the slab length
    (_NOISE_BYTES), the readout block rows (_READOUT_CELLS) and the split
    of the ensemble over workers (the stub pool, so no process starts): in
    both modes, with the law on and off, from starts on the target, in
    the plane and out of it, with delays that cross slabs."""
    law = FeedbackLaw(theta_bar=1.2, enabled=enabled)
    cfg = SimConfig(homodyne=dataclasses.replace(EXACT_CFG, mode=mode), law=law,
                    initial=law.target if start is None else start, steps=steps,
                    trajectories=n, master_seed=seed, delay=delay, record_stride=stride)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        whole = run_ensemble(cfg)
        mp.setattr(trajectory, "_POOL_MIN_TRAJECTORIES", 2)
        mp.setattr(trajectory, "_NOISE_BYTES", 8 * -(-n // workers) * block)
        mp.setattr(trajectory, "_READOUT_CELLS", cells)
        serial_pool.clear()
        sliced = run_ensemble(cfg, workers)
    assert len(serial_pool) == (workers if 1 < workers <= n // 2 else 0)
    for x, y in zip(_stats_fields(whole), _stats_fields(sliced)):
        assert np.array_equal(x, y)


def test_in_process_peak_does_not_grow_with_the_run_length(monkeypatch):
    """Recorded at every step, a run twice as long raises the traced peak
    of run_ensemble by less than 10%: every process holds one slab's
    records at a time, and only the statistics rows grow."""
    monkeypatch.setattr(trajectory, "_NOISE_BYTES", 1 << 19)  # 128-step slabs
    law = FeedbackLaw(theta_bar=1.2)
    cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=law.target, steps=1000,
                    trajectories=512, delay=3, record_stride=1)
    # A first call fills numpy's one-time caches, which are not the run's.
    run_ensemble(dataclasses.replace(cfg, steps=2))
    peaks = []
    for steps in (1000, 2000):
        tracemalloc.start()
        try:
            run_ensemble(dataclasses.replace(cfg, steps=steps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


@pytest.mark.parametrize("dies", [False, True], ids=["raises", "exits"])
def test_failing_worker_cannot_hang_the_parent(monkeypatch, dies):
    """When the kernel fails in one worker's chunk midway through the run,
    run_ensemble raises that error in the parent, or names the exit code
    of a worker that died without a word, and no worker is left behind."""
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(trajectory, "_POOL_MIN_TRAJECTORIES", 2)
    monkeypatch.setattr(trajectory, "_NOISE_BYTES", 8 * 4 * 3)  # 3-step slabs
    kernel = trajectory._first_order_kernel

    def failing_kernel(cfg, n):
        start, step, bloch, final = kernel(cfg, n)
        calls = []

        def step_or_fail(state, ring, j, noise):
            # Only the second chunk, of 3 trajectories, fails, in its 4th slab.
            calls.append(None)
            if n == 3 and len(calls) == 11:
                if dies:
                    os._exit(7)
                raise FloatingPointError("kernel failed at step 10 of the second chunk")
            return step(state, ring, j, noise)

        return start, step_or_fail, bloch, final

    monkeypatch.setattr(trajectory, "_first_order_kernel", failing_kernel)
    cfg = SimConfig(homodyne=FO_CFG, initial=BlochVector(1.0, 0.0, 0.0), steps=30,
                    trajectories=7, master_seed=3)
    error, text = (RuntimeError, "exited with code 7") if dies else (
        FloatingPointError, "kernel failed at step 10 of the second chunk")
    with pytest.raises(error, match=text):
        run_ensemble(cfg, workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers,steps,index,step", [
    # 1 worker: the 10th call is step 10 of all 10 trajectories.
    pytest.param(1, 12, 4, 10, id="in-process"),
    # 2 workers of 5 trajectories each, run one after the other by the
    # stub pool: the first makes 6 calls, so the 10th is step 4 of the
    # second, whose column 4 is trajectory 5 + 4.
    pytest.param(2, 6, 9, 4, id="pool"),
])
def test_non_finite_record_names_its_trajectory(monkeypatch, serial_pool, workers, steps, index,
                                                 step):
    """A non-finite record stops the run with the global trajectory index,
    the recorded step and the run_trajectory call that reproduces it."""
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(trajectory, "_POOL_MIN_TRAJECTORIES", 2)
    record_mean = trajectory._record_mean
    calls = []

    def poisoned(sx, hom, out=None):
        calls.append(None)
        mean = record_mean(sx, hom, out)
        if len(calls) == 10:
            mean[4] = np.nan
        return mean

    monkeypatch.setattr(trajectory, "_record_mean", poisoned)
    law = FeedbackLaw(theta_bar=1.2)
    cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=law.target, steps=steps,
                    trajectories=10, master_seed=3)
    text = (rf"non-finite sx in trajectory {index} at step {step}; "
            rf"run_trajectory\(cfg, {index}\) reproduces it")
    with pytest.raises(RuntimeError, match=text):
        run_ensemble(cfg, workers)
    assert serial_pool == ([] if workers == 1 else [5, 5])


def _never(*args, **kwargs):
    raise AssertionError("called before the memory check")


def _estimated(need):
    # The memory check's figure for an estimate of ``need`` bytes, rounded
    # up to 0.1 MB.
    return f"estimated {math.ceil(10 * need / 2**20) / 10:.1f} MB"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("initial,amp_bytes,own_bytes,law", [
    pytest.param(BlochVector(0.6, 0.0, 0.8), 16, 40, FeedbackLaw(theta_bar=1.2), id="float64"),
    pytest.param(BlochVector(0.36, 0.48, 0.8), 32, 96, FeedbackLaw(theta_bar=1.2),
                 id="complex128"),
    pytest.param(BlochVector(0.6, 0.0, 0.8), 16, 40, FeedbackLaw(enabled=False),
                 id="float64-law-off"),
    pytest.param(BlochVector(0.36, 0.48, 0.8), 32, 96, FeedbackLaw(enabled=False),
                 id="complex128-law-off"),
])
def test_memory_check_runs_before_any_draw_or_fork(monkeypatch, serial_pool, initial, amp_bytes,
                                                    own_bytes, law, workers):
    """A run whose estimated peak exceeds the available memory is refused
    with the estimate in MB, before any stream is seeded or worker started."""
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(trajectory, "trajectory_seed", _never)
    monkeypatch.setattr(trajectory, "_mem_available", lambda: 1 << 20)
    cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=initial, steps=1000,
                    trajectories=4096, delay=3)
    # Every process draws slabs of 256 steps (the step cap, below the 512
    # and 1024 that 16 MB would allow), whose first reaches 257 recorded
    # rows (step 0 too).
    sizes = [4096] if workers == 1 else [2048, 2048]
    # Per process: the noise slab, in rows padded to 264 floats, 640 B of
    # generator, and, with the law on, 24 B of ring and 99 B for the drive's
    # four float64 arrays and one bool mask over a 3-step window per
    # trajectory, with the law off a ring of one slot, 8 B; the kernel's
    # own arrays (the amplitude pair and its scratch: two float64 arrays on
    # real amplitudes, two complex128, one for the product s_x is read
    # from, and three float64 on complex ones; and dn_qf), the same under
    # both laws, and the amplitudes of the slab's recorded cells; then a
    # view of each of the ring's slots and, with the law on, of each of the
    # window's 2 x 3 columns.  Only the window and the ring depend on the
    # law.
    ring, window, views = (24, 99, 9) if law.enabled else (8, 0, 1)
    need = sum(n * (8 * 264 + 640 + ring + window + own_bytes + amp_bytes * 257)
               + views * trajectory._VIEW_BYTES for n in sizes)
    # Per cell of a block of 2^13 // 4096 = 2 recorded rows: 128 B, and
    # 120 B more in a pool; then the statistics of the 1001 recorded steps.
    need += (128 if workers == 1 else 248) * 4096 * 2 + 160 * 1001
    with pytest.raises(ValueError, match=rf"{re.escape(_estimated(need))} .* the 1\.0 MB available"):
        run_ensemble(cfg, workers)
    assert serial_pool == []


def test_run_trajectory_checks_memory_for_its_one_trajectory(monkeypatch):
    """run_trajectory runs the memory check before any stream is seeded,
    and counts only the trajectory it runs, whatever cfg.trajectories."""
    cfg = SimConfig(homodyne=EXACT_CFG, law=FeedbackLaw(theta_bar=1.2),
                    initial=BlochVector(0.6, 0.0, 0.8), steps=100, delay=50_000)

    def need(n, rows, kept):
        # Per trajectory: a 100-step slab in a row of 104 floats, its
        # generator, the 50 000-slot ring, 33 B per slot for the window's
        # four float64 arrays and its bool mask, the kernel's one float64
        # amplitude pair, two
        # scratch arrays and dn_qf, and the float64 amplitudes and the
        # other kept records of 101 recorded steps; 128 B per cell of a
        # readout block; 160 B per recorded step, and where all 5 records
        # are kept, 16 B per record, recorded step and trajectory.  In the
        # one process, a view of each slot of the ring and of the window's
        # two arrays.
        per = 8 * 104 + 640 + 8 * 50_000 + 33 * 50_000 + 40 + (16 + 8 * (kept - 3)) * 101
        total = n * per + 128 * n * rows + (160 + 16 * n * kept * (kept == 5)) * 101
        return _estimated(total + 3 * 50_000 * trajectory._VIEW_BYTES)

    seed = trajectory.trajectory_seed
    monkeypatch.setattr(trajectory, "trajectory_seed", _never)
    monkeypatch.setattr(trajectory, "_mem_available", lambda: 1 << 20)
    assert need(1, 101, 5) == "estimated 19.2 MB"
    with pytest.raises(ValueError, match=rf"{re.escape(need(1, 101, 5))} .* the 1\.0 MB available"):
        run_trajectory(cfg, 0)
    monkeypatch.setattr(trajectory, "trajectory_seed", seed)
    monkeypatch.setattr(trajectory, "_mem_available", lambda: 64 << 20)
    wide = dataclasses.replace(cfg, trajectories=4096)
    assert run_trajectory(wide, 0).steps[-1] == 100
    assert need(4096, 2, 3) == "estimated 8038.3 MB"
    with pytest.raises(ValueError, match=rf"{re.escape(need(4096, 2, 3))} .* the 64\.0 MB available"):
        run_ensemble(wide)


def _simulate_all(cfg):
    return _simulate(cfg, np.arange(cfg.trajectories))


@pytest.mark.parametrize("run,hom,initial,n,steps,stride,delay", [
    pytest.param(run_ensemble, EXACT_CFG, BlochVector(0.6, 0.0, 0.8), 64, 3000, 1, 3,
                 id="exact-float64"),
    pytest.param(run_ensemble, EXACT_CFG, BlochVector(0.6, 0.0, 0.8), 64, 3000, 1, None,
                 id="exact-float64-law-off"),
    pytest.param(run_ensemble, EXACT_CFG, BlochVector(0.36, 0.48, 0.8), 64, 2500, 1, None,
                 id="exact-complex128-law-off"),
    pytest.param(run_ensemble, EXACT_CFG, BlochVector(0.36, 0.48, 0.8), 64, 2500, 1, 3,
                 id="exact-complex128"),
    pytest.param(run_ensemble, EXACT_CFG, BlochVector(0.6, 0.0, 0.8), 64, 3000, 1, 2500,
                 id="exact-long-delay"),
    pytest.param(run_ensemble, EXACT_CFG, BlochVector(0.36, 0.48, 0.8), 64, 3000, 1, 2500,
                 id="exact-long-delay-complex128"),
    pytest.param(run_ensemble, FO_CFG, BlochVector(0.6, 0.0, 0.8), 4096, 1000, 100, 3,
                 id="first-order"),
    pytest.param(run_ensemble, FO_CFG, BlochVector(0.36, 0.48, 0.8), 4096, 1000, 100, 3,
                 id="first-order-out-of-plane"),
    pytest.param(_simulate_all, dataclasses.replace(EXACT_CFG, gamma_tau=5e-5),
                 BlochVector(0.6, 0.0, 0.8), 64, 20_000, 1, 3, id="simulate-exact-all-records"),
])
def test_memory_estimate_bounds_the_traced_peak(monkeypatch, run, hom, initial, n, steps, stride,
                                                delay):
    """The memory check's estimate is at least what the run allocates:
    the traced peak of a one-worker run stays at or below it (measured
    1.4 MB against 1.9 MB on float64 and 1.6 against 2.1 on complex128,
    and 11.4 and 11.4 against 12.2 and 12.4 for the first-order state of
    two and three columns).  A delay of None runs the law off, where the
    exact kernel holds the same amplitude pair and no window: 1.4 MB
    against 1.9 and 1.6 against 2.1.  At delay 2500 the exact kernel's
    window of drive factors, the ring and their views dominate: 5.9 MB
    against 6.4 on float64 and 6.1 against 6.7 on complex128.  _simulate,
    which keeps every record of its 64 trajectories over 20 000 steps,
    holds each block's copy and their join: 98.7 MB against 102.4."""
    law = FeedbackLaw(theta_bar=1.2) if delay else FeedbackLaw(enabled=False)
    cfg = SimConfig(homodyne=hom, law=law, initial=initial, steps=steps,
                    trajectories=n, delay=delay or 1, record_stride=stride)
    monkeypatch.setattr(trajectory, "_mem_available", lambda: 1)
    with pytest.raises(ValueError, match="estimated") as err:
        run(cfg)
    need_mb = float(re.search(r"estimated (\d+\.\d) MB", str(err.value)).group(1))
    monkeypatch.setattr(trajectory, "_mem_available", lambda: None)
    # A first call fills numpy's one-time caches, which are not the run's.
    run(dataclasses.replace(cfg, steps=2, trajectories=2, record_stride=1))
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The message rounds the estimate up to 0.1 MB.
    assert peak / 2**20 <= need_mb


@pytest.mark.parametrize("run,n,delay,steps", [
    pytest.param(run_ensemble, 2, 10**7, 3, id="ensemble-long-delay"),
    pytest.param(run_ensemble, 2, 1, 10**6, id="ensemble-long-run"),
    pytest.param(run_trajectory, 2, 1, 10**6, id="trajectory-long-run"),
    pytest.param(run_ensemble, 10**7, 1, 3, id="ensemble-wide"),
])
def test_refusal_builds_nothing_the_size_of_the_run(monkeypatch, run, n, delay, steps):
    """Refusing a run costs no memory in proportion to its delay, its
    length or its width: the memory check sizes the kernel's window from
    its shape and counts the recorded steps by arithmetic, and
    run_ensemble lists the recorded steps and the trajectory indices only
    once the check has passed.  Each refusal's traced peak stays under
    1 MB (measured 0.005 MB), where building the window of 10^7 slots
    traced 153 MB, listing 10^6 recorded steps 54 and 46 MB, and 10^7
    trajectory indices 76 MB."""
    hom = dataclasses.replace(EXACT_CFG, gamma_tau=1e-6)
    cfg = SimConfig(homodyne=hom, law=FeedbackLaw(theta_bar=1.2),
                    initial=BlochVector(0.6, 0.0, 0.8), steps=steps, trajectories=n, delay=delay)
    monkeypatch.setattr(trajectory, "trajectory_seed", _never)
    monkeypatch.setattr(trajectory, "_mem_available", lambda: 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="estimated"):
            run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_memory_check_is_skipped_without_meminfo(monkeypatch):
    if pathlib.Path("/proc/meminfo").is_file():
        assert trajectory._mem_available() > 0

    def unreadable(*args, **kwargs):
        raise OSError("no /proc/meminfo")

    monkeypatch.setattr(trajectory, "open", unreadable, raising=False)
    assert trajectory._mem_available() is None
    cfg = SimConfig(homodyne=FO_CFG, steps=5, trajectories=4)
    assert run_ensemble(cfg).n_trajectories == 4


@pytest.mark.parametrize("workers", [1.5, 2.0, "2", True])
def test_nonintegral_workers_are_rejected(workers):
    """A worker count must be an integer: 1.5 must not run one process,
    nor 2.0 two, nor True one."""
    cfg = SimConfig(homodyne=FO_CFG, steps=3, trajectories=4)
    with pytest.raises(ValueError, match="workers must be an int >= 1"):
        run_ensemble(cfg, workers)


SEED_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**70 + 3]
# The last two indices have spawn keys of two 32-bit words.
SEED_INDICES = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 5]


@pytest.mark.parametrize("master", SEED_MASTERS)
def test_generators_seeded_in_one_pass_match_trajectory_seed(master):
    """The seed words hashed for a process's pools in one pass are each
    SeedSequence's generate_state(4, uint64), and the generators built on
    them draw default_rng(trajectory_seed(m, i))'s normals bit for bit."""
    pools = np.array([trajectory_seed(master, i).pool for i in SEED_INDICES])
    words = trajectory._seed_words(pools)
    assert words.dtype == np.uint64 and words.shape == (len(SEED_INDICES), 4)
    for i, w in zip(SEED_INDICES, words):
        assert np.array_equal(w, trajectory_seed(master, i).generate_state(4, np.uint64))
    for i, gen in zip(SEED_INDICES, trajectory._generators(master, SEED_INDICES)):
        want = np.random.default_rng(trajectory_seed(master, i)).standard_normal(1000)
        assert np.array_equal(gen.standard_normal(1000), want)


def test_generators_call_trajectory_seed_once_per_index(monkeypatch):
    """Seeding 1030 indices calls trajectory_seed once per index, in
    order, and every generator starts its own index's stream."""
    calls = []
    seed = trajectory.trajectory_seed
    monkeypatch.setattr(trajectory, "trajectory_seed", lambda m, i: calls.append(i) or seed(m, i))
    indices = np.arange(1030)
    gens = trajectory._generators(901, indices)
    assert calls == list(indices)
    for i, gen in zip(indices, gens):
        want = np.random.default_rng(seed(901, i)).standard_normal(3)
        assert np.array_equal(gen.standard_normal(3), want)


def test_first_order_ensemble_skips_the_unread_ring(monkeypatch):
    """With the law on, a first-order ensemble calls feedback_amplitude
    not once, since its kernel never reads the shift, and its statistics
    are the bits of the full-record run, which fills the ring."""
    cfg = SimConfig(homodyne=FO_CFG, law=FeedbackLaw(theta_bar=1.2),
                    initial=BlochVector(0.6, 0.0, 0.8), steps=40, trajectories=5,
                    master_seed=8, delay=3, record_stride=3)
    _, rec, _ = _simulate(cfg, np.arange(cfg.trajectories))
    assert np.any(rec["shift"] != 0.0)
    calls = []
    amplitude = trajectory.feedback_amplitude
    monkeypatch.setattr(trajectory, "feedback_amplitude",
                        lambda *a: calls.append(None) or amplitude(*a))
    stats = run_ensemble(cfg)
    assert calls == []
    for c, name in enumerate(("sx", "sy", "sz")):
        mean, var = trajectory._row_stats(rec[name])
        assert np.array_equal(stats.mean[:, c], mean)
        assert np.array_equal(stats.var[:, c], var)


@pytest.mark.parametrize("hom,law", [
    pytest.param(EXACT_CFG, FeedbackLaw(enabled=False), id="exact-law-off"),
    pytest.param(FO_CFG, FeedbackLaw(theta_bar=1.2), id="first-order-law-on"),
])
def test_unread_ring_takes_no_memory_per_delay_slot(monkeypatch, hom, law):
    """Where no kernel step and no record reads the shifts, the ring is one
    slot of zeros: at delay 10^5 a run of 16 trajectories is estimated as
    at delay 1, its traced peak stays under 1 MB (measured 0.40 and 0.34
    MB, where a ring of every slot took 12.6 and 12.5 MB), and its
    statistics are those of delay 1."""
    cfg = SimConfig(homodyne=hom, law=law, initial=BlochVector(0.6, 0.0, 0.8), steps=300,
                    trajectories=16, delay=100_000)
    monkeypatch.setattr(trajectory, "_mem_available", lambda: 1)
    estimates = []
    for delay in (1, cfg.delay):
        with pytest.raises(ValueError, match="estimated") as err:
            run_ensemble(dataclasses.replace(cfg, delay=delay))
        estimates.append(str(err.value))
    assert estimates[0] == estimates[1]
    monkeypatch.setattr(trajectory, "_mem_available", lambda: None)
    # A first call fills numpy's one-time caches, which are not the run's.
    run_ensemble(dataclasses.replace(cfg, steps=2))
    tracemalloc.start()
    try:
        stats = run_ensemble(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for x, y in zip(_stats_fields(stats), _stats_fields(run_ensemble(dataclasses.replace(cfg, delay=1)))):
        assert np.array_equal(x, y)


def test_small_ensemble_long_run_memory_stays_near_one_slab(monkeypatch):
    """16 trajectories recorded at each of 10^4 steps (the shape of a
    delay trace): run_ensemble's traced peak stays under 3 MB (measured
    1.4 MB: 1.3 MB of statistics rows, one 256-step slab and a readout of
    its 257 rows), where a slab of the whole run and a readout of 4096
    rows took 9.4 MB.  The memory check's estimate counts the same slab
    and readout, and bounds the peak."""
    law = FeedbackLaw(theta_bar=math.pi / 2)
    cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=law.target, steps=10_000,
                    trajectories=16, delay=20, record_stride=1)
    monkeypatch.setattr(trajectory, "_mem_available", lambda: 1)
    with pytest.raises(ValueError, match="estimated") as err:
        run_ensemble(cfg)
    # Per trajectory: a 256-step slab in a row of 264 floats, its
    # generator, a 20-slot ring, 33 B per slot for the window's four
    # float64 arrays and its bool mask, the kernel's one float64 amplitude
    # pair, two scratch arrays and dn_qf, and the float64 amplitudes of
    # 257 recorded steps;
    # 128 B per cell of a readout block of 257 rows; 160 B per recorded
    # step; a view of each slot of the ring and of the window's two arrays.
    need = (16 * (8 * 264 + 640 + 8 * 20 + 33 * 20 + 40 + 16 * 257) + 128 * 16 * 257
            + 160 * 10_001 + 3 * 20 * trajectory._VIEW_BYTES)
    assert _estimated(need) in str(err.value)
    monkeypatch.setattr(trajectory, "_mem_available", lambda: None)
    # A first call fills numpy's one-time caches, which are not the run's.
    run_ensemble(dataclasses.replace(cfg, steps=2))
    tracemalloc.start()
    try:
        run_ensemble(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20
    assert peak <= need


def test_readout_blocks_keep_the_ensemble_peak_low():
    """The Bloch readout and the reduction run on blocks of 2^13 cells,
    whose temporaries stay small next to the slab's records: a 2000-
    trajectory stabilize run of 512 steps keeps run_ensemble's traced peak
    under 8 MB (measured 6.8 MB; blocks of 2^16 cells with preallocated
    readout buffers read 10.2 MB)."""
    law = FeedbackLaw(theta_bar=math.pi / 2)
    cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=law.target, steps=512,
                    trajectories=2000, record_stride=10)
    # A first call fills numpy's one-time caches, which are not the run's.
    run_ensemble(dataclasses.replace(cfg, steps=2))
    tracemalloc.start()
    try:
        run_ensemble(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


@pytest.mark.parametrize("block,width", [(1, 8), (8, 8), (9, 24), (24, 24), (25, 40),
                                         (209, 216), (256, 264)])
def test_noise_rows_span_an_odd_number_of_cache_lines(block, width):
    """The noise buffer's rows are the slab rounded up to an odd number of
    64-byte lines, the fewest floats that keep a column's elements out of
    each other's cache sets."""
    assert trajectory._slab_width(block) == width
