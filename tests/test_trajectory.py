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

import numpy as np
import pytest

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
from monitored_atom.homodyne import _drive
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
        steps=100,
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
    ],
)
def test_golden_trajectory_bitwise(mode, fname):
    """The noise-to-record mapping is pinned bit for bit, with the feedback
    law off and, at theta_bar = pi/3 and delay 2, on; the out-of-plane
    start (theta_bar = 1.2) pins the complex-amplitude path."""
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
    monkeypatch.setattr(trajectory.multiprocessing, "get_context", lambda method=None: stub)
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


@pytest.mark.parametrize("hom,law,delay", [
    pytest.param(EXACT_CFG, FeedbackLaw(enabled=False), 1, id="exact-off"),
    pytest.param(EXACT_CFG, FeedbackLaw(theta_bar=math.pi / 3.0), 3, id="exact-on"),
    pytest.param(FO_CFG, FeedbackLaw(theta_bar=math.pi / 3.0), 3, id="first-order-on"),
])
def test_single_trajectory_matches_its_ensemble_column(hom, law, delay):
    """Membership in a larger batch must not change a trajectory."""
    cfg = SimConfig(
        homodyne=hom, law=law, initial=BlochVector(1.0, 0.0, 0.0),
        steps=40, trajectories=7, master_seed=2718, delay=delay, record_stride=5,
    )
    _, rec, _ = _simulate(cfg, np.arange(cfg.trajectories))
    sent = []

    def send(part):
        sent.append(None if part is None else tuple(a.copy() for a in part))

    trajectory._simulate_chunk(cfg, np.arange(cfg.trajectories), 15, 2, send)
    # A worker sends exactly the Bloch records, as the full run has them,
    # in blocks of 2 rows that end with each slab of 15 steps (rows 0-3,
    # 4-6 and 7-8), and then its end marker.
    assert sent[-1] is None
    assert [len(p[0]) for p in sent[:-1]] == [2, 2, 2, 1, 2]
    for name, rows in zip(("sx", "sy", "sz"), zip(*sent[:-1])):
        assert np.array_equal(np.concatenate(rows), rec[name])
    for i in (0, 3, 6):
        single = run_trajectory(cfg, i)
        for c, name in enumerate(("sx", "sy", "sz")):
            assert np.array_equal(single.bloch[:, c], rec[name][:, i])
        assert np.array_equal(single.dn_qf, rec["dn_qf"][:, i])
        assert np.array_equal(single.shift, rec["shift"][:, i])
        assert np.array_equal(single.dn_total, rec["dn_qf"][:, i] + rec["shift"][:, i])


@pytest.mark.parametrize("vectors", [
    pytest.param([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.6, 0.0, 0.8), (-0.8, 0.0, -0.6),
                  (1.0, 0.0, 0.0)], id="float64"),
    pytest.param([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.36, 0.48, 0.8), (-0.48, -0.36, -0.8),
                  (0.6, -0.8, 0.0)], id="complex128"),
])
def test_exact_readout_is_bloch_from_state(vectors):
    """The exact kernel's block readout writes bloch_from_state's bits into
    the buffers it is handed, on the real amplitudes an in-plane start runs
    on and on complex ones, the excited and ground states included."""
    states = [state_from_bloch(BlochVector(*v)) for v in vectors]
    cfg = SimConfig(homodyne=EXACT_CFG, initial=BlochVector(*vectors[-1]), steps=1)
    start, _, bloch, _ = trajectory._exact_kernel(cfg, len(states))
    amps = tuple(np.array([getattr(psi, c) for psi in states]) for c in ("c_e", "c_g"))
    if start[0].dtype == np.float64:
        assert not any(np.any(a.imag) for a in amps)
        amps = tuple(a.real.copy() for a in amps)
    assert all(a.dtype == c.dtype for a, c in zip(amps, start))
    out = tuple(np.full(len(states), np.nan) for _ in range(3))
    got = bloch(amps, out)
    assert all(g is o for g, o in zip(got, out))
    want = np.array([bloch_from_state(psi).as_tuple() for psi in states]).T
    assert np.array(got).tobytes() == want.tobytes()


def test_first_order_readout_hands_on_its_own_rows():
    """The first-order state is the Bloch vector: its readout returns the
    state rows themselves and leaves the buffers it is handed untouched."""
    cfg = SimConfig(homodyne=FO_CFG, initial=BlochVector(0.6, 0.0, 0.8), steps=1)
    start, _, bloch, _ = trajectory._first_order_kernel(cfg, 4)
    out = tuple(np.full(4, np.nan) for _ in range(3))
    got = bloch(start, out)
    assert len(got) == 3
    assert all(np.shares_memory(g, s) for g, s in zip(got, start))
    assert all(np.isnan(o).all() for o in out)


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
])
def test_real_amplitudes_match_their_complex_copies(law, initial):
    """In-plane starts run the exact step on float64 amplitudes.  The same
    start cast to complex128 must give the same bits with zero imaginary
    parts, so the dtype never shows in the output."""
    cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=initial, steps=200, trajectories=6)
    n = cfg.trajectories
    real, step, bloch, _ = trajectory._exact_kernel(cfg, n)
    assert [c.dtype for c in real] == [np.float64, np.float64]
    oop = SimConfig(homodyne=EXACT_CFG, law=law, initial=BlochVector(0.36, 0.48, 0.8))
    assert [c.dtype for c in trajectory._exact_kernel(oop, n)[0]] == [np.complex128] * 2
    cplx = tuple(c.astype(np.complex128) for c in real)
    rng = np.random.default_rng(77)
    xi = rng.standard_normal((cfg.steps, n))
    # Shifts on the scale of fed-back records, 2*alpha*feedback_amplitude.
    shifts = 200.0 * rng.standard_normal((cfg.steps, n))
    for k in range(cfg.steps):
        real, dn_real = step(real, shifts[k], EXACT_CFG.alpha_mag * xi[k])
        cplx, dn_cplx = step(cplx, shifts[k], EXACT_CFG.alpha_mag * xi[k])
        assert np.array_equal(dn_real, dn_cplx)
        for r, c in zip(real, cplx):
            assert r.dtype == np.float64
            assert np.array_equal(c.real, r)
            assert np.all(c.imag == 0.0)
        out_real, out_cplx = (tuple(np.empty(n) for _ in range(3)) for _ in range(2))
        for r, c in zip(bloch(real, out_real), bloch(cplx, out_cplx)):
            assert np.array_equal(r, c)


@pytest.mark.parametrize("mode", [UpdateMode.EXACT, UpdateMode.FIRST_ORDER])
def test_step_trajectory_agrees_with_kernel(mode):
    """The scalar cycle and the vectorized kernel are independent routes
    through the same update; they share the noise stream and must land on
    the same states to rounding."""
    law = FeedbackLaw(theta_bar=math.pi / 3.0)
    hom = HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4, mode=mode)
    initial = law.target
    steps = 30
    cfg = SimConfig(
        homodyne=hom, law=law, initial=initial,
        steps=steps, trajectories=1, master_seed=55, delay=2, record_stride=1,
    )
    kernel = run_trajectory(cfg, 0)

    from monitored_atom import state_from_bloch

    psi = state_from_bloch(initial)
    fb = FeedbackState((0.0,) * cfg.delay)
    rng = np.random.default_rng(trajectory_seed(cfg.master_seed, 0))
    for k in range(steps):
        psi, fb, out = step_trajectory(psi, fb, cfg, rng)
        s = bloch_from_state(psi)
        assert np.allclose(
            [s.sx, s.sy, s.sz], kernel.bloch[k + 1], rtol=0.0, atol=2e-11
        )
        assert math.isclose(out.dn_qf, kernel.dn_qf[k + 1], rel_tol=0.0, abs_tol=1e-8)
        assert math.isclose(out.shift, kernel.shift[k + 1], rel_tol=0.0, abs_tol=1e-8)


def test_step_trajectory_rejects_a_queue_of_another_delay():
    """A queue shorter than cfg.delay would apply each shift early."""
    cfg = SimConfig(homodyne=EXACT_CFG, law=FeedbackLaw(theta_bar=1.0), steps=5, delay=3)
    with pytest.raises(ValueError, match="delay"):
        step_trajectory(PureState(1.0, 0.0), FeedbackState(), cfg, np.random.default_rng(0))


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


@pytest.mark.parametrize("delay", [1, 3, 15])
@pytest.mark.parametrize("hom", [EXACT_CFG, FO_CFG], ids=["exact", "first-order"])
def test_delay_queue_shifts_arrive_late(hom, delay):
    """With delay d the shift applied at step k is exactly the feedback
    field called for by the fluctuation recorded at step k - d; a delay
    longer than the run (15 > 12 steps) never delivers one."""
    steps = 12
    law = FeedbackLaw(theta_bar=math.pi / 3.0)
    cfg = SimConfig(
        homodyne=hom, law=law, initial=law.target,
        steps=steps, trajectories=1, master_seed=77, delay=delay, record_stride=1,
    )
    rec = run_trajectory(cfg, 0)
    # rows are steps 0..12; shifts are zero until the queue fills
    for k in range(1, min(delay, steps) + 1):
        assert rec.shift[k] == 0.0
    for k in range(delay + 1, steps + 1):
        want = (2.0 * hom.alpha_mag) * feedback_amplitude(rec.dn_qf[k - delay], law, hom)
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
        start, step, bloch, _ = trajectory._exact_kernel(cfg, nodes.size)
        state, _ = step(start, np.zeros(nodes.size), hom.alpha_mag * nodes)
        out = tuple(np.empty(nodes.size) for _ in range(3))
        mean = np.array([weights @ c for c in bloch(state, out)])
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
        start, step, bloch, _ = trajectory._exact_kernel(cfg, nodes.size)
        state, dn_qf = step(start, np.zeros(nodes.size), hom.alpha_mag * nodes)
        shift = (2.0 * hom.alpha_mag) * feedback_amplitude(dn_qf, law, hom)
        state = _drive(*state, shift, hom)
        out = tuple(np.empty(nodes.size) for _ in range(3))
        mean = np.array([weights @ c for c in bloch(state, out)])
        want = _feedback_master_evolve(initial, law.cos_theta_bar, gt)
        defects.append(np.max(np.abs(mean - want)))
    order = np.polyfit(np.log(gts), np.log(defects), 1)[0]
    assert order >= 1.9
    assert max(d / gt**2 for d, gt in zip(defects, gts)) <= 2.0


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
        state, dn_qf = step(state, np.zeros(x1.size), hom.alpha_mag * x1)
        shift = (2.0 * hom.alpha_mag) * feedback_amplitude(dn_qf, law, hom)
        state, _ = step(state, shift, hom.alpha_mag * x2)
        sx, sy, sz = bloch(state, tuple(np.empty(x1.size) for _ in range(3)))
        defect = w @ (((sx - t.sx) ** 2 + (sy - t.sy) ** 2 + (sz - t.sz) ** 2) / 4.0)
        ratio = defect / (gt * (1.0 + law.cos_theta_bar) ** 2 / 4.0)
        assert abs(ratio - 1.0) <= 0.03, (gt, ratio)


@pytest.mark.parametrize("theta_bar,intercept_tol", [
    (math.pi / 3.0, None), (math.pi / 2.0, 0.10), (2.0 * math.pi / 3.0, None),
], ids=["pi/3", "pi/2", "2pi/3"])
def test_fidelity_defect_grows_linearly_with_the_delay(theta_bar, intercept_tol):
    """Delay-law oracle.  Started on the target, each record's kick of angle
    variance (1 + cos(theta_bar))^2 gamma_tau is undone d intervals later,
    so d kicks are pending at any step and the stationary fidelity defect
    is d (1 + cos(theta_bar))^2 gamma_tau / 4.  The drift of the feedback
    master equation along the circle, first order in time at the angular
    rate gamma sin(theta_bar) cos(theta_bar) / 2, adds the same excess at
    every delay (largest at 2 pi / 3), so the slope
    [defect(d) - defect(1)] / (d - 1) is gated at every angle, within 5%
    plus 3 SE of the per-trajectory differences (the runs share their
    noise streams), and the value at d = 1 only at pi / 2, where the drift
    vanishes.  gamma_t stays at 0.02, where that drift is still small."""
    law = FeedbackLaw(theta_bar=theta_bar)
    t = law.target
    unit = (1.0 + law.cos_theta_bar) ** 2 * EXACT_CFG.gamma_tau / 4.0
    n = 2000
    defect = {}
    for d in (1, 2, 5, 20):
        cfg = SimConfig(homodyne=EXACT_CFG, law=law, initial=t, steps=200, trajectories=n,
                        master_seed=77, delay=d, record_stride=200)
        _, rec, _ = _simulate(cfg, np.arange(n))
        # 1 - fidelity of each trajectory at the last step.
        defect[d] = ((rec["sx"][-1] - t.sx) ** 2 + (rec["sy"][-1] - t.sy) ** 2
                     + (rec["sz"][-1] - t.sz) ** 2) / 4.0
    for d in (2, 5, 20):
        slope = (defect[d] - defect[1]) / (d - 1)
        se = np.std(slope, ddof=1) / math.sqrt(n)
        assert abs(np.mean(slope) - unit) <= 0.05 * unit + 3.0 * se, (d, np.mean(slope) / unit)
    if intercept_tol is not None:
        assert abs(np.mean(defect[1]) / unit - 1.0) <= intercept_tol


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

        def step_or_fail(state, shift, noise):
            # Only the second chunk, of 3 trajectories, fails, in its 4th slab.
            calls.append(None)
            if n == 3 and len(calls) == 11:
                if dies:
                    os._exit(7)
                raise FloatingPointError("kernel failed at step 10 of the second chunk")
            return step(state, shift, noise)

        return start, step_or_fail, bloch, final

    monkeypatch.setattr(trajectory, "_first_order_kernel", failing_kernel)
    cfg = SimConfig(homodyne=FO_CFG, initial=BlochVector(1.0, 0.0, 0.0), steps=30,
                    trajectories=7, master_seed=3)
    error, text = (RuntimeError, "exited with code 7") if dies else (
        FloatingPointError, "kernel failed at step 10 of the second chunk")
    with pytest.raises(error, match=text):
        run_ensemble(cfg, workers=2)
    assert multiprocessing.active_children() == []


def _never(*args, **kwargs):
    raise AssertionError("called before the memory check")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("initial,amp_bytes", [
    pytest.param(BlochVector(0.6, 0.0, 0.8), 16, id="float64"),
    pytest.param(BlochVector(0.36, 0.48, 0.8), 32, id="complex128"),
])
def test_memory_check_runs_before_any_draw_or_fork(monkeypatch, serial_pool, initial, amp_bytes,
                                                    workers):
    """A run whose estimated peak exceeds the available memory is refused
    with the estimate in MB, before any stream is seeded or worker started."""
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(trajectory, "trajectory_seed", _never)
    monkeypatch.setattr(trajectory, "_mem_available", lambda: 1 << 20)
    cfg = SimConfig(homodyne=EXACT_CFG, law=FeedbackLaw(theta_bar=1.2), initial=initial,
                    steps=1000, trajectories=4096, delay=3)
    # Every process draws slabs of 256 steps (the step cap, below the 512
    # and 1024 that 16 MB would allow), whose first reaches 257 recorded
    # rows (step 0 too).
    sizes = [4096] if workers == 1 else [2048, 2048]
    # Per process: the noise slab, in rows padded to 264 floats, 640 B of
    # generator and 24 B of ring per trajectory, and the amplitudes of the
    # slab's recorded cells.
    need = sum(n * (8 * 264 + 640 + 24 + amp_bytes * 257) for n in sizes)
    # Per cell of a block of 2^16 // 4096 = 16 recorded rows: 128 B, and
    # 120 B more in a pool; then the statistics of the 1001 recorded steps.
    need += (128 if workers == 1 else 248) * 4096 * 16 + 160 * 1001
    with pytest.raises(ValueError, match=rf"estimated {need / 2**20:.0f} MB .* the 1 MB available"):
        run_ensemble(cfg, workers)
    assert serial_pool == []


@pytest.mark.parametrize("hom,initial,n,steps,stride", [
    pytest.param(EXACT_CFG, BlochVector(0.6, 0.0, 0.8), 64, 3000, 1, id="exact-float64"),
    pytest.param(EXACT_CFG, BlochVector(0.36, 0.48, 0.8), 64, 2500, 1, id="exact-complex128"),
    pytest.param(FO_CFG, BlochVector(0.6, 0.0, 0.8), 4096, 1000, 100, id="first-order"),
])
def test_memory_estimate_bounds_the_traced_peak(monkeypatch, hom, initial, n, steps, stride):
    """The memory check's estimate is at least what the run allocates:
    the traced peak of a one-worker run stays at or below it (measured
    15.2 MB against 22 MB, 12.5 against 21 and 21.1 against 24)."""
    law = FeedbackLaw(theta_bar=1.2)
    cfg = SimConfig(homodyne=hom, law=law, initial=initial, steps=steps,
                    trajectories=n, delay=3, record_stride=stride)
    monkeypatch.setattr(trajectory, "_mem_available", lambda: 1)
    with pytest.raises(ValueError, match="estimated") as err:
        run_ensemble(cfg)
    need_mb = float(re.search(r"estimated (\d+) MB", str(err.value)).group(1))
    monkeypatch.setattr(trajectory, "_mem_available", lambda: None)
    # A first call fills numpy's one-time caches, which are not the run's.
    run_ensemble(dataclasses.replace(cfg, steps=2, trajectories=2, record_stride=1))
    tracemalloc.start()
    try:
        run_ensemble(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The message rounds the estimate to whole MB.
    assert peak / 2**20 <= need_mb + 0.5


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
    """The seed words hashed for a chunk of pools in one pass are each
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


def test_generators_cross_a_seed_chunk_boundary(monkeypatch):
    """Seeding 1030 indices takes two chunks, of 1024 and 6; every
    generator on either side of the boundary starts its own stream, and
    trajectory_seed is called once per index."""
    assert trajectory._SEED_CHUNK == 1024
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
    # generator, a 20-slot ring and the float64 amplitudes of 257 recorded
    # steps; 128 B per cell of a readout block of 257 rows; 160 B per
    # recorded step.
    need = 16 * (8 * 264 + 640 + 8 * 20 + 16 * 257) + 128 * 16 * 257 + 160 * 10_001
    assert f"estimated {need / 2**20:.0f} MB" in str(err.value)
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


@pytest.mark.parametrize("block,width", [(1, 8), (8, 8), (9, 24), (24, 24), (25, 40),
                                         (209, 216), (256, 264)])
def test_noise_rows_span_an_odd_number_of_cache_lines(block, width):
    """The noise buffer's rows are the slab rounded up to an odd number of
    64-byte lines, the fewest floats that keep a column's elements out of
    each other's cache sets."""
    assert trajectory._slab_width(block) == width
