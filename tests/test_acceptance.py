"""Acceptance gate: the eleven shipping criteria for this package.

Each test prints exactly one summary line, [PASS] or [FAIL] with the
measured numbers, and then asserts.  The line is printed with capture
suspended so it stays visible when pytest output is piped through tee.

Statistical criteria run at fixed seeds; the stated tolerances are part
of the contract and must not be widened to make a seed pass.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from monitored_atom import (
    BlochVector,
    DensityMatrix2,
    FeedbackLaw,
    HomodyneConfig,
    SimConfig,
    UpdateMode,
    bloch_from_state,
    combined_diffusion_step,
    conditioned_update_exact,
    decompose_step,
    feedback_amplitude,
    master_evolve,
    run_ensemble,
    sample_outcome,
    state_from_bloch,
)

ALPHA = 100.0
GAMMA_TAU = 1e-4
EXACT = HomodyneConfig(alpha_mag=ALPHA, gamma_tau=GAMMA_TAU, mode=UpdateMode.EXACT)
FIRST = HomodyneConfig(alpha_mag=ALPHA, gamma_tau=GAMMA_TAU, mode=UpdateMode.FIRST_ORDER)
# The bare first-order step is the combined step with the law off.
OFF = FeedbackLaw(enabled=False)


@pytest.fixture
def report(capfd):
    """One [PASS]/[FAIL] line per criterion, visible through pytest's
    capture (and repeated in the assertion message on failure)."""

    def _report(num, name, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] acceptance criterion {num:02d}: {name}"
        if detail:
            line = f"{line} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def _random_unit_vectors(rng, count):
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_criterion_01_vacuum_outcome_law(report):
    """With no signal the record is Normal(0, alpha^2): mean, variance and
    skewness of 1e5 fixed-seed samples at alpha^2 = 1e4; under 5 s."""
    n = 100_000
    rng = np.random.default_rng(20260822)
    t0 = time.perf_counter()
    samples = np.array([sample_outcome(0.0, EXACT, rng).dn_qf for i in range(n)])
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(samples))
    var = float(np.var(samples, ddof=1))
    centered = samples - mean
    skew = float(np.mean(centered**3) / np.mean(centered**2) ** 1.5)
    mean_tol = 4.0 * ALPHA / math.sqrt(n)
    ok = (
        abs(mean) <= mean_tol
        and abs(var - ALPHA**2) <= 0.03 * ALPHA**2
        and abs(skew) < 0.03
        and elapsed < 5.0
    )
    report(
        1, "vacuum outcome law", ok,
        f"mean={mean:.4f} (tol {mean_tol:.4f}), var={var:.1f} "
        f"(want 1e4 within 3%), skew={skew:.4f} (<0.03), {elapsed:.2f}s",
    )


def test_criterion_02_coherent_mean_shift(report):
    """A coherent signal beta = 0.05 shifts the record mean to
    2*alpha*beta = 10; 1e5 samples, fixed seed, under 5 s."""
    n = 100_000
    beta = 0.05
    shift = 2.0 * ALPHA * beta
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    total = np.array([sample_outcome(shift, EXACT, rng).dn_total for i in range(n)])
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(total))
    tol = 4.0 * ALPHA / math.sqrt(n)
    ok = abs(mean - shift) <= tol and elapsed < 5.0
    report(
        2, "coherent mean shift", ok,
        f"mean={mean:.4f}, want {shift} within {tol:.4f}, {elapsed:.2f}s",
    )


def test_criterion_03_tangency_identity(report):
    """Both the bare and the feedback-combined first-order steps are
    tangent to the sphere: |s . ds| <= 1e-12 over 1e4 random states and
    records up to 5 alpha; under 1 s."""
    rng = np.random.default_rng(42)
    count = 10_000
    v = _random_unit_vectors(rng, count)
    dns = rng.uniform(-5.0 * ALPHA, 5.0 * ALPHA, count)
    thetas = rng.uniform(0.0, math.pi, count)
    worst = 0.0
    t0 = time.perf_counter()
    for (sx, sy, sz), dn, tb in zip(v, dns, thetas):
        s = BlochVector(sx, sy, sz)
        ds = combined_diffusion_step(s, dn, OFF, FIRST)
        dot = sx * ds.sx + sy * ds.sy + sz * ds.sz
        worst = max(worst, abs(dot))
        law = FeedbackLaw(theta_bar=tb)
        dc = combined_diffusion_step(s, dn, law, FIRST)
        dot = sx * dc.sx + sy * dc.sy + sz * dc.sz
        worst = max(worst, abs(dot))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(
        3, "tangency of first-order steps", ok,
        f"max |s.ds|={worst:.3e} (<=1e-12), {elapsed:.2f}s",
    )


def test_criterion_04_special_case_states(report):
    """Ground state frozen, excited state kicked by exactly (2*kappa,0,0),
    dipole eigenstate free of nonlinear back-action; all to 1e-14."""
    worst = 0.0
    for dn in (-5.0 * ALPHA, -123.4, 0.0, 77.7, 5.0 * ALPHA):
        k = FIRST.sqrt_gamma_tau * (dn / ALPHA)
        ground = combined_diffusion_step(BlochVector(0.0, 0.0, -1.0), dn, OFF, FIRST)
        worst = max(worst, abs(ground.sx), abs(ground.sy), abs(ground.sz))
        excited = combined_diffusion_step(BlochVector(0.0, 0.0, 1.0), dn, OFF, FIRST)
        worst = max(
            worst, abs(excited.sx - 2.0 * k), abs(excited.sy), abs(excited.sz)
        )
        for sx in (1.0, -1.0):
            _, nonlinear = decompose_step(BlochVector(sx, 0.0, 0.0), dn, FIRST)
            worst = max(
                worst, abs(nonlinear.sx), abs(nonlinear.sy), abs(nonlinear.sz)
            )
    ok = worst <= 1e-14
    report(4, "special-case states", ok, f"max defect={worst:.3e} (<=1e-14)")


def test_criterion_05_residual_identity(report):
    """The fed-back field cancels all but -cos(theta_bar) of the recorded
    fluctuation: r + f + cos(theta_bar)*r = 0 to 1e-15 over a 1000-point
    sweep of angle and record."""
    worst = 0.0
    for tb in np.linspace(0.0, math.pi, 40):
        law = FeedbackLaw(theta_bar=float(tb))
        for dn in np.linspace(-2.0 * ALPHA, 2.0 * ALPHA, 25):
            r = dn / (2.0 * ALPHA)
            f = feedback_amplitude(float(dn), law, EXACT)
            worst = max(worst, abs(r + f + law.cos_theta_bar * r))
    ok = worst <= 1e-15
    report(5, "feedback residual identity", ok, f"max |residual|={worst:.3e} (<=1e-15)")


def test_criterion_06_first_order_fixed_point(report):
    """Stabilized first-order runs that start on the target stay on it
    exactly: fidelity 1.0 and angle variance 0.0 at every record over
    1e4 steps and 100 trajectories, for five target angles; under 30 s."""
    worst_fid = 1.0
    worst_av = 0.0
    all_exact = True
    t0 = time.perf_counter()
    for tb in (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi):
        law = FeedbackLaw(theta_bar=tb)
        cfg = SimConfig(
            homodyne=FIRST,
            law=law,
            initial=law.target,
            steps=10_000,
            trajectories=100,
            master_seed=808,
            record_stride=1000,
        )
        stats = run_ensemble(cfg)
        worst_fid = min(worst_fid, float(np.min(stats.fidelity)))
        worst_av = max(worst_av, float(np.max(np.abs(stats.angle_var))))
        all_exact = all_exact and bool(
            np.all(stats.fidelity == 1.0) and np.all(stats.angle_var == 0.0)
        )
    elapsed = time.perf_counter() - t0
    ok = all_exact and elapsed < 30.0
    report(
        6, "first-order target is an exact fixed point", ok,
        f"min fidelity={worst_fid!r}, max |angle var|={worst_av!r}, {elapsed:.1f}s",
    )


def test_criterion_07_sz_circle_is_preserved(report):
    """The combined step never moves a state off its target-latitude
    circle: ds_z <= 1e-14 for 1e3 random states with s_z = cos(theta_bar)."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        tb = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        law = FeedbackLaw(theta_bar=tb)
        sz = law.cos_theta_bar
        rad = math.sqrt(max(0.0, 1.0 - sz * sz))
        s = BlochVector(rad * math.cos(phi), rad * math.sin(phi), sz)
        dn = rng.uniform(-5.0 * ALPHA, 5.0 * ALPHA)
        ds = combined_diffusion_step(s, dn, law, FIRST)
        worst = max(worst, abs(ds.sz))
    ok = worst <= 1e-14
    report(7, "target-latitude circle preserved", ok, f"max |ds_z|={worst:.3e} (<=1e-14)")


def test_criterion_08_ensemble_matches_master_equation(report):
    """Law-off exact-mode ensemble means reproduce the closed-form
    amplitude-damping solution within 3 standard errors at every recorded
    step, for six initial states, 1e4 trajectories, gamma*t up to 0.1;
    under 2 min."""
    h = math.sqrt(0.5)
    initials = [
        BlochVector(0.0, 0.0, 1.0),
        BlochVector(0.0, 0.0, -1.0),
        BlochVector(1.0, 0.0, 0.0),
        BlochVector(0.0, 1.0, 0.0),
        BlochVector(h, 0.0, -h),
        BlochVector(-h, 0.0, h),
    ]
    t0 = time.perf_counter()
    worst_sigma = 0.0
    worst_at = ""
    for idx, initial in enumerate(initials):
        cfg = SimConfig(
            homodyne=EXACT,
            law=FeedbackLaw(enabled=False),
            initial=initial,
            steps=1000,
            trajectories=10_000,
            master_seed=20260824 + idx,
            record_stride=50,
        )
        stats = run_ensemble(cfg)
        rho0 = DensityMatrix2(initial.sx, initial.sy, initial.sz)
        for r in range(stats.steps.size):
            want = master_evolve(rho0, float(stats.gamma_t[r]))
            for c, w in enumerate((want.ux, want.uy, want.uz)):
                err = abs(float(stats.mean[r, c]) - w)
                se = float(stats.se[r, c])
                sigma = err / se if se > 0.0 else (0.0 if err == 0.0 else math.inf)
                if sigma > worst_sigma:
                    worst_sigma = sigma
                    worst_at = f"state {idx}, step {int(stats.steps[r])}, comp {c}"
    elapsed = time.perf_counter() - t0
    ok = worst_sigma <= 3.0 and elapsed < 120.0
    report(
        8, "ensemble mean matches the closed-form decay", ok,
        f"worst deviation={worst_sigma:.2f} SE at {worst_at} (<=3), {elapsed:.1f}s",
    )


def test_criterion_09_angle_variance_growth(report):
    """Unfed-back first-order diffusion from the equator: the angle
    variance after n steps equals n*gamma_tau within 10% for
    n*gamma_tau <= 0.01, with 1e4 trajectories."""
    cfg = SimConfig(
        homodyne=FIRST,
        law=FeedbackLaw(enabled=False),
        initial=BlochVector(1.0, 0.0, 0.0),
        steps=100,
        trajectories=10_000,
        master_seed=31337,
        record_stride=10,
    )
    stats = run_ensemble(cfg)
    worst = 0.0
    for r in range(1, stats.steps.size):
        n = float(stats.steps[r])
        ratio = float(stats.angle_var[r]) / (n * GAMMA_TAU)
        worst = max(worst, abs(ratio - 1.0))
    ok = worst <= 0.10
    report(
        9, "angle variance grows by gamma_tau per step", ok,
        f"max |var/(n*gamma_tau) - 1|={worst:.4f} (<=0.10)",
    )


def test_criterion_10_exact_vs_first_order_step(report):
    """One conditioned update in the two formulations differs by at most
    10*gamma_tau per Bloch component over 1e3 random (state, record <=
    3*alpha) pairs."""
    rng = np.random.default_rng(1009)
    v = _random_unit_vectors(rng, 1000)
    dns = rng.uniform(-3.0 * ALPHA, 3.0 * ALPHA, 1000)
    worst = 0.0
    for (sx, sy, sz), dn in zip(v, dns):
        s = BlochVector(sx, sy, sz)
        exact_after = bloch_from_state(
            conditioned_update_exact(state_from_bloch(s), float(dn), EXACT)
        )
        ds = combined_diffusion_step(s, float(dn), OFF, FIRST)
        vx, vy, vz = sx + ds.sx, sy + ds.sy, sz + ds.sz
        nrm = math.sqrt(vx * vx + vy * vy + vz * vz)
        worst = max(
            worst,
            abs(exact_after.sx - vx / nrm),
            abs(exact_after.sy - vy / nrm),
            abs(exact_after.sz - vz / nrm),
        )
    ok = worst <= 10.0 * GAMMA_TAU
    report(
        10, "exact and first-order updates agree", ok,
        f"max component gap={worst:.3e} (<={10.0 * GAMMA_TAU:g})",
    )


def test_criterion_11_cli_byte_reproducibility(report, tmp_path):
    """The same CLI invocation produces byte-identical files regardless of
    repetition or worker count, in both output formats."""
    base = [
        sys.executable, "-m", "monitored_atom",
        "--preset", "decay", "--steps", "100", "--trajectories", "100",
        "--record-stride", "25", "--seed", "321",
    ]
    cases = {
        "csv": ["--format", "csv"],
        "json": ["--format", "json"],
    }
    ok = True
    details = []
    for tag, fmt in cases.items():
        paths = [tmp_path / f"{tag}_{i}.out" for i in range(3)]
        for path, extra in zip(
            paths, ([], [], ["--workers", "4"])
        ):
            proc = subprocess.run(
                base + fmt + ["--out", str(path)] + extra,
                capture_output=True, text=True, timeout=300,
            )
            ok = ok and proc.returncode == 0
        blobs = [p.read_bytes() for p in paths]
        same = blobs[0] == blobs[1] == blobs[2]
        ok = ok and same
        details.append(f"{tag}: {'identical' if same else 'DIFFER'}")
    report(11, "CLI output is byte-reproducible", ok, "; ".join(details))
