"""Write the golden files in this directory from the package on the import path.

    PYTHONPATH=src python tests/data/write_goldens.py [OUT_DIR]

Writes the six trajectory goldens (``golden_*.json``, read by
``test_golden_trajectory_bitwise``), the scalar reference's golden
(``golden_step_trajectory.json``, read by
``test_step_trajectory_golden_bitwise``) and the two CLI byte goldens
(``cli_*.json``, read by ``test_json_output_matches_byte_golden``) into
OUT_DIR, by default the directory holding this script, in the layouts the
tests read.  The goldens pin behaviour bit for bit: rewrite them only for
an intended change of the output bits, never to make a failing test pass,
and compare the old and new files before committing them.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import numpy as np

from monitored_atom import (
    BlochVector,
    FeedbackLaw,
    FeedbackState,
    HomodyneConfig,
    SimConfig,
    UpdateMode,
    run_trajectory,
    state_from_bloch,
    step_trajectory,
    trajectory_seed,
)
from monitored_atom import cli

SEED = 20260822
# (file, mode, start, theta_bar and delay when the law is on, steps).  The
# long-delay file's 300-step feedback windows straddle the 256-step noise
# slabs, and its 700 steps end partway through a window.
TRAJECTORIES = (
    ("golden_exact.json", UpdateMode.EXACT, (1.0, 0.0, 0.0), None, 100),
    ("golden_first_order.json", UpdateMode.FIRST_ORDER, (1.0, 0.0, 0.0), None, 100),
    ("golden_exact_feedback.json", UpdateMode.EXACT, None, (math.pi / 3.0, 2), 100),
    ("golden_first_order_feedback.json", UpdateMode.FIRST_ORDER, None, (math.pi / 3.0, 2), 100),
    ("golden_exact_out_of_plane.json", UpdateMode.EXACT, (0.36, 0.48, 0.8), (1.2, 2), 100),
    ("golden_exact_long_delay.json", UpdateMode.EXACT, None, (math.pi / 3.0, 300), 700),
)
# The scalar reference's runs: exact mode, law on at delay 2, from the
# in-plane target at theta_bar = pi/3 (float64 amplitudes in the kernel)
# and from an out-of-plane start at theta_bar = 1.2 (complex128).
STEP_TRAJECTORY_FILE = "golden_step_trajectory.json"
STEP_TRAJECTORY_RUNS = ((math.pi / 3.0, None), (1.2, (0.36, 0.48, 0.8)))
STEP_TRAJECTORY_STEPS = 300
# (file, CLI arguments before --format json)
CLI_RUNS = (
    ("cli_stabilize_delay3.json",
     ("--preset", "stabilize", "--trajectories", "4", "--steps", "40",
      "--delay", "3", "--record-stride", "1")),
    ("cli_out_of_plane_law_off.json",
     ("--initial", "0.36,0.48,0.8", "--trajectories", "4", "--steps", "40")),
)


def trajectory_golden(mode, initial, law_on, steps) -> str:
    law = FeedbackLaw(theta_bar=law_on[0]) if law_on else FeedbackLaw(enabled=False)
    start = BlochVector(*initial) if initial else law.target
    cfg = SimConfig(
        homodyne=HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4, mode=mode),
        law=law, initial=start, steps=steps, trajectories=1, master_seed=SEED,
        delay=law_on[1] if law_on else 1, record_stride=1,
    )
    config = {
        "mode": mode.value,
        "alpha2": 10000.0,
        "gamma_tau": 1e-4,
        "feedback": "on" if law_on else "off",
        "initial": list(start.as_tuple()),
        "steps": steps,
        "master_seed": SEED,
        "trajectory_index": 0,
    }
    if law_on:
        config.update(theta_bar=law.theta_bar, delay=cfg.delay)
    rec = run_trajectory(cfg, 0)
    psi = rec.final_state
    blob = {
        "config": config,
        "steps": [int(k) for k in rec.steps],
        "bloch": rec.bloch.tolist(),
        "dn_qf": rec.dn_qf.tolist(),
        "dn_total": rec.dn_total.tolist(),
        "shift": rec.shift.tolist(),
        "final_c_e": [psi.c_e.real, psi.c_e.imag],
        "final_c_g": [psi.c_g.real, psi.c_g.imag],
    }
    return json.dumps(blob, indent=1) + "\n"


def step_trajectory_golden() -> str:
    runs = []
    for theta_bar, initial in STEP_TRAJECTORY_RUNS:
        law = FeedbackLaw(theta_bar=theta_bar)
        start = BlochVector(*initial) if initial else law.target
        cfg = SimConfig(
            homodyne=HomodyneConfig(alpha_mag=100.0, gamma_tau=1e-4, mode=UpdateMode.EXACT),
            law=law, initial=start, steps=STEP_TRAJECTORY_STEPS, trajectories=1,
            master_seed=SEED, delay=2,
        )
        psi, fb = state_from_bloch(start), FeedbackState((0.0,) * cfg.delay)
        rng = np.random.default_rng(trajectory_seed(SEED, 0))
        run = {"theta_bar": theta_bar, "initial": list(start.as_tuple()),
               "c_e": [], "c_g": [], "dn_qf": [], "shift": []}
        for _ in range(cfg.steps):
            psi, fb, out = step_trajectory(psi, fb, cfg, rng)
            run["c_e"].append([psi.c_e.real, psi.c_e.imag])
            run["c_g"].append([psi.c_g.real, psi.c_g.imag])
            run["dn_qf"].append(float(out.dn_qf))
            run["shift"].append(float(out.shift))
        runs.append(run)
    config = {"mode": "exact", "alpha2": 10000.0, "gamma_tau": 1e-4, "delay": 2,
              "steps": STEP_TRAJECTORY_STEPS, "master_seed": SEED, "trajectory_index": 0}
    return json.dumps({"config": config, "runs": runs}, indent=1) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).parent
    out.mkdir(parents=True, exist_ok=True)
    for fname, mode, initial, law_on, steps in TRAJECTORIES:
        (out / fname).write_text(trajectory_golden(mode, initial, law_on, steps))
    (out / STEP_TRAJECTORY_FILE).write_text(step_trajectory_golden())
    for fname, args in CLI_RUNS:
        rc = cli.main([*args, "--format", "json", "--out", str(out / fname)])
        if rc != 0:
            raise RuntimeError(f"the CLI run for {fname} exited {rc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
