"""Command-line runner for trajectory experiments and field tables.

Presets
-------
fig1-field
    Per-unit-kappa first-order diffusion field sampled on a sphere grid.
fig2-field
    Its nonlinear (back-action) part, the field minus the equivalent
    classical rotation.
decay
    Law-off exact-mode ensemble from the equator state (1, 0, 0); the
    mean Bloch vector should follow free decay.
stabilize
    Feedback-on exact-mode ensemble started on the target state.
delay-sweep
    The stabilize experiment repeated over feedback delays, emitting the
    final recorded row per delay; an explicit ``--delay`` is an error.

Explicit flags override preset values, which override the built-in
defaults.  Output is CSV (with one leading ``# config=...`` comment line
embedding the resolved configuration) or JSON (config embedded as a
field); numbers are written with enough digits to reparse bit-exactly.
Identical invocations produce byte-identical output, regardless of
``--workers``.

Exit codes: 0 success, 1 output path not writable, 2 invalid arguments
or configuration.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from itertools import islice
from typing import Mapping

from .state import BlochVector
from .homodyne import HomodyneConfig, _rotation_field, _step_field
from .feedback import FeedbackLaw
from .trajectory import EnsembleStats, SimConfig, _int_at_least, run_ensemble

ENSEMBLE_COLUMNS = [
    "step", "gamma_t",
    "mean_sx", "mean_sy", "mean_sz",
    "se_sx", "se_sy", "se_sz",
    "angle_var", "fidelity", "purity",
]
FIELD_COLUMNS = ["grid_sx", "grid_sy", "grid_sz", "dsx", "dsy", "dsz"]
SWEEP_COLUMNS = ["delay"] + ENSEMBLE_COLUMNS
# Table rows made from the statistics, and rendered, per JSON write.
_EMIT_ROWS = 512
_ROW_BOUNDARY = "\n    ],\n    [\n      "

_BASE: dict[str, object] = {
    "preset": None,
    "mode": "exact",
    "feedback": "off",
    "theta_bar": math.pi,
    "gamma_tau": 1e-4,
    "alpha2": 1e4,
    "steps": 100,
    "trajectories": 100,
    "delay": 1,
    "seed": 1234,
    "initial": None,
    "record_stride": 1,
    "grid_points": 200,
}

# The feedback delays, in intervals, that --preset delay-sweep runs.
SWEEP_DELAYS = (1, 2, 5, 10, 20, 50)

# Named bundles of settings; explicit flags override each entry.
PRESETS: dict[str, dict[str, object]] = {
    "fig1-field": {},
    "fig2-field": {},
    "decay": {
        "mode": "exact",
        "feedback": "off",
        "initial": (1.0, 0.0, 0.0),
        "steps": 1000,
        "trajectories": 1000,
        "record_stride": 10,
    },
    "stabilize": {
        "mode": "exact",
        "feedback": "on",
        "theta_bar": math.pi / 2.0,
        "steps": 1000,
        "trajectories": 1000,
        "record_stride": 10,
    },
    "delay-sweep": {
        "mode": "exact",
        "feedback": "on",
        "theta_bar": math.pi / 2.0,
        "steps": 500,
        "trajectories": 500,
    },
}

def _triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers sx,sy,sz, got {text!r}"
        )
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r} as numbers")
    return (x, y, z)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="monitored-atom",
        description=(
            "Simulate homodyne-monitored trajectories of a decaying two-level "
            "atom, with optional diffusion-cancelling coherent feedback."
        ),
    )
    p.add_argument("--preset", choices=sorted(PRESETS), help="named experiment")
    p.add_argument("--mode", choices=["exact", "first-order"],
                   help="state update rule")
    p.add_argument("--feedback", choices=["on", "off"], help="feedback law switch")
    p.add_argument("--theta-bar", dest="theta_bar", type=float,
                   help="feedback target polar angle in [0, pi]")
    p.add_argument("--gamma-tau", dest="gamma_tau", type=float,
                   help="decay probability per interval")
    p.add_argument("--alpha2", type=float,
                   help="local oscillator photon number |alpha|^2")
    p.add_argument("--steps", type=int, help="measurement intervals per trajectory")
    p.add_argument("--trajectories", type=int, help="ensemble size")
    p.add_argument("--delay", type=int, help="feedback latency in intervals (>= 1)")
    p.add_argument("--seed", type=int, help="master seed for all noise streams")
    p.add_argument("--initial", type=_triple, metavar="SX,SY,SZ",
                   help="initial Bloch vector (default: feedback target, else excited)")
    p.add_argument("--record-stride", dest="record_stride", type=int,
                   help="record every this-many steps")
    p.add_argument("--grid-points", dest="grid_points", type=int,
                   help="sphere grid size for the field presets")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, capped at the available CPUs "
                        "(results are worker-invariant)")
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    return p


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line; argparse exits with code 2 on usage errors."""
    return build_parser().parse_args(argv)


def resolve_settings(ns: argparse.Namespace) -> dict:
    """Layer defaults, preset values, and explicit flags, in that order."""
    if ns.preset == "delay-sweep" and ns.delay is not None:
        raise ValueError(
            "--delay cannot be combined with --preset delay-sweep, which runs "
            "its own delays"
        )
    flags = {k: v for k, v in vars(ns).items() if k in _BASE and v is not None}
    return {**_BASE, **PRESETS.get(ns.preset, {}), **flags}


def _build_sim_config(settings: Mapping[str, object]) -> SimConfig:
    alpha2 = float(settings["alpha2"])
    if not (math.isfinite(alpha2) and alpha2 > 0.0):
        raise ValueError(f"alpha2 must be finite and positive, got {alpha2!r}")
    hom = HomodyneConfig(
        alpha_mag=math.sqrt(alpha2),
        gamma_tau=float(settings["gamma_tau"]),
        mode=settings["mode"],
    )
    law = FeedbackLaw(
        theta_bar=float(settings["theta_bar"]),
        enabled=settings["feedback"] == "on",
    )
    init = settings["initial"]
    if init is None:
        initial = law.target if law.enabled else BlochVector(0.0, 0.0, 1.0)
    else:
        initial = BlochVector(float(init[0]), float(init[1]), float(init[2]))
    return SimConfig(
        homodyne=hom,
        law=law,
        initial=initial,
        steps=int(settings["steps"]),
        trajectories=int(settings["trajectories"]),
        master_seed=int(settings["seed"]),
        delay=int(settings["delay"]),
        record_stride=int(settings["record_stride"]),
    )


def _config_block(settings: Mapping[str, object], cfg: SimConfig) -> dict:
    return dict(
        preset=settings["preset"],
        mode=cfg.homodyne.mode.value,
        feedback="on" if cfg.law.enabled else "off",
        theta_bar=cfg.law.theta_bar,
        gamma_tau=cfg.homodyne.gamma_tau,
        alpha2=cfg.homodyne.alpha_sq,
        initial=[cfg.initial.sx, cfg.initial.sy, cfg.initial.sz],
        steps=cfg.steps,
        trajectories=cfg.trajectories,
        delay=cfg.delay,
        record_stride=cfg.record_stride,
        seed=cfg.master_seed,
    )


def _stats_rows(stats: EnsembleStats, prefix: tuple = (), rows: slice = slice(None)) -> list[list]:
    # The given rows of the table.  Column-wise: tolist() gives the same
    # Python ints and floats as int()/float() per cell, in one call per
    # column.
    steps = stats.steps[rows].tolist()
    columns = [
        steps, stats.gamma_t[rows].tolist(),
        *stats.mean[rows].T.tolist(), *stats.se[rows].T.tolist(),
        [None] * len(steps) if stats.angle_var is None else stats.angle_var[rows].tolist(),
        stats.fidelity[rows].tolist(), stats.purity[rows].tolist(),
    ]
    return [[*prefix, *row] for row in zip(*columns)]


def _table_rows(stats: EnsembleStats):
    # The whole table, made one block of rows at a time as it is written.
    for b in range(0, stats.steps.size, _EMIT_ROWS):
        yield from _stats_rows(stats, rows=slice(b, b + _EMIT_ROWS))


def _sphere_grid(n: int):
    # Fibonacci lattice plus the six axis poles, so the special states
    # (ground, excited, equator) always appear exactly; made point by point.
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for i in range(n):
        z = 1.0 - (2.0 * i + 1.0) / n
        r = math.sqrt(max(0.0, 1.0 - z * z))
        a = golden * i
        yield (r * math.cos(a), r * math.sin(a), z)
    yield from [
        (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
        (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
    ]


def _field_table(settings: Mapping[str, object]):
    # Checked here, before the first row is made or a byte written.
    n = _int_at_least("grid_points", int(settings["grid_points"]), 1)
    nonlinear = settings["preset"] == "fig2-field"

    def rows():
        # The table, made one row at a time as it is written.
        for x, y, z in _sphere_grid(n):
            f = _step_field(x, y, z, -1.0)
            if nonlinear:
                f = [a - b for a, b in zip(f, _rotation_field(x, z))]
            yield [x, y, z, *f]

    return FIELD_COLUMNS, rows(), {"preset": settings["preset"], "grid_points": n}


def _ensemble_table(settings: Mapping[str, object], workers: int):
    cfg = _build_sim_config(settings)
    stats = run_ensemble(cfg, workers)
    return ENSEMBLE_COLUMNS, _table_rows(stats), _config_block(settings, cfg)


def _sweep_table(settings: Mapping[str, object], workers: int):
    rows = []
    for d in SWEEP_DELAYS:
        cfg = _build_sim_config({**settings, "delay": d})
        # Only the last step is printed, so only it is recorded.
        stats = run_ensemble(dataclasses.replace(cfg, record_stride=max(cfg.steps, 1)), workers)
        rows += _stats_rows(stats, prefix=(d,), rows=slice(-1, None))
    config = _config_block(settings, cfg)
    del config["delay"]
    config["delays"] = list(SWEEP_DELAYS)
    return SWEEP_COLUMNS, rows, config


def execute(settings: Mapping[str, object], workers: int = 1):
    """Run the resolved experiment; returns (columns, rows, config).

    ``rows`` is an iterable of table rows, which may be read only once.
    """
    preset = settings["preset"]
    if preset in ("fig1-field", "fig2-field"):
        return _field_table(settings)
    if preset == "delay-sweep":
        return _sweep_table(settings, workers)
    return _ensemble_table(settings, workers)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    # 17 significant digits round-trip any float64 exactly.
    return "%.17g" % v


def _write_csv(f, columns, rows, config) -> None:
    f.write("# config=" + json.dumps(config, separators=(",", ":")) + "\n")
    w = csv.writer(f, lineterminator="\n")
    w.writerow(columns)
    w.writerows([_cell(v) for v in row] for row in rows)


def _write_json(f, columns, rows, config) -> None:
    # The bytes of json.dumps({...}, indent=2) + "\n".  indent switches
    # the C encoder off, so it is kept for the small config and columns
    # only; each block of rows takes one C-encoder pass that puts each cell
    # on its own indented line, then the row boundaries are rewritten.
    # Cells are numbers or null, so "],\n      [" can only be a boundary.
    head = json.dumps({"config": config, "columns": columns}, indent=2)
    f.write(head[:-2] + ',\n  "rows": ')
    rows = iter(rows)
    lead = "[\n    [\n      "
    while block := list(islice(rows, _EMIT_ROWS)):
        body = json.dumps(block, separators=(",\n      ", ": "))
        f.write(lead + body[2:-2].replace("],\n      [", _ROW_BOUNDARY))
        lead = _ROW_BOUNDARY
    f.write("\n    ]\n  ]\n}\n" if lead == _ROW_BOUNDARY else "[]\n}\n")


def emit_results(columns, rows, config, out: str = "-", fmt: str = "csv") -> None:
    """Write the result table to ``out`` ("-" for stdout).

    ``rows`` may be any iterable of rows.  The text is written in blocks
    of rows as it is rendered, so it never exists whole.  Raises OSError
    if the path cannot be written.
    """
    write = {"csv": _write_csv, "json": _write_json}.get(fmt)
    if write is None:
        raise ValueError(f"unknown format {fmt!r}")
    if out == "-":
        write(sys.stdout, columns, rows, config)
    else:
        with open(out, "w", encoding="utf-8", newline="") as f:
            write(f, columns, rows, config)


def main(argv=None) -> int:
    try:
        ns = parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if ns.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {ns.workers!r}")
        settings = resolve_settings(ns)
        columns, rows, config = execute(settings, ns.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        emit_results(columns, rows, config, ns.out, ns.format)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0
