"""The benchmark's workloads and the checks every operation's output must pass.

Each workload is one ``monitored-atom`` command line.  All of them keep the
CLI defaults gamma*tau = 1e-4 and alpha^2 = 1e4, and each loads the
program's layers differently; ``why`` records the reason it was chosen.
The two mode x law combinations no workload names (exact with the law off,
first-order with it on) run subsets of the code paths covered here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    flags: tuple[str, ...]
    # Replacement values for the size flags in the tiny smoke mode.
    smoke: dict[str, str]
    # Extra checks on the parsed table: (rows as column -> value, settings)
    # -> problems.
    check: Callable[[list[dict], dict], list[str]] = field(repr=False)

    def argv(self, seed: int, smoke: bool = False) -> list[str]:
        flags = list(self.flags)
        if smoke:
            for flag, value in self.smoke.items():
                flags[flags.index(flag) + 1] = value
        return flags + ["--seed", str(seed)]


def _stabilized(rows, settings):
    problems = []
    for r in rows:
        if r["mean_sy"] != 0.0:
            problems.append(f"step {r['step']}: mean_sy = {r['mean_sy']!r}, not exactly 0")
        if not r["fidelity"] >= 0.999:
            problems.append(f"step {r['step']}: fidelity {r['fidelity']!r} < 0.999")
    return problems


def _diffusion_law(rows, settings):
    # Criterion 9: the polar-angle variance grows as n * gamma_tau.
    expected = 100 * float(settings["gamma_tau"])
    at_100 = [r["angle_var"] for r in rows if r["step"] == 100]
    if not at_100:
        return ["step 100 was not recorded"]
    if at_100[0] is None or not abs(at_100[0] - expected) <= 0.1 * expected:
        return [f"angle_var at step 100 is {at_100[0]!r}, not within 10% of {expected!r}"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stabilize-exact",
            "the paper's headline feedback experiment at a size where the "
            "vectorised exact kernel dominates; 1 worker, CSV",
            ("--preset", "stabilize", "--trajectories", "2000", "--steps", "2000"),
            {"--trajectories": "200", "--steps": "200"},
            _stabilized,
        ),
        Workload(
            "diffuse-wide",
            "wide first-order free diffusion on 2 workers: noise draw, memory, "
            "process pool and reduction dominate; feedback and exact kernel bypassed",
            ("--mode", "first-order", "--feedback", "off", "--initial", "1,0,0",
             "--trajectories", "20000", "--steps", "1000", "--record-stride", "100",
             "--workers", "2"),
            {"--trajectories": "4000", "--steps": "200"},
            _diffusion_law,
        ),
        Workload(
            "trace-delay",
            "16 trajectories recorded every step with a 20-slot feedback delay: "
            "per-step call overhead and JSON rendering dominate",
            ("--preset", "stabilize", "--trajectories", "16", "--steps", "10000",
             "--record-stride", "1", "--delay", "20", "--format", "json"),
            {"--steps": "500"},
            lambda rows, settings: [],
        ),
    )
}


def expected_rows(settings: dict) -> int:
    steps, stride = int(settings["steps"]), int(settings["record_stride"])
    return len(range(0, steps + 1, stride)) + (steps % stride != 0)


def parse_table(data: bytes, fmt: str) -> tuple[list[str], list[list]]:
    """Columns and rows of one CLI output, empty CSV cells read as None."""
    text = data.decode("utf-8")
    if fmt == "json":
        blob = json.loads(text)
        return blob["columns"], blob["rows"]
    first, _, body = text.partition("\n")
    if not first.startswith("# config="):
        raise ValueError("CSV output does not start with its '# config=' line")
    json.loads(first[len("# config="):])
    columns, *rows = csv.reader(body.splitlines())
    return columns, [[None if c == "" else float(c) for c in row] for row in rows]


def check_output(workload: Workload, data: bytes, settings: dict, fmt: str) -> list[str]:
    """Problems with one output; an empty list means it passed."""
    try:
        columns, rows = parse_table(data, fmt)
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return [f"output does not parse: {exc}"]
    problems = []
    if len(rows) != expected_rows(settings):
        problems.append(f"{len(rows)} rows, expected {expected_rows(settings)}")
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            return problems + [f"row {i} has {len(row)} cells for {len(columns)} columns"]
        if not all(v is None or (isinstance(v, (int, float)) and math.isfinite(v)) for v in row):
            problems.append(f"row {i} has a non-finite or non-numeric cell")
    if problems:
        return problems
    return workload.check([dict(zip(columns, row)) for row in rows], settings)
