#!/usr/bin/env python3
"""Benchmark of the ``monitored-atom`` command line.

Runs one workload (see ``workloads.py``) closed-loop, one operation at a
time: an operation is one in-process ``monitored_atom.cli.main(argv)``
call, which parses, simulates and writes its table to a file in a scratch
directory under ``bench/.work``.  The program is imported from ``src/``
next to this directory; without it the benchmark exits with code 2.

    python3 bench/run.py --workload stabilize-exact --seed 1234 --seconds 30 --trace 0

``--trace 0`` runs operations for ``--seconds`` and reports the
end-to-end metrics; every third one runs in a fresh interpreter, which
gives the set-up time and peak RSS.  ``--trace 1`` runs rounds of one untraced operation,
one traced at 1 worker and one traced at 2 workers, and reports the
per-layer metrics.  Every operation's output must be byte-identical to a
1-worker reference run made in a fresh interpreter, and that reference
must pass the workload's checks; an operation that raises, returns
non-zero or fails a check counts as failed.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details and the environment.  Exit code 0 when every operation
passed, 1 when one failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, patched
from workloads import WORKLOADS, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "traj_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "cli.execute_s": "s",
    "cli.emit_s": "s",
    "cli.emit_bytes": "count",
    "cli.emit_mb_per_s": "MB/s",
    "cli.main_self_s": "s",
    "trajectory.run_ensemble_s": "s",
    "trajectory.traj_steps": "count",
    "trajectory.self_s": "s",
    "trajectory.seed_calls": "count",
    "trajectory.seed_s": "s",
    "trajectory.noise_bytes": "count",
    "trajectory.record_bytes": "count",
    "trajectory.pool_speedup": "ratio",
    "trajectory.pool_transfer_bytes": "count",
    "trajectory.worker_rss_mb": "MB",
    "trajectory.run_trajectory_us_per_step": "us",
    "feedback.amplitude_calls": "count",
    "feedback.amplitude_s": "s",
    "homodyne.record_mean_calls": "count",
    "homodyne.record_mean_s": "s",
    "homodyne.step_field_calls": "count",
    "homodyne.step_field_s": "s",
    "trace.overhead_frac": "ratio",
}

# (module, attribute looked up at call time, span name).  cli.main looks
# up execute and emit_results, and _ensemble_table looks up run_ensemble,
# in monitored_atom.cli; the kernel looks up the rest in
# monitored_atom.trajectory.
SPANS = (
    ("cli", "execute", "cli.execute"),
    ("cli", "emit_results", "cli.emit"),
    ("cli", "run_ensemble", "trajectory.run_ensemble"),
    ("trajectory", "trajectory_seed", "trajectory.seed"),
    ("trajectory", "feedback_amplitude", "feedback.amplitude"),
    ("trajectory", "_record_mean", "homodyne.record_mean"),
    ("trajectory", "_step_field", "homodyne.step_field"),
)

TRACE_NOTES = [
    "spans made inside forked pool workers are lost, so every per-layer "
    "number except trajectory.pool_speedup and trajectory.worker_rss_mb "
    "comes from the traced 1-worker operation",
    "trajectory.noise_bytes is computed as 8 x ceil(N / workers) x steps, "
    "the noise matrix of one process at the workload's worker count",
    "trajectory.record_bytes and trajectory.pool_transfer_bytes are the "
    "array bytes and the pickled size of the records the kernel returns "
    "for the whole ensemble, which 2 workers send back in two halves",
    "trajectory.run_trajectory_us_per_step times run_trajectory at N = 1 "
    "with the workload's own physics and steps",
    "the state module has no metric: it is called O(1) times per run, so "
    "no end-to-end number can move through it",
]

# One operation in a fresh interpreter: the set-up time (import the CLI,
# resolve the config), then main(argv) and the high-water RSS of the
# process plus that of its largest pool worker.  The process's own part is
# VmHWM, not ru_maxrss: a child started by vfork and exec carries the
# benchmark's high-water mark in ru_maxrss.
FRESH_CODE = """\
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import monitored_atom.cli as cli
cli._build_sim_config(cli.resolve_settings(cli.parse_args(sys.argv[2:])))
t1 = time.perf_counter()
rc = cli.main(sys.argv[2:])
t2 = time.perf_counter()
with open("/proc/self/status") as f:
    hwm_kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
rss_kb = hwm_kb + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"setup_s": t1 - t0, "wall_s": t2 - t1, "rc": rc, "rss_kb": rss_kb}))
"""


@dataclass
class Op:
    workers: int
    wall_s: float
    problem: str | None
    digest: str | None = None
    size: int = 0
    layers: dict | None = None  # Tracer.summary() of a traced operation
    record_bytes: int = 0
    pickled_bytes: int = 0
    setup_s: float = 0.0  # of an operation in a fresh interpreter
    rss_kb: int = 0  # likewise


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


class WorkloadRun:
    """The operations of one workload run and their verdicts."""

    def __init__(self, modules, workload, args, workdir: Path):
        self.modules = modules
        self.cli = modules["cli"]
        self.workload = workload
        self.base = workload.argv(args.seed, args.smoke)
        ns = self.cli.parse_args(self.base)
        self.fmt = ns.format
        self.workers = ns.workers
        self.settings = self.cli.resolve_settings(ns)
        self.n = int(self.settings["trajectories"])
        self.steps = int(self.settings["steps"])
        self.workdir = workdir
        self.out = workdir / f"out.{self.fmt}"
        self.corrupt = args.corrupt
        self.ops: list[Op] = []

    def argv(self, workers: int, out: Path) -> list[str]:
        return self.base + ["--workers", str(workers), "--out", str(out)]

    def op(self, workers: int | None = None, tracer: Tracer | None = None) -> Op:
        """One ``cli.main`` call, traced when a tracer is given."""
        workers = self.workers if workers is None else workers
        argv = self.argv(workers, self.out)
        chunks: list = []
        with patched(self._replacements(tracer, chunks, workers)) if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
                problem = None if rc == 0 else f"cli.main returned {rc}"
            except Exception as exc:  # a raising operation is a failed one
                problem = f"cli.main raised {exc!r}"
            wall = time.perf_counter() - t0
        op = self._finish(Op(workers, wall, problem))
        if tracer:
            op.layers = tracer.summary()
        if chunks:
            op.record_bytes = sum(a.nbytes for a in chunks[0].values())
            op.pickled_bytes = len(pickle.dumps(chunks[0], pickle.HIGHEST_PROTOCOL))
        return op

    def fresh_op(self) -> Op:
        """One operation in a fresh interpreter, as a user of the CLI runs it."""
        cmd = [sys.executable, "-c", FRESH_CODE, str(SRC), *self.argv(self.workers, self.out)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=self.workdir)
        except subprocess.TimeoutExpired:
            return self._finish(Op(self.workers, CHILD_TIMEOUT_S, "timed out in a fresh interpreter"))
        if proc.returncode != 0:
            problem = f"the fresh interpreter exited {proc.returncode}: {proc.stderr[-300:]}"
            return self._finish(Op(self.workers, 0.0, problem))
        r = json.loads(proc.stdout.splitlines()[-1])
        op = Op(self.workers, r["wall_s"], None if r["rc"] == 0 else f"cli.main returned {r['rc']}",
                setup_s=r["setup_s"], rss_kb=r["rss_kb"])
        return self._finish(op)

    def _finish(self, op: Op) -> Op:
        # Hash the output the operation wrote, then remove it so that the
        # next operation cannot pass on stale bytes.
        try:
            data = bytearray(self.out.read_bytes()) if op.problem is None else None
        except OSError as exc:
            op.problem, data = f"no output: {exc}", None
        if data is not None:
            if self.corrupt and not self.ops:
                data[len(data) // 2] ^= 1
            op.digest = hashlib.sha256(data).hexdigest()
            op.size = len(data)
        self.out.unlink(missing_ok=True)
        self.ops.append(op)
        return op

    def _replacements(self, tracer: Tracer, chunks: list, workers: int):
        repl = []
        for module, attr, name in SPANS:
            mod = self.modules[module]
            repl.append((mod, attr, tracer.wrap(name, getattr(mod, attr))))
        if workers > 1:
            # The pool pickles _simulate_chunk by name, so it stays in place.
            return repl
        trajectory = self.modules["trajectory"]
        simulate_chunk = trajectory._simulate_chunk

        def keep(args):
            chunks.append(simulate_chunk(args))
            return chunks[-1]

        return repl + [(trajectory, "_simulate_chunk", keep)]

    def verify(self) -> None:
        """Fail every operation whose output is not the checked reference's."""
        ref = self.workdir / f"ref.{self.fmt}"
        cmd = [sys.executable, "-m", "monitored_atom", *self.argv(1, ref)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        digest, problems = None, []
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems = ["the reference run timed out"]
        else:
            if proc.returncode != 0:
                problems = [f"the reference run exited {proc.returncode}: {proc.stderr[-300:]}"]
            else:
                data = ref.read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                problems = check_output(self.workload, data, self.settings, self.fmt)
        for op in self.ops:
            if op.problem is None:
                if problems:
                    op.problem = "reference output: " + problems[0]
                elif op.digest != digest:
                    op.problem = "output differs from the 1-worker reference run"


def timed_run(s: WorkloadRun, seconds: float) -> tuple[dict, dict]:
    s.op()  # warm-up: first-call costs are paid once per process
    # Closed loop: the next operation starts when the previous one ends.
    # Every third one runs in a fresh interpreter, for set-up time and peak
    # RSS.  Interleaving samples them across the whole run, and the
    # high-water marks of a process that ran many operations drift upward
    # with heap fragmentation, where a fresh one reads the same each time.
    timed, fresh, start = [], [], time.perf_counter()
    while not fresh or time.perf_counter() - start < seconds:
        if len(timed) < 2 * len(fresh) + 2:
            timed.append(s.op())
        else:
            fresh.append(s.fresh_op())
    s.verify()
    walls = [op.wall_s for op in timed]
    # The lower decile, not the median: on a shared 2-core VM, bursts that
    # slow every operation by up to 80% come and go over seconds and moved
    # the median of 20 s runs of trace-delay by 17% (quartile distance /
    # median) against 5% for the lower decile.
    wall = statistics.quantiles(walls, n=10)[0] if len(walls) > 1 else walls[0]
    metrics = {
        "wall_s": wall,
        "traj_steps_per_s": s.n * s.steps / wall,
        "peak_rss_mb": statistics.median(op.rss_kb for op in fresh) / 1024,
        "setup_s": statistics.median(op.setup_s for op in fresh),
        "ok_frac": sum(op.problem is None for op in s.ops) / len(s.ops),
    }
    details = {
        "samples": len(walls),
        "wall_s_min": min(walls),
        "wall_s_median": statistics.median(walls),
        "wall_s_max": max(walls),
        "fresh_samples": len(fresh),
    }
    return metrics, details


def predicted_calls(s: WorkloadRun) -> dict[str, int]:
    """Wrapped calls one 1-worker operation makes, from its settings alone."""
    exact = s.settings["mode"] == "exact"
    law = s.settings["feedback"] == "on"
    return {
        "cli.execute": 1,
        "cli.emit": 1,
        "trajectory.run_ensemble": 1,
        "trajectory.seed": s.n,
        "feedback.amplitude": s.steps if law else 0,
        "homodyne.record_mean": s.steps if exact else 0,
        "homodyne.step_field": 0 if exact else s.steps,
    }


def traced_run(s: WorkloadRun, seconds: float) -> tuple[dict, dict]:
    cfg = s.cli._build_sim_config(s.settings)
    run_trajectory = s.modules["trajectory"].run_trajectory

    def one_round():
        plain = s.op()
        one = s.op(1, Tracer())
        two = s.op(2, Tracer())
        t0 = time.perf_counter()
        run_trajectory(cfg, 0)
        return plain, one, two, (time.perf_counter() - t0) / s.steps * 1e6

    s.op()  # warm-up
    start = time.perf_counter()
    rounds = [one_round()]
    while time.perf_counter() - start < seconds:
        rounds.append(one_round())
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    s.verify()
    predicted = predicted_calls(s)
    per_round = []
    for plain, one, two, us_per_step in rounds:
        layer = {name: one.layers.get(name, (0, 0.0, 0.0)) for name in predicted}
        calls = {name: v[0] for name, v in layer.items()}
        if one.problem is None and calls != predicted:
            one.problem = f"call counts {calls} differ from the predicted {predicted}"
        ens = layer["trajectory.run_ensemble"]
        ens_two = two.layers.get("trajectory.run_ensemble", (0, 0.0, 0.0))
        execute_s, emit_s = layer["cli.execute"][1], layer["cli.emit"][1]
        per_round.append({
            "cli.execute_s": execute_s,
            "cli.emit_s": emit_s,
            "cli.emit_bytes": one.size,
            "cli.emit_mb_per_s": _div(one.size / 1e6, emit_s),
            "cli.main_self_s": one.wall_s - execute_s - emit_s,
            "trajectory.run_ensemble_s": ens[1],
            "trajectory.traj_steps": s.n * s.steps,
            "trajectory.self_s": ens[2],
            "trajectory.seed_calls": calls["trajectory.seed"],
            "trajectory.seed_s": layer["trajectory.seed"][1],
            "trajectory.noise_bytes": 8 * math.ceil(s.n / s.workers) * s.steps,
            "trajectory.record_bytes": one.record_bytes,
            "trajectory.pool_speedup": _div(ens[1], ens_two[1]),
            "trajectory.pool_transfer_bytes": one.pickled_bytes,
            "trajectory.worker_rss_mb": worker_rss_mb,
            "trajectory.run_trajectory_us_per_step": us_per_step,
            "feedback.amplitude_calls": calls["feedback.amplitude"],
            "feedback.amplitude_s": layer["feedback.amplitude"][1],
            "homodyne.record_mean_calls": calls["homodyne.record_mean"],
            "homodyne.record_mean_s": layer["homodyne.record_mean"][1],
            "homodyne.step_field_calls": calls["homodyne.step_field"],
            "homodyne.step_field_s": layer["homodyne.step_field"][1],
            "trace.overhead_frac": {1: one, 2: two}[s.workers].wall_s / plain.wall_s - 1,
        })
    # median_low reports a measured value, so counts stay whole numbers.
    metrics = {name: statistics.median_low(r[name] for r in per_round) for name in PER_LAYER}
    details = {"rounds": len(rounds), "predicted_calls": predicted, "notes": TRACE_NOTES}
    return metrics, details


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": args.seed,
        "workloads": {
            w.name: {"argv": w.argv(args.seed, args.smoke), "why": w.why}
            for w in WORKLOADS.values()
        },
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1234, help="passed to the program as --seed")
    p.add_argument("--seconds", type=float, default=20.0, help="how long to run operations")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    p.add_argument("--smoke", action="store_true",
                   help="tiny ensembles, to check the benchmark itself quickly")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one byte of the first operation's output before it "
                        "is checked, to show the output gate fails it")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "monitored_atom" / "cli.py").is_file():
        print(f"error: the program source {SRC / 'monitored_atom'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import monitored_atom.cli
    import monitored_atom.trajectory

    if SRC not in Path(monitored_atom.cli.__file__).resolve().parents:
        print(f"error: imported {monitored_atom.cli.__file__}, not the program in {SRC}",
              file=sys.stderr)
        return 2
    modules = {"cli": monitored_atom.cli, "trajectory": monitored_atom.trajectory}
    workload = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        bench = WorkloadRun(modules, workload, args, workdir)
        run = traced_run if args.trace else timed_run
        metrics, details = run(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    failures = [f"op {i} ({op.workers} workers): {op.problem}"
                for i, op in enumerate(bench.ops) if op.problem is not None]
    print(json.dumps({
        "workload": workload.name,
        "why": workload.why,
        "argv": bench.base,
        "trace": args.trace,
        "details": details,
        "failures": failures[:10],
        "environment": environment(args),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(bench.ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
