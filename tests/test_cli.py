"""End-to-end command line tests.

Nearly every test runs the installed entry point in a subprocess, so
argument parsing, exit codes, and the exact bytes written to stdout or
files are all exercised the way a user sees them.  The settings layering
is checked in process, flag by flag.
"""

import csv
import io
import json
import math
import multiprocessing
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from monitored_atom import cli, trajectory

CMD = [sys.executable, "-m", "monitored_atom"]
DATA = Path(__file__).parent / "data"


def run_cli(*args, timeout=300):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=timeout
    )


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# config=")
    config = json.loads(lines[0][len("# config=") :])
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return config, rows


def json_rows(blob):
    # JSON rows are positional arrays matching the "columns" key
    return [dict(zip(blob["columns"], row)) for row in blob["rows"]]


def test_help_exits_zero():
    out = run_cli("--help")
    assert out.returncode == 0
    assert "--preset" in out.stdout


def test_unknown_flag_exits_two():
    assert run_cli("--no-such-flag").returncode == 2


def test_gamma_tau_ceiling_rejected():
    out = run_cli("--preset", "decay", "--gamma-tau", "0.5")
    assert out.returncode == 2
    assert "ceiling" in out.stderr


def test_alpha2_floor_rejected():
    out = run_cli("--preset", "decay", "--alpha2", "50")
    assert out.returncode == 2
    assert "floor" in out.stderr


def test_long_run_rejected():
    """steps * gamma_tau above 1 exits 2 before any output, and the
    message offers no override, since no flag could give one."""
    out = run_cli("--steps", "20000", "--trajectories", "2")
    assert out.returncode == 2
    assert "steps * gamma_tau" in out.stderr
    assert "allow_long_run" not in out.stderr
    assert out.stdout == ""


def test_run_beyond_available_memory_exits_two(monkeypatch, capsys):
    """A run the memory check refuses exits 2 with its estimate on stderr,
    before any noise is seeded or pool started, and writes no table."""
    def never(*args, **kwargs):
        raise AssertionError("called before the memory check")

    monkeypatch.setattr(trajectory, "_mem_available", lambda: 1 << 20)
    monkeypatch.setattr(trajectory, "trajectory_seed", never)
    monkeypatch.setattr(multiprocessing, "get_context", never)
    rc = cli.main(["--preset", "stabilize", "--initial", "0.36,0.48,0.8", "--workers", "2"])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert re.search(r"estimated \d+\.\d MB of memory, more than the 1\.0 MB available", out.err)


class _Started(Exception):
    pass


def _started(*args, **kwargs):
    raise _Started


def test_delay_beyond_memory_exits_two(monkeypatch, capsys):
    """A feedback delay of 10^11 slots is refused with the estimate, exit 2,
    not with numpy's allocation error for the window the check measures."""
    monkeypatch.setattr(trajectory, "_mem_available", lambda: 1 << 30)
    monkeypatch.setattr(trajectory, "trajectory_seed", _started)
    rc = cli.main(["--feedback", "on", "--steps", "3", "--trajectories", "2",
                   "--delay", "100000000000"])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert re.search(r"estimated \d+\.\d MB of memory, more than the 1024\.0 MB available", out.err)


def test_long_stride_one_stabilize_run_passes_the_memory_check(monkeypatch):
    """Recorded at every one of 10^4 steps, a 10^4-trajectory stabilize run
    holds one slab's records at a time, so the memory check passes it on
    1 GB.  The run itself stops at its first seed, past the check."""
    monkeypatch.setattr(trajectory, "_mem_available", lambda: 1 << 30)
    monkeypatch.setattr(trajectory, "trajectory_seed", _started)
    with pytest.raises(_Started):
        cli.main(["--preset", "stabilize", "--trajectories", "10000", "--steps", "10000",
                  "--record-stride", "1"])


@pytest.mark.parametrize("flag,value,workers", [
    ("--alpha2", "-4", "1"),
    ("--alpha2", "0", "1"),
    ("--alpha2", "inf", "1"),
    ("--seed", "-1", "1"),
    ("--seed", "-1", "2"),
])
def test_bad_setting_is_named(flag, value, workers):
    """Invalid values are rejected before any run starts, with a message
    that names the setting rather than a low-level math or seeding error."""
    out = run_cli("--preset", "decay", "--trajectories", "4", "--steps", "2",
                  "--workers", workers, f"{flag}={value}")
    assert out.returncode == 2
    assert flag.lstrip("-") in out.stderr


@pytest.mark.parametrize("preset,workers", [
    ("fig1-field", "0"),
    ("fig1-field", "-3"),
    ("decay", "0"),
])
def test_workers_below_one_rejected(preset, workers):
    """Every preset rejects a worker count below 1, including the field
    presets, which never start a pool."""
    out = run_cli("--preset", preset, "--trajectories", "4", "--steps", "2",
                  "--workers", workers)
    assert out.returncode == 2
    assert "--workers" in out.stderr
    assert out.stdout == ""


def test_field_grid_below_one_point_rejected():
    """The grid size is checked before the streamed table writes a byte."""
    out = run_cli("--preset", "fig2-field", "--grid-points", "0")
    assert out.returncode == 2
    assert "grid_points" in out.stderr
    assert out.stdout == ""


def test_delay_sweep_rejects_explicit_delay():
    """delay-sweep runs its own list of delays; an explicit --delay would
    be silently dropped, so the combination is an error."""
    out = run_cli("--preset", "delay-sweep", "--steps", "4", "--trajectories", "4",
                  "--delay", "9")
    assert out.returncode == 2
    assert "--delay" in out.stderr
    assert out.stdout == ""


def test_non_unit_initial_rejected():
    out = run_cli("--preset", "decay", "--initial", "0,0,2")
    assert out.returncode == 2
    assert "unit length" in out.stderr


def test_malformed_initial_rejected():
    out = run_cli("--preset", "decay", "--initial", "1,2")
    assert out.returncode == 2
    assert "three" in out.stderr


def test_negative_value_after_a_space_is_the_flags_value(capsys):
    """A value that starts with "-" is read as its flag's value, written
    after a space as after "=": negative-s_x starts run as in the "=" form,
    and a negative theta_bar meets the range check, not a usage error."""
    run = ("--trajectories", "2", "--steps", "3")
    for initial in ("-1,0,0", "-0.6,0,0.8"):
        outputs = []
        for form in (("--initial", initial), (f"--initial={initial}",)):
            assert cli.main([*form, *run]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""
    assert cli.main(["--theta-bar", "-1e-3", *run]) == 2
    assert "theta_bar must lie in [0, pi]" in capsys.readouterr().err


def test_negative_value_after_a_flag_prefix_is_the_flags_value(capsys):
    """As argparse resolves a unique prefix of a flag to the flag, a value
    that starts with "-" after such a prefix is that flag's value too; an
    ambiguous prefix stays argparse's usage error."""
    run = ("--trajectories", "2", "--steps", "3")
    outputs = []
    for form in (("--init", "-1,0,0"), ("--in", "-1,0,0"), ("--initial=-1,0,0",)):
        assert cli.main([*form, *run]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] != ""
    assert cli.main(["--theta", "-1e-3", *run]) == 2
    assert "theta_bar must lie in [0, pi]" in capsys.readouterr().err
    assert cli.main(["--g", "-1", *run]) == 2
    assert "ambiguous option: --g" in capsys.readouterr().err


def test_unwritable_output_exits_one():
    out = run_cli("--preset", "fig1-field", "--out", "/nonexistent/dir/x.csv")
    assert out.returncode == 1


def _small_decay(*extra):
    return (
        "--preset", "decay", "--steps", "40", "--trajectories", "12",
        "--record-stride", "10", "--seed", "99", *extra,
    )


def test_field_table_fig1():
    out = run_cli("--preset", "fig1-field", "--grid-points", "10")
    assert out.returncode == 0
    config, rows = parse_csv(out.stdout)
    assert config["preset"] == "fig1-field"
    assert config["grid_points"] == 10
    # 10 Fibonacci points plus the 6 axis poles
    assert len(rows) == 16
    by_pole = {
        (round(float(r["grid_sx"]), 6), round(float(r["grid_sy"]), 6),
         round(float(r["grid_sz"]), 6)): r
        for r in rows
    }
    ground = by_pole[(0.0, 0.0, -1.0)]
    assert float(ground["dsx"]) == 0.0
    assert float(ground["dsy"]) == 0.0
    assert float(ground["dsz"]) == 0.0
    excited = by_pole[(0.0, 0.0, 1.0)]
    assert float(excited["dsx"]) == 2.0
    assert float(excited["dsy"]) == 0.0
    assert float(excited["dsz"]) == 0.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_field_table_streams_its_rows(tmp_path, fmt):
    """A field table is made and written one block of rows at a time, so
    its memory does not grow with the grid: the traced peak of 2*10^4
    points stays under 2 MB (measured 0.4 MB as CSV and 0.6 MB as JSON at
    5*10^4), where a table built whole took 0.37 KB per point, 7 MB here."""
    out = tmp_path / f"field.{fmt}"
    argv = ["--preset", "fig2-field", "--format", fmt, "--out", str(out)]
    # A first call fills the one-time caches, which are not the table's.
    assert cli.main(argv + ["--grid-points", "10"]) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv + ["--grid-points", "20000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert out.read_text(encoding="utf-8").count("\n") > 20006


def test_field_table_fig2_dipole_row_vanishes():
    out = run_cli("--preset", "fig2-field", "--grid-points", "10")
    assert out.returncode == 0
    _, rows = parse_csv(out.stdout)
    dipole = [r for r in rows if float(r["grid_sx"]) == 1.0]
    assert len(dipole) == 1
    assert float(dipole[0]["dsx"]) == 0.0
    assert float(dipole[0]["dsy"]) == 0.0
    assert float(dipole[0]["dsz"]) == 0.0


def test_ensemble_csv_and_json_agree():
    csv_out = run_cli(*_small_decay("--format", "csv"))
    json_out = run_cli(*_small_decay("--format", "json"))
    assert csv_out.returncode == 0 and json_out.returncode == 0
    config, rows = parse_csv(csv_out.stdout)
    blob = json.loads(json_out.stdout)
    assert blob["config"] == config
    assert blob["columns"] == list(rows[0].keys())
    jrows = json_rows(blob)
    assert len(jrows) == len(rows) == 5
    for crow, jrow in zip(rows, jrows):
        for key, jval in jrow.items():
            cval = crow[key]
            if jval is None:
                assert cval == ""
            elif isinstance(jval, int):
                assert int(cval) == jval
            else:
                # %.17g round-trips doubles exactly
                assert float(cval) == jval


def test_reruns_and_worker_counts_are_byte_identical():
    a = run_cli(*_small_decay())
    b = run_cli(*_small_decay())
    c = run_cli(*_small_decay("--workers", "2"))
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout == c.stdout


@pytest.mark.parametrize("mode", ["exact", "first-order"])
def test_pool_output_is_byte_identical_to_one_worker(monkeypatch, tmp_path, mode):
    """At 2048 trajectories, the pool floor, --workers 2 forks two workers,
    whose records the parent joins in trajectory order: the CSV and JSON
    bytes are those of --workers 1.  Two CPUs are made visible, so the
    pool starts on any machine."""
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    contexts = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: contexts.append(method) or get_context(method))
    args = ["--mode", mode, "--feedback", "on", "--theta-bar", "1.2", "--initial", "0.6,0,0.8",
            "--trajectories", str(trajectory._POOL_MIN_TRAJECTORIES), "--steps", "6",
            "--delay", "2", "--seed", "17"]
    for fmt in ("csv", "json"):
        paths = [tmp_path / f"{fmt}-{workers}" for workers in (1, 2)]
        for path, workers in zip(paths, (1, 2)):
            assert cli.main(args + ["--format", fmt, "--workers", str(workers),
                                    "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
    assert len(contexts) == 2  # one pool per format, none for one worker


@pytest.mark.parametrize("golden,args", [
    ("cli_stabilize_delay3.json",
     ("--preset", "stabilize", "--trajectories", "4", "--steps", "40",
      "--delay", "3", "--record-stride", "1")),
    # Out of plane with the law off: angle_var is null in every row.
    ("cli_out_of_plane_law_off.json",
     ("--initial", "0.36,0.48,0.8", "--trajectories", "4", "--steps", "40")),
])
def test_json_output_matches_byte_golden(golden, args):
    """The JSON renderer's bytes are frozen: tests/data holds the output of
    an earlier renderer (json.dumps with indent=2) for the same runs."""
    out = subprocess.run(CMD + [*args, "--format", "json"], capture_output=True,
                         timeout=300)
    assert out.returncode == 0
    assert out.stdout == (DATA / golden).read_bytes()


def test_stdout_matches_file_output(tmp_path):
    target = tmp_path / "out.csv"
    streamed = run_cli(*_small_decay())
    written = run_cli(*_small_decay("--out", str(target)))
    assert streamed.returncode == written.returncode == 0
    assert target.read_text() == streamed.stdout


def test_preset_overrides_are_reflected():
    out = run_cli(*_small_decay("--format", "json"))
    blob = json.loads(out.stdout)
    cfg = blob["config"]
    assert cfg["preset"] == "decay"
    assert cfg["steps"] == 40
    assert cfg["trajectories"] == 12
    assert cfg["seed"] == 99
    assert cfg["feedback"] == "off"
    assert cfg["mode"] == "exact"
    last = json_rows(blob)[-1]
    assert last["step"] == 40
    assert last["gamma_t"] == pytest.approx(40 * cfg["gamma_tau"])


def test_decay_rows_track_the_closed_form():
    out = run_cli(*_small_decay("--trajectories", "400", "--format", "json"))
    blob = json.loads(out.stdout)
    gamma_tau = blob["config"]["gamma_tau"]
    for row in json_rows(blob):
        want = math.exp(-0.5 * row["step"] * gamma_tau)
        se = max(row["se_sx"], 1e-12)
        assert abs(row["mean_sx"] - want) <= 4.0 * se


def test_stabilize_preset_reports_angle_variance():
    out = run_cli(
        "--preset", "stabilize", "--steps", "50", "--trajectories", "15",
        "--record-stride", "25", "--seed", "5", "--format", "json",
    )
    assert out.returncode == 0
    blob = json.loads(out.stdout)
    assert blob["config"]["feedback"] == "on"
    assert blob["config"]["theta_bar"] == pytest.approx(math.pi / 2.0)
    for row in json_rows(blob):
        assert row["angle_var"] is not None
        assert row["fidelity"] <= 1.0 + 1e-12


def test_delay_sweep_rows():
    out = run_cli(
        "--preset", "delay-sweep", "--steps", "30", "--trajectories", "10",
        "--seed", "3", "--format", "json",
    )
    assert out.returncode == 0
    blob = json.loads(out.stdout)
    assert blob["config"]["delays"] == [1, 2, 5, 10, 20, 50]
    rows = json_rows(blob)
    assert [row["delay"] for row in rows] == [1, 2, 5, 10, 20, 50]
    for row in rows:
        assert row["step"] == 30


def test_delay_sweep_rows_are_the_last_rows_of_full_record_runs():
    """The sweep records only the last step of each run, the one row it
    prints; that row is, bit for bit, the last of the run recorded at the
    user's stride."""
    settings = cli.resolve_settings(cli.parse_args(
        ["--preset", "delay-sweep", "--steps", "60", "--trajectories", "12", "--seed", "9",
         "--record-stride", "1"]))
    _, rows, config = cli.execute(settings)
    assert config["record_stride"] == 1
    for d in (2, 20):
        stats = trajectory.run_ensemble(cli._build_sim_config({**settings, "delay": d}))
        assert len(stats.steps) == 61
        want = cli._stats_rows(stats, prefix=(d,))[-1]
        (got,) = [row for row in rows if row[0] == d]
        assert [cli._cell(v) for v in got] == [cli._cell(v) for v in want]


def test_explicit_flags_run_without_preset():
    out = run_cli(
        "--mode", "first-order", "--feedback", "on", "--theta-bar",
        str(math.pi / 2.0), "--steps", "20", "--trajectories", "8",
        "--record-stride", "20", "--seed", "2", "--format", "json",
    )
    assert out.returncode == 0
    blob = json.loads(out.stdout)
    assert blob["config"]["preset"] is None
    assert blob["config"]["mode"] == "first-order"
    # started on the target by default, the first-order law holds it there
    last = json_rows(blob)[-1]
    assert last["fidelity"] == 1.0
    assert last["angle_var"] == 0.0


# A value for every setting flag, unlike both its default and any preset's.
_FLAG_VALUES = {
    "mode": "first-order", "feedback": "off", "theta_bar": "1.25",
    "gamma_tau": "2e-4", "alpha2": "2500", "steps": "7", "trajectories": "9",
    "delay": "4", "seed": "77", "initial": "0,0,-1", "record_stride": "3",
    "grid_points": "11",
}


def test_every_setting_flag_overrides_the_preset():
    """resolve_settings layers the built-in defaults, the preset and then
    every parsed flag that names a setting; a setting whose flag were left
    out of that last layer would keep the preset's value here."""
    actions = {a.dest: a for a in cli.build_parser()._actions}
    assert set(cli._BASE) <= set(actions)
    argv = []
    for dest, value in _FLAG_VALUES.items():
        argv += [actions[dest].option_strings[0], value]
    assert set(_FLAG_VALUES) == set(cli._BASE) - {"preset"}
    tail = ["--preset", "stabilize", "--workers", "2", "--out", "x", "--format", "json"]
    ns = cli.parse_args(argv + tail)
    settings = cli.resolve_settings(ns)
    layered = {**cli._BASE, **cli.PRESETS["stabilize"]}
    for dest in _FLAG_VALUES:
        assert settings[dest] == getattr(ns, dest) != layered[dest], dest
    assert settings["preset"] == "stabilize"
    assert not {"workers", "out", "format"} & set(settings)
    assert set(settings) == set(cli._BASE)
    assert cli.resolve_settings(cli.parse_args(tail)) == {**layered, "preset": "stabilize"}


def test_sweep_config_lists_its_delays():
    settings = cli.resolve_settings(cli.parse_args(
        ["--preset", "delay-sweep", "--steps", "3", "--trajectories", "2"]))
    assert "delays" not in settings
    columns, rows, config = cli.execute(settings)
    assert "delay" not in config
    assert config["delays"] == list(cli.SWEEP_DELAYS)
    assert [row[0] for row in rows] == list(cli.SWEEP_DELAYS)


def test_importing_the_cli_does_not_load_numpy_random():
    """numpy.random is loaded by the first run and multiprocessing by the
    first pool, not by the import, which keeps both out of the CLI's set-up
    time."""
    code = ("import sys, monitored_atom.cli; "
            "loaded = sorted(m for m in sys.modules "
            "if m.startswith('numpy.random') or m.split('.')[0] == 'multiprocessing'); "
            "assert not loaded, loaded")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr


def test_an_in_process_run_does_not_load_multiprocessing():
    """An ensemble below the pool floor runs in this process, at any worker
    count, and never loads multiprocessing."""
    code = ("import sys; from monitored_atom import SimConfig, run_ensemble; "
            "cfg = SimConfig(steps=5, trajectories=100); "
            "run_ensemble(cfg, 1); run_ensemble(cfg, 2); "
            "assert 'multiprocessing' not in sys.modules")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("args,exact", [
    pytest.param(("--preset", "stabilize", "--delay", "20"), True, id="exact-law-on"),
    pytest.param(("--mode", "first-order", "--feedback", "off", "--initial", "1,0,0"), False,
                 id="first-order-in-plane"),
])
def test_traced_layers_are_called_as_predicted(monkeypatch, tmp_path, args, exact):
    """A 1-worker run looks up each layer the benchmark traces as a
    trajectory-module global at call time: trajectory_seed once per
    trajectory, then once per step feedback_amplitude and _record_mean in
    the exact mode with the law on, or _step_field in the first-order
    mode.  The benchmark predicts these counts from the settings alone, so
    one of these four layers called through a name bound at import, such
    as a module-level alias or a default argument, or feedback_amplitude
    batched over a feedback window, fails its traced runs.  The rule is
    theirs alone: numpy's ufuncs, which the benchmark does not trace, are
    called through names bound at import.  Here the run crosses a 256-step
    noise slab and ends partway through a 20-step window."""
    calls = dict.fromkeys(["trajectory_seed", "feedback_amplitude", "_record_mean",
                           "_step_field"], 0)
    for name in calls:
        def counted(*a, name=name, fn=getattr(trajectory, name)):
            calls[name] += 1
            return fn(*a)

        monkeypatch.setattr(trajectory, name, counted)
    n, steps = 12, 310
    assert cli.main([*args, "--trajectories", str(n), "--steps", str(steps), "--workers", "1",
                     "--out", str(tmp_path / "out.csv")]) == 0
    assert list(calls.values()) == ([n, steps, steps, 0] if exact else [n, 0, 0, steps])
