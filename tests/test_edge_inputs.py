"""Edge inputs, from the command line and through the library.

A configuration that cannot run is refused up front: the command line
exits 2 with one ``error:`` line on stderr and nothing on stdout, and the
library raises ValueError.  The properties draw every flag and field from
edge sets (zeros of both signs, +-1, NaN, +-inf, 2^63 +- 1, 10^20, the
int 10^300, whose square is beyond the float range, the int 10^400
beyond it, subnormals, gamma_tau down to 1e-30,
so that huge step counts pass
SimConfig's steps * gamma_tau ceiling) and run derandomized, with no
example database, so a failure reproduces as is.  MemAvailable is
patched to 256 MB, so that the memory check refuses the huge
configurations instead of running them; refusal is the behaviour under
test.  A run that passes every check with more than 10^4 steps is stopped
where its loop starts, since no test can wait for it.
"""

import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from monitored_atom import (BlochVector, DensityMatrix2, FeedbackLaw, FeedbackState,
                            HomodyneConfig, PureState, SimConfig, master_evolve)
from monitored_atom import cli, trajectory
from monitored_atom.trajectory import run_ensemble, run_trajectory

MEM = 256 << 20
# An int that float() cannot hold.
BIG = 10**400
# An int that float() holds, but whose square in int arithmetic it cannot.
SQUARE_BIG = 10**300
EDGE_INTS = [0, 1, 2, 3, 7, -1, 2**63 - 1, 2**63, 2**63 + 1, 10**20, SQUARE_BIG, BIG]
EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf, 2.0**63 - 1, 2.0**63 + 1,
               1e20, SQUARE_BIG, BIG, 5e-324, 2.2250738585072014e-308, 1e-30, 1e-4, 0.01, 1.2,
               1e4]


def _no_memory(*args):
    return MEM


class _LongRun(Exception):
    pass


@contextlib.contextmanager
def _checks_only():
    # MemAvailable patched to MEM, and a run of more than 10^4 steps that
    # passes every check stopped where its loop starts: 2^63 - 1 steps
    # recorded only at their ends need little memory, and would run.
    slab_records = trajectory._slab_records

    def short(cfg, *args):
        if cfg.steps > 10**4:
            raise _LongRun
        return slab_records(cfg, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectory, "_mem_available", _no_memory)
        mp.setattr(trajectory, "_slab_records", short)
        yield


@pytest.mark.parametrize("steps,stride,message", [
    ("9223372036854775807", "1", "estimated"),
    ("9223372036854775808", "1", "below 2^63"),
    ("99999999999999999999", "1", "below 2^63"),
    ("9223372036854775808", "9223372036854775809", "below 2^63"),
])
def test_steps_beyond_int64_exit_two(monkeypatch, capsys, steps, stride, message):
    """A step count of 2^63 - 1, with a gamma_tau small enough for the
    steps * gamma_tau ceiling, is refused with the memory estimate, and
    one of 2^63 or more, which the int64 step column cannot hold, is
    refused as a configuration: exit 2 either way, and no table.  The
    memory check counts the recorded steps by arithmetic, where the length
    of a range of them overflows a C ssize_t at 2^63; and a stride past
    the last step records two rows, which pass the memory check."""
    monkeypatch.setattr(trajectory, "_mem_available", _no_memory)
    rc = cli.main(["--steps", steps, "--gamma-tau", "1e-30", "--trajectories", "2",
                   "--record-stride", stride])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert message in out.err


def test_steps_beyond_int64_raise_value_error(monkeypatch):
    monkeypatch.setattr(trajectory, "_mem_available", _no_memory)
    for steps in (2**63, 10**20):
        with pytest.raises(ValueError, match=r"below 2\^63"):
            SimConfig(homodyne=HomodyneConfig(gamma_tau=1e-30), steps=steps)
    cfg = SimConfig(homodyne=HomodyneConfig(gamma_tau=1e-30), steps=2**63 - 1, trajectories=2)
    for run in (run_ensemble, run_trajectory):
        with pytest.raises(ValueError, match="estimated"):
            run(cfg)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: BlochVector(BIG, 0, 0), id="BlochVector"),
    pytest.param(lambda: HomodyneConfig(alpha_mag=BIG), id="alpha_mag"),
    pytest.param(lambda: HomodyneConfig(gamma_tau=BIG), id="gamma_tau"),
    pytest.param(lambda: FeedbackLaw(theta_bar=BIG), id="theta_bar"),
    pytest.param(lambda: FeedbackState((BIG,)), id="FeedbackState"),
    pytest.param(lambda: PureState(BIG, 0), id="PureState"),
    pytest.param(lambda: DensityMatrix2(BIG, 0, 0), id="DensityMatrix2"),
    pytest.param(lambda: DensityMatrix2(1e308, 0.0, 0.0), id="DensityMatrix2-1e308"),
    pytest.param(lambda: master_evolve(DensityMatrix2(0.0, 0.0, 1.0), BIG), id="master_evolve"),
    pytest.param(lambda: SimConfig(initial=BlochVector(SQUARE_BIG, 0, 0)), id="initial-int-square"),
    pytest.param(lambda: DensityMatrix2(SQUARE_BIG, 0, 0), id="DensityMatrix2-int-square"),
])
def test_beyond_float_range_raises_value_error(call):
    """An int that float() cannot hold is refused with ValueError, not
    OverflowError, and so is a finite float or an int whose square
    overflows."""
    with pytest.raises(ValueError):
        call()


def test_norm_squares_as_floats():
    """BlochVector.norm squares its components as floats: an int whose
    square leaves the float range gives inf, not OverflowError, and float
    components keep the bits of their sum of squares."""
    assert BlochVector(SQUARE_BIG, 0, 0).norm() == math.inf
    assert BlochVector(3, 4, 12).norm() == 13.0
    assert BlochVector(0.36, 0.48, 0.8).norm() == math.sqrt(0.36 * 0.36 + 0.48 * 0.48 + 0.8 * 0.8)


def test_int_alpha_beyond_int64_runs_as_its_float():
    """An int alpha_mag above the int64 range runs the exact law-on kernel,
    whose operands are float64, and gives the bytes of the same float."""
    def stats(alpha):
        cfg = SimConfig(homodyne=HomodyneConfig(alpha_mag=alpha), law=FeedbackLaw(theta_bar=1.2),
                        initial=BlochVector(0.6, 0.0, 0.8), steps=50, trajectories=4, delay=2)
        s = run_ensemble(cfg)
        return [getattr(s, k).tobytes() for k in ("mean", "var", "se", "fidelity", "purity")]

    assert stats(10**20) == stats(1e20)


@pytest.mark.parametrize("argv", [
    pytest.param(["--trajectories", str(BIG)], id="trajectories"),
    pytest.param(["--feedback", "on", "--delay", str(BIG)], id="delay"),
    pytest.param(["--preset", "fig1-field", "--grid-points", str(BIG)], id="grid-points"),
])
def test_count_beyond_float_range_exits_two(monkeypatch, capsys, argv):
    """A count that float() cannot hold exits 2 with one error line and no
    table: the memory estimate is written in integer arithmetic, and the
    field table refuses its grid before it writes a byte."""
    monkeypatch.setattr(trajectory, "_mem_available", _no_memory)
    rc = cli.main(argv)
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert [line.startswith("error:") for line in out.err.splitlines()] == [True]


# Each property draws a configuration that would run, with values up to
# 10^20, and then swaps at most two of its fields for edge values, so that
# both the refusals and the runs near them are reached.
GOOD_INITIALS = ["1,0,0", "0,0,-1", "-0.6,0,0.8", "0.36,0.48,0.8", "-0.6,-0.0,0.8"]
GOOD = {
    "--preset": sorted(cli.PRESETS),
    "--mode": ["exact", "first-order"],
    "--feedback": ["on", "off"],
    "--theta-bar": [1.2, math.pi / 2, math.pi, 0.0, -0.0],
    "--gamma-tau": [1e-4, 0.01, 1e-30, 5e-324],
    "--alpha2": [1e4, 100.0, 1e20],
    "--steps": [0, 1, 7, 2**63 - 1, 2**63, 2**63 + 1, 10**20],
    "--trajectories": [2, 3, 7, 10**20],
    "--delay": [1, 3, 2**63 + 1],
    "--seed": [0, 1, 2**63 + 1, 10**20],
    "--initial": GOOD_INITIALS,
    "--record-stride": [1, 3, 2**63 + 1],
    # Small only: a field table streams every point it is asked for.
    "--grid-points": [1, 2, 7],
    "--workers": [1, 2, 2**63 + 1],
    "--format": ["csv", "json"],
}
EDGE = {
    **dict.fromkeys(["--preset", "--mode", "--feedback", "--format"], ["", "-1", "x"]),
    **dict.fromkeys(["--theta-bar", "--gamma-tau", "--alpha2"], EDGE_FLOATS),
    **dict.fromkeys(["--steps", "--trajectories", "--delay", "--seed", "--record-stride",
                     "--workers"], EDGE_INTS + ["-0", "1.5", "nan"]),
    "--initial": ["nan,0,0", "inf,0,0", "0,0,0", "1,1,1", "1,0", "5e-324,0,1", "-1,0,0,0"],
    "--grid-points": [-1, 0],
}


def _token(x) -> str:
    return x if isinstance(x, str) else repr(x)


@st.composite
def argvs(draw):
    # Every flag but --out, left out or given after a space or an "=", in
    # full or by a unique prefix; a swapped flag may also be an ambiguous
    # prefix ("--s" is --steps or --seed).  --steps and --trajectories are
    # always given, so that no preset's default size runs, and so is
    # --gamma-tau, so that huge step counts often pass the ceiling.
    bad = draw(st.sets(st.sampled_from(sorted(GOOD)), max_size=2))
    argv = []
    for name, good in GOOD.items():
        if name not in ("--steps", "--trajectories", "--gamma-tau") and draw(st.booleans()):
            continue
        value = _token(draw(st.sampled_from(EDGE[name] if name in bad else good)))
        flag = draw(st.sampled_from([name, name[:-2]] + [name[:3]] * (name in bad)))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def _rows(text: str):
    if text.startswith("{"):
        return json.loads(text)["rows"]
    head, _, body = text.partition("\n")
    assert head.startswith("# config=")
    json.loads(head[len("# config="):])
    _, *rows = csv.reader(body.splitlines())
    return [[float(c) if c else None for c in row] for row in rows]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(argvs())
def test_argv_exits_zero_or_two(argv):
    """Every drawn command line exits 0 with a whole table or 2 with one
    error line; none exits 1 or raises."""
    out, err = io.StringIO(), io.StringIO()
    with _checks_only(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except _LongRun:
            return
    if rc == 2:
        assert out.getvalue() == ""
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
        return
    assert rc == 0, err.getvalue()
    s = cli.resolve_settings(cli.parse_args(argv))
    if s["preset"] in ("fig1-field", "fig2-field"):
        want = s["grid_points"] + 6
    elif s["preset"] == "delay-sweep":
        want = len(cli.SWEEP_DELAYS)
    else:
        want = len(range(0, s["steps"], s["record_stride"])) + 1
    rows = _rows(out.getvalue())
    assert len(rows) == want
    # Every cell is a finite number, but an angle variance, which is empty
    # for runs that leave the s_y = 0 plane.
    assert all(v is None or math.isfinite(v) for row in rows for v in row)
    assert all(v is not None for row in rows for v in row[:-3] + row[-2:])


LIBRARY_GOOD = {
    "alpha_mag": [100.0, 10.0, 1e10, 10**20], "gamma_tau": [1e-4, 0.01, 1e-30, 5e-324],
    "mode": ["exact", "first-order"], "theta_bar": [1.2, 0.0, math.pi],
    "enabled": [True, False], "initial": [(1.0, 0.0, 0.0), (0.36, 0.48, 0.8), (0, 0, -1)],
    "steps": GOOD["--steps"], "trajectories": GOOD["--trajectories"],
    "master_seed": GOOD["--seed"], "delay": GOOD["--delay"],
    "record_stride": GOOD["--record-stride"], "workers": GOOD["--workers"],
    "index": [0, 1, 2**63 + 1],
}
EDGE_COUNTS = EDGE_INTS + [1.5, math.nan, True]
LIBRARY_EDGE = {
    **dict.fromkeys(["alpha_mag", "gamma_tau", "theta_bar"], EDGE_FLOATS),
    "mode": ["both", "EXACT"], "enabled": [True, False],
    "initial": [(x, 0.0, 0.0) for x in EDGE_FLOATS] + [(0.6, 0.0, 0.8 + 1e-8)],
    **dict.fromkeys(["steps", "trajectories", "master_seed", "delay", "record_stride",
                     "workers", "index"], EDGE_COUNTS),
}


@st.composite
def library_calls(draw):
    # As argvs: a configuration that would run, with at most two fields
    # swapped for edge values.
    bad = draw(st.sets(st.sampled_from(sorted(LIBRARY_GOOD)), max_size=2))
    return {name: draw(st.sampled_from(LIBRARY_EDGE[name] if name in bad else good))
            for name, good in LIBRARY_GOOD.items()}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(library_calls())
def test_library_raises_only_value_error(c):
    """SimConfig and its parts, run_ensemble and run_trajectory refuse bad
    input with ValueError alone, and run what they accept."""
    with _checks_only():
        try:
            cfg = SimConfig(
                homodyne=HomodyneConfig(c["alpha_mag"], c["gamma_tau"], c["mode"]),
                law=FeedbackLaw(c["theta_bar"], c["enabled"]),
                initial=BlochVector(*c["initial"]),
                **{k: c[k] for k in ("steps", "trajectories", "master_seed", "delay",
                                     "record_stride")})
        except ValueError:
            return
        for run, arg in ((run_ensemble, c["workers"]), (run_trajectory, c["index"])):
            with contextlib.suppress(ValueError, _LongRun):
                run(cfg, arg)
