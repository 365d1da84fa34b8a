"""In-process tests of the result table and its JSON rendering.

The renderer must give exactly the bytes of ``json.dumps(..., indent=2)``
on every table the CLI can emit, and the rows must hold plain Python
ints, floats and None, so that both renderers see the same objects.
"""

import json
import math

import pytest

from monitored_atom import BlochVector, FeedbackLaw, HomodyneConfig, SimConfig, run_ensemble
from monitored_atom.cli import ENSEMBLE_COLUMNS, SWEEP_COLUMNS, _render_json, _stats_rows

CONFIG = {
    "preset": None,
    "mode": "exact",
    "theta_bar": math.pi,
    "initial": [0.36, 0.48, 0.8],
    "steps": 3,
}


def _reference(columns, rows, config):
    return json.dumps({"config": config, "columns": columns, "rows": rows}, indent=2) + "\n"


@pytest.mark.parametrize("columns,rows", [
    (ENSEMBLE_COLUMNS, []),
    (["step", "angle_var"], [[0, None], [1, None]]),
    (["a", "b", "c"], [[1, -2, 3]]),
    (["a", "b", "c"], [[-0.0, 5e-324, 1e16], [0.0, -1.5e-300, 1.7976931348623157e308]]),
    (["a", "b", "c"], [[math.nan, math.inf, -math.inf]]),
    (["x"], [[0.1], [0.2], [0.3]]),
    (SWEEP_COLUMNS, [[5, 30, 0.003, 0.5, 0.0, 0.25, 1e-3, 0.0, 2e-3, None, 0.999, 0.75],
                     [50, 30, 0.003, 0.5, -0.0, 0.25, 1e-3, 0.0, 2e-3, 1e-5, 1.0, 1.0]]),
])
def test_render_json_matches_indented_dumps(columns, rows):
    assert _render_json(columns, rows, CONFIG) == _reference(columns, rows, CONFIG)


@pytest.mark.parametrize("initial,law", [
    (BlochVector(1.0, 0.0, 0.0), FeedbackLaw(enabled=False)),
    (BlochVector(0.36, 0.48, 0.8), FeedbackLaw(enabled=False)),
])
def test_stats_rows_hold_plain_python_cells(initial, law):
    cfg = SimConfig(homodyne=HomodyneConfig(), law=law, initial=initial,
                    steps=12, trajectories=3, master_seed=8, record_stride=5)
    stats = run_ensemble(cfg)
    rows = _stats_rows(stats, prefix=(7,))
    assert len(rows) == stats.steps.size
    for r, row in enumerate(rows):
        assert len(row) == 1 + len(ENSEMBLE_COLUMNS)
        assert type(row[0]) is int and type(row[1]) is int
        assert row[:2] == [7, int(stats.steps[r])]
        floats = [stats.gamma_t[r], *stats.mean[r], *stats.se[r]]
        assert all(type(v) is float for v in row[2:9] + row[10:])
        assert row[2:9] == [float(v) for v in floats]
        assert row[10:] == [float(stats.fidelity[r]), float(stats.purity[r])]
        if stats.angle_var is None:
            assert row[9] is None
        else:
            assert type(row[9]) is float and row[9] == float(stats.angle_var[r])
    assert (stats.angle_var is None) == (initial.sy != 0.0)
    assert _render_json(SWEEP_COLUMNS, rows, CONFIG) == _reference(SWEEP_COLUMNS, rows, CONFIG)
