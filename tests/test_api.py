"""Public-surface tests: what the package exports and what the docs cite.

The README's library and command-line examples are run as written, so
the docs cannot keep citing a name or a flag the package no longer has.
"""

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import monitored_atom

README = Path(__file__).parent.parent / "README.md"
SRC = Path(monitored_atom.__file__).parent


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from monitored_atom import *", ns)
    assert sorted(k for k in ns if k != "__builtins__") == sorted(monitored_atom.__all__)
    assert len(set(monitored_atom.__all__)) == len(monitored_atom.__all__) == 25


@pytest.mark.parametrize("module,owner,name", [
    ("homodyne", None, "vacuum_outcome_pdf"),
    ("trajectory", None, "angle_variance"),
    ("feedback", None, "residual_rotation"),
    ("feedback", None, "RESIDUAL_GUARD"),
    ("state", "PureState", "excited_population"),
    ("trajectory", "DensityMatrix2", "purity"),
    ("state", None, "BlochAngle"),
    ("state", None, "angle_of"),
    ("homodyne", None, "delta_theta"),
    ("homodyne", None, "diffusion_step_first_order"),
    ("homodyne", None, "coherent_outcome_pdf"),
    ("homodyne", None, "CoherentAmplitude"),
    ("homodyne", None, "WEAK_FIELD_CEILING"),
])
def test_removed_helpers_are_gone(module, owner, name):
    """Each of these only restated another public name or was read by no
    run path; none is left on its module, its class or the package."""
    mod = importlib.import_module(f"monitored_atom.{module}")
    holder = mod if owner is None else getattr(mod, owner)
    assert not hasattr(holder, name)
    if owner is None:
        assert not hasattr(monitored_atom, name)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    """A name a module imports and never reads is a leftover, such as a
    removed helper still imported.  The package's own imports are its
    re-exports, read through __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(monitored_atom.__all__)
    assert sorted(imported - used) == []


def test_hot_loops_read_no_numpy_attribute():
    """Inside the law bodies, both kernels' step closures and the per-step
    loop of _slab_records, no name is read as an attribute of np: they
    call their ufuncs through names imported once.  numpy's module-level
    __getattr__ keeps CPython 3.11 from caching attribute loads on numpy,
    so each such read is a generic lookup: 47.9 ns against 14.0 ns on a
    module without __getattr__ (thread CPU time, median of 15 rounds)."""
    defs = {}
    for module in ("homodyne", "feedback", "trajectory"):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        defs.update((f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef))
    hot = {name: defs[name] for name in ("_kappa", "_drive_factors", "_rotate", "_condition",
                                         "_record_mean", "_step_field", "_advance", "_shift",
                                         "feedback_amplitude")}
    for kernel in ("_exact_kernel", "_first_order_kernel"):
        (hot[kernel],) = (f for f in ast.walk(defs[kernel])
                          if isinstance(f, ast.FunctionDef) and f.name == "step")
    # The loops that call the kernel's step; the innermost one is per step.
    loops = [n for n in ast.walk(defs["_slab_records"]) if isinstance(n, ast.For)
             and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "step"
                     for c in ast.walk(n))]
    (hot["_slab_records"],) = (n for n in loops
                               if not any(m is not n and m in loops for m in ast.walk(n)))
    reads = {name: sorted({n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                           and isinstance(n.value, ast.Name) and n.value.id == "np"})
             for name, node in hot.items()}
    assert {name: r for name, r in reads.items() if r} == {}


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S)
    assert block is not None
    out = subprocess.run([sys.executable, "-c", block.group(1)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def _readme_cli_examples():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", text, re.S)
    assert block is not None
    return re.sub(r"\\\n\s*", " ", block.group(1)).splitlines()


@pytest.mark.parametrize("line", _readme_cli_examples())
def test_readme_cli_example_runs(tmp_path, line):
    """Each command-line example runs as written, through the module entry
    point, and writes a table to stdout or to its --out file."""
    prog, *args = shlex.split(line)
    assert prog == "monitored-atom"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-m", "monitored_atom", *args], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    written = [p.read_text(encoding="utf-8") for p in tmp_path.iterdir()]
    assert out.stdout.strip() or any(t.strip() for t in written)
