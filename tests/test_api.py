"""Public-surface tests: what the package exports and what the docs cite.

The README's library example is run as written, so the docs cannot keep
citing a name the package no longer has.
"""

import ast
import importlib
import re
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
    assert len(set(monitored_atom.__all__)) == len(monitored_atom.__all__) == 28


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
])
def test_removed_helpers_are_gone(module, owner, name):
    """Each of these only restated another public name; none is left on
    its module, its class or the package."""
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


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S)
    assert block is not None
    out = subprocess.run([sys.executable, "-c", block.group(1)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
