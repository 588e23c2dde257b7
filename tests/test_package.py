"""Checks on the package as a whole: what its runtime imports, and what its
modules import from one another."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_loads_no_scipy():
    # SciPy is a test-only extra; importing scipy.fft costs ~27 MB RSS and ~0.3 s
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, blehop.cli; sys.exit('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr or "importing blehop.cli loads scipy"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_src_imports_no_other_modules_private_names():
    # a relative `from .x import _name` is refused, and so is `x._name` after a
    # relative `from . import x`; dunder names such as __version__ pass
    bad = []
    for path in sorted((ROOT / "src" / "blehop").glob("*.py")):
        tree = ast.parse(path.read_bytes())
        modules = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level and not node.module
                   for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                bad += [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} "
                        f"import {a.name}" for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in modules):
                bad.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert not bad, "\n".join(bad)
