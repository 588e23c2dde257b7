"""Smoke test: every narrative demo, and the README's library quick start,
runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the warnings that pyproject.toml makes errors in the suite's own process
WARNINGS_AS_ERRORS = [f"-Werror::{category}" for category in
                      ("RuntimeWarning", "DeprecationWarning", "FutureWarning")]


def run_python(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = run_python(["-c", block], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
