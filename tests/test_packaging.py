"""Packaging metadata: ``pyproject.toml`` names the package and its
console script."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_reports_project_name():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "repro"


def test_console_script_target_exists():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    module, _, attr = project["scripts"]["repro"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
