"""Lazy package ``__init__``s: every public name still resolves.

A typo in a package's lazy export map fails only when that name is
first accessed, so this walks every name of every lazy package.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAZY_PACKAGES = (
    "repro",
    "repro.sparsity",
    "repro.dnn",
    "repro.compression",
    "repro.pruning",
    "repro.eval",
    "repro.accelerators",
    "repro.model",
)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_public_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for public in package.__all__:
        assert getattr(package, public) is not None, public
        assert public in listed, public


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_all(name):
    package = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_version_is_a_literal():
    import repro

    assert repro.__version__ == "1.0.0"


def test_submodule_import_does_not_shadow_same_named_function():
    """``repro.sparsity.sparsify`` is both a submodule and the function
    the package re-exports from it; importing the submodule first (as
    ``repro.pruning.schemes`` does) must not rebind the package name
    to the module."""
    probe = (
        "import repro.sparsity.sparsify, repro.sparsity, repro\n"
        "print(callable(repro.sparsity.sparsify), "
        "callable(repro.sparsify))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.stdout.split() == ["True", "True"]
