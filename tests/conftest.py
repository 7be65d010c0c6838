"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.energy import Estimator


@pytest.fixture
def rng():
    """A deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def estimator():
    """One shared energy estimator (costing is pure, caching helps)."""
    return Estimator()


@pytest.fixture(scope="session")
def paper_run(estimator):
    """Every registered artifact computed once per session, under one
    context: ``(ctx, name -> result)``."""
    from repro.eval.artifacts import ARTIFACTS, compute_artifacts
    from repro.eval.engine import EngineContext

    ctx = EngineContext.coerce(estimator)
    return ctx, compute_artifacts(list(ARTIFACTS), ctx)
