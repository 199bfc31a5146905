import math

import numpy as np
import pytest
from hypothesis import settings

from smoothschur import Tolerances, operator_core

KINDS = ("sharp", "smooth", "nonselfadjoint")

# every property draws the same examples on every run and keeps no example
# database, so no run depends on an earlier one
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def tol():
    return Tolerances()


def crandn(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


@pytest.fixture
def exact_norms(monkeypatch):
    """Run a callable with norm_bounds returning (0, inf), which leaves every
    norm_gate verdict open: every gate then takes the exact spectral norms,
    the path the bracket replaces."""

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(operator_core, "norm_bounds", lambda M: (0.0, math.inf))
            return fn(*args)

    return run
