import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from storesched import PriceSeries, StorageParams

# CI runs pytest --hypothesis-profile=ci: derandomized examples, and a failure
# prints the blob that replays it with @reproduce_failure.  The examples are
# the same only while the tests and the package are: Hypothesis also draws
# constants from the package's source, so an edit to src/ can change them.
# An instance that must be checked on every run is pinned with @example.
settings.register_profile("ci", derandomize=True, print_blob=True)
# The long run of the counterexample hunts, every test whose name holds "hunt":
#   pytest tests -k hunt --hypothesis-profile=hunt
settings.register_profile("hunt", max_examples=12_000, derandomize=True, print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def fast_storage():
    """Unit-capacity storage that full-cycles within one period."""
    return StorageParams(
        s_min=0.0, s_max=1.0, s_init=0.0,
        p_chg_max=2.0, p_dis_max=2.0,
        eta_c=0.9, eta_d=0.9, rho=1.0, dt=1.0,
    )


@pytest.fixture
def slow_storage():
    """Unit-capacity storage needing many hours for a full charge."""
    return StorageParams(
        s_min=0.0, s_max=1.0, s_init=0.0,
        p_chg_max=0.2, p_dis_max=0.2,
        eta_c=0.9, eta_d=0.9, rho=1.0, dt=1.0,
    )


@pytest.fixture
def day_prices():
    """24 periods with one 4-hour negative run (periods 11-14)."""
    values = np.full(24, 30.0)
    values[:10] = np.linspace(40.0, 22.0, 10)
    values[10:14] = [-5.0, -20.0, -12.0, -2.0]
    values[14:] = np.linspace(25.0, 60.0, 10)
    return PriceSeries(values, 1.0)
