import numpy as np
import pytest

from darkfloquet import ConfigError, quasi_energy_sweep
from darkfloquet import evolve

FULL_GRID = np.linspace(0.0, 5.0, 201)


@pytest.fixture(scope="session")
def sweep_n3_full():
    """Branch-tracked Floquet sweep for the three-level chain, 201 points."""
    return quasi_energy_sweep(3, 1.0, 10.0, FULL_GRID)


@pytest.fixture(scope="session")
def sweep_n4_full():
    """Branch-tracked Floquet sweep for the four-level chain, 201 points."""
    return quasi_energy_sweep(4, 1.0, 10.0, FULL_GRID)


@pytest.fixture
def charged(monkeypatch):
    """charged(call, values): call() runs with evolve.MAX_KEPT_VALUES =
    values, and one less refuses it with values in the message."""
    def check(call, values):
        monkeypatch.setattr(evolve, "MAX_KEPT_VALUES", values)
        call()
        monkeypatch.setattr(evolve, "MAX_KEPT_VALUES", values - 1)
        with pytest.raises(ConfigError, match=f"would hold {values} values"):
            call()
    return check
