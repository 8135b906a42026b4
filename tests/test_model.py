import numpy as np
import pytest

from darkfloquet import ConfigError, DrivenSystem, monodromy
from darkfloquet import evolve

from oracles import expm_scaling_squaring, j0_first_zero_oracle


def test_undriven_hamiltonian_is_bare_chain():
    # A = 0: U(T) = exp(-i C T) with C the nearest-neighbour chain
    system = DrivenSystem(3, 1.0, 0.0, 10.0)
    bare = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    expected = expm_scaling_squaring(-1j * system.period * bare)
    assert np.max(np.abs(monodromy(system) - expected)) <= 1e-10


def test_canonical_sign_pattern():
    # v = 0 decouples the sites: U(s) is diagonal with phases
    # -sign_j (A / 2 omega) (1 - cos omega s), and at s = T/4 cos vanishes
    system = DrivenSystem(5, 0.0, 20.0, 10.0)
    for k, us in evolve._rk4_steps([system], 2000):
        if k == 500:
            break
    signs = np.array([1.0, -1.0, -1.0, -1.0, -1.0])
    expected = np.diag(np.exp(-1j * signs * 20.0 / (2 * 10.0)))
    assert k == 500 and np.max(np.abs(us[0] - expected)) <= 1e-10
    assert DrivenSystem(3, 1.0, 24.0, 10.0).ratio == pytest.approx(2.4)


def test_first_zero_system():
    root = j0_first_zero_oracle()
    system = DrivenSystem(2, 1.0, root * 10.0, 10.0)
    assert system.ratio == pytest.approx(root, abs=1e-12)


@pytest.mark.parametrize("n,amplitude,omega", [
    (1, 0.0, 10.0), (0, 0.0, 10.0), (3, 0.0, 0.0), (3, 0.0, -1.0),
    (3, -1.0, 10.0)],
    ids=["1-10.0", "0-10.0", "3-0.0", "3--1.0", "negative-amplitude"])
def test_invalid_parameters_rejected(n, amplitude, omega):
    with pytest.raises(ConfigError):
        DrivenSystem(n, 1.0, amplitude, omega)
