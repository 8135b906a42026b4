import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkfloquet import ConfigError, canonical_system, hamiltonian_at

from oracles import j0_first_zero_oracle


def test_undriven_hamiltonian_is_bare_chain():
    system = canonical_system(3, 1.0, 0.0, 10.0)
    h = hamiltonian_at(system, 0.7)
    assert np.array_equal(h, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_peak_drive_diagonal():
    system = canonical_system(3, 1.0, 24.0, 10.0)
    t = np.pi / (2 * 10.0)  # sin(omega t) = 1
    h = hamiltonian_at(system, t)
    assert np.allclose(np.diag(h), [12.0, -12.0, -12.0], atol=1e-12)
    assert np.allclose(h - np.diag(np.diag(h)),
                       [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_two_level_system_matches_standard_driven_model():
    system = canonical_system(2, 1.0, 20.0, 10.0)
    t = 0.321
    h = hamiltonian_at(system, t)
    drive = 10.0 * np.sin(10.0 * t)
    assert np.allclose(h, [[drive, 1.0], [1.0, -drive]], atol=1e-12)


def test_canonical_sign_pattern():
    system = canonical_system(5, 1.0, 20.0, 10.0)
    t = np.pi / (2 * 10.0)  # sin(omega t) = 1
    assert np.allclose(np.diag(hamiltonian_at(system, t)),
                       [10.0, -10.0, -10.0, -10.0, -10.0], rtol=0, atol=1e-12)
    assert canonical_system(3, 1.0, 24.0, 10.0).ratio == pytest.approx(2.4)


def test_first_zero_system():
    root = j0_first_zero_oracle()
    system = canonical_system(2, 1.0, root * 10.0, 10.0)
    assert system.ratio == pytest.approx(root, abs=1e-12)


@pytest.mark.parametrize("n,omega", [(1, 10.0), (0, 10.0), (3, 0.0), (3, -1.0)])
def test_invalid_parameters_rejected(n, omega):
    with pytest.raises(ConfigError):
        canonical_system(n, 1.0, 0.0, omega)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(-50, 50), ratio=st.floats(0, 5),
       n=st.integers(2, 7))
def test_periodicity_trace_and_symmetry(t, ratio, n):
    system = canonical_system(n, 1.0, ratio * 10.0, 10.0)
    h = hamiltonian_at(system, t)
    h_shift = hamiltonian_at(system, t + system.period)
    assert np.max(np.abs(h - h_shift)) <= 1e-12 * max(1.0, system.amplitude)
    # one + sign and n-1 minus signs on the diagonal
    expected_trace = -(n - 2) * 0.5 * system.amplitude * np.sin(10.0 * t)
    assert np.trace(h) == pytest.approx(expected_trace, abs=1e-9)
    assert np.array_equal(h, h.T)
    assert np.isrealobj(h)
