import numpy as np
import pytest

from darkfloquet import (ConfigError, PropagationSettings, canonical_system,
                         monodromy, propagate)
from darkfloquet.evolve import propagator_samples

from oracles import j0_first_zero_oracle, rk4_states


def basis_state(n, j=0):
    c = np.zeros(n, dtype=complex)
    c[j] = 1.0
    return c


def test_decoupled_sites_return_after_one_period():
    # v = 0: sites decouple, and the drive integrates to zero over a period
    system = canonical_system(3, 0.0, 24.0, 10.0)
    traj = propagate(system, basis_state(3), 1)
    assert np.max(np.abs(traj.final_state - basis_state(3))) <= 1e-8


def test_undriven_rabi_oscillation_reaches_zero():
    system = canonical_system(3, 1.0, 0.0, 10.0)
    traj = propagate(system, basis_state(3), 20)  # t up to 4 pi
    assert traj.populations[:, 0].min() <= 1e-3
    # P1(t) = cos^4(t / sqrt(2)) for the undriven chain
    expected = np.cos(traj.times / np.sqrt(2)) ** 4
    assert np.max(np.abs(traj.populations[:, 0] - expected)) <= 1e-7


def test_suppressed_tunneling_near_first_bessel_zero():
    system = canonical_system(3, 1.0, 24.0, 10.0)  # A/omega = 2.4
    traj = propagate(system, basis_state(3), 100)
    assert traj.populations[:, 0].min() >= 0.98


def test_settings_validation():
    with pytest.raises(ConfigError):
        PropagationSettings(steps_per_period=50)
    for periods in (0, -1, 2.5, 1.0):
        with pytest.raises(ConfigError):
            propagate(canonical_system(3, 1, 0, 10), basis_state(3), periods)
    with pytest.raises(ConfigError):
        propagate(canonical_system(3, 1, 0, 10), 2 * basis_state(3), 1)


def test_norm_drift_is_tiny_and_monitored():
    system = canonical_system(3, 1.0, 20.0, 10.0)
    traj = propagate(system, basis_state(3), 50)
    assert traj.norm_drift <= 1e-6
    assert np.all(np.diff(traj.times) > 0)


def test_composition_of_period_maps():
    system = canonical_system(3, 1.0, 20.0, 10.0)
    first = propagate(system, basis_state(3), 1)
    start = first.final_state / np.linalg.norm(first.final_state)
    second = propagate(system, start, 1)
    direct = propagate(system, basis_state(3), 2)
    assert np.max(np.abs(second.final_state - direct.final_state)) <= 1e-8


def test_step_halving_converges_monotonically():
    system = canonical_system(3, 1.0, 20.0, 10.0)
    reference = propagate(system, basis_state(3), 5,
                          PropagationSettings(steps_per_period=16000)).final_state
    errors = []
    for steps in (500, 1000, 2000, 4000):
        final = propagate(system, basis_state(3), 5,
                          PropagationSettings(steps_per_period=steps)).final_state
        errors.append(np.max(np.abs(final - reference)))
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[2] <= 1e-6  # doubling from the default changes little


@pytest.mark.parametrize("n", [3, 5])
def test_states_match_direct_stepping(n):
    # the period-map states against a plain RK4 over every step
    system = canonical_system(n, 1.0, 20.0, 10.0)
    traj = propagate(system, basis_state(n), 12)
    direct = rk4_states(system, basis_state(n), 12, 2000)
    assert traj.states.shape == direct.shape
    assert np.max(np.abs(traj.states - direct)) <= 1e-12
    assert traj.times[-1] == pytest.approx(12 * system.period)


class TestMonodromy:
    def test_identity_at_zero_coupling(self):
        u = monodromy(canonical_system(3, 0.0, 24.0, 10.0))
        assert np.max(np.abs(u - np.eye(3))) <= 1e-8

    def test_undriven_eigenphases(self):
        from darkfloquet import unitary_eigen
        system = canonical_system(3, 1.0, 0.0, 10.0)
        dec = unitary_eigen(monodromy(system))
        expected = np.sort(-np.array([-np.sqrt(2), 0, np.sqrt(2)]) * system.period)
        assert np.allclose(np.sort(np.angle(dec.eigenvalues)), expected,
                           atol=1e-7)

    def test_two_level_degeneracy_at_bessel_zero(self):
        from darkfloquet import unitary_eigen
        root = j0_first_zero_oracle()
        system = canonical_system(2, 1.0, root * 10.0, 10.0)
        dec = unitary_eigen(monodromy(system))
        phases = np.angle(dec.eigenvalues)
        assert abs(phases[0] - phases[1]) <= 5e-2

    def test_unitarity_and_determinant(self):
        u = monodromy(canonical_system(4, 1.0, 30.0, 10.0))
        defect = np.max(np.abs(u.conj().T @ u - np.eye(4)))
        assert defect <= 1e-8
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-8

    def test_samples_end_at_monodromy(self):
        system = canonical_system(3, 1.0, 20.0, 10.0)
        ts, us = propagator_samples(system)
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(system.period)
        assert np.max(np.abs(us[-1] - monodromy(system))) <= 1e-12
        assert np.max(np.abs(us[0] - np.eye(3))) == 0.0
