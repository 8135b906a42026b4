"""Fixed-step RK4 for the one-period propagator U(s), 0 <= s <= T, of the
driven Schrödinger equation; the monodromy matrix U(T) and every longer
trajectory are read off it.

No re-normalization is ever applied mid-trajectory: norm drift is kept as a
quality diagnostic, and propagation aborts if it exceeds its bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StepSizeError, UnitarityError
from .linalg import _unitarity_defect
from .model import DrivenSystem, hamiltonian_at

__all__ = [
    "PropagationSettings",
    "Trajectory",
    "propagate",
    "monodromy",
    "propagator_samples",
]

NORM_DRIFT_ABORT = 1e-4
UNITARITY_ABORT = 1e-8  # the tolerance of linalg.unitary_eigen, which U(T) feeds


@dataclass(frozen=True)
class PropagationSettings:
    steps_per_period: int = 2000

    def __post_init__(self):
        if self.steps_per_period < 100:
            raise ConfigError("steps_per_period must be >= 100, got "
                              f"{self.steps_per_period}")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def norm_drift(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # NaN: guard trips
            norms = np.linalg.norm(self.states, axis=1)
        return float(np.max(np.abs(norms - 1.0)))


def _rk4_run(system: DrivenSystem, n_steps: int):
    """RK4 on i dU/dt = H(t) U over one drive period, from U(0) = 1.

    Returns (times, us) with us[k] = U(times[k]); us[-1] = U(T).
    """
    h = system.period / n_steps
    half_amp = 0.5 * system.amplitude
    omega = system.omega
    signs = np.asarray(system.drive_signs, dtype=float)
    off = hamiltonian_at(system, 0.0)  # sin 0 = 0: the bare coupling matrix

    # drive values at t, t + h/2, t + h for every step
    ts = h * np.arange(n_steps + 1)
    sin_full = half_amp * np.sin(omega * ts)
    sin_half = half_amp * np.sin(omega * (ts[:-1] + 0.5 * h))

    def rhs(sin_t, y):
        return -1j * (off @ y + (signs * sin_t)[:, None] * y)

    y = np.eye(system.n, dtype=complex)
    us = np.empty((n_steps + 1,) + y.shape, dtype=complex)
    us[0] = y
    # inf/NaN from a too coarse step is left to the callers' guards to report
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            s0, sh, s1 = sin_full[k], sin_half[k], sin_full[k + 1]
            k1 = rhs(s0, y)
            k2 = rhs(sh, y + (0.5 * h) * k1)
            k3 = rhs(sh, y + (0.5 * h) * k2)
            k4 = rhs(s1, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            us[k + 1] = y
    return ts, us


def propagate(system: DrivenSystem, initial: np.ndarray, periods: int,
              settings: PropagationSettings = PropagationSettings()) -> Trajectory:
    """Propagate a state over a whole number of drive periods.

    H is periodic, so the state at t = mT + s is U(s) U(T)^m psi(0): one RK4
    period gives U(s) on the grid, and each period starts from the last
    state of the one before. Aborts if the norm drifts by more than 1e-4.
    """
    if not isinstance(periods, (int, np.integer)) or periods < 1:
        raise ConfigError(f"periods must be a positive integer, got {periods!r}")
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (system.n,):
        raise ConfigError(f"initial state must have {system.n} components")
    nrm = np.linalg.norm(initial)
    if abs(nrm - 1.0) > 1e-9:
        raise ConfigError(f"initial state norm is {nrm}, expected 1")
    n_steps = settings.steps_per_period
    _, us = _rk4_run(system, n_steps)
    states = np.empty((periods * n_steps + 1, system.n), dtype=complex)
    states[0] = initial
    with np.errstate(over="ignore", invalid="ignore"):  # NaN: guard trips
        for start in range(0, periods * n_steps, n_steps):
            states[start + 1:start + n_steps + 1] = us[1:] @ states[start]
    traj = Trajectory(times=(system.period / n_steps) * np.arange(len(states)),
                      states=states)
    drift = traj.norm_drift
    if not drift <= NORM_DRIFT_ABORT:  # also trips on NaN
        raise StepSizeError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_ABORT}; increase "
            f"steps_per_period (currently {settings.steps_per_period})")
    return traj


def propagator_samples(system: DrivenSystem,
                       settings: PropagationSettings = PropagationSettings()):
    """Propagator U(t) sampled at every integrator step over one period.

    Returns (times, us) with us[k] = U(times[k]); us[-1] is the monodromy
    matrix U(T).
    """
    ts, us = _rk4_run(system, settings.steps_per_period)
    defect = _unitarity_defect(us[-1])
    if not defect <= UNITARITY_ABORT:  # also trips on NaN
        raise UnitarityError(
            f"monodromy unitarity defect {defect:.3e} exceeds "
            f"{UNITARITY_ABORT}; increase steps_per_period "
            f"(currently {settings.steps_per_period})")
    return ts, us


def monodromy(system: DrivenSystem,
              settings: PropagationSettings = PropagationSettings()) -> np.ndarray:
    """One-period propagator U(T) from the n coordinate basis states."""
    return propagator_samples(system, settings)[1][-1]

