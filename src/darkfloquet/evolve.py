"""Fixed-step RK4 propagation of the driven Schrödinger equation and the
one-period propagator (monodromy matrix).

No re-normalization is ever applied mid-trajectory: norm drift is kept as a
quality diagnostic, and propagation aborts if it exceeds its bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StepSizeError, UnitarityError
from .model import DrivenSystem, hamiltonian_at

__all__ = [
    "PropagationSettings",
    "Trajectory",
    "propagate",
    "monodromy",
    "propagator_samples",
]

NORM_DRIFT_ABORT = 1e-4
UNITARITY_ABORT = 1e-6


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
        norms = np.linalg.norm(self.states, axis=1)
        return float(np.max(np.abs(norms - 1.0)))


def _rk4_run(system: DrivenSystem, y0: np.ndarray, t0: float, n_steps: int,
             h: float):
    """RK4 on i dy/dt = H(t) y; y may be a vector or a matrix of columns.

    Returns (times, stack) with stack[k] the state at times[k].
    """
    half_amp = 0.5 * system.amplitude
    omega = system.omega
    signs = np.asarray(system.drive_signs, dtype=float)
    off = hamiltonian_at(system, 0.0)  # sin 0 = 0: the bare coupling matrix

    # drive values at t, t + h/2, t + h for every step
    ts = t0 + h * np.arange(n_steps + 1)
    sin_full = half_amp * np.sin(omega * ts)
    sin_half = half_amp * np.sin(omega * (ts[:-1] + 0.5 * h))

    def rhs(sin_t, y):
        diag = (signs * sin_t)
        if y.ndim == 1:
            return -1j * (off @ y + diag * y)
        return -1j * (off @ y + diag[:, None] * y)

    y = np.asarray(y0, dtype=complex).copy()
    stack = np.empty((n_steps + 1,) + y.shape, dtype=complex)
    stack[0] = y
    for k in range(n_steps):
        s0, sh, s1 = sin_full[k], sin_half[k], sin_full[k + 1]
        k1 = rhs(s0, y)
        k2 = rhs(sh, y + (0.5 * h) * k1)
        k3 = rhs(sh, y + (0.5 * h) * k2)
        k4 = rhs(s1, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        stack[k + 1] = y
    return ts, stack


def propagate(system: DrivenSystem, initial: np.ndarray, t0: float, t1: float,
              settings: PropagationSettings = PropagationSettings()) -> Trajectory:
    """Propagate a state over [t0, t1] on a uniform RK4 grid.

    The step is the drive period divided by steps_per_period (rounded so the
    grid lands exactly on t1). Aborts if the norm drifts by more than 1e-4.
    """
    if not t1 > t0:
        raise ConfigError(f"need t1 > t0, got [{t0}, {t1}]")
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (system.n,):
        raise ConfigError(f"initial state must have {system.n} components")
    nrm = np.linalg.norm(initial)
    if abs(nrm - 1.0) > 1e-9:
        raise ConfigError(f"initial state norm is {nrm}, expected 1")
    h_target = system.period / settings.steps_per_period
    n_steps = max(1, round((t1 - t0) / h_target))
    h = (t1 - t0) / n_steps
    ts, stack = _rk4_run(system, initial, t0, n_steps, h)
    traj = Trajectory(times=ts, states=stack)
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
    n_steps = settings.steps_per_period
    h = system.period / n_steps
    ts, us = _rk4_run(system, np.eye(system.n, dtype=complex), 0.0, n_steps, h)
    _check_unitarity(us[-1], settings)
    return ts, us


def monodromy(system: DrivenSystem,
              settings: PropagationSettings = PropagationSettings()) -> np.ndarray:
    """One-period propagator U(T) from the n coordinate basis states."""
    return propagator_samples(system, settings)[1][-1]


def _check_unitarity(u: np.ndarray, settings: PropagationSettings):
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if not defect <= UNITARITY_ABORT:  # also trips on NaN
        raise UnitarityError(
            f"monodromy unitarity defect {defect:.3e} exceeds "
            f"{UNITARITY_ABORT}; increase steps_per_period "
            f"(currently {settings.steps_per_period})")
