"""Fixed-step RK4 for the one-period propagator U(s), 0 <= s <= T, of the
driven Schrödinger equation; the monodromy matrix U(T) and every longer
trajectory are read off it. The loop stops at W = U(T/2): the chain is
bipartite and the drive flips sign after half a period, so with
Γ = diag(+1, -1, +1, ...), Γ H(t + T/2) Γ = -H(t)* and U(s + T/2) =
Γ conj(U(s)) Γ W. RK4 keeps this relation exactly in exact arithmetic (its
stage polynomials have real coefficients) when steps_per_period is even.

One step loop advances a (G, n, n) stack of propagators for a grid of drive
amplitudes that share n, v and omega, with the same arithmetic per point as
a one-point grid. Each caller keeps only what it reads: every U(s), row 0
of every U(s), or the period averages of the site projectors.

No re-normalization is ever applied mid-trajectory: norm drift is kept as a
quality diagnostic, and propagation aborts if it exceeds its bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StepSizeError, UnitarityError
from .linalg import UNITARITY_TOL, _effective_matrix, _unitarity_defect
from .model import DrivenSystem

__all__ = [
    "PropagationSettings",
    "Trajectory",
    "propagate",
    "monodromy",
    "propagator_site1",
    "propagator_averages",
]

NORM_DRIFT_ABORT = 1e-4


@dataclass(frozen=True)
class PropagationSettings:
    steps_per_period: int = 2000

    def __post_init__(self):
        if self.steps_per_period < 100 or self.steps_per_period % 2:
            raise ConfigError("steps_per_period must be even and >= 100, got "
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


def _rk4_run(systems, n_steps: int, visit):
    """RK4 on i dU/dt = H(t) U from U(0) = 1 to W = U(T/2), for a grid of
    systems that share n, v and omega; H(t) is the bare chain plus sign_j
    (A/2) sin(omega t) on site j. Calls visit(k, us) with us[g] = U(k h) of
    systems[g] for k <= n_steps/2; returns (h k for k <= n_steps, W)."""
    first = systems[0]
    n, omega = first.n, first.omega
    if any((s.n, s.v, s.omega) != (n, first.v, omega) for s in systems):
        raise ConfigError("a propagator grid must share n, v and omega")
    h, half = first.period / n_steps, n_steps // 2
    signs = np.array([1.0] + [-1.0] * (n - 1))  # site 1 against the rest
    half_amp = 0.5 * np.array([s.amplitude for s in systems])
    # amp[i, g] = sign_i A_g / 2: site i of point g has energy amp sin(omega t)
    amp = signs[:, None, None] * half_amp[:, None]
    off = _effective_matrix(n, first.v, first.v).astype(complex)

    # sin(omega t) at t and t + h/2 for every step of the first half
    ts = h * np.arange(n_steps + 1)
    sin_full = np.sin(omega * ts[:half + 1])
    sin_half = np.sin(omega * (ts[:half] + 0.5 * h))

    # y[i, g, :] is row i of grid point g's propagator, so that one matrix
    # product applies the coupling to the whole grid
    def rhs(drive, y):
        hop = (off @ y.reshape(n, -1)).reshape(y.shape)
        return -1j * (hop + drive * y)

    y = np.repeat(np.eye(n, dtype=complex)[:, None, :], len(systems), axis=1)
    d1 = amp * sin_full[0]
    # inf/NaN from a too coarse step is left to the callers' guards to report
    with np.errstate(over="ignore", invalid="ignore"):
        visit(0, y.transpose(1, 0, 2))
        for k in range(half):
            d0, dh, d1 = d1, amp * sin_half[k], amp * sin_full[k + 1]
            k1 = rhs(d0, y)
            k2 = rhs(dh, y + (0.5 * h) * k1)
            k3 = rhs(dh, y + (0.5 * h) * k2)
            k4 = rhs(d1, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            visit(k + 1, y.transpose(1, 0, 2))
    return ts, y.transpose(1, 0, 2)


def _glide(a, w, rows=False):
    """Γ conj(a) Γ W: U(s + T/2) for a = U(s) and W = U(T/2), or its row 0
    for rows=True and a = row 0 of U(s), which Γ leaves as it is."""
    gamma = (-1.0) ** np.arange(w.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # NaN: guards trip
        out = (a.conj() * gamma) @ w
        return out if rows else gamma[:, None] * out


def _period_maps(systems, settings: PropagationSettings, w: np.ndarray):
    """U(T) = Γ conj(W) Γ W of every grid point; aborts unless each is
    unitary to UNITARITY_TOL, the tolerance of the eigensolver it feeds."""
    uts = _glide(w, w)
    for system, u in zip(systems, uts):
        defect = _unitarity_defect(u)
        if not defect <= UNITARITY_TOL:  # also trips on NaN
            raise UnitarityError(
                f"monodromy unitarity defect {defect:.3e} at A/omega="
                f"{system.ratio:.6g} exceeds {UNITARITY_TOL}; increase "
                f"steps_per_period (currently {settings.steps_per_period})")
    return uts


def propagate(system: DrivenSystem, initial: np.ndarray, periods: int,
              settings: PropagationSettings = PropagationSettings()) -> Trajectory:
    """Propagate a state over a whole number of drive periods.

    H is periodic, so the state at t = mT + s is U(s) U(T)^m psi(0), with
    U(s) from the half-period loop, and each period starts from the last
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
    us = np.empty((n_steps + 1, system.n, system.n), dtype=complex)

    def keep(k, y):
        us[k] = y[0]

    _, w = _rk4_run([system], n_steps, keep)
    us[n_steps // 2 + 1:] = _glide(us[1:n_steps // 2 + 1], w[0])
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


def monodromy(system: DrivenSystem,
              settings: PropagationSettings = PropagationSettings()) -> np.ndarray:
    """One-period propagator U(T) from the n coordinate basis states."""
    _, w = _rk4_run([system], settings.steps_per_period, lambda k, y: None)
    return _period_maps([system], settings, w)[0]


def propagator_site1(systems,
                     settings: PropagationSettings = PropagationSettings()):
    """(times, rows, uts) over one period for a grid of systems that share
    n, v and omega: rows[g, k] = <1|U(times[k]), uts[g] = U(T)."""
    rows = np.empty((len(systems), settings.steps_per_period + 1,
                     systems[0].n), dtype=complex)

    def keep(k, y):
        rows[:, k] = y[:, 0]

    ts, w = _rk4_run(systems, settings.steps_per_period, keep)
    half = settings.steps_per_period // 2
    rows[:, half + 1:] = _glide(rows[:, 1:half + 1], w, rows=True)
    return ts, rows, _period_maps(systems, settings, w)


def propagator_averages(systems,
                        settings: PropagationSettings = PropagationSettings()):
    """(times, q, uts) for a grid of systems that share n, v and omega:
    q[g, j] = (1/T) int_0^T U^dag |j><j| U dt by the trapezoid rule, so that
    a state c(0) spends c^dag q[g, j] c of the period on site j; uts[g] =
    U(T). The loop sums the first half, S; the second is W^dag Γ S* Γ W."""
    n, n_steps = systems[0].n, settings.steps_per_period
    q = np.zeros((len(systems), n, n, n), dtype=complex)
    term = np.empty_like(q)

    def accumulate(k, y):
        np.multiply(y.conj()[..., :, None], y[..., None, :], out=term)
        if k in (0, n_steps // 2):  # trapezoid end weights
            np.multiply(term, 0.5, out=term)
        np.add(q, term, out=q)

    ts, w = _rk4_run(systems, n_steps, accumulate)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN: guard trips
        q += w.conj().swapaxes(-1, -2)[:, None] @ _glide(q, w[:, None])
    return ts, q / n_steps, _period_maps(systems, settings, w)
