"""Fixed-step RK4 for the one-period propagator U(s), 0 <= s <= T, of the
driven Schrödinger equation; the monodromy matrix U(T) and every longer
trajectory are read off it. The loop stops at W = U(T/2): the chain is
bipartite and the drive flips sign after half a period, so with
Γ = diag(+1, -1, +1, ...), Γ H(t + T/2) Γ = -H(t)* and U(s + T/2) =
Γ conj(U(s)) Γ W. RK4 keeps this relation exactly in exact arithmetic (its
stage polynomials have real coefficients) when steps_per_period is even.

U(T) alone needs a quarter period: H(t) = H(T/2 - t) is real symmetric, so
the step ending at T/2 - k h is the transpose of the one starting at k h and
W = U(floor(N/4) h)^T U(ceil(N/4) h). A sample of U(s) past T/4 would need
(U^T)^-1, which conj(U) misses by RK4's unitarity defect, so samplers do not.

One step loop advances the propagators of a grid of drive amplitudes that
share n, v and omega. The hop of the chain is two shifted slice-adds, so a
point's arithmetic is that of a one-point grid. Callers keep what they read:
U(s), its row 0, or the site averages Q_j, summed QJ_BLOCK steps at a time.
Each array sized from a caller's input is first charged to `_hold`, which
refuses a run past MAX_KEPT_VALUES.

No re-normalization is ever applied mid-trajectory: norm drift is kept as a
quality diagnostic, and propagation aborts if it exceeds its bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StepSizeError, UnitarityError
from .linalg import UNITARITY_TOL, _unitarity_defect
from .model import DrivenSystem

__all__ = [
    "PropagationSettings",
    "Trajectory",
    "propagate",
    "monodromy",
    "period_maps",
    "propagator_site1",
    "propagator_averages",
]

NORM_DRIFT_ABORT = 1e-4
QJ_BLOCK = 50  # steps of U(s) that propagator_averages adds in one product
# complex values (800 MB) one array sized from a caller's input may hold
MAX_KEPT_VALUES = 5 * 10**7


def _hold(values: int, what: str) -> None:
    """Refuse a run that would hold more than MAX_KEPT_VALUES values of what."""
    if values > MAX_KEPT_VALUES:
        raise ConfigError(f"run would hold {values} values of {what}, "
                          f"more than {MAX_KEPT_VALUES}")


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


# inf/NaN from a too coarse step, or from a period so long that the tables
# overflow, is left to the callers' guards to report
@np.errstate(over="ignore", invalid="ignore")
def _rk4_run(systems, n_steps: int, visit, last: int | None = None):
    """RK4 on i dU/dt = H(t) U from U(0) = 1 to U(last h), last = n_steps/2
    unless given, for a grid of systems that share n, v and omega; H(t) is
    the bare chain plus sign_j (A/2) sin(omega t) on site j. Calls visit(k,
    us) with us[g] = U(k h) of systems[g] for k <= last, a view that the next
    step overwrites; returns (h k for k <= n_steps, U(last h))."""
    first = systems[0]
    n, omega = first.n, first.omega
    if any((s.n, s.v, s.omega) != (n, first.v, omega) for s in systems):
        raise ConfigError("a propagator grid must share n, v and omega")
    _hold(max(n_steps + 1, 4 * (n + 2) * len(systems) * n),
          "the step loop's time tables and state")
    h, last = first.period / n_steps, n_steps // 2 if last is None else last
    signs = np.array([1.0] + [-1.0] * (n - 1))  # site 1 against the rest
    half_amp = 0.5 * np.array([s.amplitude for s in systems])
    # -i h H(t): bond on every link, drive[i, g] sin(omega t) on site i of g
    bond = -1j * h * first.v
    drive = (-1j * h) * signs[:, None, None] * half_amp[:, None]

    # sin(omega t) at t and t + h/2 for every step taken
    ts = h * np.arange(n_steps + 1)
    sin_full = np.sin(omega * ts[:last + 1])
    sin_half = np.sin(omega * (ts[:last] + 0.5 * h))

    # y[i + 1, g, :] is row i of point g's propagator, z that of the stage
    # input; rows 0 and n + 1 stay zero, so the hop is two shifted slices
    y, z = np.zeros((2, n + 2, len(systems), n), dtype=complex)
    y[1:-1] = np.eye(n)[:, None, :]
    slope, acc = np.empty((2, n, len(systems), n), dtype=complex)
    u, ut, zc = y[1:-1], y[1:-1].transpose(1, 0, 2), z[1:-1]

    def rk_slope(d, below=z[:-2], above=z[2:], mid=zc):  # -i h H mid
        np.multiply(np.add(below, above, out=slope), bond, out=slope)
        return np.add(slope, d * mid, out=slope)

    d1 = drive * sin_full[0]
    visit(0, ut)
    for k in range(last):
        d0, dh, d1 = d1, drive * sin_half[k], drive * sin_full[k + 1]
        rk_slope(d0, y[:-2], y[2:], u)
        np.add(u, np.multiply(slope, 0.5, out=acc), out=zc)  # acc = K1/2
        acc += rk_slope(dh)
        np.add(u, 0.5 * slope, out=zc)
        acc += rk_slope(dh)
        np.add(u, slope, out=zc)
        # y += (K1 + 2 K2 + 2 K3 + K4) / 6
        u += (acc + 0.5 * rk_slope(d1)) / 3.0
        visit(k + 1, ut)
    return ts, ut


def _glide(a, w, rows=False):
    """Γ conj(a) Γ W: U(s + T/2) for a = U(s) and W = U(T/2), or its row 0
    for rows=True and a = row 0 of U(s), which Γ leaves as it is."""
    gamma = (-1.0) ** np.arange(w.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # NaN: guards trip
        out = (a.conj() * gamma) @ w
        return out if rows else gamma[:, None] * out


def _maps_from_half(systems, settings: PropagationSettings, w: np.ndarray):
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
    n_steps, half = settings.steps_per_period, settings.steps_per_period // 2
    _hold(max((half + 1) * system.n ** 2, (periods * n_steps + 1) * system.n),
          "U(s) up to T/2 or of the trajectory")
    us = np.empty((half + 1, system.n, system.n), dtype=complex)

    def keep(k, y):
        us[k] = y[0]

    _rk4_run([system], n_steps, keep)
    gamma = (-1.0) ** np.arange(system.n)
    states = np.empty((periods * n_steps + 1, system.n), dtype=complex)
    states[0] = initial
    with np.errstate(over="ignore", invalid="ignore"):  # NaN: guard trips
        for mid in range(half, periods * n_steps, n_steps):
            states[mid - half + 1:mid + 1] = us[1:] @ states[mid - half]
            # U(s + T/2) psi = Γ conj(U(s) Γ conj(W psi)), W psi = states[mid]
            states[mid + 1:mid + half + 1] = gamma * (
                us[1:] @ (gamma * states[mid].conj())).conj()
        traj = Trajectory(times=(system.period / n_steps) * np.arange(len(states)),
                          states=states)
    drift = traj.norm_drift
    if not drift <= NORM_DRIFT_ABORT:  # also trips on NaN
        raise StepSizeError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_ABORT}; increase "
            f"steps_per_period (currently {settings.steps_per_period})")
    return traj


def period_maps(systems, settings: PropagationSettings = PropagationSettings()):
    """(G, n, n) stack of U(T) for a grid of systems that share n, v and
    omega, from the first ceil(N/4) of the N steps of a period."""
    n_steps, low = settings.steps_per_period, []

    def keep(k, us):
        if k == n_steps // 4:
            low.append(us.copy())

    _, high = _rk4_run(systems, n_steps, keep, -(-n_steps // 4))
    with np.errstate(over="ignore", invalid="ignore"):  # NaN: guard trips
        return _maps_from_half(systems, settings, low[0].swapaxes(-1, -2) @ high)


def monodromy(system: DrivenSystem,
              settings: PropagationSettings = PropagationSettings()) -> np.ndarray:
    """One-period propagator U(T) from the n coordinate basis states."""
    return period_maps([system], settings)[0]


def propagator_site1(systems,
                     settings: PropagationSettings = PropagationSettings()):
    """(times, rows, uts) over one period for a grid of systems that share
    n, v and omega: rows[g, k] = <1|U(times[k]), uts[g] = U(T)."""
    _hold(len(systems) * (settings.steps_per_period + 1) * systems[0].n,
          "row 0 of U(s)")
    rows = np.empty((len(systems), settings.steps_per_period + 1,
                     systems[0].n), dtype=complex)

    def keep(k, y):
        rows[:, k] = y[:, 0]

    ts, w = _rk4_run(systems, settings.steps_per_period, keep)
    half = settings.steps_per_period // 2
    rows[:, half + 1:] = _glide(rows[:, 1:half + 1], w, rows=True)
    return ts, rows, _maps_from_half(systems, settings, w)


def propagator_averages(systems,
                        settings: PropagationSettings = PropagationSettings()):
    """(times, q, uts) for a grid of systems that share n, v and omega:
    q[g, j] = (1/T) int_0^T U^dag |j><j| U dt by the trapezoid rule, so that
    a state c(0) spends c^dag q[g, j] c of the period on site j; uts[g] =
    U(T). The loop sums the first half, S; the second is W^dag Γ S* Γ W."""
    n, half = systems[0].n, settings.steps_per_period // 2
    _hold(len(systems) * (n ** 3 + QJ_BLOCK * n ** 2), "Q_j and its block of U(s)")
    q = np.zeros((len(systems), n, n, n), dtype=complex)
    # the loop's U(k h) are summed into q QJ_BLOCK at a time: block[g, j, b]
    # is row j of U(k h) of point g for the b-th step k of a block
    block = np.empty((len(systems), n, QJ_BLOCK, n), dtype=complex)

    def add_gram(x, weight=1.0):  # q[g, j] += weight x[g, j]^dag x[g, j]
        np.add(q, weight * (x.conj().swapaxes(-1, -2) @ x), out=q)

    def accumulate(k, us):
        if 0 < k < half:
            block[:, :, (k - 1) % QJ_BLOCK] = us
            if k % QJ_BLOCK == 0:
                add_gram(block)
            return
        if k == half:  # the last, partial block
            add_gram(block[:, :, :(half - 1) % QJ_BLOCK])
        add_gram(us[:, :, None, :], 0.5)  # trapezoid end weights

    ts, w = _rk4_run(systems, settings.steps_per_period, accumulate)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN: guard trips
        q += w.conj().swapaxes(-1, -2)[:, None] @ _glide(q, w[:, None])
    return ts, q / settings.steps_per_period, _maps_from_half(systems, settings, w)
