"""Fixed-step RK4 for the propagator U(s), 0 <= s <= T/2, of the driven
Schrödinger equation; the monodromy matrix U(T) and every longer
trajectory are read off it. The loop stops at W = U(T/2): the chain is
bipartite and the drive flips sign after half a period, so with
Γ = diag(+1, -1, +1, ...), Γ H(t + T/2) Γ = -H(t)* and U(s + T/2) =
Γ conj(U(s)) Γ W. RK4 keeps this relation exactly in exact arithmetic (its
stage polynomials have real coefficients) when steps_per_period is even.
A state's half periods chain through x_{j+1} = Γ conj(W x_j) from
x_0 = psi(0): psi(j T/2 + s) is U(s) x_j for even j and Γ conj(U(s) x_j)
for odd j, in `propagate` and in min P1 alike.

U(T) alone needs a quarter period: H(t) = H(T/2 - t) is real symmetric, so
the step ending at T/2 - k h is the transpose of the one starting at k h and
W = U(floor(N/4) h)^T U(ceil(N/4) h). A sample of U(s) past T/4 would need
(U^T)^-1, which conj(U) misses by RK4's unitarity defect, so samplers do not.

One step loop advances the propagators of a grid of drive amplitudes that
share n, v and omega. H(t) is linear in sin(omega t), so each RK4 step is a
matrix P_k whose increment P_k - 1 is a sum of 12 monomials in three sines
times matrices fixed for the run: five sums by degree, each scaled by a
power of a point's amplitude. A block of steps takes one gemm to the five
sums and one to every point's increments, in real images of complex
matrices, and each step applies its increments with one stacked real
product; no inner sum of these products spans points, so a point rounds as
in a one-point grid. The loop holds its block alone, sines included;
callers keep what they read: U(s), its row 0, or Q_j, summed QJ_BLOCK steps
at a time. `_hold` refuses an array sized from a caller's input past
MAX_KEPT_VALUES values before it is made; PropagationSettings bounds N.

No re-normalization is ever applied mid-trajectory: norm drift is kept as a
quality diagnostic, and propagation aborts if it exceeds its bound. Each
entry point that steps runs in one error-state scope that lets inf and NaN
reach the guards; the step loop opens none, as a generator's would outlive
a caller that leaves it between yields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, StepSizeError, UnitarityError
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
UNITARITY_TOL = 1e-8  # max |U^dag U - 1| of a U(T) handed on
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
        n_steps = self.steps_per_period  # N/2 + 1 <= MAX_KEPT_VALUES
        if not 100 <= n_steps < 2 * MAX_KEPT_VALUES or n_steps % 2:
            raise ConfigError("steps_per_period must be even, >= 100 and < "
                              f"{2 * MAX_KEPT_VALUES}, got {n_steps}")


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

    @cached_property  # read by propagate's guard and by the provenance line
    def norm_drift(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # NaN: guard trips
            norms = np.linalg.norm(self.states, axis=1)
        return float(np.max(np.abs(norms - 1.0)))


# the ΔP_k of STEP_BLOCK steps are formed at once, enough to spread the
# block's few sine calls and two gemms thin, or of fewer (at least two) if
# their G n^2 entries would pass STEP_BLOCK_VALUES, so that the block grows
# with neither the grid nor the step count
STEP_BLOCK, STEP_BLOCK_VALUES = 16, 2**15
# powers of (s0, sh, s1) in the 12 monomials of ΔP_k
POWERS = np.array(list(itertools.product((0, 1), (0, 1, 2), (0, 1))))


def _step_terms(systems, h: float):
    """(w, beta): one RK4 step of length h for grid point g is P = 1 +
    sum_m s0^a sh^b s1^c (-i beta_g)^p w[m] with (a, b, c) = POWERS[m],
    p = a + b + c, s0, sh, s1 the drive's sin(omega t) at the step's start,
    middle and end, and beta[g, p] = beta_g^p for p = 0 ... 4.
    -i h H = A_x = hop - i beta_g s_x S, with S the drive signs and
    beta_g = h A_g/2, so a term with p factors of -i beta_g S is scaled by
    (-i beta_g)^p. The stages K1 = A0, K2 = Am (1 + K1/2), K3 = Am (1 + K2/2)
    and K4 = A1 (1 + K3) are polynomials with (2, 3, 2) matrix
    coefficients, and P - 1 = (K1 + 2 K2 + 2 K3 + K4)/6."""
    n = systems[0].n
    hop = (-1j * h * systems[0].v) * (np.eye(n, k=1) + np.eye(n, k=-1))
    signs = np.array([1.0] + [-1.0] * (n - 1))[:, None]  # site 1 vs the rest
    one = np.zeros((2, 3, 2, n, n), dtype=complex)
    one[0, 0, 0] = np.eye(n)
    w, stage = np.zeros_like(one), np.zeros_like(one)
    for x, a, b in ((0, 0.0, 1.0), (1, 0.5, 2.0), (1, 0.5, 2.0), (2, 1.0, 1.0)):
        arg = one + a * stage
        stage = hop @ arg
        # S s_x raises the power of s_x by one; arg's top power is zero
        np.moveaxis(stage, x, 0)[1:] += signs * np.moveaxis(arg, x, 0)[:-1]
        w += b * stage
    beta = (0.5 * h) * np.array([s.amplitude for s in systems])
    return w.reshape(len(POWERS), n, n) / 6.0, np.vander(beta, 5, increasing=True)


def _rk4_steps(systems, n_steps: int, last: int | None = None):
    """RK4 on i dU/dt = H(t) U from U(0) = 1 to U(last h), last = n_steps/2
    unless given, for a grid of systems that share n, v and omega; H(t) is
    the bare chain plus sign_j (A/2) sin(omega t) on site j. Yields (k, us)
    for k = 0 ... last, with us[g] = U(k h) of systems[g], a view that the
    next step overwrites.

    Step k adds ΔP_k U(k h) to U(k h): the increment, not P_k U(k h), keeps
    RK4's round-off floor. By `_step_terms`, ΔP_k of point g is
    sum_p beta_g^p M_p(k), with M_p(k) the sum of the degree-p monomials of
    the step's sines times (-i)^p w[m]; a block's two gemms form the M_p
    from the real images of the (-i)^p w[m]^T, then each point's ΔP_k. The
    block takes its sines from its own times: no array is sized by n_steps.
    The loop holds V = U^T: its float view times the real image of ΔP_k^T,
    2 x 2 blocks [[Re, Im], [-Im, Re]], is the float view of (ΔP_k U)^T."""
    first = systems[0]
    n, omega, grid = first.n, first.omega, len(systems)
    if any((s.n, s.v, s.omega) != (n, first.v, omega) for s in systems):
        raise ConfigError("a propagator grid must share n, v and omega")
    h, last = first.period / n_steps, n_steps // 2 if last is None else last
    block = max(2, min(STEP_BLOCK, STEP_BLOCK_VALUES // (grid * n * n)))
    # numpy hands a one-row product to gemv, which rounds unlike gemm, so
    # a one-point grid's powers of beta get a second, unread row
    rows = max(grid, 2)
    # complex values, 2 n^2 a real image: a block of each row's ΔP_k and
    # the 5 grouped sums, the 12 images, and state and product buffer
    _hold(2 * n * n * ((rows + 5) * block + 12 + grid), "the step loop's "
          "block of step matrices, their 12 real images, state and product")
    w, beta = _step_terms(systems, h)
    beta = np.resize(beta, (rows, 5))
    degree = POWERS.sum(axis=1)
    groups = degree == np.arange(5)[:, None, None]  # monomials by degree
    # rows 2j and 2j + 1 of a real image are the float views of row j of
    # t and of i t, for t = ((-i)^p w[m])^T
    t = (-1j) ** degree[:, None, None] * w.transpose(0, 2, 1).copy()
    images = np.stack([t, 1j * t], axis=2).view(float).reshape(len(t), -1)
    grouped = np.empty((5 * block, images.shape[1]))
    dp = np.empty((rows, block, 2 * n, 2 * n))
    v = np.repeat(np.eye(n, dtype=complex)[None], grid, axis=0)
    vf, us, du = v.view(float), v.swapaxes(1, 2), np.empty((grid, n, 2 * n))
    yield 0, us
    for start in range(0, last, block):
        # a full block even past the end, into the block's buffers, with
        # sin(omega t) at each step's start, middle and end
        times = h * np.arange(start, start + block + 1)
        ends = np.sin(omega * times)
        sines = np.stack([ends[:-1], np.sin(omega * (times[:-1] + 0.5 * h)),
                          ends[1:]], axis=1)
        monomials = np.prod(sines[:, None] ** POWERS, axis=-1)
        np.matmul((groups * monomials).reshape(-1, len(POWERS)), images,
                  out=grouped)
        np.matmul(beta, grouped.reshape(5, -1), out=dp.reshape(rows, -1))
        for j in range(min(block, last - start)):
            vf += np.matmul(vf, dp[:grid, j], out=du)
            yield start + j + 1, us


def _glide(a, w):
    """Γ conj(a) Γ W: U(s + T/2) for a = U(s) and W = U(T/2)."""
    gamma = (-1.0) ** np.arange(w.shape[-1])
    return gamma[:, None] * ((a.conj() * gamma) @ w)


def _starts(w, x):
    """Yields the half-period starts x_0 = x, x_{j+1} = Γ conj(W x_j)."""
    gamma = (-1.0) ** np.arange(w.shape[-1])
    while True:
        yield x
        x = gamma * (w @ x[..., None])[..., 0].conj()


def _maps_from_half(systems, settings: PropagationSettings, w: np.ndarray):
    """U(T) = Γ conj(W) Γ W of every grid point; aborts unless each is
    unitary to UNITARITY_TOL, which the Floquet eigensolve relies on."""
    uts = _glide(w, w)
    defects = np.max(np.abs(uts.conj().swapaxes(-1, -2) @ uts
                            - np.eye(uts.shape[-1])), axis=(-2, -1))
    bad = np.flatnonzero(~(defects <= UNITARITY_TOL))
    if len(bad):
        raise UnitarityError(
            f"monodromy unitarity defect {defects[bad[0]]:.3e} at A/omega="
            f"{systems[bad[0]].ratio:.6g} exceeds {UNITARITY_TOL}; increase "
            f"steps_per_period (currently {settings.steps_per_period})")
    return uts


@np.errstate(over="ignore", invalid="ignore")  # NaN: the guards trip
def propagate(system: DrivenSystem, initial: np.ndarray, periods: int,
              settings: PropagationSettings = PropagationSettings()) -> Trajectory:
    """Propagate a state over a whole number of drive periods.

    The state at t = j T/2 + s, s <= T/2, is U(s) x_j for even j and
    Γ conj(U(s) x_j) for odd j, with x_j from `_starts` and U(s) from the
    half-period loop. Aborts if the norm drifts by more than 1e-4.
    """
    if not isinstance(periods, (int, np.integer)) or periods < 1:
        raise ConfigError(f"periods must be a positive integer, got {periods!r}")
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (system.n,):
        raise ConfigError(f"initial state must have {system.n} components")
    nrm = np.linalg.norm(initial)
    if not abs(nrm - 1.0) <= 1e-9:  # also trips on NaN
        raise ConfigError(f"initial state norm is {nrm}, expected 1")
    n_steps, half = settings.steps_per_period, settings.steps_per_period // 2
    _hold(max((half + 1) * system.n ** 2, (periods * n_steps + 1) * system.n),
          "U(s) up to T/2 or of the trajectory")
    us = np.empty((half + 1, system.n, system.n), dtype=complex)
    for k, y in _rk4_steps([system], n_steps):
        us[k] = y[0]
    gamma = (-1.0) ** np.arange(system.n)
    states = np.empty((periods * n_steps + 1, system.n), dtype=complex)
    states[0] = initial
    for j, x in zip(range(2 * periods), _starts(us[half], initial)):
        amps = us[1:] @ x
        states[j * half + 1:(j + 1) * half + 1] = (gamma * amps.conj() if j % 2
                                                   else amps)
    traj = Trajectory(times=(system.period / n_steps) * np.arange(len(states)),
                      states=states)
    drift = traj.norm_drift
    if not drift <= NORM_DRIFT_ABORT:  # also trips on NaN
        raise StepSizeError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_ABORT}; increase "
            f"steps_per_period (currently {settings.steps_per_period})")
    return traj


@np.errstate(over="ignore", invalid="ignore")  # NaN: the guard trips
def period_maps(systems, settings: PropagationSettings = PropagationSettings()):
    """(G, n, n) stack of U(T) for a grid of systems that share n, v and
    omega, from the first ceil(N/4) of the N steps of a period."""
    n_steps = settings.steps_per_period
    for k, high in _rk4_steps(systems, n_steps, -(-n_steps // 4)):
        if k == n_steps // 4:
            low = high.copy()
    return _maps_from_half(systems, settings, low.swapaxes(-1, -2) @ high)


def monodromy(system: DrivenSystem,
              settings: PropagationSettings = PropagationSettings()) -> np.ndarray:
    """One-period propagator U(T) from the n coordinate basis states."""
    return period_maps([system], settings)[0]


@np.errstate(over="ignore", invalid="ignore")  # NaN: the guard trips
def propagator_site1(systems,
                     settings: PropagationSettings = PropagationSettings()):
    """(times, rows, ws) for a grid of systems that share n, v and omega:
    rows[g, k] = <1|U(times[k]), times[k] = k h for k = 0 ... N/2, ws[g] =
    W = U(T/2). Aborts unless U(T) is unitary, as `period_maps` does."""
    n_steps, half = settings.steps_per_period, settings.steps_per_period // 2
    _hold(len(systems) * (half + 1) * systems[0].n, "row 0 of U(s) up to T/2")
    rows = np.empty((len(systems), half + 1, systems[0].n), dtype=complex)
    for k, w in _rk4_steps(systems, n_steps):  # the last w is W = U(T/2)
        rows[:, k] = w[:, 0]
    _maps_from_half(systems, settings, w)
    return (systems[0].period / n_steps) * np.arange(half + 1), rows, w


@np.errstate(over="ignore", invalid="ignore")  # NaN: the guard trips
def propagator_averages(systems,
                        settings: PropagationSettings = PropagationSettings()):
    """(times, q, uts) for a grid of systems that share n, v and omega:
    q[g, j] = (1/T) int_0^T U^dag |j><j| U dt by the trapezoid rule, so that
    a state c(0) spends c^dag q[g, j] c of the period on site j; uts[g] =
    U(T). The loop sums the first half, S; the second is W^dag Γ S* Γ W."""
    n, n_steps = systems[0].n, settings.steps_per_period
    half = n_steps // 2
    _hold(len(systems) * (n ** 3 + QJ_BLOCK * n ** 2), "Q_j and its block of U(s)")
    q = np.zeros((len(systems), n, n, n), dtype=complex)
    # the loop's U(k h) are summed into q QJ_BLOCK at a time: block[g, b] is
    # U(k h) of point g for the b-th step k of a block, the trapezoid's ends
    # k = 0 and N/2 scaled by √½; x[g, j] holds row j of each
    block = np.empty((len(systems), QJ_BLOCK, n, n), dtype=complex)
    for k, w in _rk4_steps(systems, n_steps):  # the last w is W = U(T/2)
        block[:, k % QJ_BLOCK] = w if k % half else np.sqrt(0.5) * w
        if k % QJ_BLOCK == QJ_BLOCK - 1 or k == half:  # q[g, j] += x^dag x
            x = block[:, :k % QJ_BLOCK + 1].transpose(0, 2, 1, 3)
            np.add(q, x.conj().swapaxes(-1, -2) @ x, out=q)
    q += w.conj().swapaxes(-1, -2)[:, None] @ _glide(q, w[:, None])
    uts = _maps_from_half(systems, settings, w)
    return (systems[0].period / n_steps) * np.arange(n_steps + 1), q / n_steps, uts
