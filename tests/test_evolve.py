import tracemalloc
import warnings

import numpy as np
import pytest

from darkfloquet import (ConfigError, DrivenSystem, PropagationSettings,
                         StepSizeError, UnitarityError, monodromy, propagate)
from darkfloquet import evolve

from oracles import j0_first_zero_oracle, rk4_rows, rk4_states, rk4_step


def basis_state(n, j=0):
    c = np.zeros(n, dtype=complex)
    c[j] = 1.0
    return c


def test_decoupled_sites_return_after_one_period():
    # v = 0: sites decouple, and the drive integrates to zero over a period
    system = DrivenSystem(3, 0.0, 24.0, 10.0)
    traj = propagate(system, basis_state(3), 1)
    assert np.max(np.abs(traj.final_state - basis_state(3))) <= 1e-8


def test_undriven_rabi_oscillation_reaches_zero():
    system = DrivenSystem(3, 1.0, 0.0, 10.0)
    traj = propagate(system, basis_state(3), 20)  # t up to 4 pi
    assert traj.populations[:, 0].min() <= 1e-3
    # P1(t) = cos^4(t / sqrt(2)) for the undriven chain
    expected = np.cos(traj.times / np.sqrt(2)) ** 4
    assert np.max(np.abs(traj.populations[:, 0] - expected)) <= 1e-7


def test_suppressed_tunneling_near_first_bessel_zero():
    system = DrivenSystem(3, 1.0, 24.0, 10.0)  # A/omega = 2.4
    traj = propagate(system, basis_state(3), 100)
    assert traj.populations[:, 0].min() >= 0.98


def test_settings_validation(monkeypatch):
    def never(*args):
        raise AssertionError("the step loop was entered")

    monkeypatch.setattr(evolve, "_rk4_steps", never)
    for steps in (50, 99, 101, 2001, 10**8, 10**8 + 2, 10**12):
        with pytest.raises(ConfigError, match="even, >= 100 and < 100000000"):
            PropagationSettings(steps_per_period=steps)
    assert PropagationSettings(10**8 - 2).steps_per_period == 10**8 - 2
    for periods in (0, -1, 2.5, 1.0):
        with pytest.raises(ConfigError):
            propagate(DrivenSystem(3, 1, 0, 10), basis_state(3), periods)
    with pytest.raises(ConfigError):
        propagate(DrivenSystem(3, 1, 0, 10), 2 * basis_state(3), 1)
    with pytest.raises(ConfigError, match="must have 3 components"):
        propagate(DrivenSystem(3, 1, 0, 10), basis_state(4), 1)
    for bad in (np.nan, np.inf, -np.inf):
        for j in (0, 1):
            state = basis_state(3)
            state[j] = bad
            with pytest.raises(ConfigError, match="norm is"):
                propagate(DrivenSystem(3, 1.0, 24.0, 10.0), state, 2)
    # the ceiling does not read the memory cap: `_hold` alone charges the
    # arrays sized by N, so a test that lowers the cap keeps every N
    monkeypatch.setattr(evolve, "MAX_KEPT_VALUES", 501)
    assert PropagationSettings(1002).steps_per_period == 1002


@pytest.mark.parametrize("other", [DrivenSystem(4, 1.0, 5.0, 10.0),
                                   DrivenSystem(3, 0.5, 5.0, 10.0),
                                   DrivenSystem(3, 1.0, 5.0, 9.0)],
                         ids=["n", "v", "omega"])
def test_propagator_grid_must_share_n_v_and_omega(other):
    grid = [DrivenSystem(3, 1.0, 0.0, 10.0), other]
    with pytest.raises(ConfigError, match="must share n, v and omega"):
        evolve.period_maps(grid)


def test_norm_drift_is_tiny_and_monitored():
    system = DrivenSystem(3, 1.0, 20.0, 10.0)
    traj = propagate(system, basis_state(3), 50)
    assert traj.norm_drift <= 1e-6
    assert np.all(np.diff(traj.times) > 0)


def test_composition_of_period_maps():
    system = DrivenSystem(3, 1.0, 20.0, 10.0)
    first = propagate(system, basis_state(3), 1)
    start = first.final_state / np.linalg.norm(first.final_state)
    second = propagate(system, start, 1)
    direct = propagate(system, basis_state(3), 2)
    assert np.max(np.abs(second.final_state - direct.final_state)) <= 1e-8


def test_step_halving_converges_monotonically():
    system = DrivenSystem(3, 1.0, 20.0, 10.0)
    reference = propagate(system, basis_state(3), 5,
                          PropagationSettings(steps_per_period=16000)).final_state
    errors = []
    for steps in (500, 1000, 2000, 4000):
        final = propagate(system, basis_state(3), 5,
                          PropagationSettings(steps_per_period=steps)).final_state
        errors.append(np.max(np.abs(final - reference)))
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[2] <= 1e-6  # doubling from the default changes little


@pytest.mark.parametrize("n,v", [(2, 1.0), (3, 1.0), (5, 1.0), (11, 1.0),
                                 (3, 0.37), (11, 0.37)],
                         ids=["2", "3", "5", "11", "3-v0.37", "11-v0.37"])
def test_states_match_direct_stepping(n, v):
    # the period-map states against a plain RK4 over every step; at v != 1 a
    # misplaced or squared bond would show
    system = DrivenSystem(n, v, 20.0, 10.0)
    traj = propagate(system, basis_state(n), 12)
    direct = rk4_states(system, basis_state(n), 12, 2000)
    assert traj.states.shape == direct.shape
    assert np.max(np.abs(traj.states - direct)) <= 1e-12
    assert traj.times[-1] == pytest.approx(12 * system.period)


class TestMonodromy:
    def test_identity_at_zero_coupling(self):
        u = monodromy(DrivenSystem(3, 0.0, 24.0, 10.0))
        assert np.max(np.abs(u - np.eye(3))) <= 1e-8

    def test_undriven_eigenphases(self):
        system = DrivenSystem(3, 1.0, 0.0, 10.0)
        lam = np.linalg.eigvals(monodromy(system))
        expected = np.sort(-np.array([-np.sqrt(2), 0, np.sqrt(2)]) * system.period)
        assert np.allclose(np.sort(np.angle(lam)), expected, atol=1e-7)

    def test_two_level_degeneracy_at_bessel_zero(self):
        root = j0_first_zero_oracle()
        system = DrivenSystem(2, 1.0, root * 10.0, 10.0)
        phases = np.angle(np.linalg.eigvals(monodromy(system)))
        assert abs(phases[0] - phases[1]) <= 5e-2

    def test_unitarity_and_determinant(self):
        u = monodromy(DrivenSystem(4, 1.0, 30.0, 10.0))
        defect = np.max(np.abs(u.conj().T @ u - np.eye(4)))
        assert defect <= 1e-8
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-8

    def test_samples_end_at_monodromy(self):
        # U(s) from plain RK4 on the basis states: column j starts at e_j
        system = DrivenSystem(3, 1.0, 20.0, 10.0)
        us = rk4_rows([system] * 3, np.eye(3), 1, 2000).transpose(0, 2, 1)
        assert np.max(np.abs(us[-1] - monodromy(system))) <= 1e-12
        assert np.max(np.abs(us[0] - np.eye(3))) == 0.0


def test_drive_tables_do_not_grow_with_the_grid():
    # 201 grid points at 20000 steps: a block takes its sines from its own
    # times, so no table is sized by the step count or by the grid, and a
    # block of ΔP_k holds at most STEP_BLOCK_VALUES values, where STEP_BLOCK
    # steps of the grid would take 6 MiB at n = 11
    for n in (3, 11):
        systems = [DrivenSystem(n, 1.0, float(r) * 10.0, 10.0)
                   for r in np.linspace(0.0, 5.0, 201)]
        tracemalloc.start()
        try:
            for k, _ in evolve._rk4_steps(systems, 20000):
                if k == 2 * evolve.STEP_BLOCK:
                    break
            assert k == 2 * evolve.STEP_BLOCK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_step_loop_does_not_grow_with_the_step_count():
    # after 2 STEP_BLOCK steps the loop holds its block, its 12 images, its
    # state and its product buffer, whatever N is: a table of one value a
    # step would add 30 MiB at N = 2·10^6
    systems = [DrivenSystem(3, 1.0, float(r) * 10.0, 10.0)
               for r in np.linspace(0.0, 5.0, 31)]
    peaks = []
    for steps in (2000, 2 * 10**6):
        tracemalloc.start()
        try:
            for k, _ in evolve._rk4_steps(systems, steps):
                if k == 2 * evolve.STEP_BLOCK:
                    break
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2**20 and abs(peaks[1] - peaks[0]) < 2**10, peaks


@pytest.mark.parametrize("v", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("n", [2, 3, 11])
def test_step_terms_match_one_stagewise_rk4_step(n, v):
    # the 12-term ΔP of each grid point, a term of degree p scaled by
    # (-i beta_g)^p, against the four RK4 stages, at random sines and at
    # s0 = s1, the quarter-period map's middle step, which is its own
    # transpose
    rng = np.random.default_rng(n)
    systems = [DrivenSystem(n, v, a, 10.0) for a in (0.0, 7.0, 24.0, 50.0)]
    h = systems[0].period / 100
    w, beta = evolve._step_terms(systems, h)
    degree = evolve.POWERS.sum(axis=1)
    sines = [*rng.uniform(-1.0, 1.0, (4, 3))]
    sines += [np.array([s[0], s[1], s[0]]) for s in sines]
    for s in sines:
        monomials = np.prod(s ** evolve.POWERS, axis=1)
        for g, system in enumerate(systems):
            scale = (-1j) ** degree * beta[g, degree]
            dp = np.tensordot(monomials * scale, w, axes=1)
            assert np.max(np.abs(dp - rk4_step(system, h, *s))) <= 1e-15
            if s[0] == s[2]:
                assert np.max(np.abs(dp - dp.T)) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 11])
def test_real_image_steps_match_complex_increments(n):
    # the loop's real-image update of a random U, written into its state,
    # against U + ΔP_k U in complex arithmetic, one step at a time across a
    # block edge, ΔP_k from the 12 matrices of `_step_terms` scaled by
    # (-i h A/2)^p for a monomial of degree p
    rng = np.random.default_rng(n)
    systems = [DrivenSystem(n, 0.37, a, 10.0) for a in (0.0, 7.0, 24.0)]
    h, omega = systems[0].period / 100, systems[0].omega
    w, _ = evolve._step_terms(systems, h)
    degree = evolve.POWERS.sum(axis=1)
    scales = [(-0.5j * h * s.amplitude) ** degree for s in systems]
    for k, us in evolve._rk4_steps(systems, 100):
        if k:
            s = np.sin(omega * h * np.array([k - 1, k - 0.5, k]))
            monomials = np.prod(s ** evolve.POWERS, axis=1)
            for g, scale in enumerate(scales):
                dp = np.tensordot(monomials * scale, w, axes=1)
                assert np.max(np.abs(us[g] - u[g] - dp @ u[g])) <= 1e-14
        else:
            us[...] = rng.normal(size=us.shape) + 1j * rng.normal(size=us.shape)
        u = us.copy()
        if k == 2 * evolve.STEP_BLOCK:
            break
    assert k == 2 * evolve.STEP_BLOCK


@pytest.mark.parametrize("n", [3, 5])
def test_a_point_steps_alike_alone_and_in_a_grid(n):
    # a point's U(kh) is bit-identical alone, a one-point grid whose step
    # product would go to gemv unpadded, and inside a 31-point grid, at
    # every step of a loop that ends on a part block; steps as coarse as
    # h A/2 = 1.6 make gemv's rounding show at some points
    grid = [DrivenSystem(n, 0.37, a, 10.0) for a in np.linspace(0.0, 500.0, 31)]
    shared = np.array([us.copy() for _, us in evolve._rk4_steps(grid, 100)])
    assert len(shared) == 51 and 50 % evolve.STEP_BLOCK
    for g, system in enumerate(grid):
        for k, alone in evolve._rk4_steps([system], 100):
            assert np.array_equal(alone[0], shared[k, g]), (g, k)


def test_blown_up_averages_raise_without_a_warning():
    # A/omega = 20000 at 100 steps overflows to inf/NaN: the unitarity guard
    # reports it, and no RuntimeWarning escapes the blocked Q_j sums
    system = DrivenSystem(3, 1.0, 20000.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnitarityError):
            evolve.propagator_averages(
                [system], PropagationSettings(steps_per_period=100))


def test_loop_integrates_half_a_period():
    # the second half of the period comes from the time-glide relation, so
    # the step loop yields U(k h) for k = 0..N/2 only
    seen = []
    for k, us in evolve._rk4_steps([DrivenSystem(3, 1.0, 20.0, 10.0)], 2000):
        seen.append(k)
    assert seen == list(range(1001)) and us.shape == (1, 3, 3)


def test_averages_hold_nothing_sized_by_the_step_count():
    # the Q_j sampler keeps Q_j and its block of U(s), whatever N is: an
    # array of two values a step would add 0.3 MiB at N = 20000
    system = DrivenSystem(2, 1.0, 5.0, 10.0)
    peaks = []
    for steps in (2000, 20000):
        tracemalloc.start()
        try:
            evolve.propagator_averages([system], PropagationSettings(steps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 16 * 2**10, peaks


def test_leaving_the_step_loop_restores_the_error_state():
    # two loops advanced in lockstep and closed out of order: a loop that
    # set the error state while it yields would leave the caller's lost;
    # the loop sets none, and its callers set theirs around it
    before = np.geterr()
    system = DrivenSystem(3, 1.0, 20.0, 10.0)
    short, long = evolve._rk4_steps([system], 100), evolve._rk4_steps([system], 150)
    for _ in zip(short, long):
        pass
    assert np.geterr() == before
    long.close()
    short.close()
    assert np.geterr() == before


ENTRY_POINTS = {
    "propagate": lambda s, settings: propagate(s[0], basis_state(3), 1, settings),
    "period_maps": evolve.period_maps,
    "propagator_site1": evolve.propagator_site1,
    "propagator_averages": evolve.propagator_averages,
}


@pytest.mark.parametrize("run", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_entry_points_restore_the_error_state(run):
    # each ignores overflow and invalid results while it runs, so that its
    # guards report them, and gives the caller's state back when it returns
    # and when it raises: A/omega = 20000 at 100 steps overflows
    before = np.geterr()
    settings = PropagationSettings(steps_per_period=100)
    run([DrivenSystem(3, 1.0, 5.0, 10.0)], settings)
    assert np.geterr() == before
    with pytest.raises((StepSizeError, UnitarityError)):
        run([DrivenSystem(3, 1.0, 20000.0, 1.0)], settings)
    assert np.geterr() == before


@pytest.mark.parametrize("n,steps", [(2, 2000), (2, 2002), (11, 2000),
                                     (11, 2002)])
def test_quarter_period_maps_match_direct_stepping(n, steps):
    # U(T) from ceil(N/4) steps against a plain RK4 over the whole period:
    # N = 2002 has an odd number of steps in half a period, whose middle
    # step is its own transpose; v != 1 would show a misplaced bond
    ratios = [0.7, 2.4048, 5.0]
    systems = [DrivenSystem(n, 0.37, r * 10.0, 10.0) for r in ratios]
    rows = rk4_rows([s for s in systems for _ in range(n)],
                    np.tile(np.eye(n), (len(ratios), 1)), 1, steps)
    direct = rows[-1].reshape(len(ratios), n, n).transpose(0, 2, 1)
    uts = evolve.period_maps(systems, PropagationSettings(steps_per_period=steps))
    assert np.max(np.abs(uts - direct)) <= 1e-12


def test_period_maps_integrate_a_quarter_period(monkeypatch):
    # period_maps leaves the half-period loop after U(ceil(N/4) h): it takes
    # k = 0..ceil(N/4) only
    seen = []
    steps_of = evolve._rk4_steps

    def counted(*args):
        for k, us in steps_of(*args):
            seen.append(k)
            yield k, us

    monkeypatch.setattr(evolve, "_rk4_steps", counted)
    for steps in (2000, 2002):
        seen.clear()
        evolve.period_maps([DrivenSystem(3, 1.0, 20.0, 10.0)],
                           PropagationSettings(steps_per_period=steps))
        assert seen == list(range(-(-steps // 4) + 1))


def test_blown_up_period_maps_raise_without_a_warning():
    # as for the averages: the overflow reaches the unitarity guard, and no
    # RuntimeWarning escapes the product of the two quarter-period factors
    system = DrivenSystem(3, 1.0, 20000.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnitarityError):
            evolve.period_maps([system], PropagationSettings(steps_per_period=100))


def test_overflowing_period_raises_without_a_warning():
    # at the smallest normal omega the period overflows, and with it the
    # step loop's times and sines: the guards report the NaN, and no
    # RuntimeWarning escapes the sines or the trajectory's times
    system = DrivenSystem(2, 1.0, 0.0, 2.2250738585072014e-308)
    settings = PropagationSettings(steps_per_period=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeError):
            propagate(system, basis_state(2), 1, settings)
        with pytest.raises(UnitarityError):
            evolve.period_maps([system], settings)


def test_monodromy_spectrum_is_closed_under_conjugation():
    # Γ H(t + T/2) Γ = -H(t)* makes U(T) similar to its complex conjugate,
    # so quasi-energies pair as eps <-> -eps
    rng = np.random.default_rng(7)
    for n in range(2, 12):
        for _ in range(2):
            omega = rng.uniform(5.0, 20.0)
            system = DrivenSystem(n, rng.uniform(0.2, 2.0),
                                  rng.uniform(0.0, 5.0) * omega, omega)
            lam = np.linalg.eigvals(monodromy(system))
            gap = np.abs(lam.conj()[:, None] - lam[None, :])
            assert np.max(gap.min(axis=1)) <= 1e-12
            assert np.max(gap.min(axis=0)) <= 1e-12


@pytest.mark.parametrize("periods, values", [(1, 501 * 3**2), (2, 2001 * 3)])
def test_propagate_is_charged_half_a_period_of_propagators(charged, periods,
                                                           values):
    # propagate keeps U(s) for s <= T/2 only, (N/2 + 1) n^2 values, and
    # the trajectory, (periods N + 1) n; the step loop's charge is less
    system = DrivenSystem(3, 1.0, 5.0, 10.0)
    assert 501 * 3**2 > 2 * 3**2 * (7 * evolve.STEP_BLOCK + 13)
    charged(lambda: propagate(system, basis_state(3), periods,
                              PropagationSettings(steps_per_period=1000)),
            values)


@pytest.mark.parametrize("run, points, steps, values", [
    # in complex values, the 2 n^2 of a real image times its block of
    # STEP_BLOCK steps of 5 grouped matrices and of max(G, 2) ΔP_k, the 12
    # grid-free images, and the state and product buffer, G each
    (evolve.period_maps, 2, 100,
     2 * 3**2 * ((5 + 2) * evolve.STEP_BLOCK + 12 + 2)),
    # row 0 of U(s) up to T/2, G (N/2 + 1) n
    (evolve.propagator_site1, 2, 1000, 2 * 501 * 3),
    (evolve.propagator_averages, 16, 100,
     16 * (3**3 + evolve.QJ_BLOCK * 3**2)),  # Q_j and its block of U(s) rows
], ids=["state", "site1", "averages"])
def test_grid_propagators_are_charged(charged, run, points, steps, values):
    # each outweighs the step loop's block of step matrices
    rows = max(points, 2)
    assert values >= 2 * 3**2 * ((5 + rows) * evolve.STEP_BLOCK + 12 + points)
    systems = [DrivenSystem(3, 1.0, 0.1 * g, 10.0) for g in range(points)]
    charged(lambda: run(systems, PropagationSettings(steps_per_period=steps)),
            values)
