import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkfloquet import (ConfigError, DrivenSystem, NumericalQualityError,
                         PropagationSettings, dark_mode, floquet_spectrum,
                         fold_quasi_energy, min_p1_sweep,
                         propagate, quasi_energy_sweep)
from darkfloquet import evolve, floquet

from oracles import j0_first_zero_oracle, rk4_rows, sambe_floquet


def test_undriven_spectrum():
    spec = floquet_spectrum(DrivenSystem(3, 1.0, 0.0, 10.0))
    assert np.allclose(spec.quasi_energies, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-7)


def test_zero_quasi_energy_branch_exists_for_odd_n():
    for ratio in (0.7, 1.9, 3.4, 5.0):
        spec = floquet_spectrum(DrivenSystem(3, 1.0, ratio * 10.0, 10.0))
        assert np.min(np.abs(spec.quasi_energies)) <= 1e-6


def test_quasi_energies_near_bessel_zero_match_bare_chain():
    # v_eff = 0 leaves the 2-3 bond only: spectrum {0, +/-v}
    root = j0_first_zero_oracle()
    spec = floquet_spectrum(DrivenSystem(3, 1.0, root * 10.0, 10.0))
    assert np.allclose(spec.quasi_energies, [-1.0, 0.0, 1.0], atol=3e-2)


def test_mode_population_normalization():
    spec = floquet_spectrum(DrivenSystem(5, 1.0, 20.0, 10.0))
    assert np.allclose(spec.avg_populations.sum(axis=1), 1.0, rtol=0, atol=1e-8)
    assert np.all(spec.avg_populations >= 0)
    assert np.all(spec.avg_populations <= 1 + 1e-12)


def test_floquet_defining_property():
    system = DrivenSystem(3, 1.0, 20.0, 10.0)
    spec = floquet_spectrum(system)
    for eps, vec in zip(spec.quasi_energies, spec.eigenvectors.T):
        traj = propagate(system, vec / np.linalg.norm(vec), 1)
        expected = np.exp(-1j * eps * system.period) * vec
        assert np.max(np.abs(traj.final_state - expected)) <= 1e-6


def test_particle_hole_symmetric_spectrum():
    for n in (3, 4, 5):
        spec = floquet_spectrum(DrivenSystem(n, 1.0, 17.0, 10.0))
        eps = spec.quasi_energies
        assert np.all(np.diff(eps) >= 0)
        assert np.allclose(eps, -eps[::-1], atol=1e-6)


def test_spectrum_arrays_describe_the_monodromy():
    system = DrivenSystem(3, 1.0, 20.0, 10.0)
    spec = floquet_spectrum(system)
    # U(s) from plain RK4 on the basis states: column j starts at e_j
    us = rk4_rows([system] * 3, np.eye(3), 1, 2000).transpose(0, 2, 1)
    u, vecs = us[-1], spec.eigenvectors
    multipliers = np.exp(-1j * spec.quasi_energies * system.period)
    assert np.max(np.abs(u @ vecs - vecs * multipliers)) <= 1e-12
    pops = [np.abs(us @ vecs[:, k]) ** 2 for k in range(3)]
    trapezoid = [(0.5 * (p[0] + p[-1]) + p[1:-1].sum(axis=0)) / 2000
                 for p in pops]
    assert np.max(np.abs(spec.avg_populations - trapezoid)) <= 1e-12


class TestDarkMode:
    def test_three_level_dark_mode(self):
        spec = floquet_spectrum(DrivenSystem(3, 1.0, 20.0, 10.0))
        result = dark_mode(spec)
        assert result.index is not None and not result.ambiguous
        assert abs(spec.quasi_energies[result.index]) <= 1e-6
        assert spec.avg_populations[result.index, 1] <= 0.02
        assert spec.avg_populations[result.index, 0] > 0.5

    def test_five_level_dark_mode(self):
        spec = floquet_spectrum(DrivenSystem(5, 1.0, 20.0, 10.0))
        result = dark_mode(spec)
        assert result.index is not None
        assert spec.avg_populations[result.index, 1] <= 0.02
        assert spec.avg_populations[result.index, 3] <= 0.02

    def test_four_level_generic_has_none(self):
        spec = floquet_spectrum(DrivenSystem(4, 1.0, 20.0, 10.0))
        result = dark_mode(spec)
        assert result.index is None and not result.ambiguous

    def test_two_candidates_are_ambiguous(self):
        spec = floquet_spectrum(DrivenSystem(3, 1.0, 20.0, 10.0))
        twin = dataclasses.replace(spec, quasi_energies=np.zeros(3),
                                   avg_populations=np.full((3, 3), 0.01))
        result = dark_mode(twin)
        assert result.index is None and result.ambiguous


def test_gauge_invariance_of_populations():
    from darkfloquet.evolve import propagator_averages
    system = DrivenSystem(3, 1.0, 20.0, 10.0)
    _, q, _ = propagator_averages([system])
    vec = floquet_spectrum(system).eigenvectors[:, 0]
    rotated = np.exp(1j * 0.813) * vec
    base = np.einsum("a,jab,b->j", vec.conj(), q[0], vec)
    turned = np.einsum("a,jab,b->j", rotated.conj(), q[0], rotated)
    assert np.max(np.abs(base - turned)) <= 1e-12
    assert np.max(np.abs(base.imag)) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(eps=st.floats(-1e4, 1e4), omega=st.floats(0.1, 100))
def test_folding_is_idempotent_and_in_zone(eps, omega):
    folded = fold_quasi_energy(eps, omega)
    assert -omega / 2 < folded <= omega / 2
    assert fold_quasi_energy(folded, omega) == folded
    # eps and eps + omega label the same representative
    again = fold_quasi_energy(eps + omega, omega)
    assert again == pytest.approx(folded, abs=1e-9 * max(1.0, abs(eps)))


class TestSweep:
    def test_zero_ratio_reproduces_static_eigenvalues(self):
        for n in (2, 3, 4, 5, 6):
            sweep = quasi_energy_sweep(n, 1.0, 10.0, [0.0])
            static = np.linalg.eigvalsh(np.eye(n, k=1) + np.eye(n, k=-1))
            assert np.allclose(np.sort(sweep.quasi_energies[0]), static,
                               atol=1e-7)

    def test_three_level_zero_branch_persists(self):
        sweep = quasi_energy_sweep(3, 1.0, 10.0, np.linspace(0, 5, 26))
        branch = np.argmin(np.max(np.abs(sweep.quasi_energies), axis=0))
        assert np.max(np.abs(sweep.quasi_energies[:, branch])) <= 1e-6

    def test_four_level_gap_closes_near_bessel_zero(self):
        root = j0_first_zero_oracle()
        ratios = np.linspace(2.0, 2.8, 33)
        sweep = quasi_energy_sweep(4, 1.0, 10.0, ratios)
        eps_sorted = np.sort(sweep.quasi_energies, axis=1)
        gaps = eps_sorted[:, 2] - eps_sorted[:, 1]
        assert gaps.min() <= 5e-3 * 10.0
        assert abs(ratios[np.argmin(gaps)] - root) <= 0.1

    def test_branches_are_continuous(self):
        sweep = quasi_energy_sweep(3, 1.0, 10.0, np.linspace(0, 3, 31))
        jumps = np.abs(np.diff(sweep.quasi_energies, axis=0))
        assert np.max(jumps) < 0.2  # no branch swaps on a 0.1-spaced grid

    def test_rejects_bad_ratios(self):
        from darkfloquet import ConfigError
        with pytest.raises(ConfigError):
            quasi_energy_sweep(3, 1.0, 10.0, [])
        with pytest.raises(ConfigError):
            quasi_energy_sweep(3, 1.0, 10.0, [-0.5])
        with pytest.raises(ConfigError):
            quasi_energy_sweep(3, 1.0, 10.0, [np.nan])


@pytest.mark.parametrize("n,steps", [(2, 2000), (3, 2000), (5, 2000),
                                     (11, 2000), (3, 500), (11, 500)],
                         ids=["2", "3", "5", "11", "3-500", "11-500"])
def test_batched_min_p1_matches_direct_stepping(n, steps, monkeypatch):
    # a budget of two grid points per chunk: chunks of 2, 2 and 1
    periods = 12
    ratios = np.linspace(0.0, 5.0, 5)
    monkeypatch.setattr(floquet, "MAX_CHUNK_VALUES", 2 * (steps + 1) * n)
    sizes = []
    site1 = floquet.propagator_site1

    def spy(systems, settings):
        sizes.append(len(systems))
        return site1(systems, settings)

    monkeypatch.setattr(floquet, "propagator_site1", spy)
    fast = min_p1_sweep(n, 1.0, 10.0, ratios, periods,
                        PropagationSettings(steps_per_period=steps))
    assert sizes == [2, 2, 1]
    systems = [DrivenSystem(n, 1.0, float(r) * 10.0, 10.0) for r in ratios]
    c0 = np.eye(n, dtype=complex)[0]
    direct = np.abs(rk4_rows(systems, [c0] * len(ratios), periods,
                             steps)[:, :, 0]) ** 2
    for got, p1 in zip(fast, direct.T):
        assert abs(got - p1.min()) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 11])
def test_one_point_min_p1_is_the_grid_point(n):
    grid = np.linspace(0.0, 5.0, 7)
    swept = min_p1_sweep(n, 1.0, 10.0, grid, 150)
    for i in (0, 3, 6):
        alone = min_p1_sweep(n, 1.0, 10.0, grid[i:i + 1], 150)
        assert alone[0] == swept[i]


@pytest.mark.parametrize(
    "n,v,steps", [(2, 1.0, 2000), (3, 1.0, 2000), (5, 1.0, 2000),
                  (11, 1.0, 2000), (3, 0.37, 2000), (11, 0.37, 2000),
                  (11, 0.37, 100), (11, 0.37, 102)],
    ids=["2", "3", "5", "11", "3-v0.37", "11-v0.37", "11-v0.37-100",
         "11-v0.37-102"])
def test_streamed_averages_match_direct_stepping(n, v, steps):
    # each mode's period-averaged populations against a trapezoid average of
    # a plain RK4 run started from the mode. The loop sums Q_j in blocks of
    # 50 steps: 100 steps end on a partial block, 102 on a full one and an
    # empty last one, 2000 run through many; at 100 steps the unitarity
    # guard refuses A/omega = 2
    ratios = [0.7, 2.0] if steps == 2000 else [0.7, 1.2]
    sweep = quasi_energy_sweep(n, v, 10.0, ratios,
                               PropagationSettings(steps_per_period=steps))
    # one row per (ratio, mode), ratio-major
    systems = [DrivenSystem(n, v, r * 10.0, 10.0)
               for r in ratios for _ in range(n)]
    modes = np.concatenate([vecs.T for vecs in sweep.eigenvectors])
    p = np.abs(rk4_rows(systems, modes, 1, steps)) ** 2
    avg = (0.5 * (p[0] + p[-1]) + p[1:-1].sum(axis=0)) / steps
    assert np.max(np.abs(sweep.avg_populations.reshape(-1, n) - avg)) <= 1e-12


@pytest.mark.parametrize("n", [3, 11])
def test_chunked_sweep_matches_one_chunk(n, monkeypatch):
    # a budget of two grid points per chunk, Q_j and its block of U(s) rows:
    # chunks of 2, 2 and 1. A point's arithmetic does not depend on the
    # grid it shares a loop with, so the arrays agree exactly
    ratios = np.linspace(0.0, 5.0, 5)
    whole = quasi_energy_sweep(n, 0.37, 10.0, ratios)
    monkeypatch.setattr(floquet, "MAX_CHUNK_VALUES",
                        2 * (n ** 3 + evolve.QJ_BLOCK * n ** 2))
    sizes = []
    averages = floquet.propagator_averages

    def spy(systems, settings):
        sizes.append(len(systems))
        return averages(systems, settings)

    monkeypatch.setattr(floquet, "propagator_averages", spy)
    chunked = quasi_energy_sweep(n, 0.37, 10.0, ratios)
    assert sizes == [2, 2, 1]
    for name in ("quasi_energies", "avg_populations", "eigenvectors"):
        assert np.array_equal(getattr(chunked, name), getattr(whole, name))


@pytest.mark.parametrize("n", [3, 11])
def test_branches_without_averages_match_the_sweep(n):
    # U(T) from the quarter-period maps differs from that of the averaging
    # loop by rounding only: the same branches in the same order, and each
    # eigenvector the same up to a phase
    ratios = np.linspace(0.0, 5.0, 21)
    sweep = quasi_energy_sweep(n, 1.0, 10.0, ratios)
    eps, vecs = floquet.quasi_energy_branches(n, 1.0, 10.0, ratios)
    assert np.max(np.abs(eps - sweep.quasi_energies)) <= 1e-12
    overlap = np.abs(np.einsum("rjk,rjk->rk", vecs.conj(), sweep.eigenvectors))
    assert np.min(overlap) >= 1.0 - 1e-12


def test_branch_matching_breaks_ties_in_a_fixed_order():
    # with w_prev = 1 the overlaps are |w_next|: the largest overlap wins,
    # equal overlaps go to the smaller |delta eps|, and equal |delta eps| to
    # the first (k, j) in row-major order
    match, eye = floquet._match_branches, np.eye(3)
    e = np.array([0.0, 1.0])
    tied = np.full((2, 2), 0.5)
    assert list(match(eye[:2, :2], np.array([[0.5, 0.9], [0.9, 0.5]]), e,
                      e)) == [1, 0]
    assert list(match(eye[:2, :2], tied, e, np.array([0.9, 0.1]))) == [1, 0]
    assert list(match(eye[:2, :2], tied, e, np.array([0.5, 0.5]))) == [0, 1]
    # branch 2 keeps its clear partner; branches 0 and 1 tie on overlap with
    # modes 0 and 2, and then on |delta eps| too
    w_next = np.array([[0.5, 0.0, 0.5], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    e_prev = np.array([-1.0, 1.0, 0.0])
    assert list(match(eye, w_next, e_prev,
                      np.array([0.0, 5.0, 0.0]))) == [0, 2, 1]
    assert list(match(eye, w_next, e_prev,
                      np.array([0.9, 5.0, -0.9]))) == [2, 0, 1]


COARSE = PropagationSettings(steps_per_period=100)


def test_min_p1_sweep_is_charged_one_block_of_periods(charged, monkeypatch):
    # min_p1_sweep samples at most MIN_P1_BLOCK periods of a point at once,
    # (N + 1) MIN_P1_BLOCK values, so a long horizon costs no more than a
    # short one
    charged(lambda: min_p1_sweep(3, 1.0, 10.0, [0.5], 30000, COARSE),
            101 * floquet.MIN_P1_BLOCK)
    # its work still grows with the horizon, and is bounded per point
    with pytest.raises(ConfigError, match="would sample 2001000000 values"):
        min_p1_sweep(3, 1.0, 10.0, [0.5], 10**6)
    monkeypatch.setattr(floquet, "MAX_SAMPLES_PER_POINT", 101 * 30000 - 1)
    with pytest.raises(ConfigError, match="would sample 3030000 values"):
        min_p1_sweep(3, 1.0, 10.0, [0.5], 30000, COARSE)


@pytest.mark.parametrize("sweep, values", [
    (quasi_energy_sweep, 3**3 + evolve.QJ_BLOCK * 3**2),  # Q_j and its block
    (floquet.quasi_energy_branches, 101),  # the step loop's time tables
])
def test_spectra_are_charged_their_period_tables(charged, sweep, values):
    # neither keeps U(s), so a long period fits at n = 3
    charged(lambda: sweep(3, 1.0, 10.0, [0.5], COARSE), values)


def test_grid_is_charged_its_spectra(charged, monkeypatch):
    # one-point chunks charge little; the grid's eigenvectors and
    # populations, (2 n^2 + n) values a point, outweigh them
    monkeypatch.setattr(floquet, "MAX_CHUNK_VALUES", 1)
    charged(lambda: floquet.quasi_energy_branches(
        3, 1.0, 10.0, np.linspace(0.0, 1.0, 7), COARSE), 7 * (2 * 3**2 + 3))


def test_min_p1_grid_is_charged_one_value_a_point(charged, monkeypatch):
    # min P1 keeps one float a point, so a grid whose spectra would
    # outweigh its block of samples is charged only that block
    monkeypatch.setattr(floquet, "MAX_CHUNK_VALUES", 1)
    ratios = np.linspace(0.0, 1.0, 60)
    assert len(ratios) * (2 * 3**2 + 3) > 101 * 10
    charged(lambda: min_p1_sweep(3, 1.0, 10.0, ratios, 10, COARSE), 101 * 10)


@pytest.mark.parametrize("call", [
    lambda: propagate(DrivenSystem(3, 1.0, 0.0, 10.0), np.eye(3)[0], 10**8),
    lambda: quasi_energy_sweep(3, 1.0, 10.0, [0.5],
                               PropagationSettings(10**12)),
    lambda: floquet.quasi_energy_branches(3, 1.0, 10.0, [0.5],
                                          PropagationSettings(10**12)),
], ids=["propagate", "quasi_energy_sweep", "quasi_energy_branches"])
def test_oversized_calls_are_refused_before_allocating(call):
    # each asked numpy for terabytes and raised MemoryError
    with pytest.raises(ConfigError, match="run would hold"):
        call()


def _sambe_errors(n: int, steps: int):
    """Largest |quasi-energy| and |averaged population| differences between
    quasi_energy_sweep at `steps` per period and the Sambe oracle, modes
    paired by quasi-energy, on 13 ratios in [0.2, 5] at v = 1, omega = 10."""
    ratios = np.linspace(0.2, 5.0, 13)
    sweep = quasi_energy_sweep(n, 1.0, 10.0, ratios, PropagationSettings(steps))
    eps_err = pop_err = 0.0
    for ratio, eps, pops in zip(ratios, sweep.quasi_energies,
                                sweep.avg_populations):
        ref_eps, ref_pops = sambe_floquet(n, 1.0, ratio * 10.0, 10.0)
        order = np.argsort(eps)
        eps_err = max(eps_err, np.max(np.abs(eps[order] - ref_eps)))
        pop_err = max(pop_err, np.max(np.abs(pops[order] - ref_pops)))
    return eps_err, pop_err


@pytest.mark.parametrize("n", [3, 5, 11])
def test_sweep_matches_integration_free_oracle(n):
    # no time stepping in the oracle: this bounds RK4's own error, about
    # 1.2e-10 in the quasi-energies at n = 11
    eps_err, pop_err = _sambe_errors(n, 2000)
    assert eps_err <= 5e-10
    assert pop_err <= 5e-10


def test_quasi_energy_error_is_fourth_order():
    # RK4: halving the step divides the quasi-energy error by 16
    coarse, _ = _sambe_errors(3, 1000)
    fine, _ = _sambe_errors(3, 2000)
    assert coarse / fine >= 12


def test_unresolved_quasi_energies_are_refused_before_integrating(monkeypatch):
    # eps_mach * omega above |v|: refused before any step is taken
    def never(*args, **kwargs):
        raise AssertionError("integrated")
    monkeypatch.setattr(floquet, "propagator_averages", never)
    monkeypatch.setattr(floquet, "period_maps", never)
    for omega in (1e16, 1e300):
        with pytest.raises(NumericalQualityError, match="eps\\*omega"):
            floquet_spectrum(DrivenSystem(3, 1.0, 0.0, omega))
        with pytest.raises(NumericalQualityError):
            quasi_energy_sweep(3, 1.0, omega, [0.0, 1.0])
        with pytest.raises(NumericalQualityError):
            floquet.quasi_energy_branches(3, -1.0, omega, [0.0, 1.0])
    monkeypatch.undo()
    # at v = 0 the zero spectrum is exact
    spec = floquet_spectrum(DrivenSystem(3, 0.0, 0.0, 1e300),
                            PropagationSettings(100))
    assert np.all(spec.quasi_energies == 0.0)
