import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darkfloquet import (ConfigError, DrivenSystem, NumericalQualityError,
                         PropagationSettings, UnitarityError, dark_mode,
                         floquet_spectrum, fold_quasi_energy, min_p1_sweep,
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

    def test_population_rule_picks_one_of_three_zero_modes(self):
        # just above omega = 1 the undriven chain's eigenvalues +-1 fold to
        # -+5e-5: three modes pass the quasi-energy rule, and only the dark
        # one keeps its even sites empty (the others carry 0.25 on each).
        # Not omega = 1 itself: there U(T) is the identity on all three and
        # any basis of them is a set of Floquet modes.
        omega = 1.0 + 5e-5
        spec = floquet_spectrum(DrivenSystem(5, 1.0, 0.0, omega))
        near_zero = (np.abs(spec.quasi_energies)
                     <= floquet.DARK_EPS_TOL * omega)
        assert np.count_nonzero(near_zero) == 3
        result = dark_mode(spec)
        assert result.index is not None and not result.ambiguous
        assert np.allclose(spec.avg_populations[result.index],
                           [1 / 3, 0, 1 / 3, 0, 1 / 3], rtol=0, atol=1e-6)


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
# eps + omega folds to the zone's other edge, 5.6e-17 away on the circle
@example(eps=0.5, omega=float.fromhex("0x1.5555555555555p-2"))
def test_folding_is_idempotent_and_in_zone(eps, omega):
    folded = fold_quasi_energy(eps, omega)
    assert -omega / 2 < folded <= omega / 2
    assert fold_quasi_energy(folded, omega) == folded
    # eps and eps + omega label the same representative, on the circle: at a
    # zone edge the two may land on opposite ends of the zone
    d = fold_quasi_energy(eps + omega, omega) - folded
    assert abs(d - omega * round(d / omega)) <= 1e-9 * max(1.0, abs(eps))


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


@pytest.mark.parametrize("omega", [10.0, 3.0])
def test_tracked_branches_continue_by_overlap(omega, request):
    # n = 4: sorted by quasi-energy, the modes swap order at about half of
    # the points, where untracked branches drop to a consecutive overlap of
    # 0.01
    ratios = np.linspace(0.0, 5.0, 201)
    sweep = (request.getfixturevalue("sweep_n4_full") if omega == 10.0
             else quasi_energy_sweep(4, 1.0, omega, ratios))
    vecs = sweep.eigenvectors
    overlaps = np.abs(np.einsum("gik,gik->gk", vecs[:-1].conj(), vecs[1:]))
    assert overlaps.min() >= 0.99
    # wherever the best assignment of modes beats every other one by more
    # than 0.1 in summed overlap, it is the tracked one: the identity
    optimize = pytest.importorskip("scipy.optimize")
    perms = list(itertools.permutations(range(4)))
    for prev, nxt in zip(vecs[:-1], vecs[1:]):
        overlap = np.abs(prev.conj().T @ nxt)
        rows, cols = optimize.linear_sum_assignment(-overlap)
        best = overlap[rows, cols].sum()
        runner_up = max(overlap[rows, list(p)].sum() for p in perms
                        if list(p) != list(cols))
        if best - runner_up > 0.1:
            assert list(cols) == [0, 1, 2, 3]


@pytest.mark.parametrize("periods", [0, 2.5])
def test_min_p1_sweep_refuses_a_bad_horizon(periods):
    with pytest.raises(ConfigError, match="periods must be a positive integer"):
        min_p1_sweep(3, 1.0, 10.0, [0.5], periods)


def _min_p1_against_direct_stepping(n, steps, periods, monkeypatch):
    # a budget of two grid points per chunk, row 0 of U(s) up to T/2 and
    # the 2 span half-period starts of one span each: chunks of 2, 2 and 1
    ratios = np.linspace(0.0, 5.0, 5)
    span = min(periods, floquet.MIN_P1_SPAN)
    monkeypatch.setattr(floquet, "MAX_CHUNK_VALUES",
                        2 * (steps // 2 + 1 + 2 * span) * n)
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


# n = 8 is the last on the quadratic form, n = 9 the first on the complex one
@pytest.mark.parametrize("n,steps", [(2, 2000), (3, 2000), (5, 2000), (6, 2000),
                                     (7, 2000), (8, 2000), (9, 2000),
                                     (11, 2000), (3, 500), (11, 500)],
                         ids=["2", "3", "5", "6", "7", "8", "9", "11",
                              "3-500", "11-500"])
def test_batched_min_p1_matches_direct_stepping(n, steps, monkeypatch):
    _min_p1_against_direct_stepping(n, steps, 12, monkeypatch)


@pytest.mark.parametrize("n", [3, 6, 7, 8, 9])
def test_min_p1_across_span_and_block_edges(n, monkeypatch):
    # neither the span of 7 periods, 14 half periods, nor the block of 5
    # half periods divides the 40 half periods of 20 periods, nor does the
    # block divide a span: spans of 14, 14 and 12 half periods, in blocks of
    # 5, 5 and 4 and of 5, 5 and 2
    monkeypatch.setattr(floquet, "MIN_P1_SPAN", 7)
    monkeypatch.setattr(floquet, "MIN_P1_BLOCK", 5)
    _min_p1_against_direct_stepping(n, 500, 20, monkeypatch)


@pytest.mark.parametrize("periods, spans", [(400, 1), (1000, 1), (1001, 2),
                                            (2500, 3)])
def test_min_p1_builds_a_row_table_once_per_point_and_span(periods, spans,
                                                           monkeypatch):
    # the table of r(s), s <= T/2, is built once a point and span, that of
    # the span's starts x_j once a point and span too:
    # 2 G ⌈periods / MIN_P1_SPAN⌉ tables, not one a block
    assert floquet.MIN_P1_SPAN == 1000
    built = []
    pair_table = floquet._pair_table

    def spy(x, *pairs):
        built.append(x.shape)
        return pair_table(x, *pairs)

    monkeypatch.setattr(floquet, "_pair_table", spy)
    min_p1_sweep(3, 1.0, 10.0, np.linspace(0.0, 1.0, 4), periods, COARSE)
    rows = [shape for shape in built if shape == (3, 51)]
    assert len(rows) == 4 * spans
    assert len(built) == 2 * 4 * spans


@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 8, 9, 11])
def test_one_point_min_p1_is_the_grid_point(n):
    assert floquet.QUADRATIC_MAX_N == 8  # the forms on both sides of it
    grid = np.linspace(0.0, 5.0, 7)
    swept = min_p1_sweep(n, 1.0, 10.0, grid, 150)
    for i in (0, 3, 6):
        alone = min_p1_sweep(n, 1.0, 10.0, grid[i:i + 1], 150)
        assert alone[0] == swept[i]


@pytest.mark.parametrize("n", [2, 3])
def test_undriven_min_p1_rounds_to_a_small_non_negative_value(n):
    # the undriven chain empties site 1 to below 1e-24 at some sample, where
    # the quadratic form's absolute rounding, about 1e-16, may fall below 0
    p1 = min_p1_sweep(n, 1.0, 10.0, [0.0], 400)
    assert 0.0 <= p1[0] <= 1e-15


@pytest.mark.parametrize("n", [3, 7, 9])
def test_non_finite_sample_is_refused(n, monkeypatch):
    # Python's min(inf, nan) is inf: a NaN sample must not read as inf
    site1 = floquet.propagator_site1

    def poisoned(systems, settings):
        ts, rows, uts = site1(systems, settings)
        rows[1, 17, 0] = np.nan
        return ts, rows, uts

    monkeypatch.setattr(floquet, "propagator_site1", poisoned)
    with pytest.raises(NumericalQualityError, match="min P1 is nan"):
        min_p1_sweep(n, 1.0, 10.0, [0.5, 1.0], 150)


@pytest.mark.parametrize("call", [
    lambda: min_p1_sweep(3, 1e3, 10.0, [0.0, 0.5], 10, COARSE),
    lambda: quasi_energy_sweep(3, 1e3, 10.0, [0.0], COARSE),
], ids=["min_p1_sweep", "quasi_energy_sweep"])
def test_overflowed_monodromy_trips_the_guard_without_a_warning(call):
    # U(T) overflows at this step size; the unitarity guard must read its
    # defect as inf without a RuntimeWarning, which pytest makes an error
    with pytest.raises(UnitarityError, match="defect inf"):
        call()


def test_min_p1_peak_memory_is_the_propagators():
    # the pair table is built one point at a time: for the whole grid it
    # would hold (N/2 + 1) n^2 reals a point, 6.2 MB here, more than the
    # sweep's whole peak of row 0 of U(s), the span's starts and one point's
    # tables and block
    ratios = np.linspace(0.0, 5.0, 31)
    tracemalloc.start()
    try:
        min_p1_sweep(5, 1.0, 10.0, ratios, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(ratios) * 1001 * 5**2 * 8


@pytest.mark.parametrize(
    "n,v,steps", [(2, 1.0, 2000), (3, 1.0, 2000), (5, 1.0, 2000),
                  (11, 1.0, 2000), (3, 0.37, 2000), (11, 0.37, 2000),
                  (11, 0.37, 100), (11, 0.37, 102), (11, 0.37, 198)],
    ids=["2", "3", "5", "11", "3-v0.37", "11-v0.37", "11-v0.37-100",
         "11-v0.37-102", "11-v0.37-198"])
def test_streamed_averages_match_direct_stepping(n, v, steps):
    # each mode's period-averaged populations against a trapezoid average of
    # a plain RK4 run started from the mode. The loop sums the U(k h), k =
    # 0 ... N/2, into Q_j in blocks of 50 steps: at 100 steps W = U(T/2)
    # sits alone in the last block, at 102 the last block holds k = 50 and
    # 51, at 198 W closes a full block, and 2000 run through many; at 100
    # steps the unitarity guard refuses A/omega = 2
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


@pytest.mark.parametrize("n", [3, 11])
def test_one_ratio_branches_are_the_grid_row(n):
    # the eigensolve runs on a chunk's stack of U(T), and a point's modes
    # round as they do alone
    ratios = np.linspace(0.3, 5.0, 21)
    eps, vecs = floquet.quasi_energy_branches(n, 1.0, 10.0, ratios)
    one_eps, one_vecs = floquet.quasi_energy_branches(n, 1.0, 10.0, ratios[:1])
    assert np.array_equal(one_eps[0], eps[0])
    assert np.array_equal(one_vecs[0], vecs[0])


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
    # min_p1_sweep samples at most MIN_P1_BLOCK half periods of a point at
    # once, (N/2 + 1) MIN_P1_BLOCK values, so a long horizon costs no more
    # than a short one; at 1000 steps the block outweighs a span's 2000
    # starts, 4 complex values each in the pair table
    assert 501 * floquet.MIN_P1_BLOCK > 4 * 2 * floquet.MIN_P1_SPAN
    charged(lambda: min_p1_sweep(3, 1.0, 10.0, [0.5], 3000,
                                 PropagationSettings(steps_per_period=1000)),
            501 * floquet.MIN_P1_BLOCK)
    # its work still grows with the horizon, and is bounded per point
    with pytest.raises(ConfigError, match="would sample 2001000000 values"):
        min_p1_sweep(3, 1.0, 10.0, [0.5], 10**6)
    monkeypatch.setattr(floquet, "MAX_SAMPLES_PER_POINT", 101 * 30000 - 1)
    with pytest.raises(ConfigError, match="would sample 3030000 values"):
        min_p1_sweep(3, 1.0, 10.0, [0.5], 30000, COARSE)


def test_min_p1_sweep_is_charged_the_span_starts(charged):
    # a chunk chains the starts x_j for a span of MIN_P1_SPAN periods, two
    # half periods each, at once, n values a point and start, here more
    # than a block of samples; a longer horizon costs no more than one span
    ratios = np.linspace(0.0, 1.0, 5)
    assert 5 * 3 * 2 * floquet.MIN_P1_SPAN > 51 * floquet.MIN_P1_BLOCK
    for periods in (floquet.MIN_P1_SPAN, 2500):
        charged(lambda: min_p1_sweep(3, 1.0, 10.0, ratios, periods, COARSE),
                5 * 3 * 2 * floquet.MIN_P1_SPAN)


def test_min_p1_chunk_budget_counts_the_span_starts(monkeypatch):
    # at 100 steps a span of 2000 half-period starts, n values each,
    # outweighs row 0 of U(s) up to T/2: a budget of two points holds both
    # for two points
    monkeypatch.setattr(floquet, "MAX_CHUNK_VALUES", 2 * (51 + 2000) * 3)
    sizes = []
    site1 = floquet.propagator_site1

    def spy(systems, settings):
        sizes.append(len(systems))
        return site1(systems, settings)

    monkeypatch.setattr(floquet, "propagator_site1", spy)
    min_p1_sweep(3, 1.0, 10.0, np.linspace(0.0, 1.0, 5), 1000, COARSE)
    assert sizes == [2, 2, 1]


def test_min_p1_sweep_is_charged_its_pair_table(charged):
    # at n = 6 a point's (N/2 + 1) n^2 real pair table, (N/2 + 1) n^2 / 2
    # complex values, outweighs a block of the 16 half periods of 8 periods
    # and the step loop's block of step matrices
    assert 36 // 2 > 16
    assert 1001 * 18 > 2 * 6**2 * (7 * evolve.STEP_BLOCK + 13)
    charged(lambda: min_p1_sweep(6, 1.0, 10.0, [0.5], 8), 1001 * 18)


@pytest.mark.parametrize("sweep, values", [
    # Q_j and its block, 16 points of n^3 + 50 n^2 values
    (quasi_energy_sweep, 16 * (3**3 + evolve.QJ_BLOCK * 3**2)),
    # the step loop's block of 5 grouped matrices and of 16 ΔP_k, their 12
    # grid-free real images, the state and the product buffer, in complex
    # values
    (floquet.quasi_energy_branches,
     2 * 3**2 * ((5 + 16) * evolve.STEP_BLOCK + 12 + 16)),
])
def test_spectra_are_charged_their_period_tables(charged, sweep, values):
    # neither keeps U(s), so a long period fits at n = 3; on 16 points Q_j
    # outweighs the step loop
    assert 16 * (3**3 + evolve.QJ_BLOCK * 3**2) > 2 * 3**2 * (
        (5 + 16) * evolve.STEP_BLOCK + 12 + 16)
    ratios = np.linspace(0.0, 1.0, 16)
    charged(lambda: sweep(3, 1.0, 10.0, ratios, COARSE), values)


def test_grid_is_charged_its_spectra(charged, monkeypatch):
    # one-point chunks charge 2 n^2 (7 STEP_BLOCK + 13) complex values in
    # the step loop; the grid's eigenvectors and populations, (2 n^2 + n)
    # values a point, outweigh them
    monkeypatch.setattr(floquet, "MAX_CHUNK_VALUES", 1)
    assert 120 * (2 * 3**2 + 3) > 2 * 3**2 * (7 * evolve.STEP_BLOCK + 13)
    charged(lambda: floquet.quasi_energy_branches(
        3, 1.0, 10.0, np.linspace(0.0, 1.0, 120), COARSE), 120 * (2 * 3**2 + 3))


def test_min_p1_grid_is_charged_one_value_a_point(charged, monkeypatch):
    # min P1 keeps one float a point, so a grid whose spectra would
    # outweigh its block of samples, the 50 half periods of 25 periods, is
    # charged only that block
    monkeypatch.setattr(floquet, "MAX_CHUNK_VALUES", 1)
    ratios = np.linspace(0.0, 1.0, 130)
    assert len(ratios) * (2 * 3**2 + 3) > 51 * 50
    # the block outweighs a one-point chunk's step loop
    assert 51 * 50 > 2 * 3**2 * (7 * evolve.STEP_BLOCK + 13)
    charged(lambda: min_p1_sweep(3, 1.0, 10.0, ratios, 25, COARSE), 51 * 50)


@pytest.mark.parametrize("call, message", [
    (lambda: propagate(DrivenSystem(3, 1.0, 0.0, 10.0), np.eye(3)[0], 10**8),
     "run would hold"),
    # the settings refuse the step count before any sweep sees it
    (lambda: quasi_energy_sweep(3, 1.0, 10.0, [0.5],
                                PropagationSettings(10**12)),
     "steps_per_period must be even, >= 100 and < 100000000"),
    (lambda: floquet.quasi_energy_branches(3, 1.0, 10.0, [0.5],
                                           PropagationSettings(10**12)),
     "steps_per_period must be even, >= 100 and < 100000000"),
], ids=["propagate", "quasi_energy_sweep", "quasi_energy_branches"])
def test_oversized_calls_are_refused_before_allocating(call, message):
    # each asked numpy for terabytes and raised MemoryError
    with pytest.raises(ConfigError, match=message):
        call()


def test_quarter_period_chunks_are_charged_the_loop_and_eigensolve():
    # a chunk of U(T) points is charged 8 n^2 a point, for the step loop's
    # state, product buffer and block of ΔP_k and the eigensolve's
    # temporaries besides U(T); a charge of n^2 lets the chunk outgrow
    # MAX_CHUNK_VALUES, to a peak of 19.8 MiB here
    ratios = np.linspace(0.0, 1.0, 1500)
    tracemalloc.start()
    try:
        eps, vecs = floquet.quasi_energy_branches(11, 1.0, 10.0, ratios,
                                                  COARSE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    results = eps.nbytes + vecs.nbytes
    assert peak <= 2 * results + 16 * floquet.MAX_CHUNK_VALUES, peak / 2**20


def test_default_quarter_period_grids_are_one_chunk(monkeypatch):
    # effective-compare's 21 points at n = 11 and the 201-point default
    # grid each take one step loop
    sizes = []

    def identities(systems, settings):
        sizes.append(len(systems))
        return np.repeat(np.eye(11, dtype=complex)[None], len(systems), 0)

    monkeypatch.setattr(floquet, "period_maps", identities)
    for points in (21, 201):
        floquet.quasi_energy_branches(11, 1.0, 10.0,
                                      np.linspace(0.0, 5.0, points))
    assert sizes == [21, 201]


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
