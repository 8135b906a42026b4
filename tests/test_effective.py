import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkfloquet import (ConfigError, DrivenSystem, J0_FIRST_ZERO,
                         PropagationSettings, bessel_j0,
                         dark_state_closed_form, effective_model,
                         localization, min_p1_floor,
                         min_p1_sweep, verify_properties)
from darkfloquet import effective, floquet
from darkfloquet.effective import (PropertyCheck, PropertyReport,
                                   _effective_matrix)

from oracles import (expm_scaling_squaring, j0_first_zero_oracle,
                     j0_series_oracle, min_p1_oracle, property_checks_oracle,
                     property_report_oracle)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_root(self):
        root = j0_first_zero_oracle()
        assert root == pytest.approx(J0_FIRST_ZERO, abs=1e-13)
        assert abs(bessel_j0(J0_FIRST_ZERO)) <= 1e-10

    def test_known_value(self):
        assert bessel_j0(2.0) == pytest.approx(0.22389077914123567, abs=1e-13)

    def test_series_agreement(self):
        for x in np.linspace(0.0, 12.0, 121):
            assert abs(bessel_j0(x) - j0_series_oracle(x)) <= 1e-12

    def test_even_function(self):
        assert bessel_j0(-3.7) == bessel_j0(3.7)

    def test_matches_scipy_over_supported_range(self):
        special = pytest.importorskip("scipy.special")
        xs = np.concatenate([np.linspace(0.0, 30.0, 3001),
                             np.linspace(30.0, 1e4, 2001)])
        dev = max(abs(bessel_j0(x) - special.j0(x)) for x in xs)
        assert dev <= 1e-13

    def test_large_argument_magnitude(self):
        # |J0| <= sqrt(2/(pi x)) envelope at large x
        for x in (50.0, 500.0, 9000.0):
            assert abs(bessel_j0(x)) <= np.sqrt(2 / (np.pi * x)) * 1.001

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bessel_j0(2e4)
        for x in (1e4 + 1.0, np.inf, np.nan):
            with pytest.raises(ConfigError):
                bessel_j0(x)


class TestEffectiveModel:
    def test_undriven_is_bare_chain(self):
        m = effective_model(DrivenSystem(3, 1.0, 0.0, 10.0))
        assert np.allclose(m.matrix, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert m.v_eff == 1.0

    def test_bond_vanishes_at_first_root(self):
        m = effective_model(DrivenSystem(3, 1.0, J0_FIRST_ZERO * 10.0, 10.0))
        assert abs(m.v_eff) <= 1e-9
        assert abs(m.matrix[0, 1]) <= 1e-9

    def test_five_level_bonds(self):
        m = effective_model(DrivenSystem(5, 1.0, 20.0, 10.0))
        assert m.v_eff == pytest.approx(0.22389077914123567, abs=1e-12)
        assert np.allclose(np.diag(m.matrix, 1)[1:], [1.0, 1.0, 1.0])


class TestDarkState:
    def test_three_level_unit_couplings(self):
        d = dark_state_closed_form(3, 1.0, 1.0)
        assert np.allclose(np.abs(d.vector), np.abs([-1, 0, 1]) / np.sqrt(2))
        assert d.localization == pytest.approx(0.5)

    def test_five_level_unit_couplings(self):
        d = dark_state_closed_form(5, 1.0, 1.0)
        assert np.allclose(np.abs(d.vector), [1, 0, 1, 0, 1] / np.sqrt(3))

    def test_decoupled_limit(self):
        d = dark_state_closed_form(3, 1.0, 0.0)
        assert np.array_equal(d.vector, [1.0, 0.0, 0.0])
        assert d.localization == 1.0

    def test_even_n_rejected(self):
        with pytest.raises(ConfigError):
            dark_state_closed_form(4, 1.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([3, 5, 7, 9, 11]),
           v=st.floats(0.5, 2.0), v_eff=st.floats(-2.0, 2.0))
    def test_is_null_vector_and_matches_numerics(self, n, v, v_eff):
        d = dark_state_closed_form(n, v, v_eff)
        h = _effective_matrix(n, v_eff, v)
        assert np.linalg.norm(d.vector) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(h @ d.vector)) <= 1e-10 * max(1.0, abs(v), abs(v_eff))
        assert np.all(d.vector[1::2] == 0.0)
        lam, vecs = np.linalg.eigh(h)
        w = vecs[:, int(np.argmin(np.abs(lam)))].real
        assert min(np.max(np.abs(w - d.vector)),
                   np.max(np.abs(w + d.vector))) <= 1e-7


class TestLocalization:
    def test_boundary_case(self):
        w1sq, loc = localization(3, 1.0, 1.0)
        assert w1sq == pytest.approx(0.5)
        assert loc is False

    def test_strong_suppression(self):
        j = bessel_j0(2.0)
        w1sq, loc = localization(3, 1.0, j)
        assert w1sq == pytest.approx(1.0 / (1.0 + j**2), abs=1e-12)
        assert w1sq == pytest.approx(0.9522657, abs=1e-6)
        assert loc is True

    def test_five_level_equal_weights(self):
        w1sq, loc = localization(5, 1.0, 1.0)
        assert w1sq == pytest.approx(1.0 / 3.0)
        assert loc is False

    def test_tiny_bond_is_the_decoupled_limit(self):
        # (v / v_eff)^2 overflows; the weight is then 1, as at v_eff = 0
        for v_eff in (1e-200, -5e-324, 0.0):
            assert localization(3, 1.0, v_eff) == (1.0, True)
        assert min_p1_floor(5, 1.0, 1e-200) == 1.0


class TestMinP1Oracle:
    def test_limits(self):
        assert min_p1_oracle(1.0, 1.0) == 0.0
        assert min_p1_oracle(1.0, 0.0) == 1.0

    def test_value_at_ratio_two(self):
        assert min_p1_oracle(1.0, bessel_j0(2.0)) == pytest.approx(
            0.8181770540592479, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(v=st.floats(0.5, 2.0), v_eff=st.floats(-2.0, 2.0))
    def test_rederived_from_spectral_decomposition(self, v, v_eff):
        # P1(t) = (v^2 + v_eff^2 cos(s t))^2 / s^4 from the eigenbasis of
        # the 3x3 chain; the minimum sits at cos = -1
        h = _effective_matrix(3, v_eff, v)
        lam, vecs = np.linalg.eigh(h)
        s = np.sqrt(v**2 + v_eff**2)
        assert np.allclose(lam, [-s, 0.0, s], atol=1e-10)
        b = vecs.conj().T @ np.array([1.0, 0, 0])
        t_min = np.pi / s if s > 0 else 0.0
        amp = vecs @ (np.exp(-1j * lam * t_min) * b)
        assert abs(amp[0]) ** 2 == pytest.approx(min_p1_oracle(v, v_eff),
                                                 abs=1e-10)

    def test_against_direct_effective_propagation(self):
        v, v_eff = 1.0, bessel_j0(2.0)
        h = _effective_matrix(3, v_eff, v)
        ts = np.linspace(0, 40.0, 8001)
        c0 = np.array([1.0, 0, 0], dtype=complex)
        mins = min(abs((expm_scaling_squaring(-1j * h * t) @ c0)[0]) ** 2
                   for t in ts[:: 40])
        assert mins == pytest.approx(min_p1_oracle(v, v_eff), abs=1e-4)


class TestMinP1Floor:
    def test_matches_three_level_oracle(self):
        for ratio in np.linspace(0.0, 5.0, 51):
            v_eff = bessel_j0(ratio)
            assert abs(min_p1_floor(3, 1.0, v_eff)
                       - min_p1_oracle(1.0, v_eff)) <= 1e-12

    def test_five_level_limits(self):
        assert min_p1_floor(5, 1.0, 0.0) == 1.0
        assert min_p1_floor(5, 1.0, 1.0) == 0.0

    def test_even_n_rejected(self):
        with pytest.raises(ConfigError):
            min_p1_floor(4, 1.0, 0.5)


class TestVerifyProperties:
    def test_clean_report(self):
        report = verify_properties(range(2, 8), trials=20, rng_seed=42)
        assert report.ok
        assert json.loads(report.to_json())["n_violations"] == 0
        assert "all properties hold" in report.to_text()

    def test_two_level_case(self):
        report = verify_properties([2], trials=10, rng_seed=1)
        assert report.ok

    def test_even_n_double_zero_at_veff_zero(self):
        lam = np.linalg.eigvalsh(_effective_matrix(4, 0.0, 1.0))
        assert np.sum(np.abs(lam) <= 1e-9) == 2

    def test_perturbed_matrix_is_flagged(self, monkeypatch):
        effective_matrices = effective._effective_matrices

        def corrupt(n, v_eff, v):
            m = effective_matrices(n, v_eff, v)
            if n >= 3:
                m[:, 0, 2] = m[:, 2, 0] = 0.35  # breaks the tridiagonal structure
            return m
        monkeypatch.setattr(effective, "_effective_matrices", corrupt)
        report = verify_properties([5], trials=3, rng_seed=0)
        assert not report.ok
        assert {c.property_id for c in report.violations} == {"P1", "P3", "P4"}

    def test_pinned_draws_and_outcomes(self):
        # (property, n, trial, v, v_eff, pass) of every check at seed 0
        report = verify_properties(range(2, 12), trials=100, rng_seed=0)
        drawn = json.dumps([[c.property_id, c.n, c.trial, c.v, c.v_eff,
                             c.passed] for c in report.checks])
        assert hashlib.sha256(drawn.encode()).hexdigest() == (
            "8a847b317a05b08ce5f6c5f73c98b6fb8c48773d3d3182253c68f0ed69b7ee25")

    @pytest.mark.parametrize("budget", [100, 10])
    def test_chunked_stacks_match_one_stack(self, monkeypatch, budget):
        # 21 matrices of 25 values: stacks of 4 matrices, or of one when
        # the budget is below n^2
        whole = verify_properties([5], trials=20, rng_seed=4).to_json()
        monkeypatch.setattr(floquet, "MAX_CHUNK_VALUES", budget)
        sizes = []
        eigh = np.linalg.eigh

        def spy(a):
            sizes.append(a.size)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        chunked = verify_properties([5], trials=20, rng_seed=4).to_json()
        assert len(sizes) > 1 and max(sizes) <= max(budget, 25)
        assert chunked == whole

    def test_largest_matrix_is_charged(self, charged):
        # one stack holds at least one matrix of the largest size, n^2
        charged(lambda: verify_properties([3, 40], trials=1), 40**2)

    def test_draws_are_bounded_before_the_first(self, monkeypatch):
        # each draw keeps about 3.5 checks; 10^9 of them would not fit
        with pytest.raises(ConfigError, match="would draw 1000000001 "):
            verify_properties([2], trials=10**9)
        monkeypatch.setattr(effective, "MAX_DRAWS", 4)
        assert len(verify_properties([2, 3], trials=1).checks) > 0
        with pytest.raises(ConfigError, match="would draw 6 effective"):
            verify_properties([2, 3], trials=2)

    def test_reproducible(self):
        r1 = verify_properties([3, 4], trials=5, rng_seed=9)
        r2 = verify_properties([3, 4], trials=5, rng_seed=9)
        assert r1.to_json() == r2.to_json()


class TestPropertyReportOracle:
    # the stacked suite and its fixed-layout JSON writer must give the bytes
    # of one eigensolve per matrix and of json.dumps(indent=2)
    @staticmethod
    def _assert_reports_match(report, checks):
        text, body = property_report_oracle(report.seed, checks)
        assert report.to_text() == text
        assert report.to_json() == body

    @pytest.mark.parametrize("n_range, trials, seed", [
        (range(2, 12), 100, 0), ([5], 20, 4), ([3, 4], 5, 9), ([], 3, 0)])
    def test_matches_per_matrix_loop(self, n_range, trials, seed):
        report = verify_properties(n_range, trials, seed)
        checks = property_checks_oracle(n_range, trials, seed)
        assert [tuple(c) for c in report.checks] == checks
        # plain Python values, as the per-matrix loop records them
        assert {type(x) for c in report.checks for x in c} <= {str, int,
                                                               float, bool}
        self._assert_reports_match(report, checks)

    def test_corrupted_stack_fails_alike(self, monkeypatch):
        effective_matrices = effective._effective_matrices

        def perturb(m):
            m[..., 0, 2] = m[..., 2, 0] = 0.35

        def corrupt(n, v_eff, v):
            m = effective_matrices(n, v_eff, v)
            perturb(m)
            return m
        monkeypatch.setattr(effective, "_effective_matrices", corrupt)
        report = verify_properties([3, 5, 6], 4, 2)
        checks = property_checks_oracle([3, 5, 6], 4, 2, perturb)
        assert [tuple(c) for c in report.checks] == checks
        assert "  FAIL P1 n=3 " in report.to_text()
        self._assert_reports_match(report, checks)

    def test_non_finite_values_and_escaped_details(self):
        nan, inf = float("nan"), float("inf")
        checks = [PropertyCheck("P3", 4, 1, nan, inf, False, nan, "x"),
                  PropertyCheck("P4", 4, -1, -inf, -0.0, True, inf),
                  PropertyCheck("P1", 3, 0, 1.0, 5e-324, False, -inf,
                                'say "hi" \u2014 \u00fc\\\n\t'),
                  PropertyCheck("P4-threshold", 3, 2, 0.1, 1e300, True,
                                1e-17, "\u00e9\U0001d11e")]
        self._assert_reports_match(PropertyReport(seed=7, checks=checks),
                                   checks)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), v=st.floats(0.5, 2.0), v_eff=st.floats(-2.0, 2.0))
def test_spectrum_is_symmetric_multiset(n, v, v_eff):
    eigs = np.linalg.eigvalsh(_effective_matrix(n, v_eff, v))
    assert np.allclose(eigs, -eigs[::-1], atol=1e-9)


def test_zero_mode_even_sites_vanish():
    for n in (3, 5, 7, 9):
        lam, vecs = np.linalg.eigh(_effective_matrix(n, 0.7, 1.3))
        w = vecs[:, int(np.argmin(np.abs(lam)))]
        assert np.max(np.abs(w[1::2])) <= 1e-9


def test_effective_spectrum_approaches_quasi_energies():
    # deviation shrinks at least linearly in 1/omega at fixed A/omega
    from darkfloquet import floquet_spectrum
    ratio = 2.0
    devs = []
    for omega in (10.0, 20.0, 40.0):
        system = DrivenSystem(3, 1.0, ratio * omega, omega)
        eps = floquet_spectrum(system).quasi_energies
        lam = np.linalg.eigvalsh(effective_model(system).matrix)
        devs.append(np.max(np.abs(eps - lam)))
    assert devs[1] <= devs[0] / 2 * 1.1
    assert devs[2] <= devs[1] / 2 * 1.1


def test_min_p1_oracle_matches_driven_dynamics():
    ratios = [0.0, 1.0, 2.0, 3.0]
    for ratio, measured in zip(ratios, min_p1_sweep(3, 1.0, 10.0, ratios, 200)):
        predicted = min_p1_oracle(1.0, bessel_j0(ratio))
        assert abs(measured - predicted) <= 0.02
