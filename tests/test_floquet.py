import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkfloquet import (PropagationSettings, canonical_system, dark_mode,
                         floquet_spectrum, fold_quasi_energy, hermitian_eigen,
                         propagate, quasi_energy_sweep)
from darkfloquet.model import hamiltonian_at

from oracles import j0_first_zero_oracle


def test_undriven_spectrum():
    spec = floquet_spectrum(canonical_system(3, 1.0, 0.0, 10.0))
    assert np.allclose(spec.quasi_energies, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-7)


def test_zero_quasi_energy_branch_exists_for_odd_n():
    for ratio in (0.7, 1.9, 3.4, 5.0):
        spec = floquet_spectrum(canonical_system(3, 1.0, ratio * 10.0, 10.0))
        assert np.min(np.abs(spec.quasi_energies)) <= 1e-6


def test_quasi_energies_near_bessel_zero_match_bare_chain():
    # v_eff = 0 leaves the 2-3 bond only: spectrum {0, +/-v}
    root = j0_first_zero_oracle()
    spec = floquet_spectrum(canonical_system(3, 1.0, root * 10.0, 10.0))
    assert np.allclose(spec.quasi_energies, [-1.0, 0.0, 1.0], atol=3e-2)


def test_mode_population_normalization():
    spec = floquet_spectrum(canonical_system(5, 1.0, 20.0, 10.0))
    assert np.allclose(spec.avg_populations.sum(axis=1), 1.0, rtol=0, atol=1e-8)
    assert np.all(spec.avg_populations >= 0)
    assert np.all(spec.avg_populations <= 1 + 1e-12)


def test_floquet_defining_property():
    system = canonical_system(3, 1.0, 20.0, 10.0)
    spec = floquet_spectrum(system)
    for eps, vec in zip(spec.quasi_energies, spec.eigenvectors.T):
        traj = propagate(system, vec / np.linalg.norm(vec), 0.0, system.period)
        expected = np.exp(-1j * eps * system.period) * vec
        assert np.max(np.abs(traj.final_state - expected)) <= 1e-6


def test_particle_hole_symmetric_spectrum():
    for n in (3, 4, 5):
        spec = floquet_spectrum(canonical_system(n, 1.0, 17.0, 10.0))
        eps = spec.quasi_energies
        assert np.all(np.diff(eps) >= 0)
        assert np.allclose(eps, -eps[::-1], atol=1e-6)


def test_spectrum_arrays_describe_the_monodromy():
    from darkfloquet.evolve import propagator_samples
    system = canonical_system(3, 1.0, 20.0, 10.0)
    spec = floquet_spectrum(system)
    _, us = propagator_samples(system)
    u, vecs = us[-1], spec.eigenvectors
    assert np.max(np.abs(u @ vecs - vecs * spec.multipliers)) <= 1e-12
    assert np.allclose(fold_quasi_energy(
        -np.angle(spec.multipliers) / system.period, system.omega),
        spec.quasi_energies, rtol=0, atol=1e-12)
    assert np.max(np.abs(spec.site1 - us[:, 0, :] @ vecs)) <= 1e-12
    assert spec.site1.shape == (2001, 3)


class TestDarkMode:
    def test_three_level_dark_mode(self):
        spec = floquet_spectrum(canonical_system(3, 1.0, 20.0, 10.0))
        result = dark_mode(spec)
        assert result.index is not None and not result.ambiguous
        assert abs(spec.quasi_energies[result.index]) <= 1e-6
        assert spec.avg_populations[result.index, 1] <= 0.02
        assert spec.avg_populations[result.index, 0] > 0.5

    def test_five_level_dark_mode(self):
        spec = floquet_spectrum(canonical_system(5, 1.0, 20.0, 10.0))
        result = dark_mode(spec)
        assert result.index is not None
        assert spec.avg_populations[result.index, 1] <= 0.02
        assert spec.avg_populations[result.index, 3] <= 0.02

    def test_four_level_generic_has_none(self):
        spec = floquet_spectrum(canonical_system(4, 1.0, 20.0, 10.0))
        result = dark_mode(spec)
        assert result.index is None and not result.ambiguous

    def test_two_candidates_are_ambiguous(self):
        spec = floquet_spectrum(canonical_system(3, 1.0, 20.0, 10.0))
        twin = dataclasses.replace(spec, quasi_energies=np.zeros(3),
                                   avg_populations=np.full((3, 3), 0.01))
        result = dark_mode(twin)
        assert result.index is None and result.ambiguous


def test_gauge_invariance_of_populations():
    from darkfloquet.floquet import _period_averaged_populations
    from darkfloquet.evolve import propagator_samples
    system = canonical_system(3, 1.0, 20.0, 10.0)
    _, us = propagator_samples(system)
    vec = floquet_spectrum(system).eigenvectors[:, 0]
    base = _period_averaged_populations(us, vec)
    rotated = _period_averaged_populations(us, np.exp(1j * 0.813) * vec)
    assert np.max(np.abs(base - rotated)) <= 1e-12


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
            static = hermitian_eigen(
                hamiltonian_at(canonical_system(n, 1.0, 0.0, 10.0), 0.0))
            assert np.allclose(np.sort(sweep.quasi_energies[0]),
                               static.eigenvalues, atol=1e-7)

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
