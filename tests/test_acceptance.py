"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
on the terminal. Expensive sweeps are shared through module fixtures.
"""

import numpy as np
import pytest

from darkfloquet import (DrivenSystem, PropagationSettings, bessel_j0,
                         dark_mode, dark_state_closed_form, effective_model,
                         floquet_spectrum, min_p1_floor,
                         min_p1_sweep, monodromy, propagate, quasi_energy_sweep,
                         verify_properties)
from darkfloquet.effective import _effective_matrix

from conftest import FULL_GRID
from oracles import j0_series_oracle, tridiag_det_sequence

HORIZON_PERIODS = 400


def _verdict(num, label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def min_p1_sweeps():
    """min P1 over 400 driving periods on the full ratio grid, n = 2..5."""
    return {n: min_p1_sweep(n, 1.0, 10.0, FULL_GRID, HORIZON_PERIODS)
            for n in (2, 3, 4, 5)}


@pytest.fixture(scope="module")
def convergence_sweeps():
    """Coarse quasi-energy sweeps at omega = 10, 20, 40 on a shared grid."""
    grid = np.linspace(0.0, 5.0, 51)
    return grid, {omega: quasi_energy_sweep(3, 1.0, omega, grid)
                  for omega in (10.0, 20.0, 40.0)}


def test_criterion_1_zero_quasi_energy_branch(sweep_n3_full):
    worst = np.min(np.abs(sweep_n3_full.quasi_energies), axis=1).max()
    _verdict(1, "n=3 zero quasi-energy branch on 201-point grid",
             worst <= 1e-6 * 10.0,
             f"largest |eps| on the closest branch = {worst:.3e}")


def test_criterion_2_dark_mode_population_structure(sweep_n3_full):
    branch = int(np.argmin(np.max(np.abs(sweep_n3_full.quasi_energies),
                                  axis=0)))
    pops = sweep_n3_full.avg_populations[:, branch, :]
    p2_max = pops[:, 1].max()
    driven = sweep_n3_full.ratios > 0.05
    p1_min = pops[driven, 0].min()
    _verdict(2, "zero branch has <P2> <= 0.02 and <P1> > 0.5 when driven",
             p2_max <= 0.02 and p1_min > 0.5,
             f"max <P2> = {p2_max:.4f}, min driven <P1> = {p1_min:.4f}")


def test_criterion_3_three_level_tunneling_minima():
    checks = []
    for ratio, test in [(0.0, lambda m: m <= 1e-3),
                        (2.0, lambda m: abs(m - 0.818) <= 0.03),
                        (2.404826, lambda m: m >= 0.98)]:
        m = min_p1_sweep(3, 1.0, 10.0, [ratio], HORIZON_PERIODS)[0]
        checks.append((ratio, m, test(m)))
    _verdict(3, "n=3 min P1 at ratios 0, 2.0 and the Bessel root",
             all(ok for _, _, ok in checks),
             "; ".join(f"ratio {r}: min P1 = {m:.4f}" for r, m, _ in checks))


def test_criterion_4_wide_versus_isolated_suppression(min_p1_sweeps):
    failures, bands = [], []
    inside = FULL_GRID >= 0.2
    for n in (3, 5):
        vals = min_p1_sweeps[n]
        floor = np.array([min_p1_floor(n, 1.0, bessel_j0(r))
                          for r in FULL_GRID])
        band = floor > 0.05
        start = FULL_GRID[band].min()
        k = int(np.argmin(vals[band]))
        worst, at = vals[band][k], FULL_GRID[band][k]
        bands.append(f"n={n} from {start:.3f}, worst {worst:.4f} at {at:.3f}")
        if worst <= 0.05:
            failures.append(f"n={n}: min P1 = {worst:.4g} at ratio {at:.3f} "
                            f"inside the band F_n > 0.05 (needs > 0.05)")
        if start > 1.5:
            failures.append(f"n={n}: band F_n > 0.05 starts at {start:.3f} "
                            f"(needs <= 1.5)")
        dev = vals[inside] - floor[inside]
        k = int(np.argmin(dev))
        if dev[k] < -0.03:
            failures.append(f"n={n}: min P1 = {vals[inside][k]:.4g} at ratio "
                            f"{FULL_GRID[inside][k]:.3f} is {-dev[k]:.4f} "
                            f"below F_n (needs <= 0.03)")
    outside = np.abs(FULL_GRID - 2.4048) >= 0.2
    for n in (2, 4):
        vals = min_p1_sweeps[n][outside]
        if not np.all(vals <= 0.05):
            k = int(np.argmax(vals))
            failures.append(f"n={n}: min P1 = {vals[k]:.4g} at "
                            f"ratio {FULL_GRID[outside][k]:.3f} (needs <= 0.05)")
    _verdict(4, "odd n min P1 > 0.05 where F_n > 0.05 ("
             + "; ".join(bands) + ") and >= F_n - 0.03 on [0.2, 5]; "
             "even n only near the root", not failures, "; ".join(failures))


def test_criterion_5_even_n_central_gap(sweep_n4_full):
    eps = np.sort(sweep_n4_full.quasi_energies, axis=1)
    gaps = eps[:, 2] - eps[:, 1]
    k = int(np.argmin(gaps))
    ok = abs(FULL_GRID[k] - 2.4048) <= 0.05 and gaps[k] <= 5e-3 * 10.0
    _verdict(5, "n=4 central quasi-energy gap closes at the Bessel root",
             ok, f"min gap {gaps[k]:.4e} at ratio {FULL_GRID[k]:.3f}")


def test_criterion_6_effective_model_agreement(sweep_n3_full,
                                               convergence_sweeps):
    def max_dev(sweep, omega):
        devs = []
        for i, r in enumerate(sweep.ratios):
            lam = np.linalg.eigvalsh(effective_model(
                DrivenSystem(3, 1.0, r * omega, omega)).matrix)
            devs.append(np.max(np.abs(np.sort(sweep.quasi_energies[i]) - lam)))
        return max(devs)

    dev10 = max_dev(sweep_n3_full, 10.0)
    grid, sweeps = convergence_sweeps
    series = [max_dev(sweeps[w], w) for w in (10.0, 20.0, 40.0)]
    ok = dev10 <= 0.05 and series[1] < series[0] and series[2] < series[1]
    _verdict(6, "quasi-energies track the averaged model, improving with omega",
             ok, f"dev at omega 10 = {dev10:.4f}; doubling series = "
                 + ", ".join(f"{d:.5f}" for d in series))


def test_criterion_7_spectral_properties_suite():
    report = verify_properties(range(2, 12), trials=100, rng_seed=0)
    _verdict(7, "randomized spectral properties of the effective chain",
             report.ok, f"{len(report.violations)} violations: "
                        + "; ".join(v.detail for v in report.violations[:5]))


def test_criterion_8_numerical_quality():
    system = DrivenSystem(3, 1.0, 20.0, 10.0)
    c0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    drift = propagate(system, c0, HORIZON_PERIODS).norm_drift
    u = monodromy(system)
    defect = np.max(np.abs(u.conj().T @ u - np.eye(3)))
    spec = floquet_spectrum(system)
    floq = max(np.max(np.abs(
        propagate(system, vec, 1).final_state
        - np.exp(-1j * eps * system.period) * vec))
        for eps, vec in zip(spec.quasi_energies, spec.eigenvectors.T))
    ref = propagate(system, c0, 5,
                    PropagationSettings(steps_per_period=16000)).final_state
    errs = [np.max(np.abs(propagate(
        system, c0, 5,
        PropagationSettings(steps_per_period=s)).final_state - ref))
        for s in (500, 1000, 2000, 4000)]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    ok = drift <= 1e-6 and defect <= 1e-8 and floq <= 1e-6 and monotone
    _verdict(8, "norm drift, unitarity, Floquet return, step convergence",
             ok, f"drift {drift:.2e}, defect {defect:.2e}, "
                 f"return {floq:.2e}, errors {errs}")


def test_criterion_9_oracle_equivalence():
    bessel_dev = max(abs(bessel_j0(x) - j0_series_oracle(x))
                     for x in np.linspace(0.0, 12.0, 121))
    det_dev = 0.0
    rng = np.random.default_rng(5)
    for _ in range(25):
        v_eff, v = rng.uniform(-2, 2), rng.uniform(0.5, 2)
        seq = tridiag_det_sequence(v_eff, v, 12)
        for n in range(1, 13):
            dense = np.linalg.det(_effective_matrix(n, v_eff, v))
            det_dev = max(det_dev, abs(seq[n - 1] - dense)
                          / max(1.0, abs(dense)))
    dark_resid = dark_match = 0.0
    for n in (3, 5, 7, 9, 11):
        for _ in range(10):
            v_eff, v = rng.uniform(-2, 2), rng.uniform(0.5, 2)
            d = dark_state_closed_form(n, v, v_eff)
            h = _effective_matrix(n, v_eff, v)
            dark_resid = max(dark_resid, np.max(np.abs(h @ d.vector)))
            lam, vecs = np.linalg.eigh(h)
            w = vecs[:, int(np.argmin(np.abs(lam)))].real
            dark_match = max(dark_match, min(np.max(np.abs(w - d.vector)),
                                             np.max(np.abs(w + d.vector))))
    ok = bessel_dev <= 1e-12 and det_dev <= 1e-9 and \
        dark_resid <= 1e-10 and dark_match <= 1e-7
    _verdict(9, "Bessel, determinant and dark-state oracles agree",
             ok, f"bessel {bessel_dev:.2e}, det {det_dev:.2e}, "
                 f"residual {dark_resid:.2e}, match {dark_match:.2e}")


def test_criterion_10_dark_mode_tends_to_stirap_dark_state():
    # averaging gives the first bond v J0(A/omega) e^{iA/omega}, so the
    # averaged null vector is g w_dark with g = diag(e^{iA/omega}, 1, ..., 1)
    series = {}
    for n in (3, 5):
        for ratio in (0.8, 2.0, 3.5):
            gauged = dark_state_closed_form(n, 1.0, bessel_j0(ratio)).vector
            gauged = gauged * np.exp(1j * ratio * (np.arange(n) == 0))
            series[n, ratio] = []
            for omega in (10.0, 20.0, 40.0, 80.0):
                spec = floquet_spectrum(
                    DrivenSystem(n, 1.0, ratio * omega, omega))
                k = dark_mode(spec).index
                overlap = (0.0 if k is None
                           else abs(np.vdot(gauged, spec.eigenvectors[:, k])))
                series[n, ratio].append(1.0 - overlap**2)
    at10 = max(s[0] for s in series.values())
    least = min(a / b for s in series.values() for a, b in zip(s, s[1:]))
    _verdict(10, f"dark Floquet mode -> gauged STIRAP dark state, infidelity "
             f"{at10:.2e} at omega 10, divided by >= {least:.1f} per doubling",
             at10 < 1e-3 and least >= 12.0,
             "; ".join(f"n={n} A/w={r}: " + ", ".join(f"{x:.2e}" for x in s)
                       for (n, r), s in series.items()))
