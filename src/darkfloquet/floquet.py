"""Floquet analysis: quasi-energies and modes from the monodromy matrix,
period-averaged populations, dark-mode detection, and drive-strength sweeps
with branch tracking. A sweep integrates its ratio grid in one step loop
per chunk; a single system is the one-point grid of the same code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalQualityError
from .evolve import (QJ_BLOCK, PropagationSettings, _hold, period_maps,
                     propagator_averages, propagator_site1)
from .linalg import unitary_eigen
from .model import DrivenSystem

__all__ = [
    "FloquetSpectrum",
    "DarkModeResult",
    "fold_quasi_energy",
    "floquet_spectrum",
    "dark_mode",
    "quasi_energy_sweep",
    "quasi_energy_branches",
    "min_p1_sweep",
    "SweepResult",
]

# complex values (8 MB) one sweep chunk may keep: per grid point, n^3 for Q_j
# plus QJ_BLOCK n^2 for the U(s) rows summed into it, n^2 for U(T) alone, or
# (steps + 1) n for row 0 of every U(s); also the real entries of a
# property-suite stack, n^2 each
MAX_CHUNK_VALUES = 5 * 10**5
MIN_P1_BLOCK = 100  # periods per block of the min-P1 evaluation
# bound on the site-1 samples of one min_p1_sweep point: a few seconds' work
MAX_SAMPLES_PER_POINT = 10**9
DARK_EPS_TOL, DARK_POP_TOL = 1e-4, 0.02  # dark mode: |eps|/omega, even-site <P>


@dataclass(frozen=True)
class FloquetSpectrum:
    """Floquet modes of one driven system, sorted by quasi-energy.

    Mode k has quasi-energy eps_k = quasi_energies[k] in the first Brillouin
    zone, t=0 vector w = eigenvectors[:, k] with U(T) w = exp(-i eps_k T) w,
    and period-averaged populations avg_populations[k].
    """

    quasi_energies: np.ndarray      # (n,)
    eigenvectors: np.ndarray        # (n, n), column k = mode k
    avg_populations: np.ndarray     # (n, n), row k = mode k
    system: DrivenSystem


@dataclass(frozen=True)
class DarkModeResult:
    index: int | None
    ambiguous: bool = False


def fold_quasi_energy(eps: float | np.ndarray,
                      omega: float) -> float | np.ndarray:
    """Fold quasi-energies into the first Brillouin zone (-omega/2, omega/2]."""
    r = np.mod(eps, omega)
    return r - omega * (r > 0.5 * omega)


def _chunks(systems, values_per_point: int):
    size = max(1, MAX_CHUNK_VALUES // values_per_point)
    return [systems[i:i + size] for i in range(0, len(systems), size)]


def _modes(system: DrivenSystem, u: np.ndarray):
    """Quasi-energies and eigenvectors of U(T), by quasi-energy."""
    dec = unitary_eigen(u)
    eps = fold_quasi_energy(-np.angle(dec.eigenvalues) / system.period,
                            system.omega)
    order = np.argsort(eps, kind="stable")
    return eps[order], dec.eigenvectors[:, order]


def _check_resolution(v: float, omega: float) -> None:
    """Refuse, before integrating, quasi-energies that U(T) cannot resolve.

    An eigenphase is known to about machine epsilon, so a quasi-energy
    phase/T to about eps_mach * omega; a spectrum on the scale of a nonzero
    coupling |v| below that is round-off. At v = 0 the zero spectrum is
    exact."""
    floor = np.finfo(float).eps * omega
    if v != 0 and floor > abs(v):
        raise NumericalQualityError(
            f"quasi-energies resolve to about eps*omega = {floor:.3g}, more "
            f"than the coupling |v| = {abs(v)}; lower omega")


def _spectra(systems, settings: PropagationSettings):
    """(quasi-energies, eigenvectors, averaged populations) stacks of a grid
    of systems that share n, v and omega, each point's modes by quasi-energy;
    a mode's averaged population on site j is vec^dag Q_j vec."""
    _check_resolution(systems[0].v, systems[0].omega)
    spectra = []
    n = systems[0].n
    for chunk in _chunks(systems, n ** 3 + QJ_BLOCK * n ** 2):
        _, q, uts = propagator_averages(chunk, settings)
        for system, u, q_j in zip(chunk, uts, q):
            eps, vecs = _modes(system, u)
            pops = np.einsum("ak,jab,bk->kj", vecs.conj(), q_j, vecs).real
            spectra.append((eps, vecs, pops))
    return tuple(map(np.array, zip(*spectra)))


def floquet_spectrum(system: DrivenSystem,
                     settings: PropagationSettings = PropagationSettings()
                     ) -> FloquetSpectrum:
    """Quasi-energies and modes of the driven system: eigenphases of the
    monodromy matrix, and each mode's populations averaged over one period
    with the trapezoidal rule on the integrator grid. An omega at which
    eps_mach * omega exceeds |v| != 0 is refused (NumericalQualityError)."""
    (eps,), (vecs,), (pops,) = _spectra([system], settings)
    return FloquetSpectrum(quasi_energies=eps, eigenvectors=vecs,
                           avg_populations=pops, system=system)


def dark_mode(spectrum: FloquetSpectrum) -> DarkModeResult:
    """Find the dark Floquet mode: zero quasi-energy and negligible
    period-averaged population on every even site.

    Returns the mode's index into the spectrum's arrays; the index is None
    if no mode qualifies, and also if more than one does (even-n degeneracy
    points), which is then flagged ambiguous.
    """
    eps_tol = DARK_EPS_TOL * spectrum.system.omega
    even_sites = spectrum.avg_populations[:, 1::2]  # sites 2, 4, ... (1-based)
    matches = np.flatnonzero((np.abs(spectrum.quasi_energies) <= eps_tol)
                             & np.all(even_sites <= DARK_POP_TOL, axis=1))
    if len(matches) == 1:
        return DarkModeResult(index=int(matches[0]))
    return DarkModeResult(index=None, ambiguous=len(matches) > 1)


@dataclass(frozen=True)
class SweepResult:
    """Branch-tracked Floquet data over a grid of A/omega values.

    quasi_energies[i, k] and avg_populations[i, k, :] belong to branch k at
    ratios[i]; branch identity follows maximal eigenvector overlap between
    adjacent grid points.
    """

    ratios: np.ndarray
    quasi_energies: np.ndarray      # (n_ratios, n)
    avg_populations: np.ndarray     # (n_ratios, n, n)
    eigenvectors: np.ndarray        # (n_ratios, n, n), column k = branch k
    system_template: DrivenSystem


def _grid_systems(n: int, v: float, omega: float, ratios, kept: int):
    """(ratios, systems) of a sweep, all validated before any integration;
    the caller keeps `kept` values per grid point."""
    ratios = np.asarray(ratios, dtype=float)
    if ratios.ndim != 1 or len(ratios) == 0:
        raise ConfigError("ratios must be a non-empty 1-D sequence")
    if np.any(~np.isfinite(ratios)) or np.any(ratios < 0):
        raise ConfigError("ratios must be finite and >= 0")
    _hold(len(ratios) * kept, "the grid's results")
    # float(r): an overflowing amplitude is inf, which DrivenSystem rejects
    return ratios, [DrivenSystem(n, v, float(r) * omega, omega)
                    for r in ratios]


def _track(eps: np.ndarray, vecs: np.ndarray, *rows: np.ndarray) -> None:
    """Permute the modes of each grid point in place, after the first, so
    that column k of vecs[i] (and entry k of eps[i] and of every rows[i])
    continues branch k of the point before it."""
    for i in range(1, len(eps)):
        perm = _match_branches(vecs[i - 1], vecs[i], eps[i - 1], eps[i])
        eps[i], vecs[i] = eps[i][perm], vecs[i][:, perm]
        for r in rows:
            r[i] = r[i][perm]


def quasi_energy_sweep(n: int, v: float, omega: float, ratios,
                       settings: PropagationSettings = PropagationSettings()
                       ) -> SweepResult:
    """Floquet spectra over a grid of drive ratios A/omega, with mode
    branches matched across adjacent grid points by eigenvector overlap;
    refused, as by `floquet_spectrum`, when eps_mach * omega > |v| != 0."""
    template = DrivenSystem(n, v, 0.0, omega)  # validates n first
    ratios, systems = _grid_systems(n, v, omega, ratios, 2 * n * n + n)
    eps, vecs, pops = _spectra(systems, settings)
    _track(eps, vecs, pops)
    return SweepResult(ratios=ratios, quasi_energies=eps, avg_populations=pops,
                       eigenvectors=vecs, system_template=template)


def quasi_energy_branches(n: int, v: float, omega: float, ratios,
                          settings: PropagationSettings = PropagationSettings()):
    """(quasi_energies, eigenvectors) of `quasi_energy_sweep`, without the
    period averages: U(T) comes from the quarter-period `period_maps`.
    Refused, as `quasi_energy_sweep` is, when eps_mach * omega > |v| != 0."""
    _, systems = _grid_systems(n, v, omega, ratios, 2 * n * n + n)
    _check_resolution(v, omega)
    eps, vecs = map(np.array, zip(*[
        _modes(system, u) for chunk in _chunks(systems, n * n)
        for system, u in zip(chunk, period_maps(chunk, settings))]))
    _track(eps, vecs)
    return eps, vecs


def min_p1_sweep(n: int, v: float, omega: float, ratios, periods: int,
                 settings: PropagationSettings = PropagationSettings()
                 ) -> np.ndarray:
    """Sampled minimum of P_1(t) over the given number of driving periods,
    from (1, 0, ..., 0), at each drive ratio A/omega of the grid.

    H is periodic, so the site-1 amplitude at t = kT + s is <1|U(s)|psi_k>
    with psi_k = U(T)^k (1, 0, ..., 0): the period starts are chained
    through U(T) as in `propagate`, and row 0 of U(s) gives every sample of
    a period, so the samples are those of direct long propagation."""
    _, systems = _grid_systems(n, v, omega, ratios, 1)
    if not isinstance(periods, (int, np.integer)) or periods < 1:
        raise ConfigError(f"periods must be a positive integer, got {periods!r}")
    samples = (settings.steps_per_period + 1) * periods
    if samples > MAX_SAMPLES_PER_POINT:
        raise ConfigError(f"run would sample {samples} values per grid point, "
                          f"more than {MAX_SAMPLES_PER_POINT}")
    _hold((settings.steps_per_period + 1) * min(periods, MIN_P1_BLOCK),
          "the sampled block of periods")
    out = []
    for chunk in _chunks(systems, (settings.steps_per_period + 1) * n):
        _, rows, uts = propagator_site1(chunk, settings)
        psi = np.tile(np.eye(n, 1, dtype=complex), (len(chunk), 1, 1))
        least = np.full(len(chunk), np.inf)
        for k0 in range(0, periods, MIN_P1_BLOCK):
            starts = np.empty((len(chunk), n, min(MIN_P1_BLOCK, periods - k0)),
                              dtype=complex)
            for k in range(starts.shape[2]):
                starts[:, :, k:k + 1] = psi
                psi = uts @ psi
            for g, (row, start) in enumerate(zip(rows, starts)):
                # min |a|^2 = (min |a|)^2: rounding a square is monotone
                least[g] = min(least[g], np.abs(row @ start).min())
        out.append(least * least)
    return np.concatenate(out)


def _match_branches(w_prev: np.ndarray, w_next: np.ndarray,
                    e_prev: np.ndarray, e_next: np.ndarray) -> np.ndarray:
    """Greedy assignment maximizing |<w_prev_k | w_next_j>|, ties broken by
    quasi-energy proximity. Returns perm with w_next[:, perm[k]] ~ branch k."""
    n = w_prev.shape[1]
    overlap = np.abs(w_prev.conj().T @ w_next)  # (k_prev, j_next)
    # pairs by overlap, then |delta eps|, then (k, j): lexsort is stable
    order = np.lexsort((np.abs(e_prev[:, None] - e_next).ravel(),
                        -overlap.ravel()))
    perm = np.full(n, -1)
    used = np.zeros(n, dtype=bool)
    for k, j in zip(*np.divmod(order, n)):
        if perm[k] == -1 and not used[j]:
            perm[k], used[j] = j, True
            if used.all():
                break
    return perm
