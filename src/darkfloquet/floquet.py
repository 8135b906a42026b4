"""Floquet analysis: quasi-energies and modes from the monodromy matrix,
period-averaged populations, dark-mode detection, and drive-strength sweeps
with branch tracking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evolve import PropagationSettings, propagator_samples
from .linalg import unitary_eigen
from .model import DrivenSystem, canonical_system

__all__ = [
    "FloquetSpectrum",
    "DarkModeResult",
    "fold_quasi_energy",
    "floquet_spectrum",
    "dark_mode",
    "quasi_energy_sweep",
    "SweepResult",
]


@dataclass(frozen=True)
class FloquetSpectrum:
    """Floquet modes of one driven system, sorted by quasi-energy.

    Mode k has quasi-energy quasi_energies[k] in the first Brillouin zone,
    eigenvalue multipliers[k] of the monodromy matrix U(T), t=0 vector
    eigenvectors[:, k] and period-averaged populations avg_populations[k];
    site1[s, k] = <1|U(t_s)|mode k> on the one-period integrator grid.
    """

    quasi_energies: np.ndarray      # (n,)
    multipliers: np.ndarray         # (n,)
    eigenvectors: np.ndarray        # (n, n), column k = mode k
    avg_populations: np.ndarray     # (n, n), row k = mode k
    site1: np.ndarray               # (steps+1, n)
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


def floquet_spectrum(system: DrivenSystem,
                     settings: PropagationSettings = PropagationSettings()
                     ) -> FloquetSpectrum:
    """Quasi-energies and modes of the driven system.

    Eigenphases of the monodromy matrix give the quasi-energies; each mode's
    populations are averaged over one period with the trapezoidal rule on
    the integrator grid.
    """
    _, us = propagator_samples(system, settings)
    dec = unitary_eigen(us[-1])
    eps = fold_quasi_energy(-np.angle(dec.eigenvalues) / system.period,
                            system.omega)
    order = np.argsort(eps, kind="stable")
    vecs = dec.eigenvectors[:, order]
    pops = np.stack([_period_averaged_populations(us, vecs[:, k])
                     for k in range(system.n)])
    return FloquetSpectrum(quasi_energies=eps[order],
                           multipliers=dec.eigenvalues[order],
                           eigenvectors=vecs, avg_populations=pops,
                           site1=us[:, 0, :] @ vecs, system=system)


def _period_averaged_populations(us: np.ndarray, vec: np.ndarray) -> np.ndarray:
    traj = us @ vec  # (steps+1, n); one mode at a time keeps memory O(steps n)
    p = np.abs(traj) ** 2
    # trapezoid on the uniform grid
    avg = (0.5 * (p[0] + p[-1]) + p[1:-1].sum(axis=0)) / (p.shape[0] - 1)
    return avg


def dark_mode(spectrum: FloquetSpectrum, eps_tol: float | None = None,
              pop_tol: float = 0.02) -> DarkModeResult:
    """Find the dark Floquet mode: zero quasi-energy and negligible
    period-averaged population on every even site.

    Returns the mode's index into the spectrum's arrays; the index is None
    if no mode qualifies, and also if more than one does (even-n degeneracy
    points), which is then flagged ambiguous.
    """
    omega = spectrum.system.omega
    if eps_tol is None:
        eps_tol = 1e-4 * omega
    if eps_tol <= 0 or pop_tol <= 0:
        raise ConfigError("tolerances must be positive")
    even_sites = spectrum.avg_populations[:, 1::2]  # sites 2, 4, ... (1-based)
    matches = np.flatnonzero((np.abs(spectrum.quasi_energies) <= eps_tol)
                             & np.all(even_sites <= pop_tol, axis=1))
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


def quasi_energy_sweep(n: int, v: float, omega: float, ratios,
                       settings: PropagationSettings = PropagationSettings()
                       ) -> SweepResult:
    """Floquet spectra over a grid of drive ratios A/omega, with mode
    branches matched across adjacent grid points by eigenvector overlap."""
    ratios = np.asarray(ratios, dtype=float)
    if ratios.ndim != 1 or len(ratios) == 0:
        raise ConfigError("ratios must be a non-empty 1-D sequence")
    if np.any(~np.isfinite(ratios)) or np.any(ratios < 0):
        raise ConfigError("ratios must be finite and >= 0")
    template = canonical_system(n, v, 0.0, omega)  # validates n first
    eps = np.empty((len(ratios), n))
    pops = np.empty((len(ratios), n, n))
    vecs = np.empty((len(ratios), n, n), dtype=complex)
    # float(r): an overflowing amplitude is inf, which DrivenSystem rejects
    for i, r in enumerate(ratios):
        spec = floquet_spectrum(canonical_system(n, v, float(r) * omega, omega),
                                settings)
        e, p, w = spec.quasi_energies, spec.avg_populations, spec.eigenvectors
        if i:
            perm = _match_branches(vecs[i - 1], w, eps[i - 1], e)
            e, p, w = e[perm], p[perm], w[:, perm]
        eps[i], pops[i], vecs[i] = e, p, w
    return SweepResult(ratios=ratios, quasi_energies=eps, avg_populations=pops,
                       eigenvectors=vecs, system_template=template)


def _match_branches(w_prev: np.ndarray, w_next: np.ndarray,
                    e_prev: np.ndarray, e_next: np.ndarray) -> np.ndarray:
    """Greedy assignment maximizing |<w_prev_k | w_next_j>|, ties broken by
    quasi-energy proximity. Returns perm with w_next[:, perm[k]] ~ branch k."""
    n = w_prev.shape[1]
    overlap = np.abs(w_prev.conj().T @ w_next)  # (k_prev, j_next)
    perm = np.full(n, -1)
    used = np.zeros(n, dtype=bool)
    flat = [(-overlap[k, j], abs(e_prev[k] - e_next[j]), k, j)
            for k in range(n) for j in range(n)]
    flat.sort()
    assigned = 0
    for _, _, k, j in flat:
        if perm[k] == -1 and not used[j]:
            perm[k] = j
            used[j] = True
            assigned += 1
            if assigned == n:
                break
    return perm
