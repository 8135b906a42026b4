"""Floquet analysis: quasi-energies and modes from the monodromy matrix,
period-averaged populations, dark-mode detection, and drive-strength sweeps
with branch tracking. A sweep integrates its ratio grid in one step loop
per chunk and solves the chunk's stack of U(T) in one stacked eigensolve;
a single system is the one-point grid of the same code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalQualityError
from .evolve import (QJ_BLOCK, PropagationSettings, _hold, _starts,
                     period_maps, propagator_averages, propagator_site1)
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
# plus QJ_BLOCK n^2 for the U(s) rows summed into it, 8 n^2 for U(T) and the
# step loop's and eigensolve's buffers, or (N/2 + 1 + 2 span) n for row 0 of
# U(s) up to T/2 and a span's starts; also the real entries of a property
# suite stack, n^2 each. min P1's pair tables are built one point at a time,
# never for a chunk. A Q_j flush briefly holds a second QJ_BLOCK n^2, the
# conj of its block, uncharged: charged, it split default floquet-sweep
# --n 5 and --n 11 into 2 and 6 chunks, not 1 and 4, 15 % and 11 % slower
MAX_CHUNK_VALUES = 5 * 10**5
MIN_P1_SPAN = 1000  # periods, 2 starts each, chained at once; tables last one
MIN_P1_BLOCK = 100  # half periods per block of the min-P1 evaluation
# min P1 as a real quadratic form costs a point's pair table once a span and
# a real gemm of n^2 terms a sample, the complex product 4n real products
# and a hypot a sample. min_p1_sweep over 400 periods on 31 points, one BLAS
# thread, 9 interleaved pairs, quadratic against complex, and the pairs the
# quadratic form won: n = 8 87 against 117 ms, 9 of 9; n = 9 115 against
# 132, 9 of 9; n = 10 143 against 144, 5 of 9; n = 11 166 against 146, 0 of
# 9. The form follows n alone, so a point rounds alike in any grid
QUADRATIC_MAX_N = 9
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


def _modes(systems, uts: np.ndarray):
    """(quasi-energies, eigenvectors) stacks of the U(T) stack of systems
    that share omega, each point's modes by quasi-energy.

    For z = exp(i theta) off the spectrum, K = i (z - U)^-1 (z + U) is
    Hermitian for a unitary U, with eigenvalue cot((theta - phi)/2) on an
    eigenvector of eigenphase phi, monotone in phi on the circle cut at
    theta: eigh's orthonormal eigenbasis of K, degenerate eigenspaces
    included, is one of U. theta is the middle of the point's widest
    eigenphase gap, at least 2 pi/n wide, which keeps z - U well
    conditioned. A mode's eigenvalue is v^dag U v; one off the unit circle
    is refused (NumericalQualityError); no NaN reaches it, as eigvals raises
    LinAlgError on NaN or inf and a finite z - U, z mid-gap, is invertible."""
    phases = np.sort(np.angle(np.linalg.eigvals(uts)))
    gaps = np.diff(phases, append=phases[:, :1] + 2 * np.pi)
    theta = np.take_along_axis(phases + 0.5 * gaps,
                               np.argmax(gaps, axis=1)[:, None], axis=1)
    z = np.exp(1j * theta)[..., None] * np.eye(uts.shape[-1])
    k = 1j * np.linalg.solve(z - uts, z + uts)
    _, vecs = np.linalg.eigh(0.5 * (k + k.conj().swapaxes(-1, -2)))
    lambdas = np.einsum("gik,gij,gjk->gk", vecs.conj(), uts, vecs)
    bad = np.flatnonzero(~(np.max(np.abs(np.abs(lambdas) - 1.0), axis=1)
                           <= 1e-7))
    if len(bad):
        raise NumericalQualityError(
            f"Floquet eigenvalues left the unit circle at A/omega="
            f"{systems[bad[0]].ratio:.6g}; U(T) is too far from unitary")
    eps = fold_quasi_energy(-np.angle(lambdas) / systems[0].period,
                            systems[0].omega)
    order = np.argsort(eps, kind="stable")
    return (np.take_along_axis(eps, order, axis=1),
            np.take_along_axis(vecs, order[:, None], axis=2))


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
    spectra, n = [], systems[0].n
    for chunk in _chunks(systems, n ** 3 + QJ_BLOCK * n ** 2):
        q, uts = propagator_averages(chunk, settings)
        eps, vecs = _modes(chunk, uts)
        pops = np.einsum("gak,gjab,gbk->gkj", vecs.conj(), q, vecs).real
        spectra.append((eps, vecs, pops))
    return tuple(map(np.concatenate, zip(*spectra)))


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
    points), which is then flagged ambiguous. At omega below about 5|v| the
    odd-n dark mode's even-site average can exceed DARK_POP_TOL (n = 3,
    omega = 5: 0.02 on site 2 from A/omega = 1.37), and the index is None."""
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
    eps, vecs = map(np.concatenate, zip(*[
        _modes(chunk, period_maps(chunk, settings))
        for chunk in _chunks(systems, 8 * n * n)]))
    _track(eps, vecs)
    return eps, vecs


def _pair_table(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(n^2, m) real table of the pair products of the columns of the
    (n, m) complex x: |x_i|^2, then Re and Im of x_i conj(x_j) for the pairs
    i < j of np.triu_indices(n, 1)."""
    prod = x[i] * x[j].conj()
    return np.concatenate([x.real ** 2 + x.imag ** 2, prod.real, prod.imag])


def min_p1_sweep(n: int, v: float, omega: float, ratios, periods: int,
                 settings: PropagationSettings = PropagationSettings()
                 ) -> np.ndarray:
    """Sampled minimum of P_1(t) over the given number of driving periods,
    from (1, 0, ..., 0), at each drive ratio A/omega of the grid.

    With r(s) row 0 of U(s), s <= T/2, and x_j the half-period starts that
    `propagate` chains too (`_starts`), P_1(j T/2 + s) = |r(s) x_j|^2 at
    the times of direct long propagation. Up to n = QUADRATIC_MAX_N, P_1 =
    sum_{i<=j} w_ij Re[(r_i conj(r_j)) (x_i conj(x_j))], w = 1 on the
    diagonal and 2 off it. A point's pair tables of r and of x are built
    once per span of MIN_P1_SPAN periods, and one real gemm of slices of
    them gives P_1 on each block of MIN_P1_BLOCK half periods. It rounds in
    absolute terms, about 1e-16, so a minimum below about 1e-15 is noise,
    and one that rounds below 0 is returned as 0. Above QUADRATIC_MAX_N,
    P_1 is |r x|^2 of the complex product, on the same spans and blocks.
    A minimum that is not finite is refused (NumericalQualityError)."""
    _, systems = _grid_systems(n, v, omega, ratios, 1)
    if not isinstance(periods, (int, np.integer)) or periods < 1:
        raise ConfigError(f"periods must be a positive integer, got {periods!r}")
    samples = (settings.steps_per_period + 1) * periods
    if samples > MAX_SAMPLES_PER_POINT:
        raise ConfigError(f"run would sample {samples} values per grid point, "
                          f"more than {MAX_SAMPLES_PER_POINT}")
    quadratic = n <= QUADRATIC_MAX_N
    half, span = settings.steps_per_period // 2, 2 * min(periods, MIN_P1_SPAN)
    chunks = _chunks(systems, (half + 1 + span) * n)
    column = n * n // 2 if quadratic else 0  # complex values a table column
    _hold(max((half + 1) * max(min(2 * periods, MIN_P1_BLOCK), column),
              max(len(chunks[0]) * n, column) * span),
          "a block of samples, a point's pair tables or the span's starts")
    # tables(row, start): a point's table of x_j, a line a half period of
    # the span, and its table of r(s); least_p1: the least P_1 of the
    # product of a slice of lines of the first with the second
    if quadratic:
        i, j = pairs = np.triu_indices(n, 1)
        weights = np.repeat([1.0, 2.0, -2.0], [n, len(i), len(i)])[:, None]

        def tables(row, start):
            return ((weights * _pair_table(start, *pairs)).T,
                    _pair_table(np.ascontiguousarray(row.T), *pairs))
        least_p1 = np.min
    else:
        def tables(row, start):
            return start.T, row.T

        def least_p1(amps):  # squared once, not per sample
            return np.square(np.abs(amps).min())
    out = []
    for chunk in chunks:
        rows, ws = propagator_site1(chunk, settings)
        chain = _starts(ws, np.eye(1, n, dtype=complex).repeat(len(chunk), 0))
        least = np.full(len(chunk), np.inf)
        for j0 in range(0, 2 * periods, span):
            starts = np.empty((len(chunk), n, min(span, 2 * periods - j0)),
                              dtype=complex)
            for k in range(starts.shape[2]):
                starts[:, :, k] = next(chain)
            for g, (row, start) in enumerate(zip(rows, starts)):
                x_table, row_table = tables(row, start)
                for b0 in range(0, len(x_table), MIN_P1_BLOCK):
                    # np.minimum keeps a NaN, which min(inf, nan) would drop
                    least[g] = np.minimum(least[g], least_p1(
                        x_table[b0:b0 + MIN_P1_BLOCK] @ row_table))
        out.append(least)
    p1 = np.maximum(np.concatenate(out), 0.0)
    bad = np.flatnonzero(~np.isfinite(p1))
    if len(bad):
        raise NumericalQualityError(
            f"min P1 is {p1[bad[0]]} at A/omega={systems[bad[0]].ratio:.6g}; "
            f"increase steps_per_period (currently "
            f"{settings.steps_per_period})")
    return p1


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
