"""Experiment drivers: tunneling dynamics, minimum-population sweeps,
quasi-energy sweeps, effective-model comparison, and the property suite.

All drivers emit CSV with '#'-prefixed provenance lines; plots are optional
single-file SVGs written without any plotting dependency.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .effective import (bessel_j0, effective_model, min_p1_oracle,
                        verify_properties)
from .errors import ConfigError
from .evolve import PropagationSettings, propagate
from .floquet import (_match_branches, _min_p1, min_p1_sweep,
                      quasi_energy_sweep)
from .linalg import hermitian_eigen
from .model import canonical_system

__all__ = [
    "ExperimentConfig",
    "run_dynamics",
    "run_min_pop_sweep",
    "run_floquet_sweep",
    "run_effective_compare",
    "run_properties",
    "min_p1_measured",
]

EXPERIMENTS = ("dynamics", "sweep-min-pop", "floquet-sweep",
               "effective-compare", "properties")
# default horizon in driving periods of the experiments that take one
DEFAULT_PERIODS = {"dynamics": 20, "sweep-min-pop": 400}
# bound on the complex values in the largest array a run keeps (800 MB)
MAX_KEPT_VALUES = 5 * 10**7


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 3
    v: float = 1.0
    omega: float = 10.0
    amplitude: float | None = None
    ratio_grid: np.ndarray | None = None
    periods: int | None = None  # None: the experiment's DEFAULT_PERIODS
    steps_per_period: int = 2000
    seed: int = 0
    out: Path = field(default_factory=lambda: Path("out.csv"))
    svg: bool = False
    timestamp: bool = True
    property_n_range: tuple[int, ...] = tuple(range(2, 12))
    property_trials: int = 100

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.periods is None:
            object.__setattr__(self, "periods",
                               DEFAULT_PERIODS.get(self.experiment))
        if self.experiment == "sweep-min-pop" and self.periods < 10:
            raise ConfigError(f"periods must be >= 10, got {self.periods}")
        # U(s) keeps (steps+1) n^2 values, dynamics about (steps+1) n periods
        horizon = self.periods if self.experiment in DEFAULT_PERIODS else 1
        kept = (self.steps_per_period + 1) * self.n * max(self.n, horizon)
        if kept > MAX_KEPT_VALUES:
            raise ConfigError(f"run would keep {kept} complex values, more "
                              f"than {MAX_KEPT_VALUES}")
        if self.ratio_grid is not None:
            grid = np.asarray(self.ratio_grid, dtype=float)
            if grid.ndim != 1 or len(grid) == 0 or np.any(~np.isfinite(grid)):
                raise ConfigError("ratio grid must be finite and non-empty")
            if np.any(np.diff(grid) < 0):
                raise ConfigError("ratio grid must be sorted ascending")
            object.__setattr__(self, "ratio_grid", grid)
        object.__setattr__(self, "out", Path(self.out))

    @property
    def settings(self) -> PropagationSettings:
        return PropagationSettings(steps_per_period=self.steps_per_period)

    def ratio_or_default(self) -> np.ndarray:
        if self.ratio_grid is not None:
            return self.ratio_grid
        return np.linspace(0.0, 5.0, 201)


def _provenance(config: ExperimentConfig, extra: dict | None = None) -> list[str]:
    periods = (f" periods={config.periods}"
               if config.experiment in DEFAULT_PERIODS else "")
    lines = [f"# darkfloquet {__version__} experiment={config.experiment}",
             f"# n={config.n} v={config.v} omega={config.omega}"
             f" steps_per_period={config.steps_per_period}{periods}"
             f" seed={config.seed}"]
    if config.amplitude is not None:
        lines.append(f"# amplitude={config.amplitude}")
    if config.ratio_grid is not None:
        g = config.ratio_grid
        lines.append(f"# ratio_grid=[{g[0]}..{g[-1]}] points={len(g)}")
    for key, val in (extra or {}).items():
        lines.append(f"# {key}={val}")
    if config.timestamp:
        lines.append(f"# generated={datetime.datetime.now().isoformat()}")
    return lines


def _write_csv(path: Path, comments: list[str], header: list[str],
               rows) -> None:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in comments:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.12g}" if isinstance(x, float) else str(x)
                              for x in row) + "\n")


def _write_svg(path: Path, x: np.ndarray, ys: list[np.ndarray],
               labels: list[str], title: str) -> None:
    """Minimal line plot: one polyline per series, fixed 640x400 canvas."""
    w, h, pad = 640, 400, 45
    x = np.asarray(x, dtype=float)
    all_y = np.concatenate([np.asarray(y, dtype=float) for y in ys])
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (w - 2 * pad)
    def sy(v):
        return h - pad - (v - y0) / (y1 - y0) * (h - 2 * pad)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
              "#8c564b", "#17becf", "#7f7f7f"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<text x="{w/2}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>',
             f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" '
             'stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" '
             'stroke="black"/>']
    for i, (y, label) in enumerate(zip(ys, labels)):
        pts = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in zip(x, y))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.2"/>')
        parts.append(f'<text x="{w-pad+4}" y="{pad + 14*i}" fill="{color}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append(f'<text x="{pad}" y="{h-pad+16}" font-family="sans-serif" '
                 f'font-size="11">{x0:.3g}</text>')
    parts.append(f'<text x="{w-pad}" y="{h-pad+16}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{x1:.3g}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def min_p1_measured(system, periods: int,
                    settings: PropagationSettings = PropagationSettings()) -> float:
    """Sampled minimum of P_1(t) over the given number of driving periods,
    starting from (1, 0, ..., 0); the one-point grid of `min_p1_sweep`."""
    return float(_min_p1([system], periods, settings)[0])


def run_dynamics(config: ExperimentConfig) -> Path:
    """Trajectory CSV (t, P_1..P_n) from the initial state (1, 0, ..., 0)."""
    amplitude = config.amplitude if config.amplitude is not None else 0.0
    system = canonical_system(config.n, config.v, amplitude, config.omega)
    traj = propagate(system, np.eye(config.n, dtype=complex)[0],
                     config.periods, config.settings)
    pops = traj.populations
    header = ["t"] + [f"P{j+1}" for j in range(config.n)]
    rows = ([float(t)] + [float(p) for p in pops[i]]
            for i, t in enumerate(traj.times))
    comments = _provenance(config, {"norm_drift": f"{traj.norm_drift:.3e}"})
    _write_csv(config.out, comments, header, rows)
    if config.svg:
        _write_svg(config.out.with_suffix(".svg"), traj.times,
                   [pops[:, j] for j in range(config.n)],
                   [f"P{j+1}" for j in range(config.n)],
                   f"populations, n={config.n}, A/w={amplitude/config.omega:.3g}")
    return config.out


def run_min_pop_sweep(config: ExperimentConfig) -> Path:
    """CSV of (A/omega, min P_1) over the ratio grid, with the three-level
    effective-model prediction as a companion column where defined."""
    ratios = config.ratio_or_default()
    columns = {"min_P1": min_p1_sweep(config.n, config.v, config.omega, ratios,
                                      config.periods, config.settings)}
    if config.n == 3:
        columns["min_P1_effective"] = [
            min_p1_oracle(config.v, config.v * bessel_j0(r)) for r in ratios]
    rows = ([float(r)] + [c[i] for c in columns.values()]
            for i, r in enumerate(ratios))
    _write_csv(config.out, _provenance(config), ["ratio", *columns], rows)
    if config.svg:
        _write_svg(config.out.with_suffix(".svg"), ratios,
                   [np.array(c) for c in columns.values()],
                   ["min P1", "effective"][:len(columns)],
                   f"minimum P1, n={config.n}")
    return config.out


def run_floquet_sweep(config: ExperimentConfig) -> Path:
    """CSV of branch-tracked quasi-energies and period-averaged populations
    over the ratio grid."""
    ratios = config.ratio_or_default()
    sweep = quasi_energy_sweep(config.n, config.v, config.omega, ratios,
                               config.settings)
    header = (["ratio", "branch", "quasi_energy"]
              + [f"avgP{j+1}" for j in range(config.n)])
    rows = []
    for i, r in enumerate(ratios):
        for k in range(config.n):
            rows.append([float(r), k, float(sweep.quasi_energies[i, k])]
                        + [float(p) for p in sweep.avg_populations[i, k]])
    _write_csv(config.out, _provenance(config), header, rows)
    if config.svg:
        _write_svg(config.out.with_suffix(".svg"), ratios,
                   [sweep.quasi_energies[:, k] for k in range(config.n)],
                   [f"eps{k+1}" for k in range(config.n)],
                   f"quasi-energies, n={config.n}")
    return config.out


def run_effective_compare(config: ExperimentConfig) -> Path:
    """CSV pairing driven quasi-energies with effective-model eigenvalues,
    branch-matched by eigenvector overlap."""
    ratios = config.ratio_or_default()
    sweep = quasi_energy_sweep(config.n, config.v, config.omega, ratios,
                               config.settings)
    rows = []
    max_dev = 0.0
    for i, r in enumerate(ratios):
        system = canonical_system(config.n, config.v, float(r) * config.omega,
                                  config.omega)
        dec = hermitian_eigen(effective_model(system).matrix)
        # overlap pairing: monodromy eigenvectors against static eigenvectors
        pairing = _match_branches(sweep.eigenvectors[i], dec.eigenvectors,
                                  sweep.quasi_energies[i], dec.eigenvalues)
        for k in range(config.n):
            lam = float(dec.eigenvalues[pairing[k]])
            eps = float(sweep.quasi_energies[i, k])
            dev = abs(eps - lam)
            max_dev = max(max_dev, dev)
            rows.append([float(r), k, eps, lam, dev])
    header = ["ratio", "branch", "quasi_energy", "effective_eigenvalue",
              "abs_deviation"]
    comments = _provenance(config, {"max_abs_deviation": f"{max_dev:.6g}"})
    _write_csv(config.out, comments, header, rows)
    if config.svg:
        devs = np.array([r[4] for r in rows]).reshape(len(ratios), config.n)
        _write_svg(config.out.with_suffix(".svg"), ratios,
                   [devs[:, k] for k in range(config.n)],
                   [f"|eps-lam| {k+1}" for k in range(config.n)],
                   f"effective-model deviation, n={config.n}")
    return config.out


def run_properties(config: ExperimentConfig, matrix_perturbation=None) -> int:
    """Run the effective-matrix property suite; writes a text and a JSON
    report next to the configured output path. Returns 0 if clean, 1 if any
    violation was found."""
    report = verify_properties(config.property_n_range, config.property_trials,
                               config.seed, matrix_perturbation)
    out = Path(config.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.with_suffix(".txt").write_text(report.to_text())
    out.with_suffix(".json").write_text(report.to_json() + "\n")
    return 0 if report.ok else 1
