"""Experiment drivers: tunneling dynamics, minimum-population sweeps,
quasi-energy sweeps, effective-model comparison, and the property suite.

All drivers emit CSV with '#'-prefixed provenance lines; plots are optional
single-file SVGs written without any plotting dependency.
"""

from __future__ import annotations

import datetime
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .effective import (_effective_matrices, bessel_j0, min_p1_floor,
                        verify_properties)
from .errors import ConfigError
from .evolve import PropagationSettings, propagate
from .floquet import (_grid_systems, _match_branches, min_p1_sweep,
                      quasi_energy_branches, quasi_energy_sweep)
from .model import DrivenSystem

__all__ = [
    "ExperimentConfig",
    "run_dynamics",
    "run_min_pop_sweep",
    "run_floquet_sweep",
    "run_effective_compare",
    "run_properties",
]

# each experiment and the file it writes when given no output path
EXPERIMENTS = {"dynamics": "dynamics.csv", "sweep-min-pop": "min_pop.csv",
               "floquet-sweep": "floquet.csv",
               "effective-compare": "effective_compare.csv",
               "properties": "properties.json"}
# default horizon in driving periods of the experiments that take one
DEFAULT_PERIODS = {"dynamics": 20, "sweep-min-pop": 400}
# table rows formatted per '%' call, which bounds the text held at once
WRITE_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 3
    v: float = 1.0
    omega: float = 10.0
    amplitude: float = 0.0  # dynamics only
    # the sweeps' grid of A/omega values
    ratio_grid: np.ndarray = field(
        default_factory=lambda: np.linspace(0.0, 5.0, 201))
    periods: int | None = None  # None: the experiment's DEFAULT_PERIODS
    steps_per_period: int = 2000
    seed: int = 0
    out: Path | None = None  # None or "": the experiment's EXPERIMENTS file
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
        grid = np.asarray(self.ratio_grid, dtype=float)
        if grid.ndim != 1 or len(grid) == 0 or np.any(~np.isfinite(grid)):
            raise ConfigError("ratio grid must be finite and non-empty")
        if np.any(np.diff(grid) < 0):
            raise ConfigError("ratio grid must be sorted ascending")
        object.__setattr__(self, "ratio_grid", grid)
        object.__setattr__(self, "out",
                           Path(self.out or EXPERIMENTS[self.experiment]))

    @property
    def settings(self) -> PropagationSettings:
        return PropagationSettings(steps_per_period=self.steps_per_period)


def _provenance(config: ExperimentConfig, extra: dict | None = None) -> list[str]:
    """The '#' lines naming the package, the experiment and each setting
    its run read: the drive amplitude only for dynamics, the ratio grid only
    for the sweeps; no CSV experiment draws, so none prints the seed."""
    periods = (f" periods={config.periods}"
               if config.experiment in DEFAULT_PERIODS else "")
    lines = [f"# darkfloquet {__version__} experiment={config.experiment}",
             f"# n={config.n} v={config.v} omega={config.omega}"
             f" steps_per_period={config.steps_per_period}{periods}"]
    if config.experiment == "dynamics":
        lines.append(f"# amplitude={config.amplitude}")
    else:
        g = config.ratio_grid
        lines.append(f"# ratio_grid=[{g[0]}..{g[-1]}] points={len(g)}")
    for key, val in (extra or {}).items():
        lines.append(f"# {key}={val}")
    if config.timestamp:
        lines.append(f"# generated={datetime.datetime.now().isoformat()}")
    return lines


def _text_blocks(columns, formats: list[str], end: str):
    """Rows of 1-D columns, each the joined '%'-formats of its values plus
    end; one '%' call per block of WRITE_BLOCK_ROWS rows."""
    row = ",".join(formats) + end
    for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
        block = [c[start:start + WRITE_BLOCK_ROWS].tolist() for c in columns]
        yield row * len(block[0]) % tuple(itertools.chain(*zip(*block)))


def _write(path: Path, chunks) -> None:
    """Write text chunks to path, making its directory; a path that cannot
    be written is a configuration error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _write_csv(path: Path, comments: list[str], header: list[str],
               columns) -> None:
    """CSV of '#' comment lines, a header and one 1-D array per column:
    integer columns print as %d, the rest as %.12g."""
    formats = ["%d" if np.issubdtype(c.dtype, np.integer) else "%.12g"
               for c in columns]
    head = "".join(line + "\n" for line in [*comments, ",".join(header)])
    _write(path, itertools.chain([head], _text_blocks(columns, formats, "\n")))


def _write_svg(path: Path, x: np.ndarray, ys: np.ndarray,
               labels: list[str], title: str) -> None:
    """Minimal line plot: one polyline per row of ys, fixed 640x400 canvas."""
    w, h, pad = 640, 400, 45
    x = np.asarray(x, dtype=float)
    ys = np.asarray(ys, dtype=float)  # (series, points)
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    sx = pad + (x - x0) / (x1 - x0) * (w - 2 * pad)
    sy = h - pad - (ys - y0) / (y1 - y0) * (h - 2 * pad)
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
    for i, (y, label) in enumerate(zip(sy, labels)):
        pts = "".join(_text_blocks([sx, y], ["%.2f", "%.2f"], " "))[:-1]
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
    _write(path, ["\n".join(parts)])


def _emit(config: ExperimentConfig, header: list[str], columns, plot,
          extra: dict | None = None) -> Path:
    """The CSV under its provenance lines, then with --svg the plot (x, ys,
    labels, title) next to it; returns the CSV path."""
    _write_csv(config.out, _provenance(config, extra), header, columns)
    if config.svg:
        _write_svg(config.out.with_suffix(".svg"), *plot)
    return config.out


def _branch_rows(ratios: np.ndarray, n: int) -> list[np.ndarray]:
    """Ratio and branch columns: one row per (ratio, branch), ratio-major."""
    return [np.repeat(ratios, n), np.tile(np.arange(n), len(ratios))]


def run_dynamics(config: ExperimentConfig) -> Path:
    """Trajectory CSV (t, P_1..P_n) from the initial state (1, 0, ..., 0)."""
    system = DrivenSystem(config.n, config.v, config.amplitude, config.omega)
    traj = propagate(system, np.eye(config.n, dtype=complex)[0],
                     config.periods, config.settings)
    labels = [f"P{j+1}" for j in range(config.n)]
    pops = traj.populations.T
    return _emit(config, ["t", *labels], [traj.times, *pops],
                 (traj.times, pops, labels, f"populations, n={config.n}, "
                  f"A/w={config.amplitude/config.omega:.3g}"),
                 {"norm_drift": f"{traj.norm_drift:.3e}"})


def run_min_pop_sweep(config: ExperimentConfig) -> Path:
    """CSV of (A/omega, min P_1) over the ratio grid, with the three-level
    effective-model prediction as a companion column where defined."""
    ratios = config.ratio_grid
    # the grid checked and the J0 column built before the sweep, so that a
    # ratio J0 refuses costs no integration
    _grid_systems(config.n, config.v, config.omega, ratios, 1)
    effective = ([min_p1_floor(3, config.v, config.v * bessel_j0(r))
                  for r in ratios] if config.n == 3 else None)
    columns = {"min_P1": min_p1_sweep(config.n, config.v, config.omega, ratios,
                                      config.periods, config.settings)}
    if effective is not None:
        columns["min_P1_effective"] = np.array(effective)
    return _emit(config, ["ratio", *columns], [ratios, *columns.values()],
                 (ratios, list(columns.values()),
                  ["min P1", "effective"][:len(columns)],
                  f"minimum P1, n={config.n}"))


def run_floquet_sweep(config: ExperimentConfig) -> Path:
    """CSV of branch-tracked quasi-energies and period-averaged populations
    over the ratio grid."""
    ratios = config.ratio_grid
    sweep = quasi_energy_sweep(config.n, config.v, config.omega, ratios,
                               config.settings)
    header = (["ratio", "branch", "quasi_energy"]
              + [f"avgP{j+1}" for j in range(config.n)])
    columns = [*_branch_rows(ratios, config.n), sweep.quasi_energies.ravel(),
               *sweep.avg_populations.reshape(-1, config.n).T]
    return _emit(config, header, columns,
                 (ratios, sweep.quasi_energies.T,
                  [f"eps{k+1}" for k in range(config.n)],
                  f"quasi-energies, n={config.n}"))


def run_effective_compare(config: ExperimentConfig) -> Path:
    """CSV pairing driven quasi-energies with effective-model eigenvalues,
    branch-matched by eigenvector overlap."""
    ratios = config.ratio_grid
    # the effective grid first, so that a ratio J0 refuses costs no integration
    _, systems = _grid_systems(config.n, config.v, config.omega, ratios,
                               2 * config.n**2 + config.n)
    lam, w = np.linalg.eigh(_effective_matrices(
        config.n, [s.v * bessel_j0(s.ratio) for s in systems], config.v))
    eps, vecs = quasi_energy_branches(config.n, config.v, config.omega, ratios,
                                      config.settings)
    # overlap pairing: monodromy eigenvectors against static eigenvectors
    lams = np.array([lam[i][_match_branches(vecs[i], w[i], eps[i], lam[i])]
                     for i in range(len(ratios))])
    devs = np.abs(eps - lams)
    header = ["ratio", "branch", "quasi_energy", "effective_eigenvalue",
              "abs_deviation"]
    return _emit(config, header, [*_branch_rows(ratios, config.n), eps.ravel(),
                                  lams.ravel(), devs.ravel()],
                 (ratios, devs.T, [f"|eps-lam| {k+1}" for k in range(config.n)],
                  f"effective-model deviation, n={config.n}"),
                 {"max_abs_deviation": f"{devs.max():.6g}"})


def run_properties(config: ExperimentConfig) -> int:
    """Run the effective-matrix property suite; writes a text and a JSON
    report next to the configured output path. Returns 0 if clean, 1 if any
    violation was found."""
    report = verify_properties(config.property_n_range, config.property_trials,
                               config.seed)
    _write(config.out.with_suffix(".txt"), [report.to_text()])
    _write(config.out.with_suffix(".json"), [report.to_json() + "\n"])
    return 0 if report.ok else 1
