"""Experiment drivers: tunneling dynamics, minimum-population sweeps,
quasi-energy sweeps, effective-model comparison, and the property suite.

All drivers emit CSV with '#'-prefixed provenance lines; plots are optional
single-file SVGs written without any plotting dependency. The CSV text is
built a block of rows at a time from numpy byte tables, and is byte for byte
what '%.12g' prints for the float64 value of each cell.
"""

from __future__ import annotations

import datetime
import functools
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
# table rows formatted per `_csv_text` call, which bounds the text held at once
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
        # any shape, NaN and inf pass: `_grid_systems` refuses them in a sweep
        flat = grid.ravel()
        if np.any(flat[1:] < flat[:-1]):
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


@functools.cache
def _format_tables():
    """The byte tables of `_csv_text`, built with numpy arithmetic on its
    first call, so that a run which writes no CSV builds none. Each
    table row is a run of 8-byte words read through a uint64 view, never
    composed by shifts, so that the text does not depend on byte order.

    A cell is 5 words, NUL-padded: the sign and a "0." to "0.000" prefix;
    12 digits, each followed by a byte for the decimal point; the exponent
    and a ',' separator. Its template is indexed by the decimal exponent e of
    the rounded value, the count k of significant digits and the sign."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # of 0000..9999
    # '%04d' of each group, digits on even bytes, 0xFF to be masked between
    dig = np.full((10_000, 4, 2), 0xFF, np.uint8)
    dig[..., 0] = digits.T + ord("0")
    zeros = (np.maximum.accumulate(digits[::-1]) == 0).sum(0, dtype=np.uint8)
    # layout[ip, k]: with ip digits before the point and k significant,
    # digit j is kept if j < ip or j < k, and the point follows digit ip - 1
    # if a fraction does
    ip, k, j = np.ix_(np.arange(13), np.arange(13), np.arange(12))
    layout = np.zeros((13, 13, 12, 2), np.uint8)
    layout[..., 0] = 0xFF * (j < np.maximum(ip, k))
    layout[..., 1] = ord(".") * ((j == ip - 1) & (k > ip))
    cell = np.zeros((46, 13, 2, 40), np.uint8)
    cell[:, :, 1, 0] = ord("-")
    cell[..., 39] = ord(",")
    # e from -11 to 34: |11 - e| <= 22 before a carry adds one
    for row, e in zip(cell, range(-11, 35)):
        if -4 <= e < 12:  # C's rule for the fixed form at precision 12
            prefix = b"0.000"[:1 - e] if e < 0 else b""
            row[..., 1:1 + len(prefix)] = np.frombuffer(prefix, np.uint8)
            row[..., 8:32] = layout[max(e + 1, 0)].reshape(13, 1, 24)
        else:
            row[..., 8:32] = layout[1].reshape(13, 1, 24)
            row[..., 32:36] = np.frombuffer(b"e%+03d" % e, np.uint8)
    return (dig.reshape(-1, 8).view(np.uint64)[:, 0], zeros,
            cell.reshape(-1, 40).view(np.uint64))


# 10**k for k <= 22 is a double, so one product or quotient scales exactly
_POW10 = np.array([float(10**k) for k in range(23)])


def _csv_text(block: np.ndarray, fallback) -> str:
    """The CSV lines of a (rows, columns) block of float64 values, each
    cell as '%.12g'. A cell whose text cannot be decided exactly is
    fallback(row, column) instead."""
    digits, zeros, cells = _format_tables()
    x = np.abs(block)
    live = np.isfinite(x) & (x > 0)
    a = np.where(live, x, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    shift = 11 - e
    # one of the two factors is 1, so y is one correctly rounded operation
    y = (a * _POW10.take(shift, mode="clip")
         / _POW10.take(-shift, mode="clip"))
    m = np.rint(y)
    # y < 2**40, so its rounding error is at most half an ulp < 6.2e-5: a
    # fraction more than 1e-4 from 1/2 rounds as the exact product would
    ok = (live & (np.abs(shift) <= 22) & (y >= 1e11) & (y < 1e12)
          & (np.abs(y - m) < 0.4999)) | (x == 0)
    shown = live & ok  # zeros print as m = 0 at e = 0
    m = np.where(shown, m, 0.0)
    carry = m == 1e12  # 999999999999.6 prints as 1e+12
    e = np.where(shown, e, 0) + carry
    m = np.where(carry, 1e11, m).astype(np.intp)
    top, high = m // 10**8, m // 10**4
    groups = (top, high - 10**4 * top, m - 10**4 * high)
    z0, z1, z2 = (zeros.take(g) for g in groups)
    trailing = z2 + (z2 == 4) * (z1 + (z1 == 4) * z0)
    # the template row (e, k = 12 - trailing, sign)
    words = cells.take(26 * (e + 11) + 2 * (12 - trailing)
                       + np.signbit(block), axis=0)
    for j, g in enumerate(groups):
        words[..., 1 + j] &= digits.take(g)
    text = words.view(np.uint8).reshape(-1, 40)
    text[block.shape[1] - 1::block.shape[1], 39] = ord("\n")
    for i in np.flatnonzero(~ok):
        cell = fallback(*divmod(int(i), block.shape[1])).encode()
        text[i, :39] = 0
        text[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return words.tobytes().translate(None, b"\0").decode("ascii")


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
    """CSV of '#' comment lines, a header and one 1-D array per column,
    each value printed as '%.12g' of its float64 value. Each block of
    WRITE_BLOCK_ROWS rows is formatted by `_csv_text` as a whole; values
    it cannot decide exactly, and those alone, go through '%'."""

    def blocks():
        yield "".join(line + "\n" for line in [*comments, ",".join(header)])
        for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            block = np.column_stack([c[start:start + WRITE_BLOCK_ROWS]
                                     for c in columns]).astype(float, copy=False)
            yield _csv_text(block, lambda row, col: "%.12g" % block[row, col])

    _write(path, blocks())


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
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(sx.tolist(), y.tolist())))
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
    branch-matched by the overlap of each monodromy eigenvector with the
    Floquet mode g w of an effective eigenvector w (the gauge g of
    `effective_model`); the deviation is the distance on the quasi-energy
    circle of circumference omega."""
    ratios = config.ratio_grid
    # the effective grid first, so that a ratio J0 refuses costs no integration
    _, systems = _grid_systems(config.n, config.v, config.omega, ratios,
                               2 * config.n**2 + config.n)
    lam, w = np.linalg.eigh(_effective_matrices(
        config.n, [s.v * bessel_j0(s.ratio) for s in systems], config.v))
    w = w.astype(complex)
    w[:, 0] *= np.exp(1j * ratios)[:, None]  # g = diag(e^{iA/omega}, 1, ...)
    eps, vecs = quasi_energy_branches(config.n, config.v, config.omega, ratios,
                                      config.settings)
    lams = np.array([lam[i][_match_branches(vecs[i], w[i], eps[i], lam[i])]
                     for i in range(len(ratios))])
    # exact, and |eps - lam| itself, wherever that is below omega/2
    d = eps - lams
    devs = np.abs(d - config.omega * np.round(d / config.omega))
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
