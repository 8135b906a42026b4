"""The four benchmark workloads: CLI arguments made from a seed, the work
each invocation does, and the checks its outputs must pass.

Every workload runs at v=1, omega=10 and 2000 RK4 steps per period, the CLI
defaults, passed explicitly so that a change of default cannot change the
work. The seed moves the sweep grid ends by less than 0.02, picks the
property suite's random matrices, and draws the dynamics amplitude from
[23.95, 24.05]; the work per invocation does not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

V = 1.0
OMEGA = 10.0
STEPS = 2000
HORIZON = 400
MINPOP_POINTS = 31
COMPARE_POINTS = 21
COMPARE_N = 11
PROPERTY_NS = tuple(range(2, 12))
PROPERTY_TRIALS = 100
DYNAMICS_PERIODS = 40

# package bound on norm drift (evolve.NORM_DRIFT_ABORT)
NORM_DRIFT_BOUND = 1e-4
# outputs at the default seed may differ from the reference by this much
# (absolute): far above rounding, far below any physical effect
REFERENCE_TOL = 1e-6
# the CSV writer prints 12 significant digits
CSV_TOL = 1e-9


def _grid_ends(seed: int) -> tuple[float, float]:
    rng = random.Random(seed)
    return round(rng.uniform(0.0, 0.02), 6), round(5.0 - rng.uniform(0.0, 0.02), 6)


def _physics_args() -> list[str]:
    return ["--v", repr(V), "--omega", repr(OMEGA), "--steps-per-period", str(STEPS)]


def read_csv(path: Path):
    """('# key=value' comments as a dict, header, data rows as an array)."""
    comments, lines = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            for item in line[1:].split():
                key, _, value = item.partition("=")
                comments[key] = value
        elif line:
            lines.append(line)
    return comments, lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _edit_csv(path: Path, row: int, col: int, edit: Callable[[float], float]) -> None:
    """Rewrite one value of a CSV data row (row 0 is the first after the header)."""
    lines = Path(path).read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[first + row].split(",")
    cells[col] = repr(edit(float(cells[col])))
    lines[first + row] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def _within(name: str, got, want, tol: float) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    err = np.nan_to_num(np.abs(got - want), nan=np.inf)
    if not np.all(err <= tol):
        return [f"{name}: differs by {float(err.max())!r} (tolerance {tol})"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                          # one unit of work, as throughput counts it
    units: int                         # units per invocation
    dominant: tuple[str, ...]          # expected leading layers, by self time
    argv: Callable[[int], list[str]]
    read: Callable[[Path], dict]       # output directory -> parsed outputs
    invariants: Callable[[dict, list[str]], list[str]]
    reference_view: Callable[[dict], dict]
    corrupt: Callable[[Path], None]    # negative control for the checks

    def check(self, outdir: Path, argv: list[str], reference: dict | None) -> list[str]:
        """Problems with one invocation's outputs; empty when they are right."""
        try:
            data = self.read(outdir)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems = self.invariants(data, argv)
        if reference is not None:
            view = self.reference_view(data)
            for key, want in reference.items():
                if isinstance(want, list):
                    problems += _within(f"reference {key}", view[key], want, REFERENCE_TOL)
                elif view[key] != want:
                    problems.append(f"reference {key}: {view[key]!r}, expected {want!r}")
        return problems


# -- minpop_n5 --------------------------------------------------------------

def _minpop_argv(seed: int) -> list[str]:
    lo, hi = _grid_ends(seed)
    return ["sweep-min-pop", "--n", "5", *_physics_args(), "--periods", str(HORIZON),
            "--ratio-grid", f"{lo}:{hi}:{MINPOP_POINTS}",
            "--out", "min_pop.csv", "--no-timestamp"]


def _minpop_read(outdir: Path) -> dict:
    _, header, data = read_csv(outdir / "min_pop.csv")
    return {"header": header, "ratio": data[:, 0], "min_P1": data[:, 1]}


def _grid_from_argv(argv: list[str]) -> np.ndarray:
    lo, hi, count = argv[argv.index("--ratio-grid") + 1].split(":")
    return np.linspace(float(lo), float(hi), int(count))


def _minpop_invariants(data: dict, argv: list[str]) -> list[str]:
    if data["header"] != ["ratio", "min_P1"]:
        return [f"header {data['header']}"]
    problems = _within("ratio grid", data["ratio"], _grid_from_argv(argv), CSV_TOL)
    p = data["min_P1"]
    if not np.all(np.isfinite(p) & (p >= 0.0) & (p <= 1.0)):
        problems.append("min P1 not finite in [0, 1]")
    return problems


# -- compare_n11 ------------------------------------------------------------

def _compare_argv(seed: int) -> list[str]:
    lo, hi = _grid_ends(seed)
    return ["effective-compare", "--n", str(COMPARE_N), *_physics_args(),
            "--periods", str(HORIZON), "--ratio-grid", f"{lo}:{hi}:{COMPARE_POINTS}",
            "--out", "effective_compare.csv", "--no-timestamp"]


def _compare_read(outdir: Path) -> dict:
    comments, header, data = read_csv(outdir / "effective_compare.csv")
    return {"header": header, "rows": data,
            "max_abs_deviation": float(comments["max_abs_deviation"])}


def _compare_invariants(data: dict, argv: list[str]) -> list[str]:
    if data["header"] != ["ratio", "branch", "quasi_energy",
                          "effective_eigenvalue", "abs_deviation"]:
        return [f"header {data['header']}"]
    grid = _grid_from_argv(argv)
    rows = data["rows"]
    if rows.shape != (len(grid) * COMPARE_N, 5):
        return [f"{rows.shape[0]} rows, expected {len(grid) * COMPARE_N}"]
    if not np.all(np.isfinite(rows)):
        return ["non-finite value"]
    blocks = rows.reshape(len(grid), COMPARE_N, 5)
    problems = _within("ratio grid", blocks[:, :, 0],
                       np.repeat(grid[:, None], COMPARE_N, axis=1), CSV_TOL)
    if not np.array_equal(blocks[:, :, 1], np.tile(np.arange(COMPARE_N), (len(grid), 1))):
        problems.append("branches are not 0..n-1 at every ratio")
    eps, lam, dev = blocks[:, :, 2], blocks[:, :, 3], blocks[:, :, 4]
    if not np.all((eps > -OMEGA / 2) & (eps <= OMEGA / 2)):
        problems.append("quasi-energy outside (-omega/2, omega/2]")
    problems += _within("abs_deviation", dev, np.abs(eps - lam), 10 * CSV_TOL)
    # the effective chain is bipartite: its spectrum is symmetric about zero
    spectrum = np.sort(lam, axis=1)
    problems += _within("effective spectrum symmetry", spectrum, -spectrum[:, ::-1], 10 * CSV_TOL)
    if not math.isclose(data["max_abs_deviation"], float(dev.max()), rel_tol=1e-5, abs_tol=1e-12):
        problems.append("max_abs_deviation comment disagrees with the rows")
    return problems


def _compare_reference(data: dict) -> dict:
    blocks = data["rows"].reshape(-1, COMPARE_N, 5)
    # sorted per ratio: branch labels at exact degeneracies are not physics
    return {"quasi_energies_sorted": np.sort(blocks[:, :, 2], axis=1).ravel().tolist(),
            "effective_eigenvalues_sorted": np.sort(blocks[:, :, 3], axis=1).ravel().tolist()}


# -- properties -------------------------------------------------------------

def _properties_argv(seed: int) -> list[str]:
    return ["properties", "--seed", str(seed), "--trials", str(PROPERTY_TRIALS),
            "--n-list", ",".join(map(str, PROPERTY_NS)),
            "--out", "properties.json", "--no-timestamp"]


def _properties_read(outdir: Path) -> dict:
    return {"report": json.loads((outdir / "properties.json").read_text()),
            "text": (outdir / "properties.txt").read_text()}


def _expected_checks() -> int:
    # per matrix: P1 or P2, P3, P4, plus P4-threshold for odd n with v_eff != 0
    odd = sum(1 for n in PROPERTY_NS if n % 2)
    return len(PROPERTY_NS) * (PROPERTY_TRIALS + 1) * 3 + odd * PROPERTY_TRIALS


def _properties_invariants(data: dict, argv: list[str]) -> list[str]:
    report, checks = data["report"], data["report"]["checks"]
    problems = []
    if report["seed"] != int(argv[argv.index("--seed") + 1]):
        problems.append(f"report seed {report['seed']}")
    if report["n_checks"] != len(checks) or len(checks) != _expected_checks():
        problems.append(f"{len(checks)} checks, expected {_expected_checks()}")
    failed = sum(1 for c in checks if not c["pass"])
    if report["n_violations"] != 0 or failed:
        problems.append(f"{max(failed, report['n_violations'])} property violations")
    matrices = {(c["n"], c["trial"]) for c in checks}
    if len(matrices) != len(PROPERTY_NS) * (PROPERTY_TRIALS + 1):
        problems.append(f"{len(matrices)} matrices checked")
    if "violations: 0" not in data["text"]:
        problems.append("text report does not say 'violations: 0'")
    return problems


def _properties_reference(data: dict) -> dict:
    checks = data["report"]["checks"]
    drawn = json.dumps([[c["property"], c["n"], c["trial"], c["v"], c["v_eff"], c["pass"]]
                        for c in checks])
    return {"n_checks": len(checks), "sha256": hashlib.sha256(drawn.encode()).hexdigest()}


def _properties_corrupt(outdir: Path) -> None:
    path = outdir / "properties.json"
    report = json.loads(path.read_text())
    report["checks"][len(report["checks"]) // 2]["pass"] = False
    path.write_text(json.dumps(report))


# -- dynamics_long ----------------------------------------------------------

def _amplitude(seed: int) -> float:
    return round(24.0 + random.Random(seed).uniform(-0.05, 0.05), 6)


def _dynamics_argv(seed: int) -> list[str]:
    return ["dynamics", "--n", "3", *_physics_args(), "--amplitude", repr(_amplitude(seed)),
            "--periods", str(DYNAMICS_PERIODS), "--out", "dynamics.csv", "--no-timestamp"]


def _dynamics_read(outdir: Path) -> dict:
    comments, header, data = read_csv(outdir / "dynamics.csv")
    return {"header": header, "rows": data, "norm_drift": float(comments["norm_drift"])}


def _dynamics_invariants(data: dict, argv: list[str]) -> list[str]:
    if data["header"] != ["t", "P1", "P2", "P3"]:
        return [f"header {data['header']}"]
    rows = data["rows"]
    if rows.shape != (DYNAMICS_PERIODS * STEPS + 1, 4):
        return [f"{rows.shape[0]} rows, expected {DYNAMICS_PERIODS * STEPS + 1}"]
    t, p = rows[:, 0], rows[:, 1:]
    problems = []
    if t[0] != 0.0 or not math.isclose(t[-1], DYNAMICS_PERIODS * 2 * math.pi / OMEGA,
                                       rel_tol=CSV_TOL):
        problems.append(f"time grid runs {t[0]}..{t[-1]}")
    if not np.all(np.isfinite(p) & (p >= 0.0) & (p <= 1.0 + NORM_DRIFT_BOUND)):
        problems.append("population not finite in [0, 1]")
    problems += _within("population sum", p.sum(axis=1), np.ones(len(p)), NORM_DRIFT_BOUND)
    if not data["norm_drift"] <= NORM_DRIFT_BOUND:
        problems.append(f"reported norm drift {data['norm_drift']}")
    return problems


def _dynamics_reference(data: dict) -> dict:
    return {"populations_every_500": data["rows"][::500, 1:].ravel().tolist()}


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in [
    Workload(
        "minpop_n5",
        "grid points", MINPOP_POINTS, ("evolve",),
        _minpop_argv, _minpop_read, _minpop_invariants,
        lambda d: {"min_P1": d["min_P1"].tolist()},
        lambda out: _edit_csv(out / "min_pop.csv", 3, 1, lambda x: x + 1.0)),
    Workload(
        "compare_n11",
        "grid points", COMPARE_POINTS, ("evolve", "linalg"),
        _compare_argv, _compare_read, _compare_invariants, _compare_reference,
        lambda out: _edit_csv(out / "effective_compare.csv", 5, 2, lambda x: x + OMEGA)),
    Workload(
        "properties",
        "matrices", len(PROPERTY_NS) * (PROPERTY_TRIALS + 1), ("linalg",),
        _properties_argv, _properties_read, _properties_invariants,
        _properties_reference, _properties_corrupt),
    Workload(
        "dynamics_long",
        "driving periods", DYNAMICS_PERIODS, ("evolve",),
        _dynamics_argv, _dynamics_read, _dynamics_invariants, _dynamics_reference,
        lambda out: _edit_csv(out / "dynamics.csv", 1000, 1, lambda x: x + 0.01)),
]}
