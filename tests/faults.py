"""Fault audit: does a wrong package fail some test?

Copies the checkout to a temporary directory, applies one hand-made fault
at a time to the copy and runs the test suite there with -x. For each fault
it prints the first failing test, or SURVIVED if the suite still passes.
The unfaulted copy runs first, so that a fault is only credited against a
suite that passes without it. Substring arguments run, after the unfaulted
copy, only the faults whose names contain one of them:

    python tests/faults.py
    python tests/faults.py "never fires" Q_j

Each fault is an exact text edit of one source file, or a tuple of such
edits applied in order; it raises if a text is not found exactly once, so
a fault whose line has moved is fixed here rather than silently skipped.
pytest does not collect this file, but `test_faults.py` applies every edit
in memory. Each run of the suite takes 10-40 s.
Exit status: 0 if every fault was caught, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/darkfloquet"

ERRSTATE = '@np.errstate(over="ignore", invalid="ignore")  # NaN: the guard trips\n'
STARTS = "x = gamma * (w @ x[..., None])[..., 0].conj()"


def never(name: str, path: str, guard: str, before: str = ""):
    """The fault in which a guard never fires: guard is its `if` line, then
    whatever text makes it unique in path, as does the text before it."""
    head, sep, tail = guard.partition("\n")
    if not (head.startswith("if ") and head.endswith(":")):
        raise ValueError(f"fault {name!r}: {head!r} is not an if line")
    return (f"{name} never fires", path, before + guard,
            before + "if False:" + sep + tail)


# (name, file, text, faulty text); a fault of several edits gives both
# texts as tuples
FAULTS = [
    ("Q_j trapezoid ends without the √½ scaling", f"{PKG}/evolve.py",
     "w if k % half else np.sqrt(0.5) * w", "w"),
    ("Q_j flushed block one row short", f"{PKG}/evolve.py",
     "block[:, :k % QJ_BLOCK + 1]", "block[:, :k % QJ_BLOCK]"),
    ("period_maps without its error-state scope", f"{PKG}/evolve.py",
     ERRSTATE + "def period_maps(", "def period_maps("),
    ("propagator_site1 without its error-state scope", f"{PKG}/evolve.py",
     ERRSTATE + "def propagator_site1(", "def propagator_site1("),
    ("half-period starts without their Γ", f"{PKG}/evolve.py",
     STARTS, "x = (w @ x[..., None])[..., 0].conj()"),
    ("half-period starts without their conj", f"{PKG}/evolve.py",
     STARTS, "x = gamma * (w @ x[..., None])[..., 0]"),
    ("real image's -Im block with its sign flipped", f"{PKG}/evolve.py",
     "np.stack([t, 1j * t], axis=2)", "np.stack([t, 1j * t.conj()], axis=2)"),
    ("step matrices without their (-i)^p phase", f"{PKG}/evolve.py",
     "t = (-1j) ** degree[:, None, None] * w.transpose",
     "t = w.transpose"),
    ("min P1 reads only the first block of each span", f"{PKG}/floquet.py",
     "for b0 in range(0, len(x_table), MIN_P1_BLOCK):",
     "for b0 in range(0, 1):"),
    ("min P1 complex form's least |amplitude| unsquared", f"{PKG}/floquet.py",
     "return np.square(np.abs(amps).min())", "return np.abs(amps).min()"),
    ("CSV tie guard < 0.4999 -> <= 0.5", f"{PKG}/harness.py",
     "(np.abs(y - m) < 0.4999)", "(np.abs(y - m) <= 0.5)"),
    ("_modes unit-circle guard 1e-7 -> 1", f"{PKG}/floquet.py",
     "<= 1e-7))", "<= 1))"),
    ("PropagationSettings without its upper bound", f"{PKG}/evolve.py",
     "if not 100 <= n_steps < 10**8 or n_steps % 2:",
     "if not 100 <= n_steps or n_steps % 2:"),
    ("quasi_energy_branches' chunk charge back at n^2", f"{PKG}/floquet.py",
     "for chunk in _chunks(systems, 8 * n * n)]))",
     "for chunk in _chunks(systems, n * n)]))"),
    ("_match_branches without the quasi-energy tie-break", f"{PKG}/floquet.py",
     "order = np.lexsort((np.abs(e_prev[:, None] - e_next).ravel(),\n"
     "                        -overlap.ravel()))",
     "order = np.argsort(-overlap.ravel(), kind=\"stable\")"),
    ("effective-compare deviation as abs(d), off the circle",
     f"{PKG}/harness.py",
     "devs = np.abs(d - config.omega * np.round(d / config.omega))",
     "devs = np.abs(d)"),
    ("_check_resolution never refuses", f"{PKG}/floquet.py",
     "if v != 0 and floor > abs(v):", "if False:"),
    ("_track permutes nothing", f"{PKG}/floquet.py",
     "    for i in range(1, len(eps)):\n"
     "        perm = _match_branches(",
     "    return\n"
     "    for i in range(1, len(eps)):\n"
     "        perm = _match_branches("),
    ("DARK_POP_TOL 0.02 -> 0.5", f"{PKG}/floquet.py",
     "DARK_EPS_TOL, DARK_POP_TOL = 1e-4, 0.02",
     "DARK_EPS_TOL, DARK_POP_TOL = 1e-4, 0.5"),
    ("PCG64's 128-bit add without the carry into the high word",
     f"{PKG}/effective.py",
     "return hi + inc_hi + (lo < inc_lo), lo", "return hi + inc_hi, lo"),
    ("SeedSequence mix constant with its lowest bit cleared",
     f"{PKG}/effective.py", "0xCA01F9DD", "0xCA01F9DC"),
    # NaN-safe guards, `not x <= b`, in their NaN-blind twin `x > b`, and
    # guards turned off; a guard whose twin is caught needs no never-fires
    # fault, as a test that a NaN trips also fails when nothing trips
    ("_maps_from_half's unitarity guard NaN-blind", f"{PKG}/evolve.py",
     "bad = np.flatnonzero(~(defects <= UNITARITY_TOL))",
     "bad = np.flatnonzero(defects > UNITARITY_TOL)"),
    ("propagate's initial-norm guard NaN-blind", f"{PKG}/evolve.py",
     "if not abs(nrm - 1.0) <= 1e-9:", "if abs(nrm - 1.0) > 1e-9:"),
    ("propagate's drift guard NaN-blind", f"{PKG}/evolve.py",
     "if not drift <= NORM_DRIFT_ABORT:", "if drift > NORM_DRIFT_ABORT:"),
    ("bessel_j0's range guard NaN-blind", f"{PKG}/effective.py",
     "if not x <= 1e4:", "if x > 1e4:"),
    # NaN-safe comparisons that guard no `raise`, in NaN-blind forms
    ("min P1's running least by the builtin min", f"{PKG}/floquet.py",
     "least[g] = np.minimum(least[g], least_p1(",
     "least[g] = min(least[g], least_p1("),
    ("min P1's quadratic form by np.nanmin", f"{PKG}/floquet.py",
     "least_p1 = np.min\n", "least_p1 = np.nanmin\n"),
    ("min P1's complex form by np.nanmin", f"{PKG}/floquet.py",
     "return np.square(np.abs(amps).min())",
     "return np.square(np.nanmin(np.abs(amps)))"),
    ("min P1's clamp at 0 by np.fmax", f"{PKG}/floquet.py",
     "p1 = np.maximum(np.concatenate(out), 0.0)",
     "p1 = np.fmax(np.concatenate(out), 0.0)"),
    ("Trajectory.norm_drift by np.nanmax", f"{PKG}/evolve.py",
     "return float(np.max(np.abs(norms - 1.0)))",
     "return float(np.nanmax(np.abs(norms - 1.0)))"),
    ("dark_mode's quasi-energy test NaN-blind", f"{PKG}/floquet.py",
     "(np.abs(spectrum.quasi_energies) <= eps_tol)",
     "~(np.abs(spectrum.quasi_energies) > eps_tol)"),
    ("dark_mode's even-site test NaN-blind", f"{PKG}/floquet.py",
     "np.all(even_sites <= DARK_POP_TOL, axis=1)",
     "~np.any(even_sites > DARK_POP_TOL, axis=1)"),
    ("_check_stack's P1 bound NaN-blind", f"{PKG}/effective.py",
     "mismatch <= 1e-7,", "not mismatch > 1e-7,"),
    ("_check_stack's P3 bound NaN-blind", f"{PKG}/effective.py",
     "r3 <= 1e-8 * max(1.0, size)", "not r3 > 1e-8 * max(1.0, size)"),
    ("_check_stack's P4 bound NaN-blind", f"{PKG}/effective.py",
     "r4 <= 0.5 + 1e-9", "not r4 > 0.5 + 1e-9"),
    ("_check_stack's P4-threshold bound NaN-blind", f"{PKG}/effective.py",
     "miss <= 1e-9 and", "not miss > 1e-9 and"),
    never("DrivenSystem's finiteness check", f"{PKG}/model.py",
          "if not np.all(np.isfinite([self.v, self.amplitude, self.omega])):"),
    never("min P1's finite guard", f"{PKG}/floquet.py",
          "if len(bad):\n        raise NumericalQualityError(\n"
          "            f\"min P1 is"),
    # every other guard of a `raise`, turned off
    never("--ratio-grid's form check", f"{PKG}/cli.py",
          "if count < 0 or not np.isfinite(hi - lo):"),
    never("dark_state_closed_form's odd-n check", f"{PKG}/effective.py",
          "if n % 2 == 0:\n        raise ConfigError(f\"no unique zero mode"),
    never("dark_state_closed_form's finite v check", f"{PKG}/effective.py",
          "if not np.all(np.isfinite([v, v_eff])):",
          before="for even n (got n={n})\")\n    "),
    never("localization's odd-n check", f"{PKG}/effective.py",
          "if n % 2 == 0:\n        raise ConfigError(f\"localization is"),
    never("localization's finite v check", f"{PKG}/effective.py",
          "if not np.all(np.isfinite([v, v_eff])):",
          before="for odd n (got n={n})\")\n    "),
    never("verify_properties' trials check", f"{PKG}/effective.py",
          "if trials < 1:"),
    never("verify_properties' seed check", f"{PKG}/effective.py",
          "if rng_seed < 0:"),
    never("verify_properties' draw bound", f"{PKG}/effective.py",
          "if (trials + 1) * len(n_range) > MAX_DRAWS:"),
    never("verify_properties' matrix size check", f"{PKG}/effective.py",
          "if n < 2:"),
    never("_hold", f"{PKG}/evolve.py", "if values > MAX_KEPT_VALUES:"),
    never("the step loop's shared-grid check", f"{PKG}/evolve.py",
          "if any((s.n, s.v, s.omega) != (n, first.v, omega) "
          "for s in systems):"),
    never("propagate's periods check", f"{PKG}/evolve.py",
          "if not isinstance(periods, (int, np.integer)) or periods < 1:"),
    never("propagate's initial shape check", f"{PKG}/evolve.py",
          "if initial.shape != (system.n,):"),
    never("_grid_systems' 1-D check", f"{PKG}/floquet.py",
          "if ratios.ndim != 1 or len(ratios) == 0:"),
    never("_grid_systems' ratio check", f"{PKG}/floquet.py",
          "if np.any(~np.isfinite(ratios)) or np.any(ratios < 0):"),
    never("min_p1_sweep's periods check", f"{PKG}/floquet.py",
          "if not isinstance(periods, (int, np.integer)) or periods < 1:"),
    never("min_p1_sweep's sample bound", f"{PKG}/floquet.py",
          "if samples > MAX_SAMPLES_PER_POINT:"),
    never("ExperimentConfig's experiment check", f"{PKG}/harness.py",
          "if self.experiment not in EXPERIMENTS:"),
    never("ExperimentConfig's sweep-min-pop periods check",
          f"{PKG}/harness.py",
          "if self.experiment == \"sweep-min-pop\" and self.periods < 10:"),
    never("ExperimentConfig's sorted-grid check", f"{PKG}/harness.py",
          "if np.any(flat[1:] < flat[:-1]):"),
    never("DrivenSystem's n check", f"{PKG}/model.py", "if self.n < 2:"),
    never("DrivenSystem's omega check", f"{PKG}/model.py",
          "if self.omega <= 0:"),
    never("DrivenSystem's amplitude check", f"{PKG}/model.py",
          "if self.amplitude < 0:"),
]


def apply(text: str, old, new, name: str) -> str:
    """text with old replaced by new, or each of the tuple old by its
    counterpart in new."""
    for o, n in zip(old, new) if isinstance(old, tuple) else [(old, new)]:
        if text.count(o) != 1:
            raise RuntimeError(f"fault {name!r}: its text is found "
                               f"{text.count(o)} times, not once")
        text = text.replace(o, n)
    return text


def first_failure(copy: Path) -> str | None:
    """The first failing test of the suite run in copy with -x, or None if
    it passes."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    run = subprocess.run(
        # one hypothesis seed for every run: a random counterexample that
        # one run finds, and saves for the next, is not a fault's doing;
        # test_faults.py fails on every fault, whose text it checks, so it
        # is left out
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--hypothesis-seed=0",
         "--ignore", "tests/test_faults.py"],
        cwd=copy, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    found = re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return found[0] if found else f"exit {run.returncode}, no failing test named"


def main(patterns: list[str]) -> int:
    chosen = [fault for fault in FAULTS
              if not patterns or any(p in fault[0] for p in patterns)]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        # every edit is checked before the first suite runs
        for name, path, old, new in FAULTS:
            apply((copy / path).read_text(), old, new, name)
        baseline = first_failure(copy)
        print(f"(no fault): {baseline or 'passes'}", flush=True)
        if baseline:
            return 1
        survivors = 0
        for name, path, old, new in chosen:
            source = (copy / path).read_text()
            (copy / path).write_text(apply(source, old, new, name))
            try:
                failed = first_failure(copy)
            finally:
                (copy / path).write_text(source)
            survivors += failed is None
            print(f"{name}: {failed or 'SURVIVED'}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
