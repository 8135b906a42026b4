"""Fault audit: does a wrong package fail some test?

Copies the checkout to a temporary directory, applies one hand-made fault
at a time to the copy and runs the test suite there with -x. For each fault
it prints the first failing test, or SURVIVED if the suite still passes.
The unfaulted copy runs first, so that a fault is only credited against a
suite that passes without it.

    python tests/faults.py

Each fault is an exact text edit of one source file, or a tuple of such
edits applied in order; it raises if a text is not found exactly once, so
a fault whose line has moved is fixed here rather than silently skipped.
pytest does not collect this file. Each run of the suite takes 10-40 s.
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
     "if not 100 <= n_steps < 2 * MAX_KEPT_VALUES or n_steps % 2:",
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
        # one run finds, and saves for the next, is not a fault's doing
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--hypothesis-seed=0"],
        cwd=copy, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    found = re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return found[0] if found else f"exit {run.returncode}, no failing test named"


def main() -> int:
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
        for name, path, old, new in FAULTS:
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
    sys.exit(main())
