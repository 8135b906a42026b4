"""High-frequency effective model of the driven chain.

Averaging the drive renormalizes the first bond to ``v_eff = v * J0(A/omega)``
while all other bonds keep the bare coupling ``v``. This module provides the
Bessel factor, the effective Hamiltonian, the closed-form zero mode and its
localization threshold, the long-time tunneling-minimum formula for three
levels, and randomized verification of the four spectral properties of the
effective matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .floquet import _chunks
from .model import DrivenSystem

__all__ = [
    "bessel_j0",
    "J0_FIRST_ZERO",
    "EffectiveModel",
    "DarkState",
    "effective_model",
    "dark_state_closed_form",
    "localization",
    "min_p1_floor",
    "min_p1_oracle",
    "verify_properties",
    "PropertyReport",
    "PropertyCheck",
]

# first positive root of J0, to double precision
J0_FIRST_ZERO = 2.404825557695773


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero, for |x| <= 1e4.

    J0(x) is the drive-period average of cos(x sin theta), the factor by
    which averaging the drive scales the first bond. The trapezoidal rule
    on a periodic integrand converges exponentially once the number of
    nodes exceeds x, so 2 floor(x) + 64 equally spaced nodes give an
    absolute error below 1e-13.
    """
    x = abs(float(x))
    if not x <= 1e4:
        raise ConfigError(f"|x| <= 1e4 supported, got {x}")
    theta = np.linspace(0.0, 2.0 * np.pi, 2 * int(x) + 64, endpoint=False)
    return float(np.mean(np.cos(x * np.sin(theta))))


@dataclass(frozen=True)
class EffectiveModel:
    """Static tridiagonal Hamiltonian of the time-averaged chain."""

    n: int
    v: float
    v_eff: float
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class DarkState:
    """Zero-eigenvalue mode of the effective chain (odd n only)."""

    vector: np.ndarray
    localization: float  # |w_1|^2


def _effective_matrix(n: int, v_eff: float, v: float) -> np.ndarray:
    bonds = np.full(n - 1, float(v)) if n > 1 else np.zeros(0)
    if n > 1:
        bonds[0] = v_eff
    return np.diag(bonds, 1) + np.diag(bonds, -1)


def effective_model(system: DrivenSystem) -> EffectiveModel:
    """Time-averaged model of the driven chain.

    Averaging gives the first bond v J0(A/omega) e^{iA/omega}; the matrix
    keeps the real bond v_eff = v J0(A/omega). The eigenvalues agree, and an
    eigenvector w here is the Floquet mode g w at t = 0, with the gauge
    g = diag(e^{iA/omega}, 1, ..., 1).
    """
    v_eff = system.v * bessel_j0(system.ratio)
    return EffectiveModel(n=system.n, v=system.v, v_eff=v_eff,
                          matrix=_effective_matrix(system.n, v_eff, system.v))


def dark_state_closed_form(n: int, v: float, v_eff: float) -> DarkState:
    """Closed-form null vector of the effective chain.

    Components: w_1 proportional to (-1)^((n-1)/2) v/v_eff, even sites zero,
    odd site 2k+1 proportional to (-1)^((n-2k-1)/2). The v_eff = 0 limit is
    the fully decoupled state (1, 0, ..., 0).
    """
    if n % 2 == 0:
        raise ConfigError(f"no unique zero mode for even n (got n={n})")
    w = np.zeros(n)
    if v_eff == 0.0:
        w[0] = 1.0
        return DarkState(vector=w, localization=1.0)
    # scale so the largest component is O(1); the unscaled first component
    # v/v_eff overflows for subnormal v_eff
    odd = np.arange(2, n, 2)  # sites 3, 5, ..., n
    if abs(v_eff) <= abs(v):
        w[0] = (-1) ** ((n - 1) // 2)
        w[odd] = (-1.0) ** ((n - odd - 1) // 2) * (v_eff / v)
    else:
        w[0] = (-1) ** ((n - 1) // 2) * v / v_eff
        w[odd] = (-1.0) ** ((n - odd - 1) // 2)
    w /= np.linalg.norm(w)
    return DarkState(vector=w, localization=float(w[0] ** 2))


def localization(n: int, v: float, v_eff: float) -> tuple[float, bool]:
    """Weight of the zero mode on site 1 and whether it exceeds 1/2.

    |w_1|^2 = r / (r + (n-1)/2) with r = (v/v_eff)^2; the mode is localized
    exactly when r > (n-1)/2.
    """
    if n % 2 == 0:
        raise ConfigError(f"localization is defined for odd n (got n={n})")
    if v_eff == 0.0:
        return 1.0, True
    r = (v / v_eff) ** 2
    w1sq = r / (r + (n - 1) / 2.0)
    return w1sq, r > (n - 1) / 2.0


def min_p1_floor(n: int, v: float, v_eff: float) -> float:
    """Lower bound F_n on the long-time site-1 population of an odd chain
    started in (1, 0, ..., 0).

    Chiral symmetry gives the +/-lambda modes equal weight on site 1, so
    with |w_1|^2 the zero mode's weight there (``localization``) the site-1
    amplitude never drops below 2|w_1|^2 - 1:
    F_n = max(0, 2|w_1|^2 - 1)^2. At n = 3 and |v_eff| <= |v| this is
    ``min_p1_oracle``.
    """
    w1sq, _ = localization(n, v, v_eff)
    return max(0.0, 2.0 * w1sq - 1.0) ** 2


def min_p1_oracle(v: float, v_eff: float) -> float:
    """Long-time minimum of the site-1 population for the three-level
    effective model started in (1, 0, 0).

    Eigen-decomposing the 3x3 chain (eigenvalues 0, +/-sqrt(v^2 + v_eff^2))
    gives P_1(t) = (v^2 + v_eff^2 cos(st))^2 / s^4, minimized at cos = -1.
    """
    s2 = v**2 + v_eff**2
    if s2 == 0.0:
        return 1.0
    return ((v**2 - v_eff**2) / s2) ** 2


# ---------------------------------------------------------------------------
# Spectral properties of the effective matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one property check on one sampled matrix."""

    property_id: str
    n: int
    trial: int
    v: float
    v_eff: float
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    checks: list[PropertyCheck]

    @property
    def violations(self) -> list[PropertyCheck]:
        return [c for c in self.checks if not c.passed]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [f"effective-matrix property report (seed={self.seed})",
                 f"checks: {len(self.checks)}, violations: {len(self.violations)}"]
        for c in self.violations:
            lines.append(f"  FAIL {c.property_id} n={c.n} trial={c.trial} "
                         f"v={c.v!r} v_eff={c.v_eff!r} residual={c.residual:.3e} "
                         f"{c.detail}")
        if self.ok:
            lines.append("  all properties hold")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "n_checks": len(self.checks),
            "n_violations": len(self.violations),
            "checks": [
                {"property": c.property_id, "n": c.n, "trial": c.trial,
                 "v": c.v, "v_eff": c.v_eff, "pass": c.passed,
                 "residual": c.residual, "detail": c.detail}
                for c in self.checks
            ],
        }, indent=2)


def verify_properties(n_range=range(2, 12), trials: int = 100,
                      rng_seed: int = 0) -> PropertyReport:
    """Randomized verification of the four effective-matrix properties.

    Draws v_eff uniform in [-2, 2] (excluding 0) and v uniform in [0.5, 2]
    with a per-trial seeded generator, plus a deterministic v_eff = 0 case
    per n. One ``np.linalg.eigh`` per stack of same-size matrices serves
    every check; a stack holds at most ``floquet.MAX_CHUNK_VALUES`` entries
    (or one matrix). The matrices are real symmetric and tridiagonal, with
    nonzero bonds but for the pinned v_eff = 0, so their spectra are simple
    except for the double zero of even n there; no check depends on the
    basis inside that pair, so degenerate eigenvectors need no ordering.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if rng_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {rng_seed}")
    checks: list[PropertyCheck] = []
    for n in n_range:
        if n < 2:
            raise ConfigError(f"matrix sizes must be >= 2, got n={n}")
        draws = []
        for trial in range(trials):
            rng = np.random.default_rng([rng_seed, n, trial])
            v_eff = 0.0
            while v_eff == 0.0:
                v_eff = rng.uniform(-2.0, 2.0)
            draws.append((trial, rng.uniform(0.5, 2.0), v_eff))
        # the v_eff = 0 corner is measure-zero under the draw; pin it
        draws.append((-1, 1.0, 0.0))
        for chunk in _chunks(draws, n * n):
            checks.extend(_check_stack(n, chunk))
    return PropertyReport(seed=rng_seed, checks=checks)


def _check_stack(n: int, draws) -> list[PropertyCheck]:
    """The spectral checks on the effective matrices of (trial, v, v_eff)
    draws of one size n, from one eigensolve of their stack."""
    h = np.stack([_effective_matrix(n, v_eff, v) for _, v, v_eff in draws])
    lam, vecs = np.linalg.eigh(h)
    scale = np.maximum(np.max(np.abs(h), axis=(1, 2)), 1e-300)
    zero = np.abs(lam) <= 1e-9 * scale[:, None]
    n_zero = np.sum(zero, axis=1)
    smallest = np.min(np.abs(lam), axis=1)
    # P3: parity partner (-1)^j w_j is an eigenvector for -lambda
    wp = (-1.0) ** np.arange(1, n + 1)[:, None] * vecs
    partner = np.max(np.abs(h @ wp + wp * lam[:, None, :]), axis=(1, 2))
    # P4: nonzero-eigenvalue modes carry at most half weight on any site
    worst = np.max(np.where(zero[:, None, :], 0.0, vecs**2), axis=(1, 2))
    zero_mode = vecs[np.arange(len(draws)), :, np.argmax(zero, axis=1)]
    checks = []
    for i, (trial, v, v_eff) in enumerate(draws):
        def add(pid, passed, residual, detail):
            checks.append(PropertyCheck(pid, n, trial, v, v_eff, bool(passed),
                                        float(residual), detail))

        if n % 2 == 0:
            # P2: no zero eigenvalue unless v_eff = 0, then exactly two
            expected = 2 if v_eff == 0.0 else 0
            add("P2", n_zero[i] == expected, smallest[i],
                f"expected {expected} zero eigenvalues, found {n_zero[i]}")
        elif n_zero[i] != 1:
            # P1: exactly one zero eigenvalue, matching the closed form
            add("P1", False, smallest[i],
                f"expected 1 zero eigenvalue, found {n_zero[i]}")
        else:
            ref = dark_state_closed_form(n, v, v_eff).vector
            mismatch = min(np.max(np.abs(zero_mode[i] - ref)),
                           np.max(np.abs(zero_mode[i] + ref)))
            add("P1", mismatch <= 1e-7, mismatch,
                "zero-mode vector vs closed form (up to sign)")
        add("P3", partner[i] <= 1e-8 * max(1.0, scale[i]), partner[i],
            "residual of H w' + lambda w'")
        add("P4", worst[i] <= 0.5 + 1e-9, worst[i],
            "max |w_j|^2 over nonzero modes")
        if n % 2 == 1 and n_zero[i] == 1 and v_eff != 0.0:
            # P4 localization threshold for the zero mode
            w1sq = float(zero_mode[i, 0] ** 2)
            expected_w1sq, expected_loc = localization(n, v, v_eff)
            ok = (abs(w1sq - expected_w1sq) <= 1e-9
                  and (w1sq > 0.5) == expected_loc)
            add("P4-threshold", ok, abs(w1sq - expected_w1sq),
                f"|w_1|^2={w1sq:.6f}, threshold predicts {expected_loc}")
    return checks
