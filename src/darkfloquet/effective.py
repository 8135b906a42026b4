"""High-frequency effective model of the driven chain.

Averaging the drive renormalizes the first bond to ``v_eff = v * J0(A/omega)``
while all other bonds keep the bare coupling ``v``. This module provides the
Bessel factor, the effective Hamiltonian, the closed-form zero mode and its
localization threshold, the long-time tunneling-minimum formula for three
levels, and randomized verification of the four spectral properties of the
effective matrix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .evolve import _hold
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
    "verify_properties",
    "PropertyReport",
    "PropertyCheck",
]

# first positive root of J0, to double precision
J0_FIRST_ZERO = 2.404825557695773
# bound on the matrices the property suite draws, each kept as ~3.5 checks
MAX_DRAWS = 10**5


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


def _effective_matrices(n: int, v_eff, v) -> np.ndarray:
    """Stack of averaged-chain matrices, one per entry of the 1-D v_eff:
    zero diagonal, first bond v_eff, the other bonds v (one value per
    matrix, or one for all)."""
    v_eff = np.asarray(v_eff, dtype=float)
    h = np.zeros((len(v_eff), n, n))
    flat = h.reshape(len(v_eff), n * n)  # super- and subdiagonal: step n + 1
    flat[:, 1::n + 1] = flat[:, n::n + 1] = np.asarray(v, dtype=float)[..., None]
    flat[:, 1:2] = flat[:, n:n + 1] = v_eff[:, None]  # none when n = 1
    return h


def effective_model(system: DrivenSystem) -> EffectiveModel:
    """Time-averaged model of the driven chain.

    Averaging gives the first bond v J0(A/omega) e^{iA/omega}; the matrix
    keeps the real bond v_eff = v J0(A/omega). The eigenvalues agree, and an
    eigenvector w here is the Floquet mode g w at t = 0, with the gauge
    g = diag(e^{iA/omega}, 1, ..., 1).
    """
    v_eff = system.v * bessel_j0(system.ratio)
    matrix = _effective_matrices(system.n, [v_eff], system.v)[0]
    return EffectiveModel(n=system.n, v=system.v, v_eff=v_eff, matrix=matrix)


def _zero_modes(n: int, v, v_eff) -> np.ndarray:
    """Rows: `dark_state_closed_form`'s vectors for the 1-D arrays v and
    v_eff, each normalized by its BLAS dot product, as np.linalg.norm is."""
    v, v_eff = np.asarray(v, dtype=float), np.asarray(v_eff, dtype=float)
    # scale so the largest component is O(1); the unscaled first component
    # v/v_eff overflows for subnormal v_eff
    small = np.abs(v_eff) <= np.abs(v)
    odd = np.arange(2, n, 2)  # sites 3, 5, ..., n
    w = np.zeros((len(v), n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w[:, 0] = (-1) ** ((n - 1) // 2) * np.where(small, 1.0, v / v_eff)
        w[:, odd] = ((-1.0) ** ((n - odd - 1) // 2)
                     * np.where(small, v_eff / v, 1.0)[:, None])
    w[v_eff == 0.0] = np.eye(1, n)  # the decoupled limit
    return w / np.sqrt(w[:, None, :] @ w[:, :, None])[:, 0]


def dark_state_closed_form(n: int, v: float, v_eff: float) -> DarkState:
    """Closed-form null vector of the effective chain.

    Components: w_1 proportional to (-1)^((n-1)/2) v/v_eff, even sites zero,
    odd site 2k+1 proportional to (-1)^((n-2k-1)/2). The v_eff = 0 limit is
    the fully decoupled state (1, 0, ..., 0).
    """
    if n % 2 == 0:
        raise ConfigError(f"no unique zero mode for even n (got n={n})")
    if not np.all(np.isfinite([v, v_eff])):
        raise ConfigError(f"v and v_eff must be finite, got {v}, {v_eff}")
    w = _zero_modes(n, [v], [v_eff])[0]
    return DarkState(vector=w, localization=float(w[0] ** 2))


def _localizations(n: int, v, v_eff) -> tuple[np.ndarray, np.ndarray]:
    """`localization` of each entry of the 1-D arrays v and v_eff."""
    v, v_eff = np.asarray(v, dtype=float), np.asarray(v_eff, dtype=float)
    half = (n - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # float_power squares through libm's pow, as a Python float's ** does
        r = np.float_power(v / v_eff, 2)
        w1sq = np.where((v_eff == 0.0) | (r == np.inf), 1.0, r / (r + half))
    return w1sq, (v_eff == 0.0) | (r > half)


def localization(n: int, v: float, v_eff: float) -> tuple[float, bool]:
    """Weight of the zero mode on site 1 and whether it exceeds 1/2.

    |w_1|^2 = r / (r + (n-1)/2) with r = (v/v_eff)^2; the mode is localized
    exactly when r > (n-1)/2.
    """
    if n % 2 == 0:
        raise ConfigError(f"localization is defined for odd n (got n={n})")
    if not np.all(np.isfinite([v, v_eff])):
        raise ConfigError(f"v and v_eff must be finite, got {v}, {v_eff}")
    w1sq, localized = _localizations(n, [v], [v_eff])
    return float(w1sq[0]), bool(localized[0])


def min_p1_floor(n: int, v: float, v_eff: float) -> float:
    """Lower bound F_n on the long-time site-1 population of an odd chain
    started in (1, 0, ..., 0).

    Chiral symmetry gives the +/-lambda modes equal weight on site 1, so
    with |w_1|^2 the zero mode's weight there (``localization``) the site-1
    amplitude never drops below 2|w_1|^2 - 1:
    F_n = max(0, 2|w_1|^2 - 1)^2. At n = 3 and |v_eff| <= |v| this is the
    three-level minimum ((v^2 - v_eff^2) / (v^2 + v_eff^2))^2.
    """
    w1sq, _ = localization(n, v, v_eff)
    return max(0.0, 2.0 * w1sq - 1.0) ** 2


# ---------------------------------------------------------------------------
# Spectral properties of the effective matrix
# ---------------------------------------------------------------------------

class PropertyCheck(NamedTuple):
    """Outcome of one property check on one sampled matrix."""

    property_id: str
    n: int
    trial: int
    v: float
    v_eff: float
    passed: bool
    residual: float
    detail: str = ""


# one check of `PropertyReport.to_json`, laid out as json.dumps(indent=2) does
_CHECK_JSON = ('\n    {\n      "property": %s,\n      "n": %d,\n      "trial": %d,'
               '\n      "v": %s,\n      "v_eff": %s,\n      "pass": %s,'
               '\n      "residual": %s,\n      "detail": %s\n    }')
# json.dumps's spellings of the floats whose repr is not JSON, and of bools
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_BOOLS = {True: "true", False: "false"}


def _json_floats(values):
    """json.dumps's text of each float: float.__repr__, but NaN, Infinity
    and -Infinity for the non-finite. Each float object is spelled once:
    the records of one matrix share its v and v_eff."""
    ids = list(map(id, values))
    unique = dict(zip(ids, values))
    texts = list(map(float.__repr__, unique.values()))
    spelled = dict(zip(unique, map(_JSON_FLOATS.get, texts, texts)))
    return map(spelled.__getitem__, ids)


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    checks: list[PropertyCheck]

    @cached_property
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
        """The text json.dumps(..., indent=2) gives the report's dict (seed,
        n_checks, n_violations, checks), written one fixed-layout check at a
        time: floats by float.__repr__, strings by json's ASCII escaper."""
        checks = "[]"
        if self.checks:
            pid, n, trial, v, v_eff, passed, residual, detail = zip(*self.checks)
            text = encode_basestring_ascii
            checks = "[%s\n  ]" % ",".join(map(_CHECK_JSON.__mod__, zip(
                map(text, pid), n, trial, _json_floats(v), _json_floats(v_eff),
                map(_JSON_BOOLS.__getitem__, passed), _json_floats(residual),
                map(text, detail))))
        return (f'{{\n  "seed": {self.seed},\n  "n_checks": {len(self.checks)},'
                f'\n  "n_violations": {len(self.violations)},'
                f'\n  "checks": {checks}\n}}')


# ---------------------------------------------------------------------------
# The seeded draws: numpy's SeedSequence and PCG64, one array pass for all
# ---------------------------------------------------------------------------

# SeedSequence's entropy pool words and the constants of its hashes
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier, as (high, low) 64-bit words
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_M32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays. Its running constant steps
    alike for every row, so it stays a Python int."""
    def hashmix(x):
        nonlocal const
        x = x ^ const
        const = const * mult & _M32
        x = x * const
        return x ^ x >> 16
    return hashmix


def _mix(x, y):
    x = x * _MIX_L - y * _MIX_R
    return x ^ x >> 16


def _seed_state(words: list) -> list:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` of many rows
    at once: words[i] is the uint32 array of every row's i-th entropy word."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pad = [np.zeros_like(words[0])] * (_POOL - len(words))
    pool = [hashmix(w) for w in (words + pad)[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:  # entropy past the pool is mixed into each word
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(w))
    out = _hasher(_INIT_B, _MULT_B)
    state = [out(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    return [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]


def _add128(hi, lo, inc_hi, inc_lo):
    lo = lo + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's step, state * multiplier + inc modulo 2**128, on (high, low)
    uint64 words; the high word of lo * _PCG_LO from 32-bit limbs."""
    a1, a0 = lo >> 32, lo & _M32
    b1, b0 = _PCG_LO >> 32, _PCG_LO & _M32
    t = a1 * b0 + ((a0 * b0) >> 32)
    carry = a1 * b1 + (t >> 32) + (((t & _M32) + a0 * b1) >> 32)
    return _add128(hi * _PCG_LO + lo * _PCG_HI + carry, lo * _PCG_LO,
                   inc_hi, inc_lo)


def _uniforms(words: list):
    """Yields, call by call, each row's next ``Generator.random()`` double
    of ``default_rng(entropy)``, words as in `_seed_state`: PCG64 seeded from
    the SeedSequence state, its XSL-RR output as (x >> 11) * 2**-53."""
    s_hi, s_lo, q_hi, q_lo = _seed_state(words)
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    # seeding steps from state 0 (to inc), adds the seed and steps again
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, s_hi, s_lo), inc_hi, inc_lo)
    while True:
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        x = x >> rot | x << (64 - rot & 63)
        yield (x >> 11).astype(float) * 2.0**-53


def _select(u: np.ndarray):
    """(v, v_eff) of each row of u, a trial's uniform draws in [0, 1), as
    a Generator's ``uniform(low, high)`` = low + (high - low) u takes them:
    v_eff = uniform(-2, 2), drawn again while it is 0.0, then
    v = uniform(0.5, 2). None if some row runs out of draws first."""
    v_eff = -2.0 + 4.0 * u[:, :-1]
    first = np.argmax(v_eff != 0.0, axis=1)
    rows = np.arange(len(u))
    if np.any(v_eff[rows, first] == 0.0):
        return None
    return 0.5 + 1.5 * u[rows, first + 1], v_eff[rows, first]


def _draws(seed: int, n_range, trials: int):
    """(v, v_eff) arrays, one row per n and one column per trial, as
    ``default_rng([seed, n, trial])`` draws them. SeedSequence splits each
    int of the entropy into 32-bit words, little-endian; 0 is one word."""
    seed = operator.index(seed)
    seed_words = [seed >> s & _M32
                  for s in range(0, seed.bit_length() or 1, 32)]
    ns = np.repeat(np.asarray(n_range, dtype=np.uint32), trials)
    words = [np.full(len(ns), w, dtype=np.uint32) for w in seed_words]
    words += [ns, np.tile(np.arange(trials, dtype=np.uint32), len(n_range))]
    stream = _uniforms(words)
    u = [next(stream), next(stream)]
    while (picked := _select(np.column_stack(u))) is None:
        u.append(next(stream))
    return tuple(x.reshape(len(n_range), trials) for x in picked)


def verify_properties(n_range=range(2, 12), trials: int = 100,
                      rng_seed: int = 0) -> PropertyReport:
    """Randomized verification of the four effective-matrix properties.

    Draws v_eff uniform in [-2, 2] (excluding 0) and v uniform in [0.5, 2]
    as numpy's ``default_rng([rng_seed, n, trial])`` would, plus a
    deterministic v_eff = 0 case per n. One ``np.linalg.eigh`` per stack
    of same-size matrices serves every check; a stack holds at most
    ``floquet.MAX_CHUNK_VALUES`` entries (or one matrix). The matrices are
    real symmetric and tridiagonal, with nonzero bonds but for the pinned
    v_eff = 0, so their spectra are simple except for the double zero of
    even n there; no check depends on the basis inside that pair, so
    degenerate eigenvectors need no ordering.
    A run of more than MAX_DRAWS draws is refused before the first.

    Each stack is built, solved and checked as arrays, the closed-form zero
    modes and localization thresholds included, and a Python loop only
    emits the records. The draws of every (n, trial) come from one array
    pass (`_draws`) of SeedSequence's hash and PCG64's first steps, equal
    bit for bit to those generators' and without importing numpy's random
    module. At the default size it takes about 0.5 ms of the suite's 10 ms
    (one BLAS thread).
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if rng_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {rng_seed}")
    n_range = tuple(n_range)
    if (trials + 1) * len(n_range) > MAX_DRAWS:
        raise ConfigError(f"run would draw {(trials + 1) * len(n_range)} "
                          f"effective matrices, more than {MAX_DRAWS}")
    _hold(max(n_range, default=0) ** 2, "an effective matrix")
    for n in n_range:
        if n < 2:
            raise ConfigError(f"matrix sizes must be >= 2, got n={n}")
    v, v_eff = _draws(rng_seed, n_range, trials)
    checks: list[PropertyCheck] = []
    for n, vs, v_effs in zip(n_range, v.tolist(), v_eff.tolist()):
        # the v_eff = 0 corner is measure-zero under the draw; pin it
        draws = [*zip(range(trials), vs, v_effs), (-1, 1.0, 0.0)]
        for chunk in _chunks(draws, n * n):
            checks.extend(_check_stack(n, chunk))
    return PropertyReport(seed=rng_seed, checks=checks)


def _check_stack(n: int, draws) -> list[PropertyCheck]:
    """The spectral checks on the effective matrices of (trial, v, v_eff)
    draws of one size n, from one eigensolve of their stack."""
    _, v, v_eff = zip(*draws)
    h = _effective_matrices(n, v_eff, v)
    lam, vecs = np.linalg.eigh(h)
    scale = np.maximum(np.max(np.abs(h), axis=(1, 2)), 1e-300)
    zero = np.abs(lam) <= 1e-9 * scale[:, None]
    # P3: parity partner (-1)^j w_j is an eigenvector for -lambda
    wp = (-1.0) ** np.arange(1, n + 1)[:, None] * vecs
    partner = np.max(np.abs(h @ wp + wp * lam[:, None, :]), axis=(1, 2))
    # P4: nonzero-eigenvalue modes carry at most half weight on any site
    worst = np.max(np.where(zero[:, None, :], 0.0, vecs**2), axis=(1, 2))
    # P1 and the P4 threshold (odd n): the zero mode against its closed
    # form up to sign, min(a, b) taken as Python does, and its site-1 weight
    zero_mode = vecs[np.arange(len(draws)), :, np.argmax(zero, axis=1)]
    ref = _zero_modes(n, v, v_eff)
    plus = np.max(np.abs(zero_mode - ref), axis=1)
    minus = np.max(np.abs(zero_mode + ref), axis=1)
    columns = (np.sum(zero, axis=1), np.min(np.abs(lam), axis=1), scale,
               partner, worst, np.where(minus < plus, minus, plus),
               np.float_power(zero_mode[:, 0], 2),
               *_localizations(n, v, v_eff))
    checks = []
    for ((trial, v, v_eff), found, least, size, r3, r4, mismatch, w1sq,
         expected_w1sq, expected_loc) in zip(
            draws, *(c.tolist() for c in columns)):
        row = (n, trial, v, v_eff)
        if n % 2 == 0:
            # P2: no zero eigenvalue unless v_eff = 0, then exactly two
            expected = 2 if v_eff == 0.0 else 0
            checks.append(PropertyCheck(
                "P2", *row, found == expected, least,
                f"expected {expected} zero eigenvalues, found {found}"))
        elif found != 1:
            # P1: exactly one zero eigenvalue, matching the closed form
            checks.append(PropertyCheck(
                "P1", *row, False, least,
                f"expected 1 zero eigenvalue, found {found}"))
        else:
            checks.append(PropertyCheck(
                "P1", *row, mismatch <= 1e-7, mismatch,
                "zero-mode vector vs closed form (up to sign)"))
        checks.append(PropertyCheck("P3", *row, r3 <= 1e-8 * max(1.0, size),
                                    r3, "residual of H w' + lambda w'"))
        checks.append(PropertyCheck("P4", *row, r4 <= 0.5 + 1e-9, r4,
                                    "max |w_j|^2 over nonzero modes"))
        if n % 2 == 1 and found == 1 and v_eff != 0.0:
            # P4 localization threshold for the zero mode
            miss = abs(w1sq - expected_w1sq)
            checks.append(PropertyCheck(
                "P4-threshold", *row,
                miss <= 1e-9 and (w1sq > 0.5) == expected_loc, miss,
                f"|w_1|^2={w1sq:.6f}, threshold predicts {expected_loc}"))
    return checks
