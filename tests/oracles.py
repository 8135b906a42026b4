"""Independent reference computations used to pin expected values.

These deliberately avoid the code paths they check: the Bessel oracle is a
fixed-length series in exact rational arithmetic for any order J_m, the
dark mode's even-site population is the first-order kick-operator formula
of those J_m and of the averaged chain's dark state, the quasi-energies to
second order in 1/omega are the eigenvalues of a van Vleck effective
Hamiltonian built from those J_m alone, the matrix exponential
is scaling-and-squaring on the raw series, the time evolution is a plain
RK4 over every step on a stack of state vectors, with H(t) built from the
systems' fields rather than from darkfloquet, and one RK4 step of the
identity goes through the four stages K1..K4, the chain determinants come
from their two-term recursion, the three-level tunneling minimum is the
closed form of the 3x3 chain rather than the odd-n floor, the CSV text
is formatted one value at a time, the property suite checks one matrix at
a time and its report goes through json.dumps, and the Floquet spectrum
comes from one static extended-space eigenproblem with no time stepping.
The Floquet floor is the exception: it reads the package's half-period rows
and W = U(T/2), glides them to the whole period itself and takes the modes
of U(T) from `floquet._modes`, so it checks min P1's sampler and horizon,
not the step loop.
"""

import json
from fractions import Fraction
from math import factorial

import numpy as np

from darkfloquet import (DrivenSystem, PropagationSettings,
                         dark_state_closed_form)
from darkfloquet.evolve import propagator_site1
from darkfloquet.floquet import _modes


def bessel_series_oracle(x: float, orders, terms: int = 60) -> list[float]:
    """Bessel functions J_m(x) for each m >= 0 of orders, by a 60-term power
    series in exact rational arithmetic (error < 1e-15 for |x| <= 12)."""
    # sum_k (-1)^k q^k / (k! (k + m)!), q = (x/2)^2 = a/b, over the common
    # denominator b^terms terms! (terms + m)!: one fraction is reduced per m
    a, b = (Fraction(x) ** 2 / 4).as_integer_ratio()
    scaled = [(-1) ** k * a**k * b ** (terms - k)
              * (factorial(terms) // factorial(k)) for k in range(terms)]
    values = []
    for m in orders:
        top = factorial(terms + m)
        total = sum(s * (top // factorial(k + m)) for k, s in enumerate(scaled))
        values.append(float((Fraction(x) / 2) ** m * Fraction(
            total, b**terms * factorial(terms) * top)))
    return values


def j0_series_oracle(x: float, terms: int = 60) -> float:
    """Zeroth-order Bessel function by `bessel_series_oracle`."""
    return bessel_series_oracle(x, [0], terms)[0]


def intermediate_population_oracle(n: int, v: float, omega: float,
                                   ratio: float) -> float:
    """First-order period average of the dark Floquet mode's population on
    the even sites, (v/omega)^2 |w_1|^2 2 sum_{m>=1} J_m(A/omega)^2 / m^2,
    with w the averaged chain's dark state (`dark_state_closed_form`, first
    bond v J0(A/omega)). In the frame that the drive's phase rotates, only
    bond (1, 2) depends on time, with Fourier components of modulus
    v |J_m(A/omega)|; the kick operator sum_{m != 0} H_m e^{i m omega t} /
    (i m omega) moves a share |H_m / (m omega)|^2 of |w_1|^2 to site 2."""
    # 30 terms reach 1e-40 for ratio <= 5, and J_m^2 / m^2 is below 1e-20
    # there from m = 20 on
    bessel = bessel_series_oracle(ratio, range(21), 30)
    w1sq = dark_state_closed_form(n, v, v * bessel[0]).localization
    kick = 2 * sum(j * j / (m * m) for m, j in enumerate(bessel) if m)
    return (v / omega) ** 2 * w1sq * kick


def second_order_oracle(n: int, v: float, omega: float, ratio: float,
                        m_max: int = 20) -> np.ndarray:
    """Eigenvalues, ascending, of H_0 + H^(2), the van Vleck high-frequency
    expansion of the driven chain to second order in 1/omega.

    In the frame that the drive's phase rotates, only bond (1, 2) depends on
    time: H(t) = sum_m H_m e^{i m omega t}, with v e^{iA/omega} (-i)^m
    J_m(A/omega) at (1, 2) of H_m, its Hermitian partner at (2, 1), and v on
    every other bond of H_0 alone, so H_0 is the gauged averaged chain. The
    first order, sum_{m != 0} [H_m, H_-m]/(m omega), vanishes, as
    |J_m| = |J_-m|, and H^(2) = sum_{m != 0} [[H_-m, H_0], H_m]/(2 m^2 omega^2)
    + sum_{m != 0} sum_{m' != 0, m} [[H_-m', H_m'-m], H_m]/(3 m m' omega^2),
    |m|, |m'| <= m_max, with J_m from `bessel_series_oracle`."""
    bessel = bessel_series_oracle(ratio, range(2 * m_max + 1))

    def bond(m):  # (1, 2) of H_m; J_-m = (-1)^m J_m
        j = bessel[abs(m)] * (-1.0) ** min(m, 0)
        return v * np.exp(1j * ratio) * (-1j) ** m * j

    h = {}
    for m in range(-2 * m_max, 2 * m_max + 1):
        h[m] = np.zeros((n, n), dtype=complex)
        h[m][0, 1], h[m][1, 0] = bond(m), np.conj(bond(-m))
    h[0][1:, 1:] = v * (np.eye(n - 1, k=1) + np.eye(n - 1, k=-1))

    def comm(a, b):
        return a @ b - b @ a

    second = np.zeros((n, n), dtype=complex)
    orders = [m for m in range(-m_max, m_max + 1) if m]
    for m in orders:
        second += comm(comm(h[-m], h[0]), h[m]) / (2 * m * m * omega**2)
        for k in orders:
            if k != m:
                second += (comm(comm(h[-k], h[k - m]), h[m])
                           / (3 * m * k * omega**2))
    return np.linalg.eigvalsh(h[0] + second)


def j0_first_zero_oracle() -> float:
    """First positive root of J0 by bisection on the series oracle."""
    lo, hi = 2.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if j0_series_oracle(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def expm_scaling_squaring(a: np.ndarray, order: int = 16) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring on the Taylor series."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, ord=np.inf)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 4)
    b = a / 2**s
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ b / k
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


def rk4_rows(systems, states, periods: int, steps_per_period: int) -> np.ndarray:
    """States at every step of a plain RK4 on a (rows, n) array over the
    given number of drive periods: row r starts at states[r] and evolves
    under systems[r] with step h_r = T_r / steps_per_period. Element
    [k, r] is row r's state at t = k h_r."""
    n = systems[0].n

    def field(name):  # one entry per row, shaped to scale its column
        return np.array([getattr(s, name) for s in systems])[:, None, None]

    h = 2.0 * np.pi / field("omega") / steps_per_period
    hop = -1j * field("v") * (np.eye(n, k=1) + np.eye(n, k=-1))
    signs = np.array([1.0] + [-1.0] * (n - 1))[:, None]  # site 1 vs the rest
    steps = periods * steps_per_period
    # -i times the site energies of every row at each half step t = j h / 2
    t = np.arange(2 * steps + 1)[:, None, None, None] * (0.5 * h)
    onsite = -1j * 0.5 * field("amplitude") * np.sin(field("omega") * t) * signs
    h = h.astype(complex)  # mixed real-complex products cost more per step
    half, sixth = 0.5 * h, h / 6.0

    def rhs(j, y):  # -i H(j h / 2) y on each row's column
        return hop @ y + onsite[j] * y

    y = np.array(states, dtype=complex)[:, :, None]
    out = np.empty((steps + 1, *y.shape), dtype=complex)
    out[0] = y
    for k in range(steps):
        k1 = rhs(2 * k, y)
        k2 = rhs(2 * k + 1, y + half * k1)
        k3 = rhs(2 * k + 1, y + half * k2)
        k4 = rhs(2 * k + 2, y + h * k3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y
    return out[:, :, :, 0]


def rk4_step(system, h: float, s0: float, sh: float, s1: float) -> np.ndarray:
    """P - 1 for one plain RK4 step of length h on the identity, with the
    drive's sin(omega t) given at the step's start (s0), middle (sh) and end
    (s1): K1 = f(s0, 1), K2 = f(sh, 1 + K1/2), K3 = f(sh, 1 + K2/2),
    K4 = f(s1, 1 + K3), P - 1 = (K1 + 2 K2 + 2 K3 + K4)/6, f(s, y) = -i h H y."""
    n = system.n
    hop = system.v * (np.eye(n, k=1) + np.eye(n, k=-1))
    signs = np.array([1.0] + [-1.0] * (n - 1))  # site 1 vs the rest

    def f(s, y):
        return -1j * h * (hop + np.diag(0.5 * system.amplitude * s * signs)) @ y

    one = np.eye(n, dtype=complex)
    k1 = f(s0, one)
    k2 = f(sh, one + 0.5 * k1)
    k3 = f(sh, one + 0.5 * k2)
    k4 = f(s1, one + k3)
    return (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def rk4_states(system, c0, periods: int, steps_per_period: int) -> np.ndarray:
    """The one-row case of `rk4_rows`: row k is the state at t = k h."""
    return rk4_rows([system], [c0], periods, steps_per_period)[:, 0]


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


def tridiag_det_sequence(v_eff: float, v: float, n_max: int) -> np.ndarray:
    """Determinants D_1..D_{n_max} of the averaged chain (zero diagonal,
    first bond v_eff, the others v) by the recursion D_1 = 0,
    D_2 = -v_eff**2, D_N = -v**2 * D_{N-2}."""
    d = np.zeros(n_max)
    if n_max >= 2:
        d[1] = -v_eff**2
    for k in range(2, n_max):
        d[k] = -v**2 * d[k - 2]
    return d


def csv_text(comments, header, rows) -> str:
    """A CSV table written row by row, one value at a time, each as
    f"{float(x):.12g}"."""
    lines = [*comments, ",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(x):.12g}" for x in row))
    return "".join(line + "\n" for line in lines)


def _chain(n: int, v_eff: float, v: float) -> np.ndarray:
    """The averaged chain: zero diagonal, first bond v_eff, the others v."""
    bonds = np.full(n - 1, float(v)) if n > 1 else np.zeros(0)
    if n > 1:
        bonds[0] = v_eff
    return np.diag(bonds, 1) + np.diag(bonds, -1)


def _zero_mode(n: int, v: float, v_eff: float) -> np.ndarray:
    """Closed-form null vector of the odd chain, one component at a time."""
    w = np.zeros(n)
    if v_eff == 0.0:
        w[0] = 1.0
        return w
    odd = np.arange(2, n, 2)
    if abs(v_eff) <= abs(v):
        w[0] = (-1) ** ((n - 1) // 2)
        w[odd] = (-1.0) ** ((n - odd - 1) // 2) * (v_eff / v)
    else:
        w[0] = (-1) ** ((n - 1) // 2) * v / v_eff
        w[odd] = (-1.0) ** ((n - odd - 1) // 2)
    return w / np.linalg.norm(w)


def draws_oracle(n: int, trials: int, seed: int):
    """The property suite's (trial, v, v_eff) draws at size n, from one
    numpy generator per trial."""
    draws = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, n, trial])
        v_eff = 0.0
        while v_eff == 0.0:
            v_eff = rng.uniform(-2.0, 2.0)
        draws.append((trial, rng.uniform(0.5, 2.0), v_eff))
    return draws


def property_checks_oracle(n_range, trials: int, seed: int, perturb=None):
    """The property suite's (property, n, trial, v, v_eff, passed, residual,
    detail) records, one eigensolve and one scalar closed form per matrix;
    perturb, if given, edits each matrix in place before it is solved."""
    checks = []
    for n in n_range:
        draws = draws_oracle(n, trials, seed) + [(-1, 1.0, 0.0)]
        for trial, v, v_eff in draws:
            h = _chain(n, v_eff, v)
            if perturb is not None:
                perturb(h)
            lam, vecs = np.linalg.eigh(h)
            scale = max(float(np.max(np.abs(h))), 1e-300)
            zero = np.abs(lam) <= 1e-9 * scale
            n_zero = int(np.sum(zero))
            smallest = float(np.min(np.abs(lam)))
            wp = (-1.0) ** np.arange(1, n + 1)[:, None] * vecs
            partner = float(np.max(np.abs(h @ wp + wp * lam[None, :])))
            worst = float(np.max(np.where(zero[None, :], 0.0, vecs**2)))
            zero_mode = vecs[:, int(np.argmax(zero))]

            def add(pid, passed, residual, detail):
                checks.append((pid, n, trial, v, v_eff, bool(passed),
                               float(residual), detail))

            if n % 2 == 0:
                expected = 2 if v_eff == 0.0 else 0
                add("P2", n_zero == expected, smallest,
                    f"expected {expected} zero eigenvalues, found {n_zero}")
            elif n_zero != 1:
                add("P1", False, smallest,
                    f"expected 1 zero eigenvalue, found {n_zero}")
            else:
                ref = _zero_mode(n, v, v_eff)
                mismatch = min(np.max(np.abs(zero_mode - ref)),
                               np.max(np.abs(zero_mode + ref)))
                add("P1", mismatch <= 1e-7, mismatch,
                    "zero-mode vector vs closed form (up to sign)")
            add("P3", partner <= 1e-8 * max(1.0, scale), partner,
                "residual of H w' + lambda w'")
            add("P4", worst <= 0.5 + 1e-9, worst,
                "max |w_j|^2 over nonzero modes")
            if n % 2 == 1 and n_zero == 1 and v_eff != 0.0:
                w1sq = float(zero_mode[0] ** 2)
                r = (v / v_eff) ** 2
                expected_w1sq = r / (r + (n - 1) / 2.0)
                expected_loc = r > (n - 1) / 2.0
                ok = (abs(w1sq - expected_w1sq) <= 1e-9
                      and (w1sq > 0.5) == expected_loc)
                add("P4-threshold", ok, abs(w1sq - expected_w1sq),
                    f"|w_1|^2={w1sq:.6f}, threshold predicts {expected_loc}")
    return checks


def property_report_oracle(seed: int, checks) -> tuple[str, str]:
    """(text, JSON) reports of property records: the text line by line, the
    JSON through json.dumps(indent=2)."""
    failed = [c for c in checks if not c[5]]
    lines = [f"effective-matrix property report (seed={seed})",
             f"checks: {len(checks)}, violations: {len(failed)}"]
    for pid, n, trial, v, v_eff, _, residual, detail in failed:
        lines.append(f"  FAIL {pid} n={n} trial={trial} v={v!r} "
                     f"v_eff={v_eff!r} residual={residual:.3e} {detail}")
    if not failed:
        lines.append("  all properties hold")
    keys = ("property", "n", "trial", "v", "v_eff", "pass", "residual",
            "detail")
    body = json.dumps({"seed": seed, "n_checks": len(checks),
                       "n_violations": len(failed),
                       "checks": [dict(zip(keys, c)) for c in checks]},
                      indent=2)
    return "\n".join(lines) + "\n", body


def sambe_floquet(n: int, v: float, amplitude: float, omega: float,
                  m_max: int | None = None):
    """Quasi-energies (ascending, folded into (-omega/2, omega/2]) and
    period-averaged site populations (row k = mode k) of the driven chain,
    from its truncated extended-space (Sambe) Hamiltonian.

    H(t) = H0 + D sin(omega t), with H0 the bare chain and D = (A/2)
    diag(1, -1, ..., -1), has the Fourier blocks H0 and +/-D/(2i). The
    static Hermitian matrix with blocks H_{m-m'} + m omega delta_{mm'},
    |m| <= m_max (default ceil(A/omega) + 10), holds a Floquet mode
    e^{-i eps t} sum_m phi_m e^{i m omega t} as the eigenvector (phi_m) for
    eigenvalue eps; of each mode's copies, shifted by multiples of omega,
    the one whose weight is centred on m = 0 is kept. The mode averages
    sum_m |phi_{m,j}|^2 on site j.
    """
    if m_max is None:
        m_max = int(np.ceil(amplitude / omega)) + 10
    blocks = 2 * m_max + 1
    h0 = v * (np.eye(n, k=1) + np.eye(n, k=-1))
    d = 0.5 * amplitude * np.diag([1.0] + [-1.0] * (n - 1))
    big = np.zeros((blocks * n, blocks * n), dtype=complex)
    for b in range(blocks):
        rows = slice(b * n, (b + 1) * n)
        big[rows, rows] = h0 + (b - m_max) * omega * np.eye(n)
        if b + 1 < blocks:  # block (m, m - 1) is H_{+1} = D / (2i)
            below = slice((b + 1) * n, (b + 2) * n)
            big[below, rows] = d / 2j
            big[rows, below] = -d / 2j
    eps, phi = np.linalg.eigh(big)
    weight = (np.abs(phi) ** 2).reshape(blocks, n, -1)  # [m, site, mode]
    centre = np.einsum("m,mk->k", np.arange(-m_max, m_max + 1),
                       weight.sum(axis=1))
    keep = np.argsort(np.abs(centre), kind="stable")[:n]
    folded = np.mod(eps[keep], omega)
    folded = folded - omega * (folded > 0.5 * omega)
    order = np.argsort(folded, kind="stable")
    return folded[order], weight[:, :, keep].sum(axis=0).T[order]


def floquet_floor(n: int, v: float, omega: float, ratios,
                  steps_per_period: int = 2000) -> np.ndarray:
    """Lower bound on P_1(t) for all t >= 0 from (1, 0, ..., 0), at each
    drive ratio A/omega, from one period of data.

    At t = kT + s the site-1 amplitude is a = sum_m b_m(s) e^{-i eps_m kT},
    b_m(s) = <1|U(s)|w_m><w_m|1> with w_m the Floquet modes, so for every k
    |a| >= 2 max_m |b_m(s)| - sum_m |b_m(s)|. The floor is the least
    max(0, that)^2 over s = k h, k = 0 ... N. `propagator_site1` gives the
    rows up to T/2 and W = U(T/2); the glide U(s + T/2) = Γ conj(U(s)) Γ W
    gives the second half's rows, conj(r(s)) Γ W, and U(T) = Γ conj(W) Γ W,
    whose modes are `floquet._modes`."""
    systems = [DrivenSystem(n, v, float(r) * omega, omega) for r in ratios]
    half, ws = propagator_site1(systems, PropagationSettings(steps_per_period))
    gamma = (-1.0) ** np.arange(n)
    rows = np.concatenate([half, (half[:, 1:].conj() * gamma) @ ws], axis=1)
    vecs = _modes(systems, (gamma[:, None] * ws.conj() * gamma) @ ws)[1]
    b = np.abs((rows @ vecs) * vecs[:, None, 0].conj())  # vecs[g, :, m] = w_m
    bound = np.maximum(2.0 * b.max(axis=-1) - b.sum(axis=-1), 0.0)
    return np.min(bound ** 2, axis=1)
