"""Independent reference computations used to pin expected values.

These deliberately avoid the code paths they check: the Bessel oracle is a
fixed-length series in exact rational arithmetic, the matrix exponential
is scaling-and-squaring on the raw series, the time evolution is a plain
RK4 over every step on a stack of state vectors, with H(t) built from the
systems' fields rather than from darkfloquet, the chain determinants come
from their two-term recursion, the three-level tunneling minimum is the
closed form of the 3x3 chain rather than the odd-n floor, and the CSV text
is formatted one value at a time.
"""

from fractions import Fraction
from math import factorial

import numpy as np


def j0_series_oracle(x: float, terms: int = 60) -> float:
    """Zeroth-order Bessel function by a 60-term power series in exact
    rational arithmetic (error < 1e-15 for |x| <= 12)."""
    q = Fraction(x) ** 2 / 4
    total = Fraction(0)
    for k in range(terms):
        total += (-1) ** k * q**k / Fraction(factorial(k)) ** 2
    return float(total)


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
    """A CSV table written row by row, one value at a time: floats as
    f"{x:.12g}", everything else through str."""
    lines = [*comments, ",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.12g}" if isinstance(x, float) else str(x)
                              for x in row))
    return "".join(line + "\n" for line in lines)
