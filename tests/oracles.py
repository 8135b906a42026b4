"""Independent reference computations used to pin expected values.

These deliberately avoid the code paths they check: the Bessel oracle is a
fixed-length series in exact rational arithmetic, the matrix exponential
is scaling-and-squaring on the raw series, and the time evolution is a
plain state-vector RK4 over every step, with H(t) built from the system's
fields rather than from darkfloquet, and the CSV text is formatted one value
at a time.
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


def rk4_states(system, c0, periods: int, steps_per_period: int) -> np.ndarray:
    """States at every step of a plain state-vector RK4 over the given
    number of drive periods from c0, with step T / steps_per_period;
    row k is the state at t = k h."""
    n = system.n
    h = 2.0 * np.pi / system.omega / steps_per_period
    coupling = system.v * (np.eye(n, k=1) + np.eye(n, k=-1))
    signs = np.array([1.0] + [-1.0] * (n - 1))  # site 1 against the rest

    def rhs(t, y):
        drive = 0.5 * system.amplitude * np.sin(system.omega * t)
        return -1j * (coupling @ y + drive * signs * y)

    y = np.asarray(c0, dtype=complex)
    states = [y]
    for k in range(periods * steps_per_period):
        t = k * h
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return np.array(states)


def csv_text(comments, header, rows) -> str:
    """A CSV table written row by row, one value at a time: floats as
    f"{x:.12g}", everything else through str."""
    lines = [*comments, ",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.12g}" if isinstance(x, float) else str(x)
                              for x in row))
    return "".join(line + "\n" for line in lines)
