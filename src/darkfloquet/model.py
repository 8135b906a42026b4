"""Driven N-level chain: system parameters and instantaneous Hamiltonian.

The model is a nearest-neighbor chain of ``n`` levels with coupling ``v``
whose on-site energies are modulated as ``sign_j * (A/2) * sin(omega * t)``.
In the canonical configuration the first site is driven in antiphase with
all the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .linalg import _effective_matrix

__all__ = ["DrivenSystem", "canonical_system", "hamiltonian_at"]


@dataclass(frozen=True)
class DrivenSystem:
    """A periodically driven n-level chain (hbar = 1).

    Attributes
    ----------
    n : number of levels, at least 2.
    v : nearest-neighbor coupling constant.
    amplitude : drive strength A (>= 0).
    omega : drive angular frequency (> 0).
    drive_signs : per-site sign of the (A/2) sin(omega t) diagonal term.
    """

    n: int
    v: float
    amplitude: float
    omega: float
    drive_signs: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not np.all(np.isfinite([self.v, self.amplitude, self.omega])):
            raise ConfigError("v, amplitude and omega must be finite, got "
                              f"{self.v}, {self.amplitude}, {self.omega}")
        if self.n < 2:
            raise ConfigError(f"need at least 2 levels, got n={self.n}")
        if self.omega <= 0:
            raise ConfigError(f"drive frequency must be positive, got {self.omega}")
        if self.amplitude < 0:
            raise ConfigError(f"drive amplitude must be >= 0, got {self.amplitude}")
        signs = self.drive_signs or _canonical_signs(self.n)
        if len(signs) != self.n or any(s not in (1, -1) for s in signs):
            raise ConfigError(f"drive_signs must be {self.n} values in {{+1, -1}}")
        object.__setattr__(self, "drive_signs", tuple(int(s) for s in signs))

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    @property
    def ratio(self) -> float:
        """Dimensionless drive parameter A / omega."""
        return self.amplitude / self.omega

    def is_canonical(self) -> bool:
        return self.drive_signs == _canonical_signs(self.n)


def _canonical_signs(n: int) -> tuple[int, ...]:
    return (1,) + (-1,) * (n - 1)


def canonical_system(n: int, v: float, amplitude: float, omega: float) -> DrivenSystem:
    """Chain with the canonical sign pattern (+1, -1, ..., -1)."""
    return DrivenSystem(n=n, v=v, amplitude=amplitude, omega=omega,
                        drive_signs=_canonical_signs(n))


def hamiltonian_at(system: DrivenSystem, t: float) -> np.ndarray:
    """Instantaneous Hamiltonian H(t), a real symmetric tridiagonal matrix.

    Off-diagonal entries are all ``v``; diagonal entry j is
    ``drive_signs[j] * (A/2) * sin(omega * t)``.
    """
    drive = 0.5 * system.amplitude * np.sin(system.omega * t)
    return (_effective_matrix(system.n, system.v, system.v)
            + np.diag(drive * np.asarray(system.drive_signs, dtype=float)))
