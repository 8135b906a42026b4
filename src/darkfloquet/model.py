"""Driven N-level chain: the system parameters.

The model is a nearest-neighbor chain of ``n`` levels with coupling ``v``
whose on-site energies are modulated as ``sign_j * (A/2) * sin(omega * t)``,
with the canonical sign pattern (+1, -1, ..., -1): the first site is driven
in antiphase with all the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["DrivenSystem"]


@dataclass(frozen=True)
class DrivenSystem:
    """A periodically driven n-level chain (hbar = 1).

    Attributes
    ----------
    n : number of levels, at least 2.
    v : nearest-neighbor coupling constant.
    amplitude : drive strength A (>= 0).
    omega : drive angular frequency (> 0).
    """

    n: int
    v: float
    amplitude: float
    omega: float

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

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    @property
    def ratio(self) -> float:
        """Dimensionless drive parameter A / omega."""
        return self.amplitude / self.omega

