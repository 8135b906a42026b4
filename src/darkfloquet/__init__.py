"""darkfloquet: Floquet analysis of periodically driven N-level chains.

Simulates chains whose first site is driven in antiphase against the rest,
extracts quasi-energy spectra and Floquet modes from the one-period
propagator, detects the zero-quasi-energy dark Floquet mode of odd chains,
and verifies the spectral structure of the high-frequency effective model.
"""

__version__ = "0.1.0"

from .effective import (DarkState, EffectiveModel, PropertyReport, bessel_j0,
                        dark_state_closed_form, effective_model, localization,
                        min_p1_floor, verify_properties, J0_FIRST_ZERO)
from .errors import (ConfigError, NumericalQualityError, StepSizeError,
                     UnitarityError)
from .evolve import PropagationSettings, Trajectory, monodromy, propagate
from .floquet import (DarkModeResult, FloquetSpectrum, SweepResult, dark_mode,
                      floquet_spectrum, fold_quasi_energy, min_p1_sweep,
                      quasi_energy_sweep)
from .model import DrivenSystem

__all__ = [
    "__version__",
    "DrivenSystem",
    "PropagationSettings", "Trajectory", "propagate", "monodromy",
    "FloquetSpectrum", "DarkModeResult", "SweepResult",
    "floquet_spectrum", "dark_mode", "quasi_energy_sweep", "min_p1_sweep",
    "fold_quasi_energy",
    "EffectiveModel", "DarkState", "PropertyReport", "bessel_j0",
    "J0_FIRST_ZERO", "effective_model", "dark_state_closed_form",
    "localization", "min_p1_floor", "verify_properties",
    "ConfigError", "NumericalQualityError", "StepSizeError", "UnitarityError",
]
