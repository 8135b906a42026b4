"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid parameters or configuration (CLI exit code 2)."""


class NumericalQualityError(RuntimeError):
    """A numerical-quality safeguard tripped (CLI exit code 3)."""


class StepSizeError(NumericalQualityError):
    """Norm drift exceeded its bound; raise steps_per_period."""


class UnitarityError(NumericalQualityError):
    """A matrix that should be unitary failed its tolerance."""
