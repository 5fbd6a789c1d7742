"""Exception types shared across the package."""


class BeamloadError(Exception):
    """Base class for all package errors."""


class DimensionError(BeamloadError):
    """Array sizes do not match the grid they claim to live on."""


class ValidationError(BeamloadError):
    """Coefficient fields violate the admissibility bounds."""


class DivergenceError(BeamloadError):
    """A numeric failure: an inversion diverged, or a solve, an assembled
    band or a closed-form constant left floating range."""


class ConfigError(BeamloadError):
    """A run configuration is malformed or references missing files."""
