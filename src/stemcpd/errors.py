"""Exception types shared across the package."""


class StemcpdError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(StemcpdError, ValueError):
    """A parameter is outside its documented domain."""


class MomentEstimationError(StemcpdError):
    """Empirical spectral moments cannot be estimated from the data."""
