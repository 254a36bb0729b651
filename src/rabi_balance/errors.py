"""Exception types shared across the package."""


class RabiError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(RabiError):
    """State and operator (or two operators) live in different spaces."""


class NonHermitian(RabiError):
    """A Hermitian matrix was required but the input is not Hermitian."""


class AmplitudeTooLarge(RabiError):
    """Displacement amplitude exceeds what the working space can absorb."""


class SqueezeTooLarge(RabiError):
    """Squeeze parameter beyond the supported |gamma| <= 2 range."""


class EigDecompositionFailure(RabiError):
    """An eigen-solve did not converge, or its result could not be certified."""


class NotConverged(RabiError):
    """A sweep point's ground-state search exhausted its dimension budget."""


class OptimizerStalled(RabiError):
    """No start of a sweep point's trial-energy search converged within its budget."""


class SectorRequired(RabiError):
    """A parity sector label is needed but none was given or inferable."""


class ConfigError(RabiError):
    """Invalid command-line or config-file input."""
