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
    """Ground-state search exhausted its dimension budget.

    Carries the best-effort solution (with ``converged=False``) so callers
    can still inspect it.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class OptimizerStalled(RabiError):
    """Trial-energy minimizer hit its evaluation budget before converging.

    Carries the best result found so far.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class SectorRequired(RabiError):
    """A parity sector label is needed but none was given or inferable."""


class ConfigError(RabiError):
    """Invalid command-line or config-file input."""
