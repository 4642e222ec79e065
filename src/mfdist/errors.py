"""Exception types shared across the package."""


class MfdistError(Exception):
    """Base class for package-specific failures."""


class BudgetExhaustedError(MfdistError):
    """The budget cannot cover even the mandatory sampling (e.g. initial exploration)."""


class InfeasibleExploitationError(MfdistError):
    """No exploitation samples are affordable after exploration spent the budget."""


class InsufficientSampleError(MfdistError, ValueError):
    """Too few atoms/rows to compute the requested statistic or fit."""


class QuantileSolverError(MfdistError, RuntimeError):
    """The quantile basis walk exceeded its pivot cap or found the objective unbounded."""


class TableParseError(MfdistError, ValueError):
    """A sample table file is malformed; the message carries the row/column location."""


class ConfigError(MfdistError, ValueError):
    """An experiment or suite configuration is invalid (unknown keys, bad values)."""


class PolicyError(MfdistError, RuntimeError):
    """The adaptive policy reached a state it cannot act from."""
