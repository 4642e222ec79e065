"""Exception types shared across the package."""


class MfdistError(Exception):
    """Base class for package-specific failures."""


class CellError(MfdistError):
    """A numerical failure the harness tags on its cell's row; any other error aborts the run."""


class BudgetExhaustedError(CellError):
    """The budget cannot cover even the mandatory sampling (e.g. initial exploration)."""


class InfeasibleExploitationError(CellError):
    """No exploitation samples are affordable after exploration spent the budget."""


class InsufficientSampleError(CellError, ValueError):
    """Too few atoms/rows to compute the requested statistic or fit."""


class QuantileSolverError(CellError, RuntimeError):
    """The quantile basis walk exceeded its pivot cap or found the objective unbounded."""


class TableParseError(MfdistError, ValueError):
    """A sample table file is malformed; the message carries the row/column location."""


class ConfigError(MfdistError, ValueError):
    """An experiment or suite configuration is invalid (unknown keys, bad values)."""


class PolicyError(CellError, RuntimeError):
    """The adaptive policy reached a state it cannot act from."""
