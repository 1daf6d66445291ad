"""Exception types shared across the package, and the check of a count argument."""
import numbers


class DistcorrError(Exception):
    """Base class for all package-specific errors."""


class DataQualityError(DistcorrError):
    """Raised when sample data contains non-finite or otherwise unusable values."""


class DimensionMismatchError(DistcorrError):
    """Raised when two samples have incompatible observation counts."""


class DegenerateVarianceError(DistcorrError):
    """Raised when Pearson correlation is requested for a constant sample."""


class UsageError(DistcorrError, ValueError):
    """Raised for an invalid argument: an unknown scenario, an out-of-range parameter."""


def check_count(name: str, value, least: int = 1) -> None:
    """Raise UsageError unless ``value``, not a bool, is a whole number >= ``least``: 1, 0 for a seed, 2 for n."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(least, f"an integer of at least {least}")
        raise UsageError(f"{name} must be {kind}, got {value!r}")


class DataFormatError(DistcorrError):
    """Raised for malformed input files: ragged rows, bad cells, missing values."""


class ConvergenceError(DistcorrError):
    """Quadrature failed to reach its tolerance within the panel budget.

    Carries the best available estimate and its error bar so callers can
    still inspect the result.
    """

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
