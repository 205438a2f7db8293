"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: configuration and usage
problems exit 1, data problems exit 2, numeric failures exit 3.
"""


class PrognosticsError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PrognosticsError):
    """Invalid configuration value (bad hyperparameter, unknown key, ...)."""


class UsageError(PrognosticsError):
    """Command line misuse; carries a one-line remedy."""


class DataError(PrognosticsError):
    """Problem with input data or data files."""


class EmptyDatasetError(DataError):
    """No usable records found."""


class ParseError(DataError):
    """Malformed text input; message names the offending line or row."""


class ValidationError(DataError):
    """Structurally valid input violating a semantic requirement."""


class GapTooLargeError(DataError):
    """A run of missing values exceeds the interpolation limit."""


class ConstantSeriesError(DataError):
    """min == max, so the normalization denominator would be zero."""


class InsufficientDataError(DataError):
    """Series too short for the requested windowing or split."""


class ModelFormatError(DataError):
    """Model file does not start with the expected magic line."""


class ModelVersionError(DataError):
    """Model file declares an unsupported format version."""


class ModelCorruptionError(DataError):
    """Model file is truncated or internally inconsistent."""


class NumericError(PrognosticsError):
    """Numeric failure during training or checking."""


class TrainingDivergedError(NumericError):
    """Loss became non-finite; carries the report up to the last good epoch."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class GradientError(NumericError):
    """A gradient block became non-finite; message names the block."""


class ContractError(PrognosticsError):
    """API misuse, e.g. a backward pass fed a cache from other parameters."""
