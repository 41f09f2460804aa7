"""Exception classes shared across the package.

Everything derives from both :class:`PaddymoistError` and :class:`ValueError`
so callers can catch broadly or by error class; the CLI maps classes to exit
codes.
"""


class PaddymoistError(ValueError):
    """Base class for all package-specific errors."""


class DimensionError(PaddymoistError):
    """Sequence or matrix sizes do not match the declared topology."""


class InsufficientHistoryError(PaddymoistError):
    """Too few observations to build lagged training patterns."""


class OutOfSeasonError(PaddymoistError):
    """Day index falls outside the crop season covered by the schedule."""


class UndefinedMetricError(PaddymoistError):
    """Metric is undefined for the given series (e.g. constant observations)."""


class DataFormatError(PaddymoistError):
    """Malformed CSV or configuration input."""


class ScheduleMismatchError(DataFormatError):
    """Crop-stage lengths do not add up to the season's length of data."""


class OrderingError(DataFormatError):
    """Records are not in strictly increasing timestamp order."""


class ArtifactError(PaddymoistError):
    """Base class for model artifact problems."""


class ArtifactParseError(ArtifactError):
    """Model artifact file is malformed."""


class ArtifactVersionError(ArtifactError):
    """Model artifact declares an unsupported format version."""
