"""Exception classes shared across the package; :func:`tagged`, which
names where an error came from; and :func:`not_utf8`, which names the line
of a text file's first byte that is not UTF-8.

Everything derives from both :class:`PaddymoistError` and :class:`ValueError`
so callers can catch broadly or by error class; the CLI maps classes to exit
codes.
"""

from contextlib import contextmanager


@contextmanager
def tagged(tag: str):
    """Tag any failure inside with ``tag``: a pipeline stage, or a file.

    The original exception object is re-raised, so its type and attributes
    (an OSError's errno and filename, say) survive.  When the message is the
    exception's only argument, ``tag`` is prefixed to it in place; any other
    exception, such as an OSError whose text is built from errno and
    filename, keeps its arguments and carries the tag as ``stage_tag``,
    which the CLI prints before the message.
    """
    try:
        yield
    except Exception as exc:
        if exc.args == (str(exc),):
            exc.args = (f"{tag} {exc}",)
        else:
            exc.stage_tag = tag
        raise


def not_utf8(path) -> str:
    """What is wrong with ``path``, a file that is not UTF-8: the line of its
    first byte that is not.  A text reader decodes a block at a time, so
    its error does not tell."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]  # lines end as csv and text mode end them: \n, \r\n or \r
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        return f"line {line}: byte {data[exc.start]:#04x} is not UTF-8"
    return "not UTF-8"  # the file changed since it failed to decode


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
