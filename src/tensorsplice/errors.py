"""Exception types shared across the package."""


class TensorSpliceError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(TensorSpliceError):
    """Two tensors or blocks disagree on their number of modes."""


class DegenerateBlock(TensorSpliceError):
    """A non-empty block was required (density of a size-0 block is undefined)."""


class PreconditionViolated(TensorSpliceError):
    """Caller broke an ordering requirement, e.g. splice target less dense."""


class OutOfOrderSlice(TensorSpliceError):
    """A slice arrived whose window does not continue the engine frontier."""


class _LineError(TensorSpliceError):
    """An error that may know the 1-based input line it arose on."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class TimeRegression(_LineError):
    """An event's time bin precedes data that was already processed."""


class IngestError(_LineError):
    """Line-level ingestion failure; remembers the 1-based line number."""


class MalformedLine(IngestError):
    """A line does not have the configured columns."""


class BadTimestamp(IngestError):
    """A timestamp field could not be parsed or precedes the stream origin."""


class NegativeValue(IngestError):
    """A value field is negative."""


class ConfigError(TensorSpliceError, ValueError):
    """Invalid run configuration (CLI exit code 3); also a ``ValueError``."""


class DensityInfeasible(ConfigError):
    """An injection spec that cannot be generated: too many distinct cells
    for its volume, none at all, or a span, shape or mode it cannot plant."""
