"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SequenceError",
    "ParseError",
    "ConfigError",
    "SketchError",
    "MappingError",
    "IndexCorruptError",
    "CommError",
    "FaultError",
    "PartialResultError",
    "CheckpointError",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadError",
    "DeadlineExceededError",
    "AssemblyError",
    "DatasetError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SequenceError(ReproError):
    """Invalid sequence data (bad characters, empty input, bad lengths)."""


class ParseError(ReproError):
    """Malformed FASTA/FASTQ or other on-disk format."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        location = ""
        if path is not None:
            location += f"{path}"
        if line is not None:
            location += f":{line}"
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class ConfigError(ReproError):
    """Invalid configuration parameter combination."""


class SketchError(ReproError):
    """Failure while building or querying sketches."""


class MappingError(ReproError):
    """Failure in the mapping stage."""


class IndexCorruptError(MappingError):
    """A persisted index bundle is truncated, bit-rotted, or hand-edited.

    ``offset`` is the byte position in the file where reading first went
    wrong (best effort: the truncation point for short files, the bad zip
    member's header offset for payload corruption, ``None`` when the
    failure cannot be localised).  Subclasses :class:`MappingError` so
    existing corruption handling keeps working.
    """

    def __init__(self, message: str, *, path: str | None = None, offset: int | None = None):
        super().__init__(message)
        self.path = path
        self.offset = offset


class CommError(ReproError):
    """A bad rank count or cost constant, or a vanished shared segment, in the
    parallel layer."""


class FaultError(ReproError):
    """A (possibly injected) fault hit a parallel work unit.

    Raised by the fault-injection hooks and by the recovery machinery when
    a work unit exhausts its retry budget.  The ``__cause__`` chain keeps
    the root fault visible through the retry wrapper.
    """


class PartialResultError(ReproError):
    """Strict-mode signal that part of the query set could not be mapped.

    ``failed_reads`` names the reads whose blocks were lost; the
    worker-process backend, called with ``strict=False``, returns the same
    information as a :class:`~repro.parallel.faults.PartialResult` instead.
    """

    def __init__(self, message: str, *, failed_reads: tuple[str, ...] = ()):
        super().__init__(message)
        self.failed_reads = tuple(failed_reads)


class CheckpointError(ReproError):
    """A checkpointed run cannot start, continue, or resume.

    Raised when a run directory's manifest disagrees with the requested
    configuration or inputs (resuming would silently mix incompatible
    results), or when the checkpoint structures are misused.
    """


class ServiceError(ReproError):
    """Failure inside the long-lived mapping service."""


class ServiceClosedError(ServiceError):
    """A request arrived after the service began draining or shut down."""


class ServiceOverloadError(ServiceError):
    """Admission control rejected a request because the queue is full.

    ``retry_after`` is the service's estimate (seconds) of when capacity
    will free up, suitable for a Retry-After style client backoff.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before its batch was dispatched.

    The service sheds such requests instead of mapping them: the caller
    has already given up, so computing the answer would only steal
    capacity from requests that can still meet their deadlines.
    ``elapsed`` is how long the request had been queued when it was shed.
    """

    def __init__(self, message: str, *, elapsed: float = 0.0):
        super().__init__(message)
        self.elapsed = float(elapsed)


class AssemblyError(ReproError):
    """Failure inside the de Bruijn graph assembler."""


class DatasetError(ReproError):
    """Unknown dataset name or inconsistent dataset artifacts."""
