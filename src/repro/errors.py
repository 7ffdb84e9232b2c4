"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without accidentally swallowing unrelated
bugs.  Sub-hierarchies mirror the package layout: database errors, SQL
errors, fitting errors and model-harvesting errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Database substrate
# ---------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for errors raised by the relational engine."""


class CatalogError(DatabaseError):
    """A table, column or other catalog object is missing or duplicated."""


class SchemaError(DatabaseError):
    """A schema definition is inconsistent (bad type, duplicate column, ...)."""


class TypeMismatchError(DatabaseError):
    """A value does not match the declared column type."""


class ExecutionError(DatabaseError):
    """Runtime failure while executing a query plan."""


# ---------------------------------------------------------------------------
# SQL front-end
# ---------------------------------------------------------------------------


class SQLError(DatabaseError):
    """Base class for SQL front-end failures."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenised or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SQLPlanningError(SQLError):
    """The parsed statement cannot be turned into an executable plan."""


class UnsupportedSQLError(SQLError):
    """The statement uses a SQL feature outside the supported subset."""


# ---------------------------------------------------------------------------
# Model fitting
# ---------------------------------------------------------------------------


class FittingError(ReproError):
    """Base class for model-fitting failures."""


class ConvergenceError(FittingError):
    """An iterative optimiser did not converge within its iteration budget."""

    def __init__(self, message: str, iterations: int | None = None) -> None:
        self.iterations = iterations
        super().__init__(message)


class InsufficientDataError(FittingError):
    """Fewer observations than free parameters (or empty input)."""


class FormulaError(FittingError):
    """A model formula string could not be parsed."""


# ---------------------------------------------------------------------------
# Model harvesting / approximate query answering
# ---------------------------------------------------------------------------


class HarvestError(ReproError):
    """Base class for model-capture failures."""


class ModelNotFoundError(HarvestError):
    """No captured model covers the requested table/columns/predicate."""


class ApproximationError(ReproError):
    """An approximate query could not be answered from captured models."""


class EnumerationError(ApproximationError):
    """A required input column is not enumerable, so tuples cannot be regenerated."""


class CompressionError(ReproError):
    """Model-based compression or decompression failed."""


# ---------------------------------------------------------------------------
# Streaming ingestion / online maintenance
# ---------------------------------------------------------------------------


class StreamingError(ReproError):
    """Base class for streaming-ingestion and model-maintenance failures."""


class DriftMonitorError(StreamingError):
    """A drift monitor could not be created or fed (e.g. no servable model)."""


# ---------------------------------------------------------------------------
# Durable storage / model warehouse
# ---------------------------------------------------------------------------


class PersistenceError(ReproError):
    """Base class for durable-storage failures (snapshots, WAL, warehouse)."""


class FormatVersionError(PersistenceError):
    """An on-disk artefact was written by a newer, incompatible format."""


class ArchiveError(PersistenceError):
    """The model-only archive tier could not archive or recall segments."""


class StorageIOError(PersistenceError):
    """An OS-level IO failure against a durable artefact.

    Wraps the bare :class:`OSError` raised by the filesystem so that callers
    above the persist layer only ever see typed ``repro`` exceptions.  The
    failing artefact path is carried both in the message and as ``path``.
    """

    def __init__(self, message: str, *, path: str | None = None, errno_code: int | None = None) -> None:
        self.path = path
        self.errno_code = errno_code
        super().__init__(message)


class SnapshotReadError(StorageIOError):
    """A snapshot segment could not be read back (missing, torn or corrupt)."""


class SnapshotWriteError(StorageIOError):
    """A snapshot segment could not be written durably."""


class WALError(StorageIOError):
    """The write-ahead log could not be appended to, reset or replayed."""


class ManifestError(PersistenceError):
    """The checkpoint manifest is unreadable or structurally invalid.

    The manifest is the recovery pivot: without it the store cannot know
    which checkpoint is current, so this error is deliberately fail-stop
    rather than quarantined (quarantining the manifest would present the
    whole database as empty).
    """

    def __init__(self, message: str, *, path: str | None = None) -> None:
        self.path = path
        super().__init__(message)


class WarehouseError(PersistenceError):
    """The model warehouse JSON is unreadable or an entry cannot be decoded."""

    def __init__(self, message: str, *, path: str | None = None) -> None:
        self.path = path
        super().__init__(message)


# ---------------------------------------------------------------------------
# Resilience runtime (fault injection, retry, quarantine, degradation)
# ---------------------------------------------------------------------------


class ResilienceError(ReproError):
    """Base class for resilience-runtime failures."""


class InjectedFault(ResilienceError):
    """An exception storm raised by the fault injector at a named fault point.

    Only ever raised when a :class:`~repro.resilience.FaultInjector` is
    explicitly armed; production code treats it like any other component
    failure (retry, quarantine or degrade).
    """

    def __init__(self, message: str, *, point: str = "", hit: int = 0) -> None:
        self.point = point
        self.hit = hit
        super().__init__(message)


class DegradedServiceError(ResilienceError):
    """A query needs an artefact that is quarantined or failed.

    Raised by the planner when no surviving model can honestly answer a
    query whose exact route depends on a failed component.  ``component``
    names the failed component and ``reason`` carries the quarantine
    reason recorded when it was moved aside.
    """

    def __init__(self, message: str, *, component: str = "", reason: str = "") -> None:
        self.component = component
        self.reason = reason
        super().__init__(message)
