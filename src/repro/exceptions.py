"""Exception hierarchy for the AIR reproduction library.

All library-raised exceptions derive from :class:`AirError`, so callers can
catch one type to handle any library failure.  Subsystems raise the most
specific subclass that applies; exception messages always name the offending
entity (partition, process, schedule, address) to ease integration debugging,
in the spirit of the paper's emphasis on verifiable integration (Sect. 3).
"""

from __future__ import annotations


class AirError(Exception):
    """Base class for all errors raised by the AIR reproduction library."""


class ConfigurationError(AirError):
    """Invalid integration-time configuration (malformed, inconsistent)."""


class ValidationError(ConfigurationError):
    """A system model failed offline verification (eqs. (20)-(23))."""


class SchedulingError(AirError):
    """Runtime partition or process scheduling invariant violation."""


class UnknownScheduleError(SchedulingError):
    """A schedule switch named a partition scheduling table that does not exist."""


class UnknownPartitionError(AirError):
    """An operation referenced a partition absent from the system."""


class UnknownProcessError(AirError):
    """An operation referenced a process absent from its partition."""


class ApexError(AirError):
    """An APEX service invocation failed in a way that maps to no return code."""


class AuthorizationError(ApexError):
    """A partition invoked a service reserved for authorized/system partitions."""


class SpatialViolationError(AirError):
    """A memory access crossed a partition's addressing-space boundary.

    Raised by the simulated MMU when an access fails the descriptor check;
    normally intercepted by the PMK and routed to Health Monitoring rather
    than propagated to application code.
    """

    def __init__(self, message: str, *, partition: str, address: int,
                 access: str) -> None:
        super().__init__(message)
        self.partition = partition
        self.address = address
        self.access = access


class ClockTamperingError(AirError):
    """A guest OS attempted to disable or divert the system clock (Sect. 2.5)."""

    def __init__(self, message: str, *, partition: str, operation: str) -> None:
        super().__init__(message)
        self.partition = partition
        self.operation = operation


class HealthMonitorError(AirError):
    """The Health Monitor could not classify or handle an error event."""


class SimulationError(AirError):
    """The simulator reached an inconsistent state (library bug or misuse)."""


class SnapshotSchemaError(SimulationError):
    """A ``snapshot()`` capture disagrees with its declared schema: a key
    without a declaration, or a value whose shape the declaration rules
    out (see :mod:`repro.kernel.snapshot_schema`)."""


class ProcessFaultError(AirError):
    """An application process body raised an unhandled exception."""

    def __init__(self, message: str, *, partition: str, process: str,
                 cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.partition = partition
        self.process = process
        self.cause = cause
