"""Exception hierarchy for the :mod:`repro` library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class.  Sub-classes separate the three broad failure domains:
configuration mistakes, numerical/shape problems inside the neural-network
substrate, and infeasible hardware mappings.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid arguments."""


class ShapeError(ReproError):
    """Tensor shapes are inconsistent for the requested operation."""


class GradientError(ReproError):
    """Backward pass invoked in an invalid state (e.g. no grad required)."""


class QuantizationError(ReproError):
    """A quantizer received values or settings it cannot represent."""


class HardwareModelError(ReproError):
    """A hardware mapping is infeasible (e.g. design exceeds the budget)."""


class DataError(ReproError):
    """A dataset or loader was asked for something it cannot provide."""


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or verified.

    Raised for torn/corrupt archives (bad zip, truncated payload, checksum
    mismatch), metadata that does not match the model being restored, and
    checkpoint stores with no valid generation left to fall back to.
    """


class TrainingDivergedError(ReproError):
    """Training diverged and exhausted its rollback/LR-reduction budget."""


class CompileError(ReproError):
    """A model could not be compiled into an inference execution plan."""


class StalePlanError(ReproError):
    """A compiled plan's cached weights no longer match the source model."""


class ParityError(ReproError):
    """Two execution paths that must agree (e.g. compiled engine vs eager
    evaluation, fast-path vs eager training) produced different results."""


class ServeError(ReproError):
    """Base class for failures in the model-serving layer (:mod:`repro.serve`)."""


class QueueFullError(ServeError):
    """A request was shed because the serving queue hit its high-water mark."""


class DeadlineExceededError(ServeError):
    """A request's deadline expired before (or while) it could be served."""


class ServerClosedError(ServeError):
    """A request arrived at a batcher/server that is stopping or stopped."""


class UnknownModelError(ServeError):
    """A request named a model that is not registered with the server."""


class RetriesExhaustedError(ServeError):
    """A client request failed on every retry attempt (transport-level)."""


class SharedMemoryError(ReproError):
    """A shared-memory payload could not be published, attached, or verified.

    Raised for missing segments and for checksum mismatches on attach (a
    corrupted or torn shared-memory plan must never be served from).
    """


class ClusterError(ServeError):
    """Base class for failures in the multi-process serving tier
    (:mod:`repro.serve.cluster`)."""


class WorkerCrashedError(ClusterError):
    """A request was lost to worker crashes more times than the cluster's
    re-dispatch budget allows."""


class CircuitOpenError(ClusterError):
    """A model's circuit breaker is open: its worker pool exhausted the
    restart budget and requests are rejected until a half-open probe
    succeeds."""
