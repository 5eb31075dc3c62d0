"""Typed exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors
(``TypeError``/``ValueError`` raised by NumPy, etc. still propagate as-is
unless they stem from invalid *library* configuration, in which case they
are translated into one of the classes below).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """Invalid parameters for a placement, code, or experiment.

    Raised eagerly at construction time (never mid-training) so that a
    misconfigured run fails fast.
    """


class PlacementError(ConfigurationError):
    """Invalid placement parameters (e.g. FR with ``c`` not dividing ``n``)."""


class CodingError(ReproError):
    """Failure while encoding or decoding gradient payloads."""


class DecodeError(CodingError):
    """The master could not decode anything from the available workers
    (an empty or malformed survivor set included)."""


class SimulationError(ReproError):
    """Inconsistent state inside the discrete-event cluster simulator."""


class TrainingError(ReproError):
    """Failure inside the distributed-training driver."""


class ObservabilityError(ReproError):
    """Invalid use of the metrics/tracing layer, or a malformed trace."""


class ServeError(ReproError):
    """Invalid use of the multi-job coordinator (:mod:`repro.serve`).

    Admission rejections, submissions to a stopped coordinator, and
    malformed mailbox payloads all raise this; per-job *outcomes*
    (failure, cancellation) surface as the dedicated
    :class:`repro.serve.JobFailedError` / :class:`repro.serve.JobCancelledError`
    subclasses when a client awaits the job's result.
    """


class AdmissionError(ServeError):
    """A structurally valid submission was refused at admission control.

    Carries the structured context the coordinator publishes to
    ``rejected/`` so clients can make an informed retry decision
    instead of string-matching the message.

    Attributes
    ----------
    reason:
        Machine-readable cause, e.g. ``"queue_limit"``.
    queue_depth:
        Non-terminal jobs the coordinator held at rejection time.
    queue_limit:
        The coordinator's admission bound.
    retry_hint:
        Human-readable guidance (when resubmission can succeed).
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "queue_limit",
        queue_depth: int | None = None,
        queue_limit: int | None = None,
        retry_hint: str = "",
    ):
        super().__init__(message)
        self.reason = reason
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit
        self.retry_hint = retry_hint

    def details(self) -> dict:
        """The structured rejection payload (JSON-ready)."""
        payload: dict = {"reason": self.reason}
        if self.queue_depth is not None:
            payload["queue_depth"] = self.queue_depth
        if self.queue_limit is not None:
            payload["queue_limit"] = self.queue_limit
        if self.retry_hint:
            payload["retry_hint"] = self.retry_hint
        return payload


class SubmissionRejectedError(ServeError):
    """A mailbox submission landed in ``rejected/``.

    Raised by :meth:`repro.serve.CoordinatorClient.wait` (and by
    ``submit`` on a job id that was already rejected); carries the
    rejection record so callers can read ``reason``/``retry_hint``
    without re-opening the mailbox.
    """

    def __init__(self, message: str, *, record: dict | None = None):
        super().__init__(message)
        self.record = record if record is not None else {}

    @property
    def reason(self) -> str:
        """The machine-readable rejection reason (may be empty)."""
        return str(self.record.get("reason", ""))

    @property
    def retry_hint(self) -> str:
        """Guidance on whether/when resubmission can succeed."""
        return str(self.record.get("retry_hint", ""))
