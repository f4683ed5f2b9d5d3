"""Exception hierarchy for the OsirisBFT reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel was used incorrectly."""


class NetworkError(ReproError):
    """Invalid use of the simulated network (unknown node, bad payload...)."""


class CryptoError(ReproError):
    """Signature/digest failures that indicate incorrect *library* use.

    Note: a signature that fails to *verify* is not an error — it is a
    legitimate runtime outcome the protocols must handle — so verification
    returns ``False`` rather than raising.  This exception covers misuse,
    e.g. signing with an unregistered key.
    """


class ConsensusError(ReproError):
    """Protocol-violating use of the consensus module by local code."""


class StoreError(ReproError):
    """Multiversioned store misuse (e.g. non-monotonic update timestamps)."""


class ProtocolError(ReproError):
    """A *correct* process detected an internal invariant violation.

    Byzantine behaviour from remote processes never raises — it is handled
    by the verification protocols.  ``ProtocolError`` signals a bug in local
    protocol state, and is used liberally in assertions guarding invariants.
    """


class ApplicationError(ReproError):
    """An application implementation violated the verifiable-application API."""


class BenchmarkError(ReproError):
    """Benchmark harness misconfiguration."""


class ObservabilityError(ReproError):
    """Invalid use of the trace-event bus or one of its sinks."""


class AdversaryError(ReproError):
    """Malformed adversary campaign (unknown selector, fault kind, trigger
    event, unserializable parameter) or invalid use of the campaign engine."""


class ReplayError(ReproError):
    """A captured inbox log cannot be replayed against the given core
    (missing continuation, malformed log line, undecodable message)."""


class LiveError(ReproError):
    """Live OS-process backend failure: a child died, failed its
    ready/start handshake or stopped reading its control pipe, a pipe
    hop carried an undecodable payload, or the deployment requests a
    feature the live backend cannot host (trigger campaigns, replay
    capture)."""


class ServeError(ReproError):
    """Serving-gateway failure: a malformed, truncated or oversized
    client frame, a protocol violation on a client connection (submit
    before hello, unexpected frame type), or invalid use of the gateway
    lifecycle."""
