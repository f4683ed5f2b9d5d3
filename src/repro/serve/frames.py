"""Wire framing for the serve gateway: length-prefixed codec JSON.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 codec JSON (:mod:`repro.runtime.codec` — the same tagged
encoding every other process boundary in the system uses, so a
:class:`~repro.core.tasks.Task` crosses the client socket in exactly
the form it later crosses the parent→child control pipes).  Frames are bounded
by :data:`MAX_FRAME`; a peer announcing a larger payload is cut off
before a byte of it is read, and a connection that dies mid-frame
raises :class:`~repro.errors.ServeError` rather than yielding a
half-decoded value.

Conversation shape (client-initiated):

1. ``ClientHello`` → ``ServerHello`` (deployment shape + time scale);
2. any number of ``SubmitTask`` → ``SubmitReply`` exchanges, each reply
   carrying the gateway's admission verdict (:data:`ADMITTED` /
   :data:`DEFERRED` / :data:`REJECTED`) and the ingress queue depth;
3. ``TaskDone`` frames stream back asynchronously, interleaved with
   replies, as the output processes commit the client's tasks.

Every served TCP socket goes through :func:`no_delay`.  Each frame is
one ``sendall``, so Nagle's algorithm has nothing to coalesce; all it
would do is hold a small ``TaskDone`` behind a ``SubmitReply`` the peer
has not acknowledged yet, for as long as the peer's delayed-ACK timer
runs (up to 40 ms on Linux).
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.admission import ADMITTED, DEFERRED, REJECTED
from repro.errors import ServeError
from repro.runtime import codec

__all__ = [
    "ADMITTED",
    "DEFERRED",
    "REJECTED",
    "MAX_FRAME",
    "ClientHello",
    "ServerHello",
    "SubmitTask",
    "SubmitReply",
    "TaskDone",
    "register_frames",
    "no_delay",
    "pack_frame",
    "unpack_payload",
    "send_frame",
    "recv_frame",
    "read_frame_async",
]

#: Hard ceiling on one frame's payload (bytes).  Tasks are small — the
#: bound exists so a corrupt or hostile length prefix cannot make the
#: gateway allocate gigabytes.
MAX_FRAME = 1 << 20

_HEADER = struct.Struct(">I")


# ------------------------------------------------------------ frame types
@dataclass(slots=True)
class ClientHello:
    """First frame on every connection: identify the client."""

    client: str = "client"


@dataclass(slots=True)
class ServerHello:
    """Gateway's reply to :class:`ClientHello`: the deployment shape.

    ``time_scale`` lets the client convert wall-clock observations into
    simulated seconds (one sim second takes ``time_scale`` wall
    seconds), making client-side latency numbers comparable with
    DES-side SLO fields.
    """

    gateway: str
    n: int
    shards: int
    time_scale: float


@dataclass(slots=True)
class SubmitTask:
    """Client → gateway: one task for admission."""

    task: Any = None


@dataclass(slots=True)
class SubmitReply:
    """Gateway → client: the admission verdict for one submitted task.

    ``status`` is :data:`ADMITTED`, :data:`DEFERRED` (queued behind the
    drain rate — the task is still in flight) or :data:`REJECTED`
    (ingress queue full; the task was shed and will never complete).
    ``queue_depth`` is the gateway ingress queue occupancy after the
    verdict — the client's backpressure signal.
    """

    task_id: str
    status: str
    queue_depth: int = 0


@dataclass(slots=True)
class TaskDone:
    """Gateway → client: one of this client's tasks committed.

    ``completed_at``/``submitted_at`` are simulated seconds (OP outcome
    time and IP ingress time); the pipeline latency the *cluster*
    observed is their difference, while the client's own wall clock
    gives the end-to-end client-observed latency.
    """

    task_id: str
    tenant: str
    completed_at: float
    submitted_at: float


_FRAMES = (ClientHello, ServerHello, SubmitTask, SubmitReply, TaskDone)


def register_frames() -> None:
    """Install the frame vocabulary in the codec registry (idempotent)."""
    codec.register(*_FRAMES)


# ---------------------------------------------------------------- framing
def pack_frame(value: Any) -> bytes:
    """One wire frame: 4-byte big-endian length + codec-JSON payload."""
    register_frames()
    payload = codec.encode_json(value).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ServeError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte frame ceiling"
        )
    return _HEADER.pack(len(payload)) + payload


def unpack_payload(payload: bytes) -> Any:
    """Decode one frame payload (the bytes after the length prefix)."""
    register_frames()
    try:
        return codec.decode_json(payload.decode("utf-8"))
    except Exception as exc:
        raise ServeError(f"undecodable frame payload: {exc}") from exc


def _recv_exactly(sock: socket.socket, n: int, what: str) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on clean EOF *before* the
    first byte, :class:`ServeError` on EOF mid-read (truncated frame)."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ServeError(
                f"connection closed mid-frame ({got}/{n} bytes of {what})"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def no_delay(sock: socket.socket) -> socket.socket:
    """Make ``sock`` send every frame as soon as it is written
    (``TCP_NODELAY``); returns the socket."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def send_frame(sock: socket.socket, value: Any) -> None:
    sock.sendall(pack_frame(value))


def recv_frame(sock: socket.socket) -> Optional[Any]:
    """Read one frame; ``None`` when the peer closed at a frame boundary."""
    header = _recv_exactly(sock, _HEADER.size, "header")
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ServeError(
            f"peer announced a {length}-byte frame "
            f"(ceiling is {MAX_FRAME} bytes)"
        )
    payload = _recv_exactly(sock, length, "payload") if length else b""
    if payload is None:
        raise ServeError("connection closed mid-frame (0 payload bytes)")
    return unpack_payload(payload)


async def read_frame_async(reader) -> Optional[Any]:
    """Asyncio flavour of :func:`recv_frame` over a ``StreamReader``."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServeError(
            f"connection closed mid-frame "
            f"({len(exc.partial)}/{_HEADER.size} bytes of header)"
        ) from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ServeError(
            f"peer announced a {length}-byte frame "
            f"(ceiling is {MAX_FRAME} bytes)"
        )
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ServeError(
            f"connection closed mid-frame "
            f"({len(exc.partial)}/{length} bytes of payload)"
        ) from exc
    return unpack_payload(payload)
