"""Client bindings for the serve gateway: blocking and asyncio.

Both speak the frame protocol of :mod:`repro.serve.frames`.  Because
``TaskDone`` completions stream back interleaved with ``SubmitReply``
verdicts, each client demultiplexes its socket on a single reader
(thread or asyncio task) into two ordered queues: replies — exactly one
per submit, in submit order — and completions.  ``submit`` is therefore
synchronous-feeling (send, wait for the verdict) while completions are
consumed independently via ``next_done``.
"""

from __future__ import annotations

import queue as _queue
import socket
import threading
from typing import Optional

from repro.errors import ServeError
from repro.serve.frames import (
    ClientHello,
    ServerHello,
    SubmitReply,
    SubmitTask,
    TaskDone,
    no_delay,
    read_frame_async,
    recv_frame,
    send_frame,
)

__all__ = ["Client", "AsyncClient"]

_CLOSED = object()  # queue sentinel: the reader saw EOF (or died)


class Client:
    """Blocking gateway client: one socket, one demux reader thread.

    Thread-safety: ``submit`` may be called from one thread at a time
    (replies are matched to submits by order); ``next_done`` may run
    concurrently from another thread.
    """

    def __init__(self, host: str, port: int, client: str = "client") -> None:
        self._sock = no_delay(socket.create_connection((host, port)))
        self._send_lock = threading.Lock()
        self._replies: _queue.Queue = _queue.Queue()
        self._done: _queue.Queue = _queue.Queue()
        self._closed = False
        send_frame(self._sock, ClientHello(client=client))
        hello = recv_frame(self._sock)
        if not isinstance(hello, ServerHello):
            raise ServeError(
                f"expected ServerHello, got {type(hello).__name__}"
            )
        #: the deployment shape the gateway announced
        self.hello: ServerHello = hello
        self._reader = threading.Thread(
            target=self._read_loop, name="serve-client-reader", daemon=True
        )
        self._reader.start()

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    # ---------------------------------------------------------------- traffic
    def submit(self, task) -> SubmitReply:
        """Submit one task; blocks for the gateway's admission verdict."""
        with self._send_lock:
            send_frame(self._sock, SubmitTask(task=task))
        reply = self._replies.get()
        if reply is _CLOSED:
            raise ServeError("gateway closed the connection before replying")
        return reply

    def next_done(self, timeout: Optional[float] = None) -> Optional[TaskDone]:
        """Next streamed completion; ``None`` on timeout or closed peer."""
        try:
            done = self._done.get(timeout=timeout)
        except _queue.Empty:
            return None
        return None if done is _CLOSED else done

    def collect_done(self, count: int, timeout: float) -> list[TaskDone]:
        """Up to ``count`` completions within ``timeout`` wall seconds."""
        import time

        deadline = time.monotonic() + timeout
        out: list[TaskDone] = []
        while len(out) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            done = self.next_done(timeout=remaining)
            if done is None:
                break
            out.append(done)
        return out

    # ------------------------------------------------------------------ demux
    def _read_loop(self) -> None:
        try:
            while True:
                frame = recv_frame(self._sock)
                if frame is None:
                    break
                if isinstance(frame, SubmitReply):
                    self._replies.put(frame)
                elif isinstance(frame, TaskDone):
                    self._done.put(frame)
                else:
                    raise ServeError(
                        f"unexpected frame from gateway: "
                        f"{type(frame).__name__}"
                    )
        except (ServeError, OSError):
            pass
        finally:
            self._replies.put(_CLOSED)
            self._done.put(_CLOSED)


class AsyncClient:
    """Asyncio gateway client; build with :meth:`connect`.

    Same demux contract as :class:`Client`: ``submit`` resolves with the
    in-order admission verdict, ``next_done`` with streamed completions.
    """

    def __init__(self, reader, writer, hello: ServerHello) -> None:
        import asyncio

        self._reader = reader
        self._writer = writer
        self.hello = hello
        self._replies: asyncio.Queue = asyncio.Queue()
        self._done: asyncio.Queue = asyncio.Queue()
        self._pump = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str, port: int, client: str = "client"
    ) -> "AsyncClient":
        import asyncio

        from repro.serve.frames import pack_frame

        # asyncio already sets TCP_NODELAY on every TCP transport
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(pack_frame(ClientHello(client=client)))
        await writer.drain()
        hello = await read_frame_async(reader)
        if not isinstance(hello, ServerHello):
            writer.close()
            raise ServeError(
                f"expected ServerHello, got {type(hello).__name__}"
            )
        return cls(reader, writer, hello)

    async def close(self) -> None:
        self._pump.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, ConnectionError):
            pass

    async def submit(self, task) -> SubmitReply:
        from repro.serve.frames import pack_frame

        self._writer.write(pack_frame(SubmitTask(task=task)))
        await self._writer.drain()
        reply = await self._replies.get()
        if reply is _CLOSED:
            raise ServeError("gateway closed the connection before replying")
        return reply

    async def next_done(self) -> Optional[TaskDone]:
        done = await self._done.get()
        return None if done is _CLOSED else done

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await read_frame_async(self._reader)
                if frame is None:
                    break
                if isinstance(frame, SubmitReply):
                    await self._replies.put(frame)
                elif isinstance(frame, TaskDone):
                    await self._done.put(frame)
                else:
                    raise ServeError(
                        f"unexpected frame from gateway: "
                        f"{type(frame).__name__}"
                    )
        except (ServeError, OSError):
            pass
        finally:
            self._replies.put_nowait(_CLOSED)
            self._done.put_nowait(_CLOSED)
