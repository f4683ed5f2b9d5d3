"""The socket gateway: real client traffic into a live deployment.

A :class:`Gateway` owns one live OsirisBFT deployment
(:class:`~repro.live.runtime.LiveRuntime`) and a TCP listener speaking
the length-prefixed frame protocol of :mod:`repro.serve.frames`.  The
division of labour:

* **connection threads** (one per client) read ``SubmitTask`` frames,
  run the task through the gateway-side
  :class:`~repro.serve.admission.AdmissionGate`, and reply with the
  admission verdict synchronously — the client learns about shed load
  before the task touches the cluster;
* the **dispatcher thread** (inside the gate) forwards surviving tasks
  via :meth:`LiveRuntime.submit`, which routes tenant-keyed across the
  plan's input pipelines — sharded serving needs no client awareness;
* the **pump thread** services the runtime (child events onto the
  parent bus, campaign phases, child reaping) and re-emits the
  gateway's own connection/admission events; the completion sink hangs
  off the same bus and streams each committed
  :class:`~repro.obs.events.TaskOutcome` back to the submitting client
  as a ``TaskDone`` frame.

Admission knobs (``admission_queue``/``admission_rate``) are read from
the spec's config and *stripped from the plan* shipped to the children:
the policy is enforced exactly once, at the edge.  Shutdown is
graceful by default: stop accepting, drain the ingress queue, wait for
in-flight tasks to complete, then tear the runtime down (whose own
child-side grace drain flushes the stragglers).
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
import queue as _queue
from typing import Any, Optional

from repro.errors import ServeError
from repro.obs.bus import Sink
from repro.obs.events import (
    CATEGORY_GATEWAY,
    CATEGORY_TASK,
    GatewayAdmission,
    GatewayClosed,
    GatewayConnected,
    TaskOutcome,
)
from repro.serve.admission import AdmissionGate
from repro.serve.frames import (
    REJECTED,
    ClientHello,
    ServerHello,
    SubmitReply,
    SubmitTask,
    TaskDone,
    no_delay,
    recv_frame,
    register_frames,
    send_frame,
)

__all__ = ["Gateway"]

#: default wall seconds stop() waits for in-flight tasks to complete
_DRAIN_S = 15.0


class _CompletionSink(Sink):
    """Bus sink routing committed task outcomes back to their client."""

    categories = frozenset({CATEGORY_TASK})

    def __init__(self, gateway: "Gateway") -> None:
        self._gateway = gateway

    def handle(self, event) -> None:
        if isinstance(event, TaskOutcome):
            self._gateway._deliver_done(event)


class _Conn:
    """One accepted client connection (socket + serialized writes)."""

    def __init__(self, conn_id: str, sock: socket.socket, peer: str) -> None:
        self.id = conn_id
        self.sock = sock
        self.peer = peer
        self.submitted = 0
        self.open = True
        self._send_lock = threading.Lock()

    def send(self, value: Any) -> None:
        with self._send_lock:
            if not self.open:
                return
            try:
                send_frame(self.sock, value)
            except OSError:
                self.open = False

    def close(self) -> None:
        with self._send_lock:
            self.open = False
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.sock.close()


class Gateway:
    """Serve one live deployment over TCP; see the module docstring.

    Built from a :class:`~repro.api.DeploymentSpec` with
    ``backend="live"`` (use :func:`repro.api.serve`).  Lifecycle:
    :meth:`start` → clients connect/submit → :meth:`stop`; usable as a
    context manager.  The spec's workload supplies the *application*
    (and the chunk-size calibration); its task stream is not consumed —
    traffic comes from the clients.
    """

    pid = "gateway"

    def __init__(
        self,
        spec,
        host: str = "127.0.0.1",
        port: int = 0,
        time_scale: float = 0.25,
    ) -> None:
        from repro.api import _config, _plan
        from repro.live.runtime import LiveRuntime

        if spec.system != "osiris":
            raise ServeError(
                f"the gateway serves OsirisBFT deployments only "
                f"(spec targets {spec.system!r})"
            )
        if spec.backend != "live":
            raise ServeError(
                "the gateway fronts the live backend; build the spec with "
                "backend='live' (or call repro.api.serve)"
            )
        register_frames()
        self.spec = spec
        self.host = host
        self._port = port
        self.time_scale = time_scale
        workload = spec.resolve_workload()
        cfg = _config(spec, workload)
        # admission knobs move from the IP to the gateway: the plan's
        # children run with them stripped so the policy applies once
        plan_cfg = dataclasses.replace(
            cfg, admission_queue=None, admission_rate=None
        )
        self.runtime = LiveRuntime(
            _plan(spec, plan_cfg),
            workload.app,
            workload=None,
            sinks=spec.sinks,
            time_scale=time_scale,
        )
        self.runtime.bus.attach(_CompletionSink(self))
        self.gate = AdmissionGate(
            self.runtime.submit,
            queue_bound=cfg.admission_queue,
            rate=cfg.admission_rate,
            time_scale=time_scale,
        )
        self.address: Optional[tuple[str, int]] = None
        self._listener: Optional[socket.socket] = None
        self._conns: dict[str, _Conn] = {}
        #: task id → submitting connection, for tasks admitted or
        #: deferred whose ``TaskDone`` has not gone out yet
        self._owner: dict[str, _Conn] = {}
        self._lock = threading.Lock()
        self._events: _queue.Queue = _queue.Queue()
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []
        self._pump_thread: Optional[threading.Thread] = None
        self._next_conn = 0
        self._started = False
        self._report = None

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "Gateway":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._report is None:
            self.stop()

    def start(self) -> "Gateway":
        """Fork the deployment, bind the listener, start serving."""
        if self._started:
            raise ServeError("a Gateway instance starts once")
        self._started = True
        # fork first: children must not inherit the listener socket
        self.runtime.start()
        try:
            self._listener = socket.create_server(
                (self.host, self._port), backlog=16
            )
            self.address = self._listener.getsockname()[:2]
            self.gate.start()
            self._pump_thread = threading.Thread(
                target=self._pump, name="serve-pump", daemon=True
            )
            self._pump_thread.start()
            acceptor = threading.Thread(
                target=self._accept, name="serve-accept", daemon=True
            )
            acceptor.start()
            self._threads.append(acceptor)
        except BaseException:
            self._stopping.set()
            self.runtime.stop()
            raise
        return self

    def stop(self, drain: float = _DRAIN_S):
        """Graceful shutdown; returns the runtime's
        :class:`~repro.live.runtime.LiveReport`.

        Stops accepting, lets the admission queue drain, waits up to
        ``drain`` wall seconds for every in-flight (non-rejected) task
        to complete, then shuts the runtime down — late completions
        surfacing during the runtime's own drain still reach clients.
        """
        if self._report is not None:
            return self._report
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        self.gate.close(drain_timeout=max(drain, 1.0))
        deadline = time.monotonic() + drain
        while self.in_flight() and time.monotonic() < deadline:
            time.sleep(0.05)
        self._stopping.set()
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=5.0)
        self._report = self.runtime.stop()
        for conn in list(self._conns.values()):
            conn.close()
        return self._report

    @property
    def metrics(self):
        return self.runtime.metrics

    def in_flight(self) -> int:
        """Tasks admitted or deferred whose completion has not streamed
        back yet."""
        with self._lock:
            return len(self._owner)

    def result(self, client_slo: Optional[dict] = None):
        """Fold the stopped deployment into a
        :class:`~repro.bench.scenarios.ScenarioResult` (same shape as
        ``run(spec)``), with gateway admission counters in ``extra``
        and the caller's client-observed SLO summary attached."""
        from repro.api import _fold_live_result

        if self._report is None:
            raise ServeError("result() wants a stopped gateway; call stop()")
        res = _fold_live_result(self.spec, self.runtime, self._report)
        res.extra["gateway_admitted"] = self.gate.admitted
        res.extra["gateway_deferred"] = self.gate.deferred
        res.extra["gateway_rejected"] = self.gate.rejected
        if client_slo:
            res.client_slo = dict(client_slo)
        return res

    # -------------------------------------------------------------- serving
    def _accept(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            with self._lock:
                conn_id = f"c{self._next_conn}"
                self._next_conn += 1
            conn = _Conn(conn_id, no_delay(sock), f"{addr[0]}:{addr[1]}")
            reader = threading.Thread(
                target=self._serve_conn,
                args=(conn,),
                name=f"serve-{conn_id}",
                daemon=True,
            )
            reader.start()
            self._threads.append(reader)

    def _serve_conn(self, conn: _Conn) -> None:
        try:
            hello = recv_frame(conn.sock)
            if not isinstance(hello, ClientHello):
                raise ServeError(
                    f"expected ClientHello, got {type(hello).__name__}"
                )
            with self._lock:
                self._conns[conn.id] = conn
            self._emit(
                GatewayConnected(
                    time=self.runtime.now_sim,
                    pid=self.pid,
                    conn=conn.id,
                    peer=conn.peer,
                )
            )
            conn.send(
                ServerHello(
                    gateway=self.pid,
                    n=self.spec.n,
                    shards=self.spec.shards,
                    time_scale=self.time_scale,
                )
            )
            while True:
                frame = recv_frame(conn.sock)
                if frame is None:
                    return
                if not isinstance(frame, SubmitTask):
                    raise ServeError(
                        f"expected SubmitTask, got {type(frame).__name__}"
                    )
                self._submit(conn, frame.task)
        except ServeError:
            pass  # protocol violation or mid-frame close: drop the client
        except OSError:
            pass
        finally:
            conn.close()
            with self._lock:
                self._conns.pop(conn.id, None)
            self._emit(
                GatewayClosed(
                    time=self.runtime.now_sim,
                    pid=self.pid,
                    conn=conn.id,
                    submitted=conn.submitted,
                )
            )

    def _submit(self, conn: _Conn, task) -> None:
        from repro.core.tasks import Task

        if not isinstance(task, Task):
            raise ServeError(
                f"SubmitTask payload must be a Task, "
                f"got {type(task).__name__}"
            )
        if not task.tenant:
            # completions route back by TaskOutcome, which OPs emit only
            # for tenant-tagged tasks — give untagged traffic the
            # single-tenant default
            task = dataclasses.replace(task, tenant="t0")
        # register ownership before the gate can forward: a fast
        # completion must find its client
        with self._lock:
            self._owner[task.task_id] = conn
        status, depth = self.gate.offer(task)
        if status == REJECTED:
            with self._lock:
                self._owner.pop(task.task_id, None)
        conn.submitted += 1
        conn.send(
            SubmitReply(task_id=task.task_id, status=status, queue_depth=depth)
        )
        self._emit(
            GatewayAdmission(
                time=self.runtime.now_sim,
                pid=self.pid,
                task_id=task.task_id,
                tenant=task.tenant,
                status=status,
                queue_depth=depth,
            )
        )

    def _emit(self, event) -> None:
        """Queue a gateway event for the pump thread (the bus is only
        ever touched from there)."""
        self._events.put(event)

    def _deliver_done(self, event: TaskOutcome) -> None:
        # the first outcome takes the owner: a repeated one finds none
        with self._lock:
            conn = self._owner.pop(event.task_id, None)
        if conn is not None:
            conn.send(
                TaskDone(
                    task_id=event.task_id,
                    tenant=event.tenant,
                    completed_at=event.time,
                    submitted_at=event.submitted_at,
                )
            )

    def _pump(self) -> None:
        bus = self.runtime.bus
        while not self._stopping.is_set():
            self.runtime.poll(timeout=0.02)
            while True:
                try:
                    event = self._events.get_nowait()
                except _queue.Empty:
                    break
                if bus.wants(CATEGORY_GATEWAY):
                    bus.emit(event)
