"""Serving layer: real client traffic over the live backend.

``repro.serve`` fronts a live OsirisBFT deployment with a TCP gateway
speaking length-prefixed codec-JSON frames:

* :class:`Gateway` — owns the deployment; accepts concurrent client
  connections, enforces the spec's admission policy at the edge with
  explicit backpressure verdicts, routes admitted tasks tenant-keyed
  across the input pipelines, and streams committed task outcomes back
  to the submitting client.  Built via :func:`repro.api.serve`.
* :class:`Client` / :class:`AsyncClient` — blocking and asyncio
  bindings for the frame protocol.
* :class:`AdmissionGate` — the input process's admission machine
  (:class:`~repro.core.admission.Admission`) driven on the wall clock
  by a dispatcher thread, so the verdict is taken before a task
  crosses a process boundary.
* :func:`serve_bench` — seeded open-loop clients against both a DES run
  and a served live deployment: identical offered load, commit-set
  cross-validation, client-observed SLOs (``python -m repro serve
  bench``).
"""

from repro.serve.admission import AdmissionGate
from repro.serve.bench import (
    ClientReport,
    ServeBenchReport,
    drive_open_loop,
    serve_bench,
)
from repro.serve.client import AsyncClient, Client
from repro.serve.frames import (
    ADMITTED,
    DEFERRED,
    MAX_FRAME,
    REJECTED,
    ClientHello,
    ServerHello,
    SubmitReply,
    SubmitTask,
    TaskDone,
    pack_frame,
    recv_frame,
    register_frames,
    send_frame,
    unpack_payload,
)
from repro.serve.gateway import Gateway

__all__ = [
    "ADMITTED",
    "DEFERRED",
    "REJECTED",
    "MAX_FRAME",
    "AdmissionGate",
    "AsyncClient",
    "Client",
    "ClientHello",
    "ClientReport",
    "Gateway",
    "ServeBenchReport",
    "ServerHello",
    "SubmitReply",
    "SubmitTask",
    "TaskDone",
    "drive_open_loop",
    "pack_frame",
    "recv_frame",
    "register_frames",
    "send_frame",
    "serve_bench",
    "unpack_payload",
]
