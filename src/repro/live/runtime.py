"""Parent-side orchestration of the live OS-process backend.

:class:`LiveRuntime` instantiates a backend-agnostic
:class:`~repro.runtime.plan.ClusterPlan` as one forked OS process per
node (``multiprocessing`` fork context: children inherit the plan, the
application and the pipe mesh without any pickling) and then acts as
the deployment's *substrate services* for the duration of the run:

* **pipe mesh** — before the first fork, one pipe per ordered (src, dst)
  node pair and one control pipe per node, each grown toward
  ``fs.pipe-max-size``; every child closes the ends it does not own and
  the parent keeps only the control pipes' write ends, so a dead node's
  pipes are closed everywhere (writers see EPIPE, readers EOF).
  Control envelopes are two-level frames of kind
  :data:`~repro.live.host.CTRL`, like every frame on the mesh, written
  under one lock because the gateway's threads call
  :meth:`LiveRuntime.submit`; a write to a dead child raises
  :class:`~repro.errors.LiveError`;

* **observability pump** — children forward every emitted trace event
  over a shared up-queue; the parent decodes and re-emits them on a
  regular :class:`~repro.obs.bus.EventBus`, so the existing sinks
  (:class:`~repro.obs.metrics.MetricsHub`, which also records a
  campaign's injection for the recovery report, JSONL writers,
  :class:`~repro.check.conservation.ConservationSink`) run unmodified;
* **adversary clock** — timed campaign phases are scheduled against the
  shared wall-clock epoch; when a phase comes due the parent resolves
  its selectors and ships :class:`~repro.live.wire.CtrlAction`
  envelopes to the targeted children (trigger campaigns need
  synchronous bus reentry and are rejected at spec validation);
* **completion detection** — drain-to-completion runs finish when the
  pumped ``TaskCompleted`` count reaches the workload target (plus all
  phases fired); fixed-``duration`` runs finish at the simulated time;
* **graceful shutdown** — broadcast :class:`~repro.live.wire.CtrlShutdown`,
  collect every child's :class:`~repro.live.wire.ChildExit` report
  (output processes attach their commit summaries), join with a
  deadline, and kill stragglers so a wedged child can never hang the
  harness.
"""

from __future__ import annotations

import fcntl
import multiprocessing as mp
import os
import queue
import selectors
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.adversary.campaign import Phase, resolve_selector
from repro.errors import BenchmarkError, LiveError
from repro.live.host import CTRL, Ends, child_main, frame
from repro.live.wire import (
    ChildEvent,
    ChildExit,
    ChildReady,
    CtrlAction,
    CtrlShutdown,
    CtrlStart,
    CtrlSubmit,
    register_wire,
)
from repro.net.topology import shard_of_tenant
from repro.obs import events as _events
from repro.obs.bus import EventBus
from repro.obs.events import (
    CATEGORY_ADVERSARY,
    AdversaryAction,
    AdversaryPhase,
)
from repro.runtime.codec import decode_json
from repro.runtime.plan import ClusterPlan

__all__ = ["LiveReport", "LiveRuntime"]

#: wall seconds to wait for every child's ready handshake
_READY_TIMEOUT_S = 30.0
#: wall seconds to wait for exit reports + process joins at shutdown
_JOIN_TIMEOUT_S = 10.0
#: wall-clock lead given to CtrlStart so every child sees t0 in its future
_START_LEAD_S = 0.05
#: capacity asked for every mesh pipe: one bulk chunk is one write
_PIPE_BYTES = 1 << 20

_ALL_CATEGORIES = frozenset(
    getattr(_events, name)
    for name in _events.__all__
    if name.startswith("CATEGORY_")
)


def _grow(fds: list[int]) -> None:
    """Ask :data:`_PIPE_BYTES` (capped at ``fs.pipe-max-size``) of each
    pipe; one the kernel refuses keeps its default size."""
    try:
        with open("/proc/sys/fs/pipe-max-size") as fh:
            size = min(_PIPE_BYTES, int(fh.read()))
    except (OSError, ValueError):  # no Linux pipe sizing here
        return
    for fd in fds:
        try:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, size)
        except OSError:
            pass


def open_mesh(pids: list[str]) -> tuple[dict[str, Ends], dict[str, int]]:
    """Every node's :class:`~repro.live.host.Ends`, and the parent's write
    end of each node's control pipe.

    All pipes are made before any is grown: past
    ``fs.pipe-user-pages-soft`` the kernel refuses ``F_SETPIPE_SZ``
    (EPERM) *and* gives new pipes two pages, so growing first could
    leave the last pipes smaller than the default.  A refused pipe keeps
    the default size — speed may depend on the larger pipe, correctness
    does not.
    """
    made: list[int] = []

    def pipe() -> tuple[int, int]:
        r, w = os.pipe()
        made.extend((r, w))
        return r, w

    rx: dict[str, dict[str, int]] = {pid: {} for pid in pids}
    tx: dict[str, dict[str, int]] = {pid: {} for pid in pids}
    ctrl_rx, ctrl = {}, {}
    try:
        for src in pids:
            for dst in pids:
                if src != dst:
                    rx[dst][src], tx[src][dst] = pipe()
        for pid in pids:
            ctrl_rx[pid], ctrl[pid] = pipe()
    except BaseException:
        for fd in made:
            os.close(fd)
        raise
    _grow(made[1::2])
    for fd in ctrl.values():  # a stalled child must not hang the parent
        os.set_blocking(fd, False)
    ends = {pid: Ends(ctrl=ctrl_rx[pid], rx=rx[pid], tx=tx[pid]) for pid in pids}
    return ends, ctrl


def _writable(fd: int, timeout: float) -> bool:
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_WRITE)
        return bool(sel.select(timeout))


@dataclass
class LiveReport:
    """Everything a live run produces (the wall-clock ScenarioResult
    ingredients plus the commit records cross-validation compares)."""

    #: op pid → ``OutputProcess.commit_record()`` (→ ``ScenarioResult.commits``)
    commits: dict = field(default_factory=dict)
    #: pid → emulated-CPU busy seconds
    busy_seconds: dict = field(default_factory=dict)
    #: pid → tasks executed by that node's execution engine
    tasks_executed: dict = field(default_factory=dict)
    unhandled_messages: int = 0
    tasks_completed: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    #: conservation violations observed by the parent-side sink
    violations: int = 0
    #: (sim time, op, target pid, role, fault kind) of applied actions
    applied_actions: list = field(default_factory=list)


class LiveRuntime:
    """One live deployment: build once, :meth:`run` once."""

    def __init__(
        self,
        plan: ClusterPlan,
        app,
        workload=None,
        sinks: Iterable = (),
        time_scale: float = 1.0,
    ) -> None:
        register_wire()
        if plan.capture:
            raise LiveError(
                "replay capture needs the deterministic DES backend; "
                "run this spec with backend='des'"
            )
        if plan.campaign is not None and plan.campaign.triggers:
            raise LiveError(
                "trigger campaigns need synchronous bus reentry and are "
                "DES-only; live runs support timed phases"
            )
        if time_scale <= 0:
            raise LiveError(f"time_scale must be positive, got {time_scale}")
        self.plan = plan
        self.app = app
        self.workload = workload
        self.time_scale = time_scale
        self.bus = EventBus()
        from repro.obs.metrics import MetricsHub

        self.metrics = MetricsHub()
        self.bus.attach(self.metrics)
        self.sanitizer_report = None
        if plan.sanitize:
            from repro.check.conservation import ConservationSink
            from repro.check.report import SanitizerReport

            # the full substrate sanitizer shadows simulated NICs and CPU
            # banks; live runs get its event-stream conservation checks
            self.sanitizer_report = SanitizerReport()
            self.bus.attach(ConservationSink(self.sanitizer_report))
        for sink in sinks:
            self.bus.attach(sink)
        self._ran = False
        #: mesh ends the parent holds open (after the forks: ``_ctrl``'s)
        self._held: list[int] = []
        self._ctrl: dict[str, int] = {}
        self._ctrl_lock = threading.Lock()

    # ------------------------------------------------------------- plumbing
    def _wanted(self) -> frozenset[str]:
        """Category snapshot shipped to children at fork: what any
        parent-side sink wants now (attach-after-start is not supported
        across the process boundary)."""
        return frozenset(
            c for c in _ALL_CATEGORIES if self.bus.wants(c)
        )

    def _broadcast(self, envelope) -> None:
        self._send_ctrl(self._ctrl, envelope)

    def _send_ctrl(self, pids: Iterable[str], envelope) -> None:
        """Encode ``envelope`` once and write it to each of ``pids``'
        control pipes, whole, under the one lock."""
        data = frame(CTRL, envelope)
        with self._ctrl_lock:
            for pid in pids:
                fd = self._ctrl.get(pid)
                if fd is None:  # before start() or after cleanup
                    raise LiveError(f"node {pid!r} is not running")
                view = memoryview(data)
                while view:
                    try:
                        view = view[os.write(fd, view) :]
                    except BlockingIOError:
                        if not _writable(fd, _JOIN_TIMEOUT_S):
                            raise LiveError(
                                f"child {pid} stopped reading its control "
                                f"pipe for {_JOIN_TIMEOUT_S:g} s"
                            ) from None
                    except BrokenPipeError:
                        raise LiveError(
                            f"child {pid} died (its control pipe is closed)"
                        ) from None

    # ------------------------------------------------------------ lifecycle
    def run(
        self,
        deadline: float,
        duration: Optional[float] = None,
        target_tasks: int = 0,
    ) -> LiveReport:
        """Execute the deployment; wall time ≈ sim time × ``time_scale``.

        ``deadline``/``duration`` are *simulated* seconds, mirroring the
        DES driver: with ``duration`` the run streams for that long;
        otherwise it drains until ``target_tasks`` tasks completed (and
        every campaign phase fired), failing loudly at ``deadline``.

        Composition of the serving lifecycle: :meth:`start`, the pump
        loop, :meth:`stop` — the gateway (:mod:`repro.serve`) drives the
        same three phases itself, with :meth:`submit`/:meth:`poll`
        between them instead of a pre-planned workload.
        """
        self.start()
        try:
            self._pump(deadline, duration, target_tasks)
            report = self._stop_inner()
            if (
                duration is None
                and target_tasks > 0
                and report.tasks_completed < target_tasks
            ):
                raise BenchmarkError(
                    f"scenario missed deadline: "
                    f"{report.tasks_completed}/{target_tasks} tasks "
                    f"by t={deadline}"
                )
            return report
        finally:
            self._cleanup(self._procs)

    def start(self) -> None:
        """Fork the children, complete the ready handshake, broadcast
        :class:`~repro.live.wire.CtrlStart`.  After this returns the
        deployment is live: :meth:`submit` injects tasks, :meth:`poll`
        services the event pump, :meth:`stop` tears everything down."""
        if self._ran:
            raise LiveError("a LiveRuntime instance runs once; build a new one")
        self._ran = True
        ctx = mp.get_context("fork")
        self._up = ctx.Queue()
        ends, self._ctrl = open_mesh([spec.pid for spec in self.plan.nodes])
        node_side = set().union(*(e.fds() for e in ends.values()))
        self._held = [*node_side, *self._ctrl.values()]
        wanted = self._wanted()
        primary_ip = (
            self.plan.topo.input_pids[0] if self.plan.topo.input_pids else None
        )
        procs: dict[str, mp.Process] = {}
        self._procs = procs
        self._t_wall0 = time.monotonic()
        try:
            for spec in self.plan.nodes:
                stream = (
                    self.workload.stream
                    if (spec.pid == primary_ip and self.workload is not None)
                    else None
                )
                p = ctx.Process(
                    target=child_main,
                    args=(
                        self.plan,
                        spec,
                        self.app,
                        stream,
                        ends[spec.pid],
                        sorted(set(self._held) - ends[spec.pid].fds()),
                        self._up,
                        wanted,
                    ),
                    name=f"live-{spec.pid}",
                    daemon=True,
                )
                p.start()
                procs[spec.pid] = p
            for fd in node_side:  # the children own these now
                os.close(fd)
            self._held = list(self._ctrl.values())
            self._await_ready(procs)
            self._t0 = time.monotonic() + _START_LEAD_S
            self._broadcast(CtrlStart(t0=self._t0, time_scale=self.time_scale))
            campaign = self.plan.campaign
            self._pending = (
                sorted(campaign.phases, key=lambda ph: ph.at)
                if campaign
                else []
            )
            self._last_reap = time.monotonic()
            self._report = LiveReport()
            self._exited = set()
        except BaseException:
            self._cleanup(procs)
            raise

    @property
    def now_sim(self) -> float:
        """Current simulated time of the running deployment."""
        return max(0.0, (time.monotonic() - self._t0) / self.time_scale)

    def submit(self, task) -> str:
        """Inject one externally-submitted task; returns the input pid
        it routed to.  Tenant-keyed over the plan's input pipelines
        (single-pipeline plans always route to ``ip0``).  Thread-safe:
        control-pipe writes take one lock, so they may race the pump
        thread's."""
        ips = self.plan.topo.input_pids
        if not ips:
            raise LiveError("plan has no input process to submit to")
        pid = ips[shard_of_tenant(task.tenant, len(ips))]
        self._send_ctrl((pid,), CtrlSubmit(pid=pid, task=task))
        return pid

    def poll(self, timeout: float = 0.05) -> None:
        """Service the deployment once: fire due campaign phases, reap
        dead children, pump available child events onto the bus.  Blocks
        at most ``timeout`` wall seconds, less when a phase comes due
        sooner.  External drivers (the serve gateway) call this in a loop
        between :meth:`start`/:meth:`stop`."""
        now_sim = self.now_sim
        while self._pending and self._pending[0].at <= now_sim:
            self._apply_phase(self._pending.pop(0), now_sim, self._report)
        if time.monotonic() - self._last_reap > 1.0:
            self._reap(self._procs)
            self._last_reap = time.monotonic()
        if self._pending:
            next_phase_wall = self._t0 + self._pending[0].at * self.time_scale
            timeout = min(timeout, max(0.0, next_phase_wall - time.monotonic()))
        items = self._recv_up(timeout)
        while items:  # then whatever else arrived, without blocking
            for item in items:
                self._dispatch_up(item, self._report)
            items = self._recv_up(0.0)
        self._report.tasks_completed = self.metrics.tasks_completed

    def _recv_up(self, timeout: float) -> list:
        """One up-queue put, decoded: a child's report on its own, or the
        :class:`ChildEvent` batch of one loop turn; empty on timeout."""
        try:
            item = decode_json(self._up.get(timeout=timeout))
        except queue.Empty:
            return []
        return item if isinstance(item, list) else [item]

    def stop(self) -> LiveReport:
        """Gracefully shut the deployment down and return its report
        (broadcast shutdown, collect exit summaries, join, clean up)."""
        try:
            return self._stop_inner()
        finally:
            self._cleanup(self._procs)

    def _stop_inner(self) -> LiveReport:
        report = self._report
        self._shutdown(self._t0, self._procs, report)
        report.wall_seconds = time.monotonic() - self._t_wall0
        if self.sanitizer_report is not None:
            report.violations = len(self.sanitizer_report.violations)
        return report

    def _await_ready(self, procs: dict) -> None:
        ready: set[str] = set()
        deadline = time.monotonic() + _READY_TIMEOUT_S
        while len(ready) < len(procs):
            self._reap(procs)
            items = self._recv_up(0.25)
            if not items and time.monotonic() > deadline:
                missing = sorted(set(procs) - ready)
                raise LiveError(
                    f"live start handshake timed out; not ready: {missing}"
                )
            ready.update(i.pid for i in items if isinstance(i, ChildReady))

    def _reap(self, procs: dict) -> None:
        """A dead child that never reported is a hard failure."""
        for pid, p in procs.items():
            if not p.is_alive() and p.exitcode not in (0, None):
                raise LiveError(
                    f"child {pid} died with exit code {p.exitcode} "
                    f"(see its stderr for the traceback)"
                )

    def _pump(
        self, deadline: float, duration: Optional[float], target_tasks: int
    ) -> None:
        while True:
            self.poll()
            now_sim = self.now_sim
            if duration is not None:
                if now_sim >= duration:
                    return
            elif (
                target_tasks > 0
                and self._report.tasks_completed >= target_tasks
                and not self._pending
            ):
                return
            if now_sim >= deadline:
                return  # the caller turns a missed target into an error

    def _dispatch_up(self, item, report: LiveReport) -> None:
        if isinstance(item, ChildEvent):
            self.bus.emit(item.event)
            report.sim_seconds = max(
                report.sim_seconds, getattr(item.event, "time", 0.0)
            )
        elif isinstance(item, ChildExit):
            self._fold_exit(item, report)
        # late ChildReady duplicates are harmless; ignore anything else

    def _apply_phase(self, phase: Phase, now_sim: float, report: LiveReport) -> None:
        campaign = self.plan.campaign
        if self.bus.wants(CATEGORY_ADVERSARY):
            self.bus.emit(
                AdversaryPhase(
                    time=now_sim,
                    pid="adversary",
                    campaign=campaign.name,
                    phase=phase.name or f"t={phase.at:g}",
                )
            )
        for action in phase.actions:
            for pid in resolve_selector(action.select, self.plan.topo):
                self._send_ctrl(
                    (pid,), CtrlAction(pid=pid, action=action.to_dict())
                )
                kind = action.fault.kind if action.fault is not None else ""
                role = action.fault.role if action.fault is not None else ""
                report.applied_actions.append(
                    (now_sim, action.op, pid, role, kind)
                )
                if self.bus.wants(CATEGORY_ADVERSARY):
                    self.bus.emit(
                        AdversaryAction(
                            time=now_sim,
                            pid="adversary",
                            campaign=campaign.name,
                            op=action.op,
                            target=pid,
                            role=role,
                            fault=kind,
                        )
                    )

    def _fold_exit(self, item: ChildExit, report: LiveReport) -> None:
        if item.summary:
            report.commits[item.pid] = item.summary
        report.busy_seconds[item.pid] = item.busy_seconds
        if item.tasks_executed:
            report.tasks_executed[item.pid] = item.tasks_executed
        report.unhandled_messages += item.unhandled
        self._exited.add(item.pid)

    def _shutdown(self, t0: float, procs: dict, report: LiveReport) -> None:
        """Drain, collect exit reports, join with deadline, kill stragglers."""
        self._broadcast(CtrlShutdown(grace=0.2))
        deadline = time.monotonic() + _JOIN_TIMEOUT_S
        while (
            len(self._exited) < len(procs) and time.monotonic() < deadline
        ):
            for item in self._recv_up(0.25):
                self._dispatch_up(item, report)
        for pid, p in procs.items():
            p.join(timeout=max(0.0, deadline - time.monotonic()) + 0.5)
        stragglers = [pid for pid, p in procs.items() if p.is_alive()]
        for pid in stragglers:
            procs[pid].terminate()
            procs[pid].join(timeout=1.0)
            if procs[pid].is_alive():  # pragma: no cover - last resort
                procs[pid].kill()
                procs[pid].join(timeout=1.0)
        missing = sorted(set(procs) - self._exited)
        if missing:
            raise LiveError(
                f"children never reported exit summaries: {missing} "
                f"(killed: {sorted(stragglers)})"
            )

    def _cleanup(self, procs: dict) -> None:
        for p in procs.values():
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        with self._ctrl_lock:  # a late submit must not write a reused fd
            for fd in self._held:
                os.close(fd)
            self._held, self._ctrl = [], {}
        self._up.close()
        self._up.cancel_join_thread()
        self.bus.close()
