"""The host contract: one set of effect rules on every substrate.

:class:`~repro.runtime.interpreter.EffectInterpreter` defines the timer
table, the crash and guarded-job rules and the CPU lanes once; each case
below runs on the DES substrate (:class:`~repro.runtime.des.DesHost`)
and on the live one (:class:`~repro.live.host.LiveHost` over the
in-process ``os.pipe()`` pairs of ``tests/live/test_host_transport.py``,
with its wall clock replaced by a hand-set one so deadlines are exact).
The ``live``-marked case at the end runs the Halt rules in a forked
child on the real pipe mesh and the real clock.
"""

import multiprocessing as mp
import os
import time

import pytest

from repro.consensus.messages import CsRequest
from repro.live import host as host_mod
from repro.live.host import CTRL, PLAIN, LiveHost, frame
from repro.live.runtime import open_mesh
from repro.live.wire import (
    ChildExit,
    ChildReady,
    CtrlShutdown,
    CtrlStart,
    register_wire,
)
from repro.net.links import Network
from repro.runtime import testing
from repro.runtime.codec import decode_frame, decode_json, encode_frame
from repro.runtime.core import ProtocolCore
from repro.runtime.des import DesHost
from repro.runtime.effects import Job, Send
from repro.runtime.interpreter import EffectInterpreter
from repro.sim import Simulator
from tests.live.test_host_transport import Wires, _parse, _Queue


class _Probe(ProtocolCore):
    def __init__(self, pid="a"):
        super().__init__(pid)
        self.seen = []
        self.stamps = []

    def on_CsRequest(self, msg):
        self.seen.append(msg.request_id)
        self.stamps.append((msg.request_id, msg.sender, msg._neq))


def _frame(src, *tags):
    return (
        src,
        [(False, encode_frame(CsRequest(request_id=t))) for t in tags],
    )


class _Des:
    def __init__(self, core, monkeypatch):
        self.sim = Simulator(seed=1)
        net = Network(self.sim)
        self.host = DesHost(self.sim, net, core, cores=2)
        net.register(self.host)

    def advance(self, until):
        self.sim.run(until=until)

    def deliver(self, tag):
        self.host.deliver(CsRequest(request_id=tag))


class _HandClock(host_mod._WallClock):
    """The live clock, with ``now`` set by the test instead of the wall."""

    now = 0.0


class _Live:
    def __init__(self, core, monkeypatch):
        monkeypatch.setattr(host_mod, "_WallClock", _HandClock)
        self.wires = Wires(("b",))
        self.host = LiveHost(core, 2, self.wires.ends, _Queue(), frozenset())

    def advance(self, until):
        self.host.clock.now = until
        self.host.clock.fire_due()
        while (item := self.host._next(0.0)) is not None:  # self-sends
            self.host._handle(item)

    def deliver(self, tag):
        self.host._handle(_frame("b", tag))  # the loop's own frame path


@pytest.fixture(params=[_Des, _Live], ids=["des", "live"])
def node(request, monkeypatch):
    core = _Probe()
    substrate = request.param(core, monkeypatch)
    substrate.core = core
    yield substrate
    if hasattr(substrate, "wires"):
        substrate.wires.close()


# ------------------------------------------------------------------ timers
def test_timer_fires_with_args(node):
    fired = []
    node.core.set_timer("t", 0.5, fired.append, "x")
    node.advance(0.4)
    assert fired == []
    node.advance(1.0)
    assert fired == ["x"]


def test_rearm_supersedes(node):
    fired = []
    node.core.set_timer("t", 0.2, fired.append, "early")
    node.core.set_timer("t", 0.8, fired.append, "late")
    node.advance(0.5)
    assert fired == []
    node.advance(1.0)
    assert fired == ["late"]


def test_distinct_names_are_independent(node):
    fired = []
    node.core.set_timer("a", 0.2, fired.append, "a")
    node.core.set_timer("b", 0.4, fired.append, "b")
    node.core.cancel_timer("a")
    node.advance(1.0)
    assert fired == ["b"]


def test_cancel_of_an_unarmed_timer_is_a_noop(node):
    node.core.cancel_timer("never-armed")
    assert not node.core.timer_armed("never-armed")


def test_cancel_after_fire_is_a_noop(node):
    fired = []
    node.core.set_timer("t", 0.1, fired.append, 1)
    node.advance(1.0)
    node.core.cancel_timer("t")
    assert fired == [1]


def test_fired_timer_leaves_the_table(node):
    node.core.set_timer("t", 0.1, lambda: None)
    assert node.core.timer_armed("t")
    node.advance(1.0)
    assert not node.core.timer_armed("t")
    assert node.host._timers == {}


def test_rearm_inside_the_fire_callback_sticks(node):
    ticks = []

    def tick():
        ticks.append(node.core.now)
        if len(ticks) < 3:
            node.core.set_timer("t", 0.1, tick)

    node.core.set_timer("t", 0.1, tick)
    for step in range(1, 11):
        node.advance(step / 10)
    assert len(ticks) == 3
    assert not node.core.timer_armed("t")


# -------------------------------------------------------------- self-sends
def test_self_sends_arrive_with_the_same_stamps(node):
    plain, neq = CsRequest(request_id="plain"), CsRequest(request_id="neq")
    node.core.send(node.core.pid, plain)
    node.core.neq_multicast((node.core.pid,), neq)
    node.core.send(node.core.pid, plain)  # the same object, sent again
    assert node.core.stamps == []  # never inside the sending step
    node.advance(1.0)
    assert node.core.stamps == [
        ("plain", "a", False),
        ("neq", "a", True),
        ("plain", "a", False),
    ]


# -------------------------------------------------------------------- Halt
def test_halt_cancels_armed_timers(node):
    fired = []
    node.core.set_timer("t", 0.5, fired.append, 1)
    node.core.crash()
    assert node.host._timers == {}
    node.advance(1.0)
    assert fired == []


def test_halted_host_refuses_new_timers(node):
    fired = []
    node.core.crash()
    node.core.set_timer("t", 0.1, fired.append, 1)
    assert not node.core.timer_armed("t")
    node.advance(1.0)
    assert fired == []


def test_in_memory_runtime_also_refuses_timers_after_halt():
    core = _Probe()
    testing.TestRuntime(core)
    core.crash()
    core.set_timer("t", 0.1, lambda: None)
    assert not core.timer_armed("t")


def test_halt_between_arm_and_fire_suppresses_the_callback(node):
    fired = []
    node.core.set_timer("t", 0.5, fired.append, 1)
    node.advance(0.2)
    node.core.crash()
    node.advance(1.0)
    assert fired == []


def test_delivery_after_halt_is_dropped(node):
    node.deliver("before")
    node.core.crash()
    node.deliver("after")
    assert node.core.seen == ["before"]
    assert node.core.unhandled_messages == 0  # dropped before dispatch


def test_guarded_job_skipped_after_halt_while_milestones_fire(node):
    done = []
    milestone = (0.5, done.append, ("m",))
    node.core.perform(Job(1.0, done.append, ("job",), milestones=(milestone,)))
    node.core.crash()
    node.advance(2.0)
    assert done == ["m"]


def test_unguarded_job_completes_after_halt(node):
    done = []
    node.core.run_raw_job(1.0, done.append, "job")
    node.core.crash()
    node.advance(2.0)
    assert done == ["job"]


def test_ctrl_job_skipped_after_halt(node):
    done = []
    node.core.run_ctrl_job(0.5, done.append, "ctrl")
    node.core.crash()
    node.advance(1.0)
    assert done == []


def test_schedule_always_runs(node):
    done = []
    node.core.schedule(0.5, done.append, "sched")
    node.core.crash()
    node.advance(1.0)
    assert done == ["sched"]


# --------------------------------------------------------------- CPU lanes
def test_job_and_apply_update_charge_busy_seconds_at_submit(node):
    done = []
    node.core.run_job(0.25, done.append, "job")
    node.core.apply_update(0.5)
    node.core.run_ctrl_job(0.125, done.append, "ctrl")
    assert node.core.cpu.busy_seconds == 0.75  # app bank only
    assert node.host.ctrl.busy_seconds == 0.125
    assert done == []
    node.advance(1.0)
    assert sorted(done) == ["ctrl", "job"]


def test_jobs_queue_on_the_earliest_free_lane(node):
    done = []
    for tag in ("a", "b", "c"):  # two app lanes: c waits for a
        node.core.run_job(1.0, done.append, tag)
    node.advance(1.5)
    assert done == ["a", "b"]
    node.advance(2.0)
    assert done == ["a", "b", "c"]


# ----------------------------------------------------- dispatch-only hosts
def test_bare_subclass_overriding_only_do_send_dispatches_a_send():
    """The shape the performance ledger times as
    ``runtime.interpret_ops_per_s``: no constructor arguments, one arm
    overridden."""
    sent = []

    class NullHost(EffectInterpreter):
        def _do_send(self, effect):
            sent.append(effect)

    host = NullHost()
    effect = Send(dst="v0", msg=None)
    host.interpret(effect)
    host.interpret(effect)
    assert sent == [effect, effect]


# -------------------------------------------- real pipes, real clock
class _Scripted(ProtocolCore):
    """On ``go``: arm a timer and queue one of each job kind, halt, try to
    arm again.  Every continuation that runs reports to ``p``."""

    def on_CsRequest(self, msg):
        def report(tag):
            self.send("p", CsRequest(request_id=tag))

        if msg.request_id != "go":
            report(msg.request_id)
            return
        self.set_timer("t", 0.02, report, "timer")
        self.run_job(0.02, report, "guarded-job")
        self.run_ctrl_job(0.02, report, "ctrl-job")
        milestone = (0.01, report, ("milestone",))
        self.run_raw_job(0.02, report, "raw-job", milestones=(milestone,))
        self.schedule(0.02, report, "sched")
        self.crash()
        self.set_timer("late", 0.01, report, "late-timer")


def _serve_scripted(ends, foreign, up):
    for fd in foreign:
        os.close(fd)
    LiveHost(_Scripted("a"), 2, ends, up, frozenset()).run()


@pytest.mark.live
def test_halt_rules_hold_in_a_forked_child_on_real_pipes():
    """The test plays node ``p`` and the parent of node ``a``."""
    register_wire()  # the forked child inherits the registry
    ctx = mp.get_context("fork")
    ends, ctrl = open_mesh(["a", "p"])
    a, p = ends["a"], ends["p"]
    foreign = sorted(p.fds() | set(ctrl.values()))
    up = ctx.Queue()
    child = ctx.Process(
        target=_serve_scripted, args=(a, foreign, up), daemon=True
    )
    child.start()
    for fd in a.fds():  # the child's now: its exit closes them everywhere
        os.close(fd)

    def to_a(kind, obj):
        os.write(p.tx["a"] if kind != CTRL else ctrl["a"], frame(kind, obj))

    try:
        assert isinstance(decode_json(up.get(timeout=10)), ChildReady)
        start = CtrlStart(t0=time.monotonic(), time_scale=1.0)
        to_a(CTRL, start)
        to_a(PLAIN, CsRequest(request_id="go"))
        time.sleep(0.3)  # every deadline above is due by now
        to_a(PLAIN, CsRequest(request_id="after-halt"))
        # the grace drain ends with one more pass over due work
        to_a(CTRL, CtrlShutdown(grace=0.1))
        report = decode_json(up.get(timeout=10))
        child.join(timeout=10)
        assert not child.is_alive()
        got = b""
        while chunk := os.read(p.rx["a"], 1 << 16):  # EOF: the child is gone
            got += chunk
        tags = [decode_frame(*parts).request_id for _, parts in _parse(got)]
    finally:
        if child.is_alive():
            child.kill()
            child.join()
        for fd in foreign:
            os.close(fd)
    assert isinstance(report, ChildExit) and report.crashed
    assert sorted(tags) == ["milestone", "raw-job", "sched"]
    assert report.busy_seconds == 0.04  # both app jobs, charged at submit
