"""The live transport's hot path, driven in-process (no fork, tier-1).

A :class:`~repro.live.host.LiveHost` only needs ``get``/``put`` of its
queues, so ``queue.Queue`` stand-ins let these tests fill an inbox, call
``run()`` (it returns on the trailing ``CtrlShutdown``) and read what
came out of the other end: how often the codec ran, how sends were
framed, and what a receiver saw.  Fork-level behaviour is covered by
``test_crossval.py`` and ``tests/serve`` under the ``live`` marker.
"""

import queue
import time

import pytest

from repro.api import DeploymentSpec, build
from repro.consensus.messages import CsRequest
from repro.live import host as host_mod
from repro.live.host import LiveHost
from repro.live.runtime import LiveReport
from repro.live.wire import (
    ChildExit,
    ChildReady,
    CtrlShutdown,
    CtrlStart,
    register_wire,
)
from repro.obs.events import CATEGORY_TASK, TaskCompleted
from repro.runtime.codec import decode_json, encode_json
from repro.runtime.core import ProtocolCore

_BIG = "x" * (host_mod._SOLO_BYTES + 1)


def setup_module():
    register_wire()


class _Queue(queue.Queue):
    """``mp.Queue`` surface the parent's cleanup also touches."""

    def close(self):
        pass

    cancel_join_thread = close


class _Probe(ProtocolCore):
    """Records what it is handed; ``script`` maps a request id to what
    the handler does on seeing it."""

    def __init__(self, pid, script=None):
        super().__init__(pid)
        self.seen = []
        self.script = script or {}

    def on_CsRequest(self, msg):
        self.seen.append(msg)
        action = self.script.get(msg.request_id, self.script.get("*"))
        if action is not None:
            action(self, msg)


def _req(tag, payload=None):
    return CsRequest(request_id=tag, payload=payload)


def _frame(src, *tags, neq=False):
    return (src, [(neq, encode_json(_req(t), with_sender=False)) for t in tags])


def _host(script=None, pid="a", peers=("b", "c", "d"), up=None, wanted=()):
    inboxes = {p: _Queue() for p in (pid, *peers)}
    core = _Probe(pid, script)
    return LiveHost(core, 1, inboxes, up or _Queue(), frozenset(wanted)), core


def _run(host, *items, grace=0.0):
    """Serve ``items`` then shut down; returns what went up, decoded."""
    for item in items:
        host._inbox.put(item)
    host._inbox.put(encode_json(CtrlShutdown(grace=grace)))
    host.run()
    return [decode_json(raw) for raw in _drain(host._up)]


def _drain(q):
    out = []
    while not q.empty():
        out.append(q.get_nowait())
    return out


def _tags(frames):
    return [
        decode_json(payload).request_id
        for _, batch in frames
        for _, payload in batch
    ]


def _start():
    return encode_json(CtrlStart(t0=time.monotonic(), time_scale=1.0))


class TestEncodeOnce:
    def test_multicast_encodes_once_for_all_destinations(self, monkeypatch):
        calls = []

        def counting(value, with_sender=True):
            calls.append(type(value).__name__)
            return encode_json(value, with_sender)

        host, _ = _host({"go": lambda c, m: c.multicast("bcd", _req("out"))})
        monkeypatch.setattr(host_mod, "encode_json", counting)
        _run(host, _frame("b", "go"))
        assert calls.count("CsRequest") == 1
        frames = [_drain(host._inboxes[p]) for p in "bcd"]
        assert all(f == [("a", [(False, frames[0][0][1][0][1])])] for f in frames)
        # one string object shared by every destination's frame
        assert len({id(f[0][1][0][1]) for f in frames}) == 1

    def test_send_and_neq_multicast_encode_once_each(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            host_mod,
            "encode_json",
            lambda v, with_sender=True: calls.append(v)
            or encode_json(v, with_sender),
        )

        def go(core, msg):
            core.send("b", _req("s"))
            core.neq_multicast("cd", _req("n"))

        host, _ = _host({"go": go})
        _run(host, _frame("b", "go"))
        assert [m.request_id for m in calls if isinstance(m, CsRequest)] == [
            "s",
            "n",
        ]
        to_c = _drain(host._inboxes["c"])
        assert [neq for _, batch in to_c for neq, _ in batch] == [True]

    def test_unknown_destination_is_loud(self):
        host, _ = _host({"go": lambda c, m: c.send("nobody", _req("x"))})
        with pytest.raises(host_mod.LiveError, match="unknown node 'nobody'"):
            _run(host, _frame("b", "go"))


class TestFraming:
    def test_one_put_per_destination_per_turn(self):
        def go(core, msg):
            for i in range(3):
                core.multicast("bc", _req(f"m{i}"))
            core.send("b", _req("m3"))

        host, _ = _host({"go": go})
        _run(host, _frame("d", "go"))
        to_b, to_c = _drain(host._inboxes["b"]), _drain(host._inboxes["c"])
        assert len(to_b) == len(to_c) == 1
        assert _tags(to_b) == ["m0", "m1", "m2", "m3"]
        assert _tags(to_c) == ["m0", "m1", "m2"]

    def test_order_holds_across_a_solo_frame(self):
        def go(core, msg):
            core.send("b", _req("before"))
            core.send("b", _req("big", _BIG))
            core.send("b", _req("after"))

        # the second inbox item is handled in the same turn as the first
        host, _ = _host({"go": go, "more": lambda c, m: c.send("b", _req("last"))})
        _run(host, _frame("d", "go"), _frame("d", "more"))
        frames = _drain(host._inboxes["b"])
        assert [_tags([f]) for f in frames] == [
            ["before"],
            ["big"],
            ["after", "last"],
        ]

    def test_big_multicast_payload_arrives_alone_everywhere(self):
        def go(core, msg):
            core.send("c", _req("small"))
            core.multicast("bc", _req("big", _BIG))

        host, _ = _host({"go": go})
        _run(host, _frame("d", "go"))
        assert [_tags([f]) for f in _drain(host._inboxes["b"])] == [["big"]]
        assert [_tags([f]) for f in _drain(host._inboxes["c"])] == [
            ["small"],
            ["big"],
        ]

    def test_payload_at_the_threshold_is_batched(self):
        at = _req("edge", "")
        pad = host_mod._SOLO_BYTES - len(encode_json(at, with_sender=False))
        at = _req("edge", "y" * pad)
        assert len(encode_json(at, with_sender=False)) == host_mod._SOLO_BYTES

        def go(core, msg):
            core.send("b", _req("before"))
            core.send("b", at)

        host, _ = _host({"go": go})
        _run(host, _frame("d", "go"))
        assert [_tags([f]) for f in _drain(host._inboxes["b"])] == [
            ["before", "edge"]
        ]


class TestDelivery:
    def test_sender_and_neq_stamps(self):
        host, core = _host()
        _run(host, ("b", _frame("b", "q", neq=True)[1] + _frame("b", "p")[1]))
        first, second = core.seen
        assert (first.sender, first._neq) == ("b", True)
        assert (second.sender, second._neq) == ("b", False)
        assert "_neq" not in vars(second)  # only neq copies carry the stamp

    def test_stamps_survive_a_host_to_host_hop(self):
        sender, _ = _host({"go": lambda c, m: c.neq_multicast("b", _req("n"))})
        _run(sender, _frame("d", "go"))
        receiver, core = _host(pid="b", peers=("a",))
        _run(receiver, *_drain(sender._inboxes["b"]))
        (msg,) = core.seen
        assert (msg.request_id, msg.sender, msg._neq) == ("n", "a", True)

    def test_halt_mid_frame_drops_the_rest(self):
        def die(core, msg):
            core.send("b", _req("last-words"))
            core.crash()

        host, core = _host({"die": die})
        up = _run(host, _frame("b", "one", "die", "three"), _frame("c", "four"))
        assert [m.request_id for m in core.seen] == ["one", "die"]
        # what it sent before halting still goes out, as under the DES
        assert _tags(_drain(host._inboxes["b"])) == ["last-words"]
        assert up[-1].crashed is True


class TestLoopback:
    """A send to the node itself skips the codec and the queue: the
    objects a turn sent to self are the next turn's first frame, stamped
    as the DES stamps the one object all its receivers share."""

    def _counting(self, monkeypatch):
        calls = []

        def counting(value, with_sender=True):
            calls.append(value)
            return encode_json(value, with_sender)

        monkeypatch.setattr(host_mod, "encode_json", counting)
        return calls

    def test_multicast_including_self_encodes_once_and_skips_own_inbox(
        self, monkeypatch
    ):
        calls = self._counting(monkeypatch)
        out = _req("out")
        log = []

        def go(core, msg):
            core.neq_multicast("abc", out)
            log.append(("returned", len(core.seen)))

        host, core = _host({"go": go, "out": lambda c, m: log.append("self")})
        _run(host, _frame("d", "go"), grace=0.05)
        assert [m for m in calls if isinstance(m, CsRequest)] == [out]
        assert _drain(host._inbox) == []  # nothing went through a queue
        assert _tags(_drain(host._inboxes["b"])) == ["out"]
        _, self_copy = core.seen
        assert self_copy is out  # the object itself, not a decoded copy
        assert (self_copy.sender, self_copy._neq) == ("a", True)
        assert log == [("returned", 1), "self"]  # never re-entrant

    def test_send_only_to_self_never_encodes(self, monkeypatch):
        calls = self._counting(monkeypatch)
        host, core = _host({"go": lambda c, m: c.send("a", _req("me"))})
        _run(host, _frame("b", "go"), grace=0.05)
        assert [m.request_id for m in core.seen] == ["go", "me"]
        assert not [m for m in calls if isinstance(m, CsRequest)]
        me = core.seen[1]
        assert me.sender == "a" and "_neq" not in vars(me)

    def test_each_send_stamps_its_own_neq_on_the_shared_object(self):
        shared = _req("twice")

        def go(core, msg):
            core.neq_multicast("a", shared)
            core.send("a", shared)

        stamps = []
        host, core = _host(
            {"go": go, "twice": lambda c, m: stamps.append((m.sender, m._neq))}
        )
        _run(host, _frame("b", "go"), grace=0.05)
        assert stamps == [("a", True), ("a", False)]

    def test_self_sends_keep_fifo_and_spend_the_drain_budget(self):
        n = host_mod._DRAIN_MSGS + 6

        def go(core, msg):
            for i in range(n):
                core.send("a", _req(f"s{i}"))

        echo = lambda c, m: c.send("b", _req("echo-" + m.request_id))  # noqa: E731
        host, core = _host({"go": go, "*": echo})
        host._handle(_frame("d", "go"))  # a turn that leaves n self-sends
        _run(host, _frame("c", "tail"), grace=0.05)
        selfs = [f"s{i}" for i in range(n)]
        assert [m.request_id for m in core.seen] == ["go", *selfs, "tail"]
        frames = _drain(host._inboxes["b"])
        assert _tags(frames) == [f"echo-{t}" for t in (*selfs, "tail")]
        # the self-sends used up the next turn's budget: "tail" waited
        # for the turn after, so the echoes left in two flushes
        assert [len(batch) for _, batch in frames] == [n, 1]

    def test_self_send_queued_at_shutdown_is_delivered_in_the_grace_drain(self):
        host, core = _host({"go": lambda c, m: c.send("a", _req("late"))})
        _run(host, _frame("b", "go"), grace=0.05)
        assert [m.request_id for m in core.seen] == ["go", "late"]

    def test_without_grace_pending_self_sends_are_dropped(self):
        host, core = _host({"go": lambda c, m: c.send("a", _req("late"))})
        _run(host, _frame("b", "go"))
        assert [m.request_id for m in core.seen] == ["go"]


class TestBoundedDrain:
    def test_due_job_fires_though_the_inbox_never_empties(self):
        fired_after = []

        def arm(core, msg):
            core.run_job(0.0, lambda: fired_after.append(len(core.seen)))

        host, core = _host({"arm": arm})
        frames = [_frame("b", "arm")] + [_frame("b", f"m{i}") for i in range(300)]
        _run(host, _start(), *frames)
        assert len(core.seen) == 301
        # due at once: the drain stops after the message that armed it
        assert fired_after == [1]

    def test_message_budget_ends_the_turn(self):
        host, _ = _host({"*": lambda c, m: c.send("b", m)})
        n = 3 * host_mod._DRAIN_MSGS + 5
        _run(host, *[_frame("c", f"m{i}") for i in range(n)])
        frames = _drain(host._inboxes["b"])
        assert _tags(frames) == [f"m{i}" for i in range(n)]
        sizes = [len(batch) for _, batch in frames]
        assert sizes == [host_mod._DRAIN_MSGS] * 3 + [5]

    def test_a_frame_is_never_split_by_the_budget(self):
        host, _ = _host({"*": lambda c, m: c.send("b", m)})
        n = host_mod._DRAIN_MSGS + 10
        _run(host, _frame("c", *[f"m{i}" for i in range(n)]), _frame("c", "tail"))
        sizes = [len(batch) for _, batch in _drain(host._inboxes["b"])]
        assert sizes == [n, 1]


class TestShutdownAndParent:
    def test_grace_drain_accepts_frames_and_flushes_replies(self):
        host, core = _host(
            {"*": lambda c, m: c.send("b", _req("ack-" + m.request_id))}
        )
        host._inbox.put(encode_json(CtrlShutdown(grace=0.05)))
        host._inbox.put(_frame("c", "late1", "late2"))
        host._inbox.put(_start())  # anything but frames/submits is skipped
        host.run()
        assert [m.request_id for m in core.seen] == ["late1", "late2"]
        assert host.clock.t0 is None
        assert _tags(_drain(host._inboxes["b"])) == ["ack-late1", "ack-late2"]
        up = [decode_json(raw) for raw in _drain(host._up)]
        assert [type(i) for i in up] == [ChildReady, ChildExit]

    def _parent(self):
        """A LiveRuntime wired to in-process queues, as ``start()`` would
        leave it had it forked one already-exited child ``a``."""

        class _Exited:
            exitcode = 0

            def is_alive(self):
                return False

            def join(self, timeout=None):
                pass

        rt = build(
            DeploymentSpec(
                workload="anomaly",
                workload_params={"profile": "MM", "n_tasks": 4},
                n=4,
                backend="live",
            )
        )
        rt._up = _Queue()
        rt._inboxes = {p: _Queue() for p in "ab"}
        rt._procs = {"a": _Exited()}
        rt._t0 = rt._t_wall0 = rt._last_reap = time.monotonic()
        rt._pending, rt._report, rt._exited = [], LiveReport(), set()
        return rt

    def _emit_two(self, rt):
        def emit(core, msg):
            for i in range(2):
                core.emit(TaskCompleted(time=1.0 + i, pid="a", task_id=f"t{i}"))

        host, _ = _host(
            {"emit": emit}, peers=("b",), up=rt._up, wanted=(CATEGORY_TASK,)
        )
        host._inbox.put(_frame("b", "emit"))
        host._inbox.put(encode_json(CtrlShutdown()))
        host.run()
        assert rt._up.qsize() == 3  # ready, one batch of two events, exit

    def test_poll_unpacks_event_batches(self):
        rt = self._parent()
        self._emit_two(rt)
        rt.poll(timeout=0.0)
        assert rt._report.tasks_completed == 2
        assert rt._report.sim_seconds == 2.0
        assert rt._exited == {"a"}
        rt._cleanup(rt._procs)

    def test_shutdown_unpacks_event_batches(self):
        rt = self._parent()
        self._emit_two(rt)
        report = rt.stop()
        assert rt.metrics.tasks_completed == 2
        assert "a" in report.busy_seconds
