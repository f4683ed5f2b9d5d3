"""The live transport's hot path, driven in-process (no fork, tier-1).

A :class:`~repro.live.host.LiveHost` talks to its peers and its parent
over OS pipes, so these tests hand it ``os.pipe()`` pairs of their own
(:class:`Wires`): they write what peers and the parent send into its
read ends, call ``run()`` (it returns on the trailing ``CtrlShutdown``)
and read what came out of its write ends — how often the codec ran, how
sends were framed and written, and what a receiver saw.  Cases that need
a concurrent reader run the host in a thread.  Fork-level behaviour is
covered by ``test_crossval.py``, ``test_process_faults.py`` and
``tests/serve`` under the ``live`` marker.
"""

import fcntl
import gc
import math
import os
import queue
import resource
import selectors
import threading
import time

import pytest

from repro.api import DeploymentSpec, build
from repro.consensus.messages import CsRequest
from repro.errors import LiveError, ReplayError
from repro.live import host as host_mod
from repro.live import runtime as runtime_mod
from repro.live.host import CTRL, NEQ, PLAIN, Ends, LiveHost, frame
from repro.live.runtime import LiveReport
from repro.live.wire import (
    ChildExit,
    ChildReady,
    CtrlShutdown,
    CtrlStart,
    register_wire,
)
from repro.obs.events import CATEGORY_TASK, TaskCompleted
from repro.runtime.codec import decode_frame, decode_json, encode_frame
from repro.runtime.core import ProtocolCore

#: fits a default 64 KiB pipe, so it is written in one go
_BIG = "x" * (48 * 1024)
#: more than a default pipe holds: written in parts
_HUGE = "z" * (200 * 1024)
#: a mebibyte that is not ASCII: escaped into the head, not raw in the body
_WIDE = "\u00e9" + "w" * (1 << 20)


def setup_module():
    register_wire()


class _Queue(queue.Queue):
    """``mp.Queue`` surface of the up channel that the parent's cleanup
    also touches."""

    def close(self):
        pass

    cancel_join_thread = close


class Wires:
    """A host's share of the pipe mesh, made in this process: the test
    writes what peers (``into``) and the parent (``ctrl``) send and reads
    what the host wrote for each peer (``outof``)."""

    live: list = []  # every Wires not yet closed

    def __init__(self, peers):
        self.fds = []
        rx, tx, self.into, self.outof = {}, {}, {}, {}
        for peer in peers:
            rx[peer], self.into[peer] = self._pipe()
            self.outof[peer], tx[peer] = self._pipe()
        ctrl, self.ctrl = self._pipe()
        self.ends = Ends(ctrl=ctrl, rx=rx, tx=tx)
        Wires.live.append(self)

    def _pipe(self):
        r, w = os.pipe()
        self.fds += (r, w)
        return r, w

    def send(self, src, data):
        """Write ``data`` as peer ``src`` sends it (``None``: the parent)."""
        fd = self.ctrl if src is None else self.into[src]
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]

    def raw(self, dst, wait=0.0):
        """Every byte the host wrote for ``dst`` so far, waiting up to
        ``wait`` seconds for the first."""
        fd = self.outof[dst]
        os.set_blocking(fd, False)
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            sel.select(wait)
        out = bytearray()
        while True:
            try:
                data = os.read(fd, 1 << 16)
            except BlockingIOError:
                break
            if not data:
                break
            out += data
        return bytes(out)

    def read(self, dst):
        """What the host wrote for ``dst``, as ``(kind, (head, body))``."""
        return _parse(self.raw(dst))

    def close(self):
        for fd in self.fds:
            os.close(fd)
        self.fds = []


@pytest.fixture(autouse=True)
def _close_wires():
    yield
    while Wires.live:
        Wires.live.pop().close()


def _parse(data, complete=True):
    """A frame reader: ``(kind, (head, body))`` of every whole frame;
    unless ``complete`` is false (a reader mid-stream), nothing may be
    left."""
    out, pos, size = [], 0, host_mod._HEAD.size
    while len(data) - pos >= size:
        kind, n_head, n_body = host_mod._HEAD.unpack_from(data, pos)
        mid = pos + size + n_head
        if mid + n_body > len(data):
            break
        stop = mid + n_body
        out.append((kind, (data[pos + size : mid].decode(), data[mid:stop])))
        pos = stop
    assert pos == len(data) or not complete, "a frame was cut short"
    return out


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


def _msgs(*tags, neq=False):
    """A frame writer: the bytes a peer writes to send ``tags``."""
    kind = NEQ if neq else PLAIN
    return b"".join(frame(kind, _req(t)) for t in tags)


def _ctrl(envelope):
    return frame(CTRL, envelope)


def _host(script=None, pid="a", peers=("b", "c", "d"), up=None, wanted=()):
    wires = Wires(peers)
    core = _Probe(pid, script)
    host = LiveHost(core, 1, wires.ends, up or _Queue(), frozenset(wanted))
    host.wires = wires
    return host, core


def _run(host, *items, grace=0.0):
    """Serve ``items`` — ``(src, bytes)``, ``src`` ``None`` for the
    parent — then shut down; returns what went up, decoded.  The host's
    one wait reports its pipes in the order they turned readable, so
    the trailing shutdown is read after the peers' messages."""
    for src, data in items:
        host.wires.send(src, data)
    host.wires.send(None, _ctrl(CtrlShutdown(grace=grace)))
    host.run()
    return [decode_json(raw) for raw in _drain(host._up)]


def _drain(q):
    out = []
    while not q.empty():
        out.append(q.get_nowait())
    return out


def _tags(frames):
    return [decode_frame(*payload).request_id for _, payload in frames]


def _start():
    return _ctrl(CtrlStart(t0=time.monotonic(), time_scale=1.0))


class _Writes:
    """Every ``writev`` a host makes: per write end, the buffers it was
    handed and how many bytes went out."""

    def __init__(self, monkeypatch):
        self.calls = []
        real = os.writev

        def writev(fd, bufs):
            bufs = list(bufs)
            n = real(fd, bufs)
            self.calls.append((fd, bufs, n))
            return n

        monkeypatch.setattr(host_mod.os, "writev", writev)

    def to(self, host, dst):
        fd = host.wires.ends.tx[dst]
        return [(bufs, n) for f, bufs, n in self.calls if f == fd]

    def flushes(self, host, dst):
        """The tags each write to ``dst`` carried."""
        return [
            _tags(_parse(b"".join(bufs)[:n])) for bufs, n in self.to(host, dst)
        ]


class TestEncodeOnce:
    def test_multicast_encodes_once_for_all_destinations(self, monkeypatch):
        calls = []

        def counting(value):
            calls.append(type(value).__name__)
            return encode_frame(value)

        writes = _Writes(monkeypatch)
        host, _ = _host({"go": lambda c, m: c.multicast("bcd", _req("out"))})
        go = _msgs("go")  # framed before the count starts
        monkeypatch.setattr(host_mod, "encode_frame", counting)
        _run(host, ("b", go))
        assert calls.count("CsRequest") == 1
        frames = [host.wires.read(p) for p in "bcd"]
        assert all(f == [(PLAIN, frames[0][0][1])] for f in frames)
        # one bytes object handed to every destination's write
        payloads = {id(writes.to(host, p)[0][0][1]) for p in "bcd"}
        assert len(payloads) == 1

    def test_send_and_neq_multicast_encode_once_each(self, monkeypatch):
        calls = []
        trigger = _msgs("go")  # framed before the count starts
        monkeypatch.setattr(
            host_mod,
            "encode_frame",
            lambda v: calls.append(v) or encode_frame(v),
        )

        def go(core, msg):
            core.send("b", _req("s"))
            core.neq_multicast("cd", _req("n"))

        host, _ = _host({"go": go})
        _run(host, ("b", trigger))
        assert [m.request_id for m in calls if isinstance(m, CsRequest)] == [
            "s",
            "n",
        ]
        assert [kind for kind, _ in host.wires.read("c")] == [NEQ]

    def test_unknown_destination_is_loud(self):
        host, _ = _host({"go": lambda c, m: c.send("nobody", _req("x"))})
        with pytest.raises(LiveError, match="unknown node 'nobody'"):
            _run(host, ("b", _msgs("go")))


class TestFraming:
    def test_one_put_per_destination_per_turn(self, monkeypatch):
        """A turn's sends to one destination leave in one ``writev``."""

        def go(core, msg):
            for i in range(3):
                core.multicast("bc", _req(f"m{i}"))
            core.send("b", _req("m3"))

        writes = _Writes(monkeypatch)
        host, _ = _host({"go": go})
        _run(host, ("d", _msgs("go")))
        assert writes.flushes(host, "b") == [["m0", "m1", "m2", "m3"]]
        assert writes.flushes(host, "c") == [["m0", "m1", "m2"]]

    @pytest.mark.parametrize(
        "big", [_BIG, _HUGE, _WIDE], ids=["whole", "partial", "escaped"]
    )
    def test_order_holds_across_a_partial_write(self, monkeypatch, big):
        """Per-(src,dst) FIFO is the pipe's byte order, also when a pipe
        too small for a payload takes it in parts while the sender goes
        on posting behind it — a raw body or a long escaped head."""

        def go(core, msg):
            core.send("b", _req("before"))
            core.send("b", _req("big", big))
            core.send("b", _req("after"))

        writes = _Writes(monkeypatch)
        host, _ = _host({"go": go, "more": lambda c, m: c.send("b", _req("last"))})
        host.wires.send("d", _msgs("go"))
        host.wires.send("d", _msgs("more"))
        runner = threading.Thread(target=host.run, daemon=True)
        runner.start()
        got, deadline = b"", time.monotonic() + 10
        while len(_parse(got, complete=False)) < 4 and time.monotonic() < deadline:
            got += host.wires.raw("b", wait=0.1)
        host.wires.send(None, _ctrl(CtrlShutdown()))
        runner.join(timeout=10)
        assert not runner.is_alive()
        frames = _parse(got)
        assert _tags(frames) == ["before", "big", "after", "last"]
        assert decode_frame(*frames[1][1]).payload == big
        partial = any(n < sum(map(len, bufs)) for bufs, n in writes.to(host, "b"))
        assert partial is (big is not _BIG)

    def test_big_multicast_payload_arrives_whole_everywhere(self, monkeypatch):
        def go(core, msg):
            core.send("c", _req("small"))
            core.multicast("bc", _req("big", _BIG))

        writes = _Writes(monkeypatch)
        host, _ = _host({"go": go})
        _run(host, ("d", _msgs("go")))
        to_b, to_c = host.wires.read("b"), host.wires.read("c")
        assert _tags(to_b) == ["big"]
        assert _tags(to_c) == ["small", "big"]
        assert to_b[0] == to_c[1]
        assert decode_frame(*to_b[0][1]).payload == _BIG
        # encoded once: the same bytes went to both pipes
        ((b_bufs, _),), ((c_bufs, _),) = writes.to(host, "b"), writes.to(host, "c")
        assert b_bufs[-1] is c_bufs[-1]


class TestReceive:
    def test_a_message_split_across_two_reads_is_delivered_once(self):
        host, core = _host()
        data = _msgs("split") + _msgs("whole")
        cut = len(data) - len(_msgs("whole")) - 7  # inside the first payload
        host.wires.send("b", data[:cut])
        assert host._recv(0.0) is None  # half a frame is not a message
        host.wires.send("b", data[cut:])
        while (item := host._recv(0.0)) is not None:
            host._handle(item)
        assert [m.request_id for m in core.seen] == ["split", "whole"]
        assert frame(PLAIN, core.seen[0]) == data[: len(_msgs("split"))]

    def test_frames_decode_with_the_collector_paused_and_restored(
        self, monkeypatch
    ):
        seen = []

        def decode(head, body):
            seen.append(gc.isenabled())
            return decode_frame(head, body)

        monkeypatch.setattr(host_mod, "decode_frame", decode)
        host, core = _host()
        host._handle(("b", [(False, encode_frame(_req("ok", "k" * 200)))]))
        host._handle(("b", [(False, encode_frame(_req("short")))]))
        with pytest.raises(ReplayError):  # a hostile frame restores it too
            host._handle(("b", [(False, (b'{"__r":[0,9]}', b"x"))]))
        # only a frame with a body pauses it: without refs there is no tree
        assert seen == [False, True, False] and gc.isenabled()
        assert [m.request_id for m in core.seen] == ["ok", "short"]

    def test_control_and_peer_pipes_are_served_by_one_wait(self):
        host, core = _host()
        host.wires.send("c", _msgs("from-c"))
        host.wires.send(None, _start())
        items = [host._recv(0.0), host._recv(0.0)]
        assert host._recv(0.0) is None
        assert sum(isinstance(i, CtrlStart) for i in items) == 1
        assert [i for i in items if type(i) is tuple][0][0] == "c"

    def test_a_closed_peer_is_unwatched_and_a_dead_reader_costs_only_its_bytes(
        self,
    ):
        host, core = _host({"go": lambda c, m: c.multicast("bc", _req("out"))})
        wires = host.wires
        for fd in (wires.into["c"], wires.outof["b"]):
            os.close(fd)  # c will never write again, b never read again
            wires.fds.remove(fd)
        assert host._recv(0.0) is None
        assert wires.ends.rx["c"] not in host._on  # EOF: unwatched
        _run(host, ("d", _msgs("go")))
        assert [m.request_id for m in core.seen] == ["go"]
        assert _tags(wires.read("c")) == ["out"]  # the others still hear
        assert not host._out["b"]  # EPIPE dropped what b was owed

    def test_a_closed_control_pipe_stops_the_node(self):
        """EOF on the control pipe: the parent is gone, so is the node."""
        host, _ = _host()
        os.close(host.wires.ctrl)
        host.wires.fds.remove(host.wires.ctrl)
        runner = threading.Thread(target=host.run, daemon=True)
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive()

    def test_two_hosts_posting_megabytes_to_each_other_never_block(self):
        """Each host posts 4 MiB to the other before either reads: with a
        blocking write both would wait on a full 64 KiB pipe forever."""
        big = "m" * (4 << 20)
        a_rx_b, b_tx_a = os.pipe()
        b_rx_a, a_tx_b = os.pipe()
        hosts, cores = {}, {}
        for pid, peer, rx, tx in (
            ("a", "b", a_rx_b, a_tx_b),
            ("b", "a", b_rx_a, b_tx_a),
        ):
            wires = Wires(("p",))
            wires.fds += (rx, tx)
            ends = Ends(
                ctrl=wires.ends.ctrl,
                rx={**wires.ends.rx, peer: rx},
                tx={**wires.ends.tx, peer: tx},
            )
            core = _Probe(
                pid, {"go": lambda c, m, peer=peer: c.send(peer, _req("bulk", big))}
            )
            hosts[pid] = LiveHost(core, 1, ends, _Queue(), frozenset())
            hosts[pid].wires, cores[pid] = wires, core
        for host in hosts.values():
            host.wires.send("p", _msgs("go"))
        runners = [
            threading.Thread(target=h.run, daemon=True) for h in hosts.values()
        ]
        for r in runners:
            r.start()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and not all(
            len(c.seen) == 2 for c in cores.values()
        ):
            time.sleep(0.01)
        for host in hosts.values():
            host.wires.send(None, _ctrl(CtrlShutdown()))
        for r in runners:
            r.join(timeout=10)
        assert not any(r.is_alive() for r in runners)
        for core in cores.values():
            assert [m.request_id for m in core.seen] == ["go", "bulk"]
            assert core.seen[1].payload == big


class TestDelivery:
    def test_sender_and_neq_stamps(self):
        host, core = _host()
        _run(host, ("b", _msgs("q", neq=True) + _msgs("p")))
        first, second = core.seen
        assert (first.sender, first._neq) == ("b", True)
        assert (second.sender, second._neq) == ("b", False)
        assert "_neq" not in vars(second)  # only neq copies carry the stamp

    def test_stamps_survive_a_host_to_host_hop(self):
        sender, _ = _host({"go": lambda c, m: c.neq_multicast("b", _req("n"))})
        _run(sender, ("d", _msgs("go")))
        receiver, core = _host(pid="b", peers=("a",))
        _run(receiver, ("a", sender.wires.raw("b")))
        (msg,) = core.seen
        assert (msg.request_id, msg.sender, msg._neq) == ("n", "a", True)

    def test_halt_mid_frame_drops_the_rest(self):
        def die(core, msg):
            core.send("b", _req("last-words"))
            core.crash()

        host, core = _host({"die": die})
        up = _run(host, ("b", _msgs("one", "die", "three")), ("b", _msgs("four")))
        assert [m.request_id for m in core.seen] == ["one", "die"]
        # what it sent before halting still goes out, as under the DES
        assert _tags(host.wires.read("b")) == ["last-words"]
        assert up[-1].crashed is True


class TestLoopback:
    """A send to the node itself skips the codec and the pipes: the
    objects a turn sent to self are the next turn's first frame, stamped
    as the DES stamps the one object all its receivers share."""

    def _counting(self, monkeypatch):
        calls = []

        def counting(value):
            calls.append(value)
            return encode_frame(value)

        monkeypatch.setattr(host_mod, "encode_frame", counting)
        return calls

    def test_multicast_including_self_encodes_once_and_skips_own_inbox(
        self, monkeypatch
    ):
        trigger = _msgs("go")  # framed before the count starts
        calls = self._counting(monkeypatch)
        writes = _Writes(monkeypatch)
        out = _req("out")
        log = []

        def go(core, msg):
            core.neq_multicast("abc", out)
            log.append(("returned", len(core.seen)))

        host, core = _host({"go": go, "out": lambda c, m: log.append("self")})
        _run(host, ("d", trigger), grace=0.05)
        assert [m for m in calls if isinstance(m, CsRequest)] == [out]
        # nothing went through a pipe but the two remote copies
        tx = host.wires.ends.tx
        assert sorted(fd for fd, _, _ in writes.calls) == sorted((tx["b"], tx["c"]))
        assert _tags(host.wires.read("b")) == ["out"]
        _, self_copy = core.seen
        assert self_copy is out  # the object itself, not a decoded copy
        assert (self_copy.sender, self_copy._neq) == ("a", True)
        assert log == [("returned", 1), "self"]  # never re-entrant

    def test_send_only_to_self_never_encodes(self, monkeypatch):
        trigger = _msgs("go")  # framed before the count starts
        calls = self._counting(monkeypatch)
        host, core = _host({"go": lambda c, m: c.send("a", _req("me"))})
        _run(host, ("b", trigger), grace=0.05)
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
        _run(host, ("b", _msgs("go")), grace=0.05)
        assert stamps == [("a", True), ("a", False)]

    def test_self_sends_keep_fifo_and_spend_the_drain_budget(self, monkeypatch):
        n = host_mod._DRAIN_MSGS + 6

        def go(core, msg):
            for i in range(n):
                core.send("a", _req(f"s{i}"))

        echo = lambda c, m: c.send("b", _req("echo-" + m.request_id))  # noqa: E731
        writes = _Writes(monkeypatch)
        host, core = _host({"go": go, "*": echo})
        host._handle(("d", [(False, encode_frame(_req("go")))]))
        _run(host, ("c", _msgs("tail")), grace=0.05)
        selfs = [f"s{i}" for i in range(n)]
        assert [m.request_id for m in core.seen] == ["go", *selfs, "tail"]
        flushes = writes.flushes(host, "b")
        assert sum(flushes, []) == [f"echo-{t}" for t in (*selfs, "tail")]
        # the self-sends used up the next turn's budget: "tail" waited
        # for the turn after, so the echoes left in two flushes
        assert [len(f) for f in flushes] == [n, 1]

    def test_self_send_queued_at_shutdown_is_delivered_in_the_grace_drain(self):
        host, core = _host({"go": lambda c, m: c.send("a", _req("late"))})
        _run(host, ("b", _msgs("go")), grace=0.05)
        assert [m.request_id for m in core.seen] == ["go", "late"]

    def test_without_grace_pending_self_sends_are_dropped(self):
        host, core = _host({"go": lambda c, m: c.send("a", _req("late"))})
        _run(host, ("b", _msgs("go")))
        assert [m.request_id for m in core.seen] == ["go"]


class TestBoundedDrain:
    def test_due_job_fires_though_the_inbox_never_empties(self):
        fired_after = []

        def arm(core, msg):
            core.run_job(0.0, lambda: fired_after.append(len(core.seen)))

        host, core = _host({"arm": arm})
        host._handle(CtrlStart(t0=time.monotonic(), time_scale=1.0))
        tags = [f"m{i}" for i in range(300)]
        _run(host, ("b", _msgs("arm", *tags)))
        assert len(core.seen) == 301
        # due at once: the drain stops after the message that armed it,
        # though the rest arrived in the same read
        assert fired_after == [1]

    def _budget_turns(self, monkeypatch, one_write):
        writes = _Writes(monkeypatch)
        host, _ = _host({"*": lambda c, m: c.send("b", m)})
        n = 3 * host_mod._DRAIN_MSGS + 5
        tags = [f"m{i}" for i in range(n)]
        if one_write:
            _run(host, ("c", _msgs(*tags)))
        else:
            _run(host, *[("c", _msgs(t)) for t in tags])
        flushes = writes.flushes(host, "b")
        assert sum(flushes, []) == tags
        assert [len(f) for f in flushes] == [host_mod._DRAIN_MSGS] * 3 + [5]

    def test_message_budget_ends_the_turn(self, monkeypatch):
        self._budget_turns(monkeypatch, one_write=False)

    def test_message_budget_ends_the_turn_within_one_write(self, monkeypatch):
        self._budget_turns(monkeypatch, one_write=True)

    def test_the_budget_splits_one_write_by_messages(self, monkeypatch):
        """The pipe keeps no write boundaries: a peer's long write is
        served ``_DRAIN_MSGS`` messages a turn, like separate ones."""
        writes = _Writes(monkeypatch)
        host, _ = _host({"*": lambda c, m: c.send("b", m)})
        n = host_mod._DRAIN_MSGS + 10
        _run(host, ("c", _msgs(*[f"m{i}" for i in range(n)])), ("c", _msgs("tail")))
        sizes = [len(f) for f in writes.flushes(host, "b")]
        assert sizes == [host_mod._DRAIN_MSGS, 11]


class _Waits:
    """Stands in for a host's epoll and for ``select.select``, and notes
    the longest each wait may last: epoll counts whole milliseconds and
    rounds a timeout up to the next one, ``select`` keeps microseconds."""

    def __init__(self, host, monkeypatch):
        self.asked = []
        self._poll = host._poll
        real_select = host_mod.select.select

        def select(rlist, wlist, xlist, timeout):
            self.asked.append(timeout)
            return real_select(rlist, wlist, xlist, timeout)

        monkeypatch.setattr(host_mod.select, "select", select)
        host._poll = self

    def poll(self, timeout=-1, maxevents=-1):
        self.asked.append(math.ceil(timeout * 1e3) * 1e-3 if timeout > 0 else 0)
        return self._poll.poll(timeout, maxevents)

    def __getattr__(self, name):
        return getattr(self._poll, name)


def _shutdown_from(host):
    """A continuation that asks ``host`` to shut down, as its parent
    would, so ``run()`` returns once it has fired."""
    return lambda: host.wires.send(None, _ctrl(CtrlShutdown()))


class TestWait:
    def test_a_sub_millisecond_deadline_is_waited_for_to_the_microsecond(
        self, monkeypatch
    ):
        host, core = _host()
        host._handle(CtrlStart(t0=time.monotonic(), time_scale=1.0))
        waits = _Waits(host, monkeypatch)
        fired = []
        stop = _shutdown_from(host)

        def due():
            fired.append(len(waits.asked))
            stop()

        core.set_timer("t", 3e-4, due)
        host.run()
        assert fired and fired[0] >= 1  # the loop waited for it
        assert max(waits.asked[: fired[0]]) <= 3e-4

    def test_a_cancelled_head_wakes_no_one(self, monkeypatch):
        host, core = _host()
        host._handle(CtrlStart(t0=time.monotonic(), time_scale=1.0))
        waits = _Waits(host, monkeypatch)
        core.set_timer("dead", 1e-4, lambda: None)
        core.cancel_timer("dead")
        core.set_timer("t", 0.05, _shutdown_from(host))
        host.run()
        # the first wait runs towards the live timer's 50 ms, not the
        # cancelled one's 0.1 ms
        assert 0.01 < waits.asked[0] <= 0.05

    def test_mesh_ends_above_fd_setsize_still_deliver_and_flush(self):
        """``select`` refuses descriptors >= 1024; the host's wait must
        not hand it the mesh ends, whatever their numbers."""
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        want = 1024 + 64
        if hard != resource.RLIM_INFINITY and hard < want:
            pytest.skip(f"descriptors are limited to {hard}")
        if soft != resource.RLIM_INFINITY and soft < want:
            resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
        try:
            wires = Wires(("b", "c", "d"))
            high = {}
            for fd in (wires.ends.ctrl, *wires.ends.rx.values(),
                       *wires.ends.tx.values()):
                high[fd] = fcntl.fcntl(fd, fcntl.F_DUPFD, 1024)
                wires.fds.append(high[fd])
            ends = Ends(
                ctrl=high[wires.ends.ctrl],
                rx={k: high[fd] for k, fd in wires.ends.rx.items()},
                tx={k: high[fd] for k, fd in wires.ends.tx.items()},
            )
            for fd in high:  # the host's ends are the high copies alone
                os.close(fd)
                wires.fds.remove(fd)
            assert min(high.values()) >= 1024

            def go(core, msg):  # reply once a sub-millisecond wait is over
                core.set_timer("t", 3e-4, reply, core)

            def reply(core):
                core.multicast("bcd", _req("out"))
                wires.send(None, _ctrl(CtrlShutdown()))

            core = _Probe("a", {"go": go})
            host = LiveHost(core, 1, ends, _Queue(), frozenset())
            host._handle(CtrlStart(t0=time.monotonic(), time_scale=1.0))
            wires.send("b", _msgs("go"))
            host.run()
            assert [m.request_id for m in core.seen] == ["go"]
            for peer in "bcd":
                assert _tags(wires.read(peer)) == ["out"]
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


class TestClockHeap:
    def test_cancelled_timers_do_not_pile_up(self):
        """Re-armed and cancelled timers stay on the heap until their
        deadline unless it is compacted: 10 000 arms with seven live."""
        host, core = _host()
        heap = host.clock.heap
        fired = []
        for i in range(10_000):
            core.set_timer(f"t{i % 7}", 600.0 + i, fired.append, i)
            if i % 7 == 6:
                core.cancel_timer("t0")
                core.cancel_timer("t1")
        assert host.clock._live == 7
        assert len(heap) <= 2 * 7 + host_mod._HEAP_SLACK
        core.cancel_timer("t0")
        core.cancel_timer("t1")
        host.clock.t0 = time.monotonic() - 20_000.0  # every deadline passed
        host.clock.fire_due()
        assert fired == [9_993, 9_994, 9_995, 9_998, 9_999]
        assert not heap and host.clock._live == 0

    def test_live_count_follows_jobs_and_cancels(self):
        host, core = _host()
        clock = host.clock
        core.run_job(1.0, lambda: None)
        core.set_timer("t", 5.0, lambda: None)
        core.schedule(2.0, lambda: None)
        assert clock._live == 3
        core.cancel_timer("t")
        assert clock._live == 2
        assert clock.next_due() == 1.0
        clock.t0 = time.monotonic() - 10.0
        clock.fire_due()
        assert clock._live == 0 and clock.next_due() is None


class TestShutdownAndParent:
    def test_grace_drain_accepts_frames_and_flushes_replies(self):
        host, core = _host(
            {"*": lambda c, m: c.send("b", _req("ack-" + m.request_id))}
        )
        host.wires.send(None, _ctrl(CtrlShutdown(grace=0.05)))
        host.wires.send("c", _msgs("late1", "late2"))
        host.wires.send(None, _start())  # anything but frames/submits is skipped
        host.run()
        assert [m.request_id for m in core.seen] == ["late1", "late2"]
        assert host.clock.t0 is None
        assert _tags(host.wires.read("b")) == ["ack-late1", "ack-late2"]
        up = [decode_json(raw) for raw in _drain(host._up)]
        assert [type(i) for i in up] == [ChildReady, ChildExit]

    def _parent(self):
        """A LiveRuntime wired to an in-process up queue, as ``start()``
        would leave it had it forked one already-exited child ``a``."""

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
        wires = Wires(())
        rt._ctrl, rt._ctrl_rx = {"a": wires.ctrl}, wires.ends.ctrl
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
        host.wires.send("b", _msgs("emit"))
        host.wires.send(None, _ctrl(CtrlShutdown()))
        host.run()
        assert rt._up.qsize() == 3  # ready, one batch of two events, exit

    def test_a_control_write_to_a_dead_child_is_loud(self):
        rt = self._parent()
        os.close(rt._ctrl_rx)  # the child's end, gone with the child
        Wires.live[-1].fds.remove(rt._ctrl_rx)
        with pytest.raises(LiveError, match="child a died"):
            rt._broadcast(CtrlShutdown())

    def test_a_control_write_to_a_stalled_child_gives_up(self, monkeypatch):
        monkeypatch.setattr(runtime_mod, "_JOIN_TIMEOUT_S", 0.05)
        rt = self._parent()
        os.set_blocking(rt._ctrl["a"], False)
        with pytest.raises(LiveError, match="child a stopped reading"):
            for _ in range(10_000):  # nobody reads: the pipe fills
                rt._broadcast(CtrlShutdown())

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
