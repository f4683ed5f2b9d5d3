"""Wire-level control types: registration and codec round-trips.

The live backend moves exactly two payload shapes between processes:
codec JSON envelopes (``repro.live.wire`` control dataclasses, and a
list of :class:`ChildEvent` per child loop turn on the way up), and net
frames whose payloads are codec JSON of protocol messages in content
form (a receiving host hands them to ``_handle`` as plain
``(src, [(neq, payload), ...])`` tuples).  These tests pin both shapes;
how hosts frame and write them is pinned by ``test_host_transport.py``
and protocol message coverage lives in
``tests/runtime/test_codec_completeness.py``.
"""

import pickle

from repro.consensus.messages import CsAck
from repro.live.wire import (
    ChildEvent,
    ChildExit,
    ChildReady,
    CtrlAction,
    CtrlShutdown,
    CtrlStart,
    NetEnvelope,
    register_wire,
)
from repro.obs.events import ChunkAccepted, TaskCompleted
from repro.runtime import codec


def setup_module():
    register_wire()


def _round_trip(obj):
    return codec.decode_json(codec.encode_json(obj))


def test_register_wire_is_idempotent():
    before = set(codec.registered_types())
    register_wire()
    register_wire()
    assert set(codec.registered_types()) == before


def test_net_envelope_still_round_trips():
    """Off the queues since net frames, but the ledger's
    ``live.envelope_encode_us`` row still encodes one."""
    env = NetEnvelope(src="e1", dst="v0", neq=True, payload='{"x": 1}')
    back = _round_trip(env)
    assert back == env
    assert back.neq is True


def test_net_frame_survives_the_queue_pickle():
    """A frame is builtins only (``mp.Queue`` pickles it) and its payloads
    are content form: no sender, no neq marker inside the JSON."""
    msg = CsAck(view=1, seq=2, batch_digest=b"d" * 32)
    msg.sender, msg._neq = "e1", True
    payload = codec.encode_json(msg, with_sender=False)
    frame = ("e1", [(True, payload), (False, payload)])
    assert pickle.loads(pickle.dumps(frame)) == frame
    back = codec.decode_json(payload)
    assert back == msg and back.sender is None and back._neq is False


def test_child_event_batch_is_one_json_list():
    batch = [
        ChildEvent(pid="op0", event=TaskCompleted(time=t, pid="op0", task_id=f"t-{t}"))
        for t in (1.0, 2.0)
    ]
    back = codec.decode_json(codec.encode_json(batch))
    assert isinstance(back, list) and back == batch


def test_ctrl_types_round_trip():
    for obj in (
        CtrlStart(t0=123.5, time_scale=0.25),
        CtrlAction(pid="e0", action={"op": "set", "select": "executors"}),
        CtrlShutdown(grace=0.2),
        ChildReady(pid="v3"),
    ):
        assert _round_trip(obj) == obj


def test_child_event_carries_trace_events():
    for event in (
        TaskCompleted(time=1.25, pid="op0", task_id="t-3"),
        ChunkAccepted(time=2.0, pid="op0", task_id="t-3", index=1, records=4),
    ):
        back = _round_trip(ChildEvent(pid="op0", event=event))
        assert type(back.event) is type(event)
        assert back.event == event


def test_child_exit_round_trips():
    exit_ = ChildExit(
        pid="op0",
        summary={"completed": ["t-1"], "chunks": {"t-1:0": "ab"}},
        busy_seconds=1.5,
        tasks_executed=3,
        unhandled=0,
        crashed=False,
    )
    assert _round_trip(exit_) == exit_
