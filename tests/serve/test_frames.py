"""Frame codec: round-trips over real sockets, oversized and truncated
frames, protocol value types."""

import socket
import statistics
import struct
import threading
import time

import pytest

from repro.core.tasks import Opcode, Task
from repro.errors import ServeError
from repro.runtime import codec
from repro.serve.frames import (
    ADMITTED,
    MAX_FRAME,
    ClientHello,
    ServerHello,
    SubmitReply,
    SubmitTask,
    TaskDone,
    no_delay,
    pack_frame,
    register_frames,
    recv_frame,
    send_frame,
    unpack_payload,
)


def sock_pair():
    return socket.socketpair()


class TestPackUnpack:
    def test_every_frame_type_round_trips(self):
        frames = [
            ClientHello(client="c1"),
            ServerHello(gateway="gw", n=4, shards=2, time_scale=0.25),
            SubmitTask(
                task=Task(
                    task_id="t1",
                    opcode=Opcode.BOTH,
                    update_payload={"x": 1},
                    compute_payload={"y": 2},
                    tenant="t0",
                )
            ),
            SubmitReply(task_id="t1", status=ADMITTED, queue_depth=3),
            TaskDone(
                task_id="t1", tenant="t0", completed_at=2.5, submitted_at=1.0
            ),
        ]
        for frame in frames:
            packed = pack_frame(frame)
            (length,) = struct.unpack(">I", packed[:4])
            assert length == len(packed) - 4
            again = unpack_payload(packed[4:])
            assert again == frame

    def test_task_payload_survives_the_wire_as_a_task(self):
        task = Task(
            task_id="t9", opcode=Opcode.COMPUTE, update_payload=[1, 2],
            compute_payload=None, tenant="t3",
        )
        packed = pack_frame(SubmitTask(task=task))
        again = unpack_payload(packed[4:])
        assert isinstance(again.task, Task)
        assert again.task.canonical() == task.canonical()
        assert again.task.tenant == "t3"

    def test_oversized_payload_rejected_at_pack_time(self):
        huge = SubmitTask(task="x" * (MAX_FRAME + 1))
        with pytest.raises(ServeError, match="exceeds"):
            pack_frame(huge)

    def test_undecodable_payload(self):
        with pytest.raises(ServeError, match="undecodable"):
            unpack_payload(b"not json at all {")


class TestRegistryReuse:
    """Every pack/unpack registers the frame vocabulary; registering what
    is already registered must leave the codec registry alone."""

    def test_second_registration_keeps_the_registry_object(self):
        register_frames()
        registry = codec._registry()
        register_frames()
        assert codec._registry() is registry

    def test_frames_do_not_rebuild_the_registry(self, monkeypatch):
        builds = []
        build = codec._build_registry

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(codec, "_build_registry", counting)
        reply = SubmitReply(task_id="t1", status=ADMITTED, queue_depth=1)
        for _ in range(100):
            assert unpack_payload(pack_frame(reply)[4:]) == reply
        assert len(builds) <= 1


class TestSocketFraming:
    def test_round_trip_over_a_real_socket(self):
        a, b = sock_pair()
        try:
            send_frame(a, SubmitReply(task_id="t1", status=ADMITTED))
            send_frame(a, TaskDone(
                task_id="t1", tenant="t0", completed_at=1.0, submitted_at=0.5
            ))
            first = recv_frame(b)
            second = recv_frame(b)
            assert isinstance(first, SubmitReply)
            assert isinstance(second, TaskDone)
        finally:
            a.close()
            b.close()

    def test_clean_eof_at_frame_boundary_returns_none(self):
        a, b = sock_pair()
        try:
            send_frame(a, ClientHello())
            a.close()
            assert isinstance(recv_frame(b), ClientHello)
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_header_raises(self):
        a, b = sock_pair()
        try:
            a.sendall(b"\x00\x00")  # 2 of 4 header bytes, then EOF
            a.close()
            with pytest.raises(ServeError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_truncated_payload_raises(self):
        a, b = sock_pair()
        try:
            packed = pack_frame(ClientHello(client="x"))
            a.sendall(packed[:-3])  # drop the payload tail
            a.close()
            with pytest.raises(ServeError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_announced_oversize_cut_off_before_payload_read(self):
        a, b = sock_pair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME + 1))
            with pytest.raises(ServeError, match="ceiling"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_interleaved_frames_from_a_writer_thread(self):
        a, b = sock_pair()
        n = 50
        try:
            def writer():
                for i in range(n):
                    send_frame(a, SubmitReply(task_id=f"t{i}", status=ADMITTED))
                a.close()

            t = threading.Thread(target=writer)
            t.start()
            got = []
            while True:
                frame = recv_frame(b)
                if frame is None:
                    break
                got.append(frame.task_id)
            t.join()
            assert got == [f"t{i}" for i in range(n)]
        finally:
            b.close()


class TestNoDelay:
    def test_task_done_leaves_without_waiting_for_an_ack(self):
        # the gateway's frame pattern: SubmitTask -> SubmitReply, then a
        # small TaskDone 5 ms later while the reply may still be unACKed;
        # with Nagle on, it waits for the client's delayed-ACK timer
        listener = socket.create_server(("127.0.0.1", 0))
        client = socket.create_connection(listener.getsockname()[:2])
        server = no_delay(listener.accept()[0])
        listener.close()
        sent: list[float] = []

        def serve():
            while (frame := recv_frame(server)) is not None:
                send_frame(server, SubmitReply(task_id=frame.task,
                                               status=ADMITTED))
                time.sleep(0.005)
                sent.append(time.perf_counter())
                send_frame(server, TaskDone(task_id=frame.task, tenant="t0",
                                            completed_at=1.0, submitted_at=0.5))

        t = threading.Thread(target=serve)
        t.start()
        delays = []
        try:
            for i in range(10):
                send_frame(client, SubmitTask(task=f"t{i}"))
                assert isinstance(recv_frame(client), SubmitReply)
                assert isinstance(recv_frame(client), TaskDone)
                delays.append(time.perf_counter() - sent[-1])
        finally:
            client.close()
            t.join(timeout=5.0)
            server.close()
        assert not t.is_alive()
        assert statistics.median(delays) < 0.010, delays


class TestAsyncFraming:
    def test_read_frame_async_round_trip_and_eof(self):
        import asyncio

        from repro.serve.frames import read_frame_async

        async def scenario():
            server_got = []

            async def on_conn(reader, writer):
                while True:
                    frame = await read_frame_async(reader)
                    if frame is None:
                        break
                    server_got.append(frame)
                writer.close()

            server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(pack_frame(ClientHello(client="async")))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)
            server.close()
            await server.wait_closed()
            return server_got

        got = asyncio.run(scenario())
        assert got == [ClientHello(client="async")]
