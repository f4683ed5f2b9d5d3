"""Clients and the open-loop driver against an in-process fake gateway.

The fake is a loopback listener whose connection threads speak the
frames: ``ServerHello``, then for every ``SubmitTask`` an ADMITTED
``SubmitReply`` followed ``DONE_AFTER`` seconds later by its
``TaskDone`` — the gateway's frame pattern with no cluster behind it.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.core.tasks import Opcode, Task
from repro.errors import ServeError
from repro.serve import AsyncClient, Client, bench, drive_open_loop
from repro.serve.frames import (
    ADMITTED,
    ServerHello,
    SubmitReply,
    TaskDone,
    no_delay,
    recv_frame,
    send_frame,
)

DONE_AFTER = 0.005
#: the cluster latency every fake TaskDone reports (sim s)
CLUSTER_S = 0.004


class FakeGateway:
    def __init__(self) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(no_delay(sock),), daemon=True
            ).start()

    def _serve(self, sock: socket.socket) -> None:
        with sock:
            try:
                recv_frame(sock)  # ClientHello
                send_frame(
                    sock,
                    ServerHello(gateway="fake", n=4, shards=1, time_scale=1.0),
                )
                while (frame := recv_frame(sock)) is not None:
                    tid = frame.task.task_id
                    send_frame(sock, SubmitReply(task_id=tid, status=ADMITTED))
                    time.sleep(DONE_AFTER)
                    send_frame(
                        sock,
                        TaskDone(
                            task_id=tid,
                            tenant="t0",
                            completed_at=1.0 + CLUSTER_S,
                            submitted_at=1.0,
                        ),
                    )
            except (OSError, ServeError):
                pass

    def close(self) -> None:
        try:
            self.listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self.listener.close()


@pytest.fixture
def gateway():
    fake = FakeGateway()
    yield fake
    fake.close()


def _nodelay(sock) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def _task(i: int) -> Task:
    return Task(task_id=f"t{i}", opcode=Opcode.COMPUTE, tenant="t0")


class TestSocketOptions:
    def test_client_sends_frames_when_written(self, gateway):
        with Client(*gateway.address) as client:
            assert _nodelay(client._sock) == 1

    def test_async_client_transport_sends_frames_when_written(self, gateway):
        # asyncio sets the option on every TCP transport; the client
        # relies on that rather than setting it again
        async def scenario():
            client = await AsyncClient.connect(*gateway.address)
            try:
                return _nodelay(client._writer.get_extra_info("socket"))
            finally:
                await client.close()

        assert asyncio.run(scenario()) == 1


class RecordingClock:
    """Stands in for ``repro.serve.bench.time``: every ``monotonic``
    reading is logged with the name of the thread that took it."""

    sleep = staticmethod(time.sleep)

    def __init__(self) -> None:
        self.readings: list[tuple[str, float]] = []

    def monotonic(self) -> float:
        now = time.monotonic()
        self.readings.append((threading.current_thread().name, now))
        return now

    def of(self, thread: str) -> list[float]:
        return [at for name, at in self.readings if name == thread]


class TestOpenLoopDriver:
    def test_completion_stamped_when_task_done_arrives(
        self, gateway, monkeypatch
    ):
        # one lane, submissions 20 ms apart: a completion read only after
        # the lane finished offering would be charged the rest of the span
        clock = RecordingClock()
        monkeypatch.setattr(bench, "time", clock)
        items = [(0.02 * i, _task(i)) for i in range(8)]
        report = drive_open_loop(
            gateway.address, items, time_scale=1.0, n_clients=1,
            done_timeout=5.0,
        )
        assert report.completed == 8
        assert len(report.latencies) == 8
        assert report.horizon >= 0.14
        # on drive_open_loop's own clock: the receiver stamped every TaskDone,
        # and the first stamp precedes the lane's last reading (taken
        # once it finished offering, ~140 ms after the first submission)
        stamps = clock.of("bench-done-0")
        assert len(stamps) == 8, clock.readings
        assert stamps[0] < clock.of("bench-lane-0")[-1], clock.readings

    def test_edge_is_latency_minus_cluster_latency(self, gateway):
        items = [(0.01 * i, _task(i)) for i in range(6)]
        report = drive_open_loop(
            gateway.address, items, time_scale=1.0, n_clients=2,
            done_timeout=5.0,
        )
        assert report.completed == 6
        assert sorted(report.edges) == pytest.approx(
            [lat - CLUSTER_S for lat in sorted(report.latencies)]
        )
        slo = report.slo()
        assert slo["edge_p50"] == pytest.approx(slo["p50_latency"] - CLUSTER_S)
