"""End-to-end serving over real sockets and real OS processes.

These tests fork a live cluster behind a :class:`~repro.serve.Gateway`
and drive it with actual TCP clients, so they carry the ``live`` marker
and run in the dedicated timeout-bounded CI job, not tier-1.  A small
``time_scale`` keeps each case around a second or two of wall time.
"""

import socket
import struct

import pytest

from repro import api
from repro.serve import Client, drive_open_loop, serve_bench
from repro.serve.frames import (
    REJECTED,
    ClientHello,
    ServerHello,
    recv_frame,
    send_frame,
)

pytestmark = pytest.mark.live

_TIME_SCALE = 0.05


def _spec(n_tasks=8, rate=80.0, shards=1, config=(), seed=3):
    return api.DeploymentSpec(
        workload="open_loop",
        workload_params=(
            ("n_tasks", n_tasks),
            ("rate", rate),
            ("process", "poisson"),
            ("seed", seed),
        ),
        n=4,
        seed=seed,
        shards=shards,
        tenants=2,
        backend="live",
        sanitize=True,
        config=tuple(config),
    )


def _serve_and_drive(spec, done_timeout=30.0):
    items = spec.resolve_workload().tasks
    gateway = api.serve(spec, time_scale=_TIME_SCALE)
    try:
        clients = drive_open_loop(
            gateway.address,
            items,
            _TIME_SCALE,
            n_clients=2,
            done_timeout=done_timeout,
        )
    finally:
        gateway.stop()
    return gateway.result(client_slo=clients.slo()), clients


class TestGatewayEndToEnd:
    def test_serves_and_completes_every_offered_task(self):
        result, clients = _serve_and_drive(_spec(n_tasks=8))
        assert clients.offered == 8
        assert clients.rejected == 0
        assert clients.completed == 8
        assert result.tasks_completed == 8
        assert (result.sanitizer_violations or 0) == 0
        # gateway-side accounting matches what the clients saw
        assert result.extra["gateway_admitted"] == clients.admitted
        assert result.extra["gateway_deferred"] == clients.deferred
        assert result.extra["gateway_rejected"] == 0
        # typed client SLO landed on the result
        slo = result.client_slo
        assert slo["completed"] == 8
        assert slo["p50_latency"] > 0.0
        assert slo["p99_latency"] >= slo["p50_latency"]

    def test_sharded_serving_routes_by_tenant(self):
        result, clients = _serve_and_drive(_spec(n_tasks=8, shards=2))
        assert clients.completed == 8
        assert (result.sanitizer_violations or 0) == 0
        # both shard pipelines committed work: every OP reports outcomes
        commits = result.commits
        assert len(commits) == 2
        assert all(commits.values())

    def test_backpressure_sheds_under_overload(self):
        # queue of 2, drain far below offered: rejections must surface
        result, clients = _serve_and_drive(
            _spec(n_tasks=12, rate=120.0,
                  config=(("admission_queue", 2), ("admission_rate", 4.0))),
            done_timeout=10.0,
        )
        assert clients.rejected > 0
        # only non-rejected tasks ever complete
        assert clients.completed <= clients.admitted + clients.deferred
        assert result.extra["gateway_rejected"] == clients.rejected

    def test_protocol_violation_drops_only_that_client(self):
        spec = _spec(n_tasks=4, rate=400.0)
        items = spec.resolve_workload().tasks
        gateway = api.serve(spec, time_scale=_TIME_SCALE)
        try:
            host, port = gateway.address
            # rogue client: valid hello, then an undecodable frame
            rogue = socket.create_connection((host, port))
            try:
                send_frame(rogue, ClientHello(client="rogue"))
                assert isinstance(recv_frame(rogue), ServerHello)
                rogue.sendall(struct.pack(">I", 7) + b"garbage")
                # gateway drops us: EOF (or reset) on the next read
                try:
                    assert recv_frame(rogue) is None
                except Exception:
                    pass
            finally:
                rogue.close()
            # a well-behaved client on the same gateway still gets served
            with Client(host, port, client="good") as client:
                expect = 0
                for _, task in items:
                    reply = client.submit(task)
                    if reply.status != REJECTED:
                        expect += 1
                done = client.collect_done(expect, timeout=20.0)
                assert len(done) == expect > 0
        finally:
            gateway.stop()
        result = gateway.result()
        assert (result.sanitizer_violations or 0) == 0

    def test_every_accepted_connection_sends_frames_when_written(self):
        gateway = api.serve(_spec(n_tasks=4), time_scale=_TIME_SCALE)
        try:
            host, port = gateway.address
            with Client(host, port, client="a"), Client(host, port, client="b"):
                conns = list(gateway._conns.values())
                assert len(conns) == 2
                for conn in conns:
                    assert conn.sock.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    ) == 1
        finally:
            gateway.stop()

    def test_hello_reports_cluster_shape(self):
        spec = _spec(n_tasks=4, shards=2)
        gateway = api.serve(spec, time_scale=_TIME_SCALE)
        try:
            host, port = gateway.address
            with Client(host, port) as client:
                assert client.hello.n == 4
                assert client.hello.shards == 2
                assert client.hello.time_scale == _TIME_SCALE
        finally:
            gateway.stop()


class TestServeBench:
    def test_serve_bench_crossvalidates_and_trips_backpressure(self):
        report = serve_bench(
            n=4, tasks=10, rate=60.0, seed=5, time_scale=_TIME_SCALE
        )
        assert report.ok, report.summary()
        assert report.mismatches == []
        assert report.serve_result.client_slo["completed"] == 10
        assert report.overload_slo["rejected"] > 0
