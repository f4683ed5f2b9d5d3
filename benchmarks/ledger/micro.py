"""Isolated microbenchmarks: one public function of one layer each.

Each bench runs its function in batches for about ``BUDGET_S`` and
reports the fastest batch: on a shared two-vCPU host interference only
ever adds time, so the minimum is the steadiest estimate of the cost.  Payload sizes are the benchmark's three message shapes: a
consensus message, a 10 × 1 KiB chunk (``live-burst``) and a
200 × 4 KiB chunk (``live-bulk``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import time

import shapes
from repro.bench import microbench
from repro.bench.workloads import anomaly_bench
from repro.consensus.messages import CsAck, CsPropose, CsRequest
from repro.core.config import OsirisConfig
from repro.core.coordinator import Coordinator
from repro.core.messages import AssignmentMsg, ChunkDigestMsg, ChunkMsg
from repro.core.tasks import Assignment, Opcode, Task, chunk_records
from repro.core.verifier import Verifier
from repro.crypto import KeyRegistry
from repro.crypto.digest import digest
from repro.live.wire import NetEnvelope, register_wire
from repro.net.topology import SubCluster, Topology
from repro.runtime import codec
from repro.runtime.effects import Send
from repro.runtime.interpreter import EffectInterpreter
from repro.runtime.testing import TestRuntime, sent_messages
from repro.serve import AdmissionGate, SubmitTask, pack_frame, unpack_payload
from repro.store.state_machine import KVState

BUDGET_S = 0.08

_COORD = ("v0", "v1", "v2")
_VP1 = ("v3", "v4", "v5")
_EXECUTORS = ("e0", "e1")


def _seconds_per_op(fn, budget: float = BUDGET_S) -> float:
    """Fastest seconds per call of ``fn`` over batches filling ``budget``."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        took = time.perf_counter() - t0
        if took >= budget / 8 or n >= 1 << 20:
            break
        n *= 2
    batches = [took / n]
    deadline = time.perf_counter() + budget
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        batches.append((time.perf_counter() - t0) / n)
    return min(batches)


def _chunk_msg(records: int, record_bytes: int) -> ChunkMsg:
    app = shapes.PayloadApp(record_bytes, shapes.LIVE_COMPUTE_COST)
    task = Task(
        task_id="micro-0",
        opcode=Opcode.COMPUTE,
        compute_payload={"n": records},
    ).with_timestamp(0)
    chunk = chunk_records(
        task.task_id, list(app.compute(None, task).records), 10**9
    )[0]
    return ChunkMsg(
        chunk=chunk, assignment=Assignment(task=task, executor="e0", vp_index=1)
    )


def _topology() -> Topology:
    return Topology(
        input_pids=("ip0",),
        output_pids=("op0",),
        executor_pids=_EXECUTORS,
        verifier_clusters=(
            SubCluster(index=0, members=_COORD, f=1),
            SubCluster(index=1, members=_VP1, f=1),
        ),
        f=1,
    )


def _role(cls, pid: str, cluster: int):
    """One protocol core of class ``cls`` on the in-memory test runtime."""
    topo = _topology()
    registry = KeyRegistry()
    signers = {p: registry.register(p) for p in _COORD + _VP1 + _EXECUTORS}
    app = shapes.PayloadApp(1024, shapes.LIVE_COMPUTE_COST)
    config = OsirisConfig(role_switching=False)
    core = cls(
        pid, topo, registry, signers[pid], app, config,
        cluster=topo.cluster(cluster),
    )
    return core, TestRuntime(core, cores=config.cores_per_node), signers, app


# ------------------------------------------------------------------ benches
def _kernel() -> dict[str, float]:
    return {
        "sim.event_churn_ops_per_s": max(
            microbench.bench_event_churn(events=20_000).ops_per_sec
            for _ in range(3)
        ),
        "net.multicast_fanout_ops_per_s": max(
            microbench.bench_multicast_fanout(rounds=150).ops_per_sec
            for _ in range(3)
        ),
        "net.meter_ingest_ops_per_s": max(
            microbench.bench_meter_ingest(samples=60_000).ops_per_sec
            for _ in range(3)
        ),
    }


def _crypto() -> dict[str, float]:
    registry = KeyRegistry()
    signer = registry.register("v0")
    counter = itertools.count()
    sign = _seconds_per_op(lambda: signer.sign(["ack", next(counter)]))
    # the registry memoises MACs by content: verify each signature once
    signed = [(["ack", i], signer.sign(["ack", i])) for i in range(4000)]
    todo = iter(signed)
    t0 = time.perf_counter()
    for payload, sig in todo:
        registry.verify(payload, sig)
    verify = (time.perf_counter() - t0) / len(signed)
    chunk = _chunk_msg(10, 1024).chunk
    return {
        "crypto.sign_us": sign * 1e6,
        "crypto.verify_us": verify * 1e6,
        "crypto.digest_mb_per_s": chunk.payload_bytes()
        / _seconds_per_op(lambda: digest(chunk)) / 1e6,
    }


def _codec() -> dict[str, float]:
    register_wire()
    registry = KeyRegistry()
    sig = registry.register("v1").sign(CsAck.signed_payload(0, 7, b"d" * 32))
    payloads = {
        "small": CsAck(view=0, seq=7, batch_digest=b"d" * 32, sig=sig),
        "chunk": _chunk_msg(10, 1024),
        "bulk": _chunk_msg(200, 4096),
    }
    out = {}
    for name, msg in payloads.items():
        text = codec.encode_json(msg)
        out[f"runtime.codec_encode_{name}_us"] = (
            _seconds_per_op(lambda: codec.encode_json(msg)) * 1e6
        )
        out[f"runtime.codec_decode_{name}_us"] = (
            _seconds_per_op(lambda: codec.decode_json(text)) * 1e6
        )
    chunk = payloads["chunk"]
    out["live.envelope_encode_us"] = (
        _seconds_per_op(
            lambda: codec.encode_json(
                NetEnvelope(
                    src="e0",
                    dst="v0",
                    neq=False,
                    payload=codec.encode_json(chunk, with_sender=False),
                )
            )
        )
        * 1e6
    )
    return out


class _NullHost(EffectInterpreter):
    """An interpreter whose substrate does nothing: dispatch cost only."""

    capture = False

    def _do_send(self, effect) -> None:
        pass


def _interpret() -> dict[str, float]:
    host = _NullHost()
    effect = Send(dst="v0", msg=None)
    return {
        "runtime.interpret_ops_per_s": 1.0
        / _seconds_per_op(lambda: host.interpret(effect))
    }


def _verifier() -> dict[str, float]:
    """Assignment quorum, chunk, neq digest, verification jobs: one
    verified single-chunk task per op."""
    verifier, rt, signers, app = _role(Verifier, "v3", 1)
    counter = itertools.count()

    def one_task() -> None:
        task = Task(
            task_id=f"m{next(counter)}",
            opcode=Opcode.COMPUTE,
            compute_payload={"n": 10},
        ).with_timestamp(0)
        a = Assignment(task=task, executor="e0", vp_index=1)
        for sender in ("v0", "v1"):
            rt.deliver(
                AssignmentMsg(
                    assignment=a, sig=signers[sender].sign(a.signed_payload())
                ),
                sender=sender,
            )
        records = list(app.compute(None, task).records)
        for chunk in chunk_records(task.task_id, records, 10**9):
            rt.deliver(ChunkMsg(chunk=chunk, assignment=a), sender="e0")
            dmsg = ChunkDigestMsg(
                task_id=task.task_id, attempt=0, index=chunk.index,
                digest=digest(chunk),
            )
            dmsg._neq = True
            rt.deliver(dmsg, sender="e0")
        rt.drain()
        rt.clear()

    rate = 1.0 / _seconds_per_op(one_task)
    if verifier.chunks_verified == 0:
        raise RuntimeError("verifier microbench verified nothing")
    return {"core.verifier_chunk_ops_per_s": rate}


def _coordinator() -> dict[str, float]:
    """Request, flush, proposal loop-back, ack quorum, assignment: one
    linearized-and-assigned task per op (v0 leads view 0)."""
    coordinator, rt, signers, _ = _role(Coordinator, "v0", 0)
    counter = itertools.count()

    def one_task() -> None:
        task = Task(
            task_id=f"m{next(counter)}",
            opcode=Opcode.COMPUTE,
            compute_payload={"n": 10},
        )
        rt.deliver(
            CsRequest(
                request_id=f"r-{task.task_id}", payload=task,
                payload_size=task.size_bytes,
            ),
            sender="ip0",
        )
        rt.fire_timer("cs-flush")
        rt.drain()
        proposal = sent_messages(rt, CsPropose)[-1]
        proposal._neq = True
        rt.deliver(proposal, sender="v0")
        rt.drain()
        batch_digest = digest([r for r, _, _ in proposal.batch])
        rt.deliver(
            CsAck(
                view=proposal.view, seq=proposal.seq, batch_digest=batch_digest,
                sig=signers["v1"].sign(
                    CsAck.signed_payload(
                        proposal.view, proposal.seq, batch_digest
                    )
                ),
            ),
            sender="v1",
        )
        rt.drain()
        rt.clear()

    rate = 1.0 / _seconds_per_op(one_task)
    if coordinator.tasks_linearized == 0:
        raise RuntimeError("coordinator microbench linearized nothing")
    return {"core.coordinator_assign_ops_per_s": rate}


def _store() -> dict[str, float]:
    state = KVState()
    ts = itertools.count(1)
    return {
        "store.apply_ops_per_s": 1.0
        / _seconds_per_op(
            lambda: state.apply(next(ts), ("put", "k", 1))
        )
    }


def _anomaly() -> dict[str, float]:
    workload = anomaly_bench("LH", 40, seed=0)
    app = workload.app
    state = app.initial_state()
    t0 = time.perf_counter()
    results = []
    for ts, (_, task) in enumerate(workload.tasks, start=1):
        if task.opcode.has_update:
            state.apply(ts, task.update_payload)
        view = state.snapshot(ts)
        results.append((view, task, app.compute(view, task).records))
    compute = len(results) / (time.perf_counter() - t0)
    checks = 0
    t0 = time.perf_counter()
    for view, task, records in results:
        for record in records[:50]:
            if not app.is_valid(view, record, task):
                raise RuntimeError("anomaly microbench: honest record rejected")
            checks += 1
    is_valid = checks / (time.perf_counter() - t0)
    return {
        "apps.anomaly_compute_tasks_per_s": compute,
        "apps.anomaly_is_valid_ops_per_s": is_valid,
    }


def _echo(inbox, outbox) -> None:
    while True:
        item = inbox.get()
        if item is None:
            return
        outbox.put(item)


def _queue_hop() -> dict[str, float]:
    """One-way latency of a fork-context ``mp.Queue`` hop between two
    processes: half a ping-pong, for both chunk payload sizes."""
    ctx = multiprocessing.get_context("fork")
    there, back = ctx.Queue(), ctx.Queue()
    child = ctx.Process(target=_echo, args=(there, back), daemon=True)
    child.start()
    out = {}
    try:
        for name, msg in (
            ("live.queue_hop_us", _chunk_msg(10, 1024)),
            ("live.queue_hop_bulk_us", _chunk_msg(200, 4096)),
        ):
            text = codec.encode_json(msg)

            def ping() -> None:
                there.put(text)
                back.get()

            out[name] = _seconds_per_op(ping) / 2 * 1e6
    finally:
        there.put(None)
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
        for q in (there, back):
            q.close()
            q.join_thread()
    return out


def _serve() -> dict[str, float]:
    task = next(shapes.task_stream(shapes.SHAPES["serve-open"], 0))
    frame = pack_frame(SubmitTask(task=task))
    # a gate with a bound but no dispatcher thread: every offer takes
    # the queueing verdict path and nothing drains
    gate = AdmissionGate(lambda task: None, queue_bound=1 << 30)

    return {
        "serve.frame_pack_us": _seconds_per_op(
            lambda: pack_frame(SubmitTask(task=task))
        ) * 1e6,
        "serve.frame_unpack_us": _seconds_per_op(
            lambda: unpack_payload(frame[4:])
        ) * 1e6,
        "serve.admission_offer_us": _seconds_per_op(
            lambda: gate.offer(task)
        ) * 1e6,
    }


def run_all() -> dict[str, float]:
    """Every isolated microbench, about three seconds in all."""
    out: dict[str, float] = {}
    for part in (
        _kernel, _crypto, _codec, _interpret, _verifier, _coordinator,
        _store, _anomaly, _queue_hop, _serve,
    ):
        out.update(part())
    return out
