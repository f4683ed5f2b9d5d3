"""Gateway bookkeeping without a cluster: ownership of in-flight tasks.

The gateway is built but never started; its runtime is replaced by a
clock stub and its gate forwards inline into a list, so ``_submit`` and
``_deliver_done`` run exactly as on a served deployment.
"""

from types import SimpleNamespace

from repro import api
from repro.core.tasks import Opcode, Task
from repro.obs.events import TaskOutcome
from repro.serve.admission import AdmissionGate
from repro.serve.frames import SubmitReply, TaskDone
from repro.serve.gateway import Gateway, _Conn


class _Capture(_Conn):
    """A connection that records the frames it is asked to send."""

    def __init__(self) -> None:
        super().__init__("c0", None, "test")
        self.sent: list = []

    def send(self, value) -> None:
        self.sent.append(value)


def _gateway():
    spec = api.DeploymentSpec(
        workload="open_loop",
        workload_params=(("n_tasks", 4), ("rate", 40.0), ("seed", 1)),
        n=4,
        seed=1,
        tenants=2,
        backend="live",
    )
    gateway = Gateway(spec)
    gateway.runtime = SimpleNamespace(now_sim=0.0)
    forwarded: list = []
    gateway.gate = AdmissionGate(forwarded.append)  # no knobs: inline
    return gateway, forwarded


def _task(i: int) -> Task:
    return Task(task_id=f"t{i}", opcode=Opcode.COMPUTE, tenant="t0")


def _outcome(i: int) -> TaskOutcome:
    return TaskOutcome(
        time=1.0, pid="op0", task_id=f"t{i}", tenant="t0", submitted_at=0.5
    )


def _done(conn: _Capture) -> list:
    return [f.task_id for f in conn.sent if isinstance(f, TaskDone)]


class TestOwnership:
    def test_owner_dropped_on_first_outcome(self):
        gateway, forwarded = _gateway()
        conn = _Capture()
        for i in range(50):
            gateway._submit(conn, _task(i))
            assert gateway.in_flight() == 1
            gateway._deliver_done(_outcome(i))
        assert [t.task_id for t in forwarded] == [f"t{i}" for i in range(50)]
        assert gateway._owner == {}
        assert gateway.in_flight() == 0
        assert _done(conn) == [f"t{i}" for i in range(50)]

    def test_in_flight_counts_tasks_not_yet_done(self):
        gateway, _ = _gateway()
        conn = _Capture()
        for i in range(3):
            gateway._submit(conn, _task(i))
        gateway._deliver_done(_outcome(1))
        assert gateway.in_flight() == 2
        assert sorted(gateway._owner) == ["t0", "t2"]

    def test_repeated_outcome_sends_nothing(self):
        gateway, _ = _gateway()
        conn = _Capture()
        gateway._submit(conn, _task(0))
        gateway._deliver_done(_outcome(0))
        gateway._deliver_done(_outcome(0))
        assert _done(conn) == ["t0"]
        assert [type(f) for f in conn.sent] == [SubmitReply, TaskDone]
