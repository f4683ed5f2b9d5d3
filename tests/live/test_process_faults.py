"""Process-level faults on the live pipe mesh: a node killed mid-run, and
the file descriptors a deployment leaves behind.

These tests fork real OS processes, so they carry the ``live`` marker
(excluded from tier-1; CI runs them in its timeout-bounded live job).
"""

import gc
import multiprocessing as mp
import os
import signal

import pytest

from repro.api import DeploymentSpec, run
from repro.errors import LiveError
from repro.obs.bus import Sink
from repro.obs.events import CATEGORY_TASK, TaskCompleted

pytestmark = pytest.mark.live


def _spec(n_tasks: int, seed: int = 0, **kw) -> DeploymentSpec:
    return DeploymentSpec(
        workload="anomaly",
        workload_params={"profile": "MM", "n_tasks": n_tasks},
        n=4,
        seed=seed,
        deadline=60.0,
        backend="live",
        **kw,
    )


class _KillAtFirstCompletion(Sink):
    """SIGKILLs node ``victim`` when the first task completes, and notes
    the OS pid of every node then running."""

    categories = frozenset({CATEGORY_TASK})

    def __init__(self, victim: str) -> None:
        self.victim = victim
        self.nodes: dict[str, int] = {}

    def handle(self, event) -> None:
        if type(event) is not TaskCompleted or self.nodes:
            return
        for proc in mp.active_children():
            if proc.name.startswith("live-"):
                self.nodes[proc.name[len("live-") :]] = proc.pid
        os.kill(self.nodes[self.victim], signal.SIGKILL)


def _exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_a_node_killed_mid_burst_fails_the_run_and_leaves_no_process():
    killer = _KillAtFirstCompletion("v1")
    with pytest.raises(LiveError, match="child v1 died"):
        run(_spec(24, sinks=(killer,)), time_scale=0.25)
    assert len(killer.nodes) == 6  # the kill happened mid-run
    assert [pid for pid in killer.nodes.values() if _exists(pid)] == []


def test_three_deployments_in_a_row_leave_no_fds_behind():
    gc.collect()
    before = len(os.listdir("/proc/self/fd"))
    for seed in range(3):
        assert run(_spec(4, seed=seed), time_scale=0.25).tasks_completed == 4
    gc.collect()  # the up queue's connections close when collected
    assert len(os.listdir("/proc/self/fd")) == before
