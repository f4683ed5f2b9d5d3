"""What a live node's process image holds: a synthetic burst maps no
numpy file into any node, nor loads numpy in the driver that forked them.

The deployment runs in a fresh interpreter, since the nodes inherit
whatever their parent imported and the test runner has numpy loaded.
"""

import subprocess
import sys
import textwrap

import pytest

pytestmark = pytest.mark.live

PROBE = textwrap.dedent(
    """
    import importlib.util
    import multiprocessing as mp
    import os
    import sys

    from repro.api import DeploymentSpec, run
    from repro.obs.bus import Sink
    from repro.obs.events import CATEGORY_TASK, TaskCompleted

    NUMPY = os.path.dirname(importlib.util.find_spec("numpy").origin)


    class MapsAtFirstCompletion(Sink):
        categories = frozenset({CATEGORY_TASK})

        def __init__(self):
            self.maps = {}

        def handle(self, event):
            if type(event) is not TaskCompleted or self.maps:
                return
            for proc in mp.active_children():
                if proc.name.startswith("live-"):
                    with open(f"/proc/{proc.pid}/maps") as fh:
                        self.maps[proc.name] = sorted({
                            line.split()[-1] for line in fh
                            if line.split()[-1].startswith(NUMPY)
                        })


    probe = MapsAtFirstCompletion()
    spec = DeploymentSpec(
        workload="synthetic",
        workload_params={"n_tasks": 40},
        n=4,
        seed=0,
        backend="live",
        sinks=(probe,),
    )
    assert run(spec, time_scale=0.25).tasks_completed == 40
    assert len(probe.maps) == 6, sorted(probe.maps)
    numpy_files = {name: files[0] for name, files in probe.maps.items() if files}
    assert not numpy_files, numpy_files
    assert "numpy" not in sys.modules, "the driver loaded numpy"
    """
)


def test_a_synthetic_burst_maps_no_numpy_into_any_node():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
