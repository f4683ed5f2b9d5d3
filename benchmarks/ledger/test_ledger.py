"""Self-checks of the ledger, at smoke size (about a minute).

Run with ``pytest benchmarks/ledger -q`` — outside tier-1 (``testpaths``
is ``tests/``), because it forks live deployments.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def ledger(*args: str) -> dict:
    """Run the ledger's one command; returns its last-line JSON."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *args],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def untraced() -> dict:
    """All six workloads, end-to-end metrics, one command."""
    return ledger("--seed", "0")


@pytest.fixture(scope="module")
def traced() -> dict:
    """One traced run per kind of backend."""
    return {
        name: ledger("--seed", "0", "--workload", name, "--trace", "1")
        for name in ("des-app", "live-burst", "serve-open")
    }


def test_contract_names(contract):
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert len(contract["workloads"]) == 6
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}


def test_every_end_to_end_metric_on_every_workload(contract, untraced):
    assert untraced["correct"] and untraced["failed"] == 0
    expected = {
        f"{w['name']}/{m['name']}"
        for w in contract["workloads"]
        for m in contract["end_to_end"]
    }
    assert set(untraced["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    for key, metric in untraced["metrics"].items():
        assert metric["unit"] == units[key.split("/", 1)[1]]
        assert metric["value"] > 0, key


def test_every_per_layer_metric_when_traced(contract, traced):
    declared = {m["name"] for m in contract["per_layer"]}
    for name, result in traced.items():
        assert result["correct"], name
        assert set(result["metrics"]) == declared, name


def test_layer_shares_separate_the_des_workloads(traced):
    m = {k: v["value"] for k, v in traced["des-app"]["metrics"].items()}
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    # the profiler's own clock against the process CPU clock
    assert total == pytest.approx(m["trace.cpu_s"], rel=0.05)
    assert m["apps.self_s"] / total >= 0.30
    substrate = m["sim.self_s"] + m["net.self_s"] + m["runtime.self_s"]
    assert substrate / total <= 0.10
    assert m["sim.events_fired"] > 0 and m["crypto.calls"] > 0
    assert m["runtime.effects_interpreted"] > 0


def test_live_stages_add_up_to_the_task_latency(traced):
    m = {k: v["value"] for k, v in traced["live-burst"]["metrics"].items()}
    stages = sum(
        v for k, v in m.items() if k.startswith("live.stage_")
    )
    assert stages == pytest.approx(m["live.task_ms"], rel=0.10)
    assert m["consensus.view_changes"] == 0
    assert m["live.queue_puts"] > 0
    assert os.path.exists(os.path.join(HERE, "out", "live-burst.trace.json"))


def test_gateway_helper_is_reaped(traced):
    m = traced["serve-open"]["metrics"]
    assert m["serve.submit_rtt_ms"]["value"] > 0
    assert m["serve.direct_p50_ms"]["value"] > 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue
        assert not any(
            arg.endswith((b"/gateway_helper.py", b"ledger/worker.py"))
            for arg in argv
        ), argv


def test_seed_changes_the_generated_inputs():
    import itertools

    import shapes

    for name in shapes.SHAPES:
        shape = shapes.shape_for(name, smoke=True)
        if shape.kind == "des":
            def inputs(seed):
                return [
                    (when, task.task_id, task.update_payload, task.compute_payload)
                    for when, task in shapes.des_workload(shape, seed, 1).tasks
                ]
        else:
            def inputs(seed):
                tasks = itertools.islice(shapes.task_stream(shape, seed), 50)
                return [(t.task_id, t.compute_payload) for t in tasks]
        assert inputs(0) == inputs(0), name
        assert inputs(0) != inputs(1), name
    serve = shapes.shape_for("serve-open", smoke=True)
    first = list(itertools.islice(shapes.arrival_times(serve, 0), 20))
    assert first == list(itertools.islice(shapes.arrival_times(serve, 0), 20))
    assert first != list(itertools.islice(shapes.arrival_times(serve, 1), 20))


def test_des_counts_repeat_exactly_for_one_seed():
    import des_driver
    import shapes
    from repro import api

    for name in ("des-proto", "des-app", "des-faulty"):
        shape = shapes.shape_for(name, smoke=True)
        pins = set()
        for _ in range(2):
            workload = shapes.des_workload(shape, 5, 0)
            result = api.run(shapes.des_spec(shape, 5, workload))
            pins.add(des_driver._pin(result))
        assert len(pins) == 1, name
        assert next(iter(pins))[0] == shape.tasks
