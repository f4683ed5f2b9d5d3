"""Fuzz driver: deterministic generation, clean sweeps, greedy shrinking."""

import json
import random

import repro.check.fuzz as fuzz_mod
from repro.adversary import FaultSpec
from repro.adversary.library import silent_minority
from repro.api import DeploymentSpec, FaultPlan
from repro.check.fuzz import generate_point, run_fuzz, shrink_point


def _faulty_executors(point):
    return [pid for pid, f in point.faults.static if f.role == "executor"]


class TestGeneration:
    def test_same_seed_draws_same_points(self):
        rng1, rng2 = random.Random(9), random.Random(9)
        pts1 = [generate_point(rng1) for _ in range(25)]
        pts2 = [generate_point(rng2) for _ in range(25)]
        assert pts1 == pts2

    def test_draws_are_structurally_valid(self):
        rng = random.Random(13)
        for _ in range(60):
            p = generate_point(rng)
            if p.system != "osiris":
                assert p.faults.empty
                continue
            n_exec = p.n - 3 * (p.k or 1)
            assert n_exec >= 0
            for pid, fault in p.faults.static:
                if pid.startswith("e"):
                    assert fault.role == "executor" and int(pid[1:]) < n_exec
                    continue
                # only non-coordinator verifiers may be faulty, which
                # requires a second sub-cluster
                assert fault.role == "verifier" and pid.startswith("v")
                assert (p.k or 1) >= 2 and int(pid[1:]) >= 3
            # every draw is declarative: it serializes and replays
            assert DeploymentSpec.from_dict(p.to_dict()) == p

    def test_space_includes_faulty_and_clean_points(self):
        rng = random.Random(1)
        pts = [generate_point(rng) for _ in range(60)]
        assert any(_faulty_executors(p) for p in pts)
        assert any(not _faulty_executors(p) for p in pts)
        assert any(p.system != "osiris" for p in pts)


class TestSweep:
    def test_small_budget_sweep_is_clean(self):
        outcome = run_fuzz(budget=5, seed=11)
        assert outcome.executed == 5
        assert outcome.ok, [f.detail for f in outcome.failures]

    def test_outcome_serializes(self):
        outcome = run_fuzz(budget=2, seed=11)
        d = outcome.to_dict()
        assert d["executed"] == 2 and d["failures"] == []


class TestShrink:
    def test_greedy_shrink_minimizes_a_failing_point(self, monkeypatch):
        def fake_check(point):
            if point.faults.static:
                return ("violation", frozenset({"x"}), "detail")
            return ("ok", frozenset(), "")

        monkeypatch.setattr(fuzz_mod, "_check", fake_check)
        point = DeploymentSpec(
            workload="synthetic",
            workload_params={"n_tasks": 12},
            n=8,
            k=1,
            seed=3,
            config={"suspect_timeout": 2.0},
            faults={
                "e0": FaultSpec("executor", "silent", {"activate_at": 0.0}),
                "e1": FaultSpec("executor", "slow", {"activate_at": 0.0}),
            },
        )
        shrunk, runs = shrink_point(point, frozenset({"x"}))
        assert len(shrunk.faults.static) == 1
        assert shrunk.config == ()
        assert dict(shrunk.workload_params)["n_tasks"] == 2
        assert shrunk.n == 4
        assert runs <= fuzz_mod.MAX_SHRINK_RUNS

    def test_topology_shrink_that_drops_a_faulted_pid_is_inconclusive(self):
        point = DeploymentSpec(
            workload="synthetic",
            workload_params={"n_tasks": 2},
            n=8,
            k=1,
            seed=3,
            faults={"e4": FaultSpec("executor", "silent")},
        )
        (smaller,) = [
            c for c in fuzz_mod._candidates(point) if c.n < point.n
        ]
        assert smaller.n == 4  # one executor left: e0
        status, invariants, detail = fuzz_mod._check(smaller)
        # not a weaker reproducer that still names the missing pid
        assert status == "inconclusive" and not invariants
        assert "e4" in detail


class TestCli:
    def test_fuzz_subcommand_exits_zero_on_clean_sweep(self, capsys):
        from repro.check.__main__ import main

        assert main(["fuzz", "--budget", "2", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out

    def test_point_subcommand_replays_a_descriptor(self, capsys):
        from repro.check.__main__ import main

        point = DeploymentSpec(
            workload="synthetic",
            workload_params={"n_tasks": 3},
            n=4,
            seed=1,
        )
        assert main(["point", json.dumps(point.descriptor())]) == 0
        assert "0 violation(s)" in capsys.readouterr().out
        # static executor and verifier faults plus a campaign replay too
        faulty = DeploymentSpec(
            workload="synthetic",
            workload_params={"n_tasks": 4, "records_per_task": 3},
            n=8,
            k=2,
            seed=1,
            config={"suspect_timeout": 2.0},
            faults=FaultPlan(
                static=(
                    ("e0", FaultSpec("executor", "slow", {"delay": 0.5})),
                    ("v3", FaultSpec("verifier", "bogus-digest")),
                ),
                campaign=silent_minority(at=1.0, count=1),
            ),
        )
        assert main(["point", json.dumps(faulty.descriptor())]) == 0
        assert "0 violation(s)" in capsys.readouterr().out
