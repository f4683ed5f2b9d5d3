"""McWorld construction, action identity, snapshots, fingerprints."""

import pytest

from repro.core.tasks import Chunk, Record
from repro.errors import ProtocolError
from repro.mc import McModel, audit_world, build_world
from repro.mc.fingerprint import stable_digest


class TestModelValidation:
    def test_bounds_are_enforced(self):
        with pytest.raises(ProtocolError):
            McModel(n=5).validate()
        with pytest.raises(ProtocolError):
            McModel(tasks=4).validate()
        with pytest.raises(ProtocolError):
            McModel(fault_role="executor").validate()  # kind missing
        with pytest.raises(ProtocolError):
            McModel(fault_role="output", fault_kind="spurious-reports").validate()

    def test_round_trips_through_dict(self):
        model = McModel(
            n=4, tasks=3, fault_role="executor", fault_kind="silent",
            delays=2, stutter=False,
        )
        assert McModel.from_dict(model.to_dict()) == model

    def test_from_dict_ignores_unknown_keys(self):
        assert McModel.from_dict({"n": 4, "future_knob": 1}).n == 4


class TestBuildWorld:
    def test_bootstrap_frontier_is_pure_data_plane(self):
        world = build_world(McModel(n=3, tasks=1))
        assert sorted(world.cores) == ["e0", "op0", "v0", "v1", "v2"]
        assert len(world.coordinators) == 3
        assert len(world.outputs) == 1
        # only deliveries pending: locals drained, no timers armed yet
        assert world.pending
        assert all(k[0] == "d" for k in world.pending)
        assert all(not rt.timers for rt in world.runtimes.values())

    def test_action_keys_are_content_based_and_reproducible(self):
        w1 = build_world(McModel(n=3, tasks=2))
        w2 = build_world(McModel(n=3, tasks=2))
        assert sorted(w1.pending) == sorted(w2.pending)
        assert w1.fingerprint() == w2.fingerprint()

    def test_initial_state_passes_the_safety_audit(self):
        report = audit_world(build_world(McModel(n=3, tasks=1)))
        assert report.ok, report.summary()


class TestSnapshots:
    def test_clone_isolates_execution(self):
        world = build_world(McModel(n=3, tasks=1))
        fp_before = world.fingerprint()
        clone = world.clone()
        action = clone.enabled()[0]
        clone.execute(action)
        assert world.fingerprint() == fp_before
        assert clone.fingerprint() != fp_before
        assert action.key not in clone.pending
        assert action.key in world.pending

    def test_clone_shares_the_immutable_environment(self):
        world = build_world(McModel(n=3, tasks=1))
        clone = world.clone()
        assert clone.topo is world.topo
        assert clone.app is world.app
        assert clone.registry is world.registry
        assert clone.config is world.config
        assert clone.cores["v0"] is not world.cores["v0"]

    def test_reading_a_chunk_digest_leaves_its_fingerprint(self):
        # Chunk.sigma memoises into __dict__; the walk must not see it,
        # or states that differ only in who read σ(C) would split
        chunk = Chunk("t", 0, (Record(key=(1,), data="x"),), final=True)
        before = stable_digest(chunk)
        assert len(chunk.sigma) == 32
        assert "sigma" in vars(chunk)
        assert stable_digest(chunk) == before

    def test_fingerprint_ignores_occurrence_history(self):
        # two worlds that enqueued different *numbers* of identical
        # payloads still fingerprint by the pending multiset
        world = build_world(McModel(n=3, tasks=1))
        fp = world.fingerprint()
        assert world.clone().fingerprint() == fp


class TestEnabled:
    def test_canonical_order_is_sorted_and_deterministic(self):
        world = build_world(McModel(n=3, tasks=1))
        keys = [a.key for a in world.enabled()]
        assert keys == sorted(keys)

    def test_execution_to_quiescence_terminates(self):
        world = build_world(McModel(n=3, tasks=1))
        steps = 0
        while True:
            enabled = world.enabled()
            if not enabled:
                break
            world.execute(enabled[0])
            steps += 1
            assert steps < 500, "canonical schedule did not terminate"
        assert world.is_terminal()
        report = audit_world(world)
        assert report.ok, report.summary()
        # the canonical run commits every task at the output process
        op = world.outputs[0]
        assert op.chunks_accepted > 0
