"""Cross-check: the explorer finds known-bad cores, with short repros.

Two real historical bugs are re-introduced under test-only
monkeypatches and must be (a) detected by the exploration, (b) shrunk
to a ≤10-step schedule, and (c) replayable from the serialized JSON
reproducer — the end-to-end pipeline a genuine finding would ride.

* PR 5's validation hole: ``SyntheticApp.is_valid`` without the
  payload-equality check lets a corrupt-record executor smuggle a
  wrong record past the verifier quorum → ``output-failure``;
* an acceptance race: ``OutputProcess._try_accept`` accepting on a
  single endorsement (instead of a quorum) commits a chunk no quorum
  endorsed → ``accept-without-quorum``.
"""

import json

from unittest import mock

import pytest

from repro.apps.synthetic import SyntheticApp
from repro.core.input_output import OutputProcess
from repro.mc import (
    McModel,
    McReproducer,
    build_world,
    explore,
    reproduce,
    shrink_trace,
)
from repro.__main__ import main as mc_main


def _weak_is_valid(self, view, record, task):
    """PR 5 revert: structural checks only, payload equality dropped."""
    if len(record.key) != 1 or not isinstance(record.key[0], int):
        return False
    return 0 <= record.key[0] < self._count(task)


def _weak_try_accept(self, task_id, ot, index, slot):
    """Acceptance quorum reverted to a single endorsement."""
    if slot.accepted:
        return
    for sigma, endorsers in slot.endorsements.items():
        if len(endorsers) >= 1 and sigma in slot.pending:
            slot.winner = sigma
            slot.records = len(slot.pending.pop(sigma).records)
            slot.pending.clear()
            ot.accepted.add(index)
            self.cancel_timer(f"op-wait-{task_id}-{index}")
            self.chunks_accepted += 1
            self.records_accepted += slot.records
            self._check_complete(task_id, ot)
            return
    self._arm_wait_timer(task_id, index)


def _find_and_shrink(model, expected_invariant):
    result = explore(model, root=build_world(model))
    assert not result.ok, f"explorer missed the seeded {expected_invariant}"
    violation = result.violations[0]
    assert expected_invariant in violation.invariants
    shrunk = shrink_trace(model, list(violation.trace), set(violation.invariants))
    assert len(shrunk) <= 10, (
        f"reproducer not minimal: {len(shrunk)} steps: {shrunk}"
    )
    return violation, shrunk


class TestSeededValidationHole:
    def test_explorer_finds_and_shrinks_the_corruption(self):
        model = McModel(
            n=3, tasks=1, fault_role="executor", fault_kind="corrupt-record"
        )
        with mock.patch.object(SyntheticApp, "is_valid", _weak_is_valid):
            violation, shrunk = _find_and_shrink(model, "output-failure")
            rep = McReproducer(
                model=model,
                invariants=list(violation.invariants),
                trace=list(shrunk),
                details=list(violation.details),
            )
            # JSON round-trip, then replay from the parsed form
            back = McReproducer.from_dict(json.loads(rep.to_json()))
            hit, report = reproduce(back)
            assert hit, report.summary()
            # the CLI replay path agrees (exit 0 = reproduced)
            assert mc_main(["mc", "replay", rep.to_json()]) == 0

    def test_fixed_cores_do_not_reproduce_it(self):
        # sanity against vacuous reproducers: on the real (fixed)
        # cores the same schedule must replay clean
        model = McModel(
            n=3, tasks=1, fault_role="executor", fault_kind="corrupt-record"
        )
        with mock.patch.object(SyntheticApp, "is_valid", _weak_is_valid):
            violation, shrunk = _find_and_shrink(model, "output-failure")
        rep = McReproducer(
            model=model,
            invariants=list(violation.invariants),
            trace=list(shrunk),
        )
        hit, report = reproduce(rep)
        assert not hit, report.summary()
        assert mc_main(["mc", "replay", rep.to_json()]) == 1


class TestSeededAcceptanceRace:
    def test_explorer_finds_and_shrinks_the_early_accept(self):
        model = McModel(n=3, tasks=1)
        with mock.patch.object(
            OutputProcess, "_try_accept", _weak_try_accept
        ):
            violation, shrunk = _find_and_shrink(model, "accept-without-quorum")
            rep = McReproducer(
                model=model,
                invariants=list(violation.invariants),
                trace=list(shrunk),
            )
            hit, report = reproduce(
                McReproducer.from_dict(json.loads(rep.to_json()))
            )
            assert hit, report.summary()
            assert mc_main(["mc", "replay", rep.to_json()]) == 0

    def test_fixed_cores_do_not_reproduce_it(self):
        model = McModel(n=3, tasks=1)
        with mock.patch.object(
            OutputProcess, "_try_accept", _weak_try_accept
        ):
            violation, shrunk = _find_and_shrink(model, "accept-without-quorum")
        rep = McReproducer(
            model=model,
            invariants=list(violation.invariants),
            trace=list(shrunk),
        )
        hit, _ = reproduce(rep)
        assert not hit


class TestReproducerFormat:
    def test_kind_is_checked(self):
        with pytest.raises(ValueError):
            McReproducer.from_dict({"kind": "fuzz-point"})

    def test_trace_keys_round_trip_as_tuples(self):
        rep = McReproducer(
            model=McModel(),
            invariants=["output-failure"],
            trace=[("d", "v0", "e0", "abc123", 0), ("t", "op0", "op-wait-c0-0", 0)],
        )
        back = McReproducer.from_dict(json.loads(rep.to_json()))
        assert back.trace == rep.trace
        assert all(isinstance(k, tuple) for k in back.trace)
        assert back.model == rep.model
