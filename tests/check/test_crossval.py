"""The one commit-record diff: two real DES runs of one spec, and one
seeded disagreement at a time."""

import copy
import dataclasses

import pytest

from repro import api
from repro.check.crossval import crossval, summary
from repro.live.crossval import commit_outcomes

_SPEC = api.DeploymentSpec(
    workload="anomaly",
    workload_params={"profile": "MM", "n_tasks": 3},
    n=4,
    seed=0,
    sanitize=True,
)


@pytest.fixture(scope="module")
def runs():
    return api.run(_SPEC), api.run(_SPEC)


def _edited(result, **changes):
    """A copy of ``result`` whose commit record can be edited freely."""
    return dataclasses.replace(
        result, commits=copy.deepcopy(result.commits), **changes
    )


class TestCrossval:
    def test_identical_runs_agree(self, runs):
        a, b = runs
        assert a.commits and a.sanitizer_violations == 0
        assert crossval(a, b) == []
        assert summary("mm", a, []).startswith("cross-validation OK [mm]")

    def test_dropped_completed_task(self, runs):
        a, b = runs
        b = _edited(b)
        task = b.commits["op0"]["completed"].pop()
        assert crossval(a, b) == [f"op0: task {task} completed only in a"]

    def test_completed_mismatch_is_one_line_per_task(self, runs):
        a, b = runs
        b = _edited(b)
        dropped = b.commits["op0"]["completed"][:2]
        del b.commits["op0"]["completed"][:2]
        assert crossval(a, b) == [
            f"op0: task {task} completed only in a" for task in dropped
        ]

    def test_flipped_slot_digest(self, runs):
        a, b = runs
        b = _edited(b)
        key = sorted(b.commits["op0"]["chunks"])[0]
        want = a.commits["op0"]["chunks"][key]
        b.commits["op0"]["chunks"][key] = "00" * 32
        assert crossval(a, b) == [
            f"op0: slot {key} digest a={want[:12]} b={'0' * 12}"
        ]

    def test_dropped_slot(self, runs):
        a, b = runs
        b = _edited(b)
        key = sorted(b.commits["op0"]["chunks"])[0]
        want = b.commits["op0"]["chunks"].pop(key)
        del b.commits["op0"]["records"][key]
        assert crossval(a, b) == [f"op0: slot {key} digest a={want[:12]} b=None"]

    def test_record_count(self, runs):
        a, b = runs
        b = _edited(b)
        key = sorted(b.commits["op0"]["records"])[0]
        want = a.commits["op0"]["records"][key]
        b.commits["op0"]["records"][key] += 1
        assert crossval(a, b) == [
            f"op0: slot {key} records a={want} b={want + 1}"
        ]

    def test_missing_op(self, runs):
        a, b = runs
        b = _edited(b)
        del b.commits["op0"]
        assert crossval(a, b) == ["op0: present only in a"]

    def test_sanitizer_violation(self, runs):
        a, b = runs
        assert crossval(a, _edited(b, sanitizer_violations=1)) == [
            "b: 1 sanitizer violation(s)"
        ]

    def test_swapping_sides_swaps_labels(self, runs):
        a, b = runs
        b = _edited(b, sanitizer_violations=1)
        task = b.commits["op0"]["completed"].pop()
        assert crossval(a, b) == [
            f"op0: task {task} completed only in a",
            "b: 1 sanitizer violation(s)",
        ]
        assert crossval(b, a) == [
            f"op0: task {task} completed only in b",
            "a: 1 sanitizer violation(s)",
        ]

    def test_failure_summary_caps_lines(self, runs):
        a, _ = runs
        lines = [f"op0: task t{i} completed only in a" for i in range(25)]
        text = summary("mm", a, lines)
        assert text.splitlines()[0] == "cross-validation FAILED [mm]:"
        assert len(text.splitlines()) == 1 + 20 + 1
        assert text.endswith("... 5 more")


class TestCommitRecord:
    def test_field_matches_the_ledger_view(self, runs):
        result, _ = runs
        assert result.commits == {
            op.pid: commit_outcomes(op)
            for op in result.extra["cluster"].outputs
        }

    def test_baselines_leave_it_empty(self):
        res = api.run(_SPEC.with_(system="zft", sanitize=False))
        assert res.commits == {}
