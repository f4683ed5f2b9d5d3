"""Recovery reports pinned across every built-in campaign.

Each point runs one built-in campaign against the anomaly MM workload
(n=8, 60 tasks at 8 tasks/s, a fixed 12 s stream, ``suspect_timeout``
2.0, seed 1, sanitized) — injected at t=0 and, for every campaign whose
factory takes ``at``, at t=5 as well — and compares the result's typed
``recovery`` dict with ``fixtures/recovery_mm_n8.json`` field for field.
"""

import inspect
import json
import pathlib

import pytest

from repro import api
from repro.adversary import BUILTIN

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "recovery_mm_n8.json"


def points():
    """(campaign name, injection time or None for the default)."""
    out = []
    for name, factory in BUILTIN.items():
        takes_at = "at" in inspect.signature(factory).parameters
        out.append((name, 0.0 if takes_at else None))
        if takes_at:
            out.append((name, 5.0))
    return out


def run_point(name, at):
    factory = BUILTIN[name]
    campaign = factory() if at is None else factory(at=at)
    return api.run(
        api.DeploymentSpec(
            workload="anomaly",
            workload_params=(
                ("n_tasks", 60), ("profile", "MM"), ("rate", 8.0)
            ),
            n=8,
            seed=1,
            duration=12.0,
            config=(("suspect_timeout", 2.0),),
            faults=campaign,
            sanitize=True,
        )
    ).recovery


def point_id(point):
    name, at = point
    return name if at is None else f"{name}@{at:g}"


def test_fixture_covers_every_point():
    pinned = json.loads(FIXTURE.read_text())
    assert sorted(pinned) == sorted(point_id(p) for p in points())
    assert len(pinned) == 13


@pytest.mark.parametrize("point", points(), ids=point_id)
def test_recovery_report_matches_fixture(point):
    expected = json.loads(FIXTURE.read_text())[point_id(point)]
    assert run_point(*point) == expected


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python <this file>
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(
            {point_id(p): run_point(*p) for p in points()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
