"""``python -m repro live split``: exclusive per-category thread CPU."""

import pytest

from repro.live import cpusplit


def test_nested_timers_charge_each_category_exclusively(monkeypatch):
    # enter deliver, enter encode, leave encode, leave deliver
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    monkeypatch.setattr(cpusplit.time, "thread_time", lambda: next(ticks))
    split = cpusplit._Split()
    encode = split.timed("encode", lambda: None)
    split.timed("deliver", encode)()
    assert split.acc == {"encode": 2.0, "decode": 0.0, "deliver": 4.0, "recv": 0.0}
    assert split.stack == []


def test_render_totals_and_codec_share():
    row = {"encode": 1.0, "decode": 2.0, "deliver": 0.5, "recv": 0.5,
           "other": 1.0, "process": 6.0, "rss_mb": 40.0}
    text = cpusplit.render({"v0": row, "v1": row})
    head, v0, v1, total, _ = text.splitlines()
    assert head.split()[-3:] == ["process", "rss", "MB"]
    assert v0.split()[-2:] == ["6.000", "40.0"]
    assert total.split()[0] == "total" and total.split()[-1] == "80.0"
    assert text.endswith("codec share of process CPU: 50.0%")


@pytest.mark.live
def test_a_small_burst_reports_every_node():
    table = cpusplit.measure(cpusplit.burst_spec(n_tasks=20), time_scale=1.0)
    assert {"ip0", "op0", "e0", "v0", "v1", "v2"} <= set(table)
    total = {c: sum(row[c] for row in table.values()) for c in cpusplit.CATEGORIES}
    assert total["encode"] > 0 and total["decode"] > 0
    assert all(row["process"] > 0 for row in table.values())
    assert all(row["rss_mb"] > 0 for row in table.values())
