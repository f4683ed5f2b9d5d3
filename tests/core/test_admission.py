"""The admission machine over random offer/pop interleavings.

Both drivers (the input process on simulated time, the serve gate on
the wall clock) only ever call ``offer`` and ``pop``; any interleaving
of the two must keep the verdict rule, the accounting and FIFO order.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.admission import ADMITTED, DEFERRED, REJECTED, Admission
from repro.errors import ProtocolError


@given(
    bound=st.none() | st.integers(min_value=1, max_value=5),
    rate=st.none() | st.floats(min_value=0.1, max_value=1000.0),
    ops=st.lists(st.booleans(), max_size=60),  # True offers, False pops
)
def test_random_interleavings(bound, rate, ops):
    machine = Admission(bound, rate)
    enforcing = bound is not None or rate is not None
    assert machine.enforcing == enforcing
    assert machine.gap == (1.0 / rate if rate is not None else 0.0)
    offers = 0
    kept: list[int] = []  # non-rejected offers, in offer order
    forwarded: list[int] = []
    for task, is_offer in enumerate(ops):
        if is_offer:
            depth_before, busy_before = len(machine.queue), machine.busy
            status, depth = machine.offer(task)
            offers += 1
            if not enforcing:
                assert (status, depth) == (ADMITTED, 0)
                forwarded.append(task)  # the driver forwards inline
                kept.append(task)
                continue
            full = bound is not None and depth_before == bound
            assert (status == REJECTED) == full
            if full:
                assert depth == depth_before
                continue
            assert (status == DEFERRED) == (busy_before or depth_before > 0)
            assert depth == depth_before + 1
            kept.append(task)
        else:
            task = machine.pop()
            if task is None:
                assert not machine.busy
            else:
                forwarded.append(task)
                assert machine.busy == (rate is not None or bool(machine.queue))
        if bound is not None:
            assert len(machine.queue) <= bound
        if not enforcing:
            assert not machine.queue and not machine.busy
        assert machine.admitted + machine.deferred + machine.rejected == offers
    while (task := machine.pop()) is not None:
        forwarded.append(task)
    assert forwarded == kept
    assert machine.forwarded == len(kept)
    assert machine.rejected == offers - len(kept)


@pytest.mark.parametrize(
    "knobs", [{"bound": 0}, {"bound": -1}, {"rate": 0.0}, {"rate": -2.0}]
)
def test_out_of_range_knobs_rejected(knobs):
    with pytest.raises(ProtocolError):
        Admission(**knobs)
