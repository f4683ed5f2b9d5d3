"""Timer lifecycle of the host on the DES substrate, checked against the
kernel: deadlines in simulated seconds, and what re-arming, cancelling
and ``Halt`` do to the scheduled kernel events.  The substrate-neutral
form of the same rules, run on the DES and the live substrate alike, is
``tests/runtime/test_host_contract.py``."""

from repro.net.links import Network
from repro.runtime.core import ProtocolCore
from repro.runtime.des import DesHost
from repro.sim import Simulator


def make_proc(pid="p0"):
    sim = Simulator(seed=1)
    core = ProtocolCore(pid)
    return sim, core, DesHost(sim, Network(sim), core, cores=1)


class TestArming:
    def test_timer_fires_with_args(self):
        sim, core, _ = make_proc()
        fired = []
        core.set_timer("t", 0.5, lambda x: fired.append((x, sim.now)), "x")
        sim.run(until=1.0)
        assert fired == [("x", 0.5)]

    def test_rearming_replaces_deadline(self):
        sim, core, _ = make_proc()
        fired = []
        core.set_timer("t", 0.2, fired.append, "early")
        core.set_timer("t", 0.8, fired.append, "late")
        assert sim.pending_events == 1  # the first kernel event is dead
        sim.run(until=0.5)
        assert fired == []
        sim.run(until=1.0)
        assert fired == ["late"]

    def test_distinct_names_are_independent(self):
        sim, core, _ = make_proc()
        fired = []
        core.set_timer("a", 0.2, fired.append, "a")
        core.set_timer("b", 0.4, fired.append, "b")
        core.cancel_timer("a")
        sim.run(until=1.0)
        assert fired == ["b"]


class TestCancellation:
    def test_cancel_unarmed_timer_is_noop(self):
        sim, core, _ = make_proc()
        core.cancel_timer("never-armed")  # must not raise
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_noop(self):
        sim, core, _ = make_proc()
        fired = []
        core.set_timer("t", 0.1, fired.append, 1)
        sim.run(until=1.0)
        assert fired == [1]
        core.cancel_timer("t")  # stale cancel of an already-fired timer

    def test_fired_timer_removes_itself_from_table(self):
        sim, core, host = make_proc()
        core.set_timer("t", 0.1, lambda: None)
        assert core.timer_armed("t")
        sim.run(until=1.0)
        assert not core.timer_armed("t")
        assert "t" not in host._timers  # no dead handle accumulates

    def test_rearm_from_within_fire_callback_sticks(self):
        """A periodic timer re-arming itself must not be clobbered by the
        just-fired handle's self-removal."""
        sim, core, _ = make_proc()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 3:
                core.set_timer("t", 0.1, tick)

        core.set_timer("t", 0.1, tick)
        sim.run(until=1.0)
        assert len(ticks) == 3
        assert not core.timer_armed("t")


class TestCrash:
    def test_crash_cancels_pending_timers(self):
        sim, core, host = make_proc()
        fired = []
        core.set_timer("t", 0.5, fired.append, 1)
        core.crash()
        assert host._timers == {}
        assert sim.pending_events == 0  # the kernel event is cancelled too
        sim.run(until=1.0)
        assert fired == []

    def test_crashed_process_refuses_new_timers(self):
        sim, core, _ = make_proc()
        core.crash()
        fired = []
        core.set_timer("t", 0.1, fired.append, 1)
        assert not core.timer_armed("t")
        assert sim.pending_events == 0  # nothing reached the kernel
        sim.run(until=1.0)
        assert fired == []

    def test_crash_between_arm_and_fire_suppresses_callback(self):
        sim, core, _ = make_proc()
        fired = []
        core.set_timer("t", 0.5, fired.append, 1)
        sim.schedule(0.2, core.crash)
        sim.run(until=1.0)
        assert fired == []

    def test_crashed_delivery_dropped(self):
        sim, core, host = make_proc()
        core.crash()
        host.deliver(object())
        assert core.unhandled_messages == 0  # dropped before dispatch
