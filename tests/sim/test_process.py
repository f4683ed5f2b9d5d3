"""SimProcess dispatch and crash, plus timer and job basics of the host
on the DES substrate (the full timer and job rules are in
``tests/sim/test_timers.py`` and ``tests/runtime/test_host_contract.py``)."""

from dataclasses import dataclass

from repro.net.links import Network
from repro.net.message import Message
from repro.runtime.core import ProtocolCore
from repro.runtime.des import DesHost
from repro.sim import Simulator, SimProcess


@dataclass
class Ping(Message):
    value: int = 0


@dataclass
class Unknown(Message):
    pass


class Echo(SimProcess):
    def __init__(self, sim, pid):
        super().__init__(sim, pid, cores=2)
        self.seen = []

    def on_Ping(self, msg):
        self.seen.append(msg.value)


def hosted(sim):
    """A bare core on the DES host: what timers and jobs run on."""
    core = ProtocolCore("p0")
    DesHost(sim, Network(sim), core, cores=2)
    return core


class TestDispatch:
    def test_message_routed_to_typed_handler(self):
        sim = Simulator()
        p = Echo(sim, "p0")
        p.deliver(Ping(value=7))
        assert p.seen == [7]

    def test_unknown_message_counted_and_dropped(self):
        sim = Simulator()
        p = Echo(sim, "p0")
        p.deliver(Unknown())
        assert p.seen == []
        assert p.unhandled_messages == 1

    def test_crashed_process_ignores_messages(self):
        sim = Simulator()
        p = Echo(sim, "p0")
        p.crash()
        p.deliver(Ping(value=1))
        assert p.seen == []


class TestTimers:
    def test_timer_fires_after_delay(self):
        sim = Simulator()
        p = hosted(sim)
        fired = []
        p.set_timer("t", 2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_rearming_timer_cancels_previous(self):
        sim = Simulator()
        p = hosted(sim)
        fired = []
        p.set_timer("t", 1.0, fired.append, "first")
        p.set_timer("t", 2.0, fired.append, "second")
        sim.run()
        assert fired == ["second"]

    def test_cancel_timer(self):
        sim = Simulator()
        p = hosted(sim)
        fired = []
        p.set_timer("t", 1.0, fired.append, "x")
        p.cancel_timer("t")
        sim.run()
        assert fired == []

    def test_cancel_unknown_timer_is_noop(self):
        p = hosted(Simulator())
        p.cancel_timer("never-set")

    def test_timer_armed(self):
        sim = Simulator()
        p = hosted(sim)
        assert not p.timer_armed("t")
        p.set_timer("t", 1.0, lambda: None)
        assert p.timer_armed("t")
        sim.run()
        assert not p.timer_armed("t")

    def test_independent_timer_names(self):
        sim = Simulator()
        p = hosted(sim)
        fired = []
        p.set_timer("a", 1.0, fired.append, "a")
        p.set_timer("b", 2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b"]


class TestCrash:
    def test_crash_cancels_timers(self):
        sim = Simulator()
        p = hosted(sim)
        fired = []
        p.set_timer("t", 1.0, fired.append, "x")
        p.crash()
        sim.run()
        assert fired == []

    def test_crash_suppresses_pending_job_completion(self):
        sim = Simulator()
        p = hosted(sim)
        done = []
        p.run_job(5.0, done.append, "job")
        sim.schedule(1.0, p.crash)
        sim.run()
        assert done == []

    def test_job_completes_when_not_crashed(self):
        sim = Simulator()
        p = hosted(sim)
        done = []
        p.run_job(1.0, done.append, "job")
        sim.run()
        assert done == ["job"]
