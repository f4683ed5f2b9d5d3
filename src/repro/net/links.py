"""Reliable FIFO links with NIC bandwidth accounting.

Models the paper's RDMA RC transport: messages between correct processes
are never dropped, duplicated or reordered (Sec 3, "Communication
Primitives").  Each node owns a NIC with finite full-duplex bandwidth;
a message occupies the sender's egress and the receiver's ingress for
``size / bandwidth`` seconds, then propagation latency from the
:class:`~repro.net.partial_synchrony.SynchronyModel` applies.

The ingress serialization is what reproduces the paper's Sec 7.2 finding:
the only bandwidth bottleneck is the *link to OP where records converge* —
executor→verifier replication is spread across many NICs.
Per-node byte meters feed the bandwidth-profiling bench.

Hot-path structure (DESIGN.md §14): :meth:`Network.send` validates its
endpoints and delegates to the flyweight :meth:`Network._fanout`, which
:meth:`Network.multicast` / :meth:`Network.neq_multicast` drive directly —
endpoints are resolved once per group, propagation latencies come from a
buffered vectorized RNG draw that consumes the ``network`` stream exactly
like the historical one-scalar-per-send path (so same-seed traces are
bit-identical), and :class:`ByteMeter` ingest is an append into pending
arrays that are folded into bins only when a meter is first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol

from repro.errors import NetworkError
from repro.net.message import Message
from repro.obs.events import LinkTransfer
from repro.net.partial_synchrony import SynchronyModel
from repro.sim.kernel import Simulator

__all__ = ["Network", "Nic", "ByteMeter"]

#: Default NIC bandwidth: the paper's 100 Gbps Infiniband, in bytes/second.
DEFAULT_BANDWIDTH = 100e9 / 8

#: Vectorized latency draw size (amortizes one RNG call over this many sends).
_LATENCY_BUF = 512


class Endpoint(Protocol):
    """What the network delivers to: a protocol host
    (:class:`~repro.runtime.des.DesHost`) or, in unit tests, a bare
    :class:`~repro.sim.process.SimProcess`."""

    pid: str

    def deliver(self, msg: Message) -> None: ...


class ByteMeter:
    """Per-second histogram of bytes, for bandwidth time-series reporting.

    Ingest is O(1) and allocation-light: ``add`` appends to pending
    ``(time, nbytes)`` arrays and the per-bin histogram is materialized
    lazily on first read (:meth:`rate_series` / :meth:`mean_rate`), so the
    send hot path never pays per-add dict updates.  :attr:`total` stays
    exact at all times.
    """

    __slots__ = ("bin_seconds", "total", "_binned", "_pending_t", "_pending_b")

    def __init__(self, bin_seconds: float = 1.0) -> None:
        if bin_seconds <= 0:
            raise NetworkError("bin_seconds must be positive")
        self.bin_seconds = bin_seconds
        self.total = 0
        self._binned: dict[int, int] = {}
        self._pending_t: list[float] = []
        self._pending_b: list[int] = []

    def add(self, time: float, nbytes: int) -> None:
        """Record ``nbytes`` transferred at simulated ``time``."""
        self.total += nbytes
        self._pending_t.append(time)
        self._pending_b.append(nbytes)

    def _flush(self) -> dict[int, int]:
        """Fold pending samples into the bin histogram; returns the bins.

        Large backlogs are binned vectorized: one ``np.unique`` over the
        bin indices plus a weighted ``bincount``, folding one value per
        *bin* into the dict instead of one per sample.  Bin sums are
        integers far below 2**53, so the float accumulation is exact and
        the result matches the scalar fold bit for bit.  numpy is imported
        on that branch only.
        """
        pending_t = self._pending_t
        binned = self._binned
        if pending_t:
            bs = self.bin_seconds
            get = binned.get
            if len(pending_t) > 64:
                import numpy as np

                idxs = (np.asarray(pending_t) // bs).astype(np.int64)
                uniq, inv = np.unique(idxs, return_inverse=True)
                sums = np.bincount(
                    inv, weights=np.asarray(self._pending_b, dtype=np.float64)
                )
                for i, s in zip(uniq.tolist(), sums.tolist()):
                    binned[i] = get(i, 0) + int(s)
            else:
                for t, b in zip(pending_t, self._pending_b):
                    idx = int(t // bs)
                    binned[idx] = get(idx, 0) + b
            pending_t.clear()
            self._pending_b.clear()
        return binned

    @property
    def _bins(self) -> dict[int, int]:
        """Materialized per-bin histogram (kept under the historical name:
        the sanitizer's meter audit probes it directly)."""
        return self._flush()

    def rate_series(self) -> list[tuple[float, float]]:
        """(bin_start_time, bytes/sec) pairs, sorted by time."""
        return [
            (idx * self.bin_seconds, count / self.bin_seconds)
            for idx, count in sorted(self._flush().items())
        ]

    def mean_rate(self, start: float, end: float) -> float:
        """Average bytes/sec over [start, end).

        Boundary bins are prorated by their overlap with the window: a bin
        only partially covered contributes its per-second rate times the
        covered duration, so windows that cut through a bin are not
        overestimated (bytes within a bin are treated as uniformly spread).
        """
        if end <= start:
            raise NetworkError("empty meter window")
        bs = self.bin_seconds
        lo = int(start // bs)
        hi = int(math.ceil(end / bs))
        bins = self._flush()
        if hi - lo > len(bins):
            items: Iterable[tuple[int, int]] = (
                (i, c) for i, c in bins.items() if lo <= i < hi
            )
        else:
            items = ((i, bins[i]) for i in range(lo, hi) if i in bins)
        total = 0.0
        for i, count in items:
            overlap = min(end, (i + 1) * bs) - max(start, i * bs)
            total += count * (overlap / bs)
        return total / (end - start)


@dataclass
class Nic:
    """Per-node NIC state: next-free times and traffic meters."""

    bandwidth: float
    egress_free: float = 0.0
    ingress_free: float = 0.0
    egress_meter: ByteMeter = field(default_factory=ByteMeter)
    ingress_meter: ByteMeter = field(default_factory=ByteMeter)


class Network:
    """The simulated cluster network.

    Parameters
    ----------
    sim:
        Owning simulator.
    synchrony:
        Latency/GST model.
    bandwidth:
        Per-NIC bandwidth in bytes/second (full duplex).
    neq_latency_factor:
        Multiplier on propagation latency for the non-equivocating
        multicast primitive — it is "relatively heavyweight" (Sec 3) since
        implementations go through RDMA reliable broadcast or trusted
        hardware.
    """

    def __init__(
        self,
        sim: Simulator,
        synchrony: Optional[SynchronyModel] = None,
        bandwidth: float = DEFAULT_BANDWIDTH,
        neq_latency_factor: float = 3.0,
    ) -> None:
        if bandwidth <= 0:
            raise NetworkError("bandwidth must be positive")
        self.sim = sim
        self.synchrony = synchrony or SynchronyModel()
        self.bandwidth = bandwidth
        self.neq_latency_factor = neq_latency_factor
        # Δ must bound what the *network* can actually produce after GST,
        # which includes the neq amplification — otherwise Δ-derived
        # timeouts falsely fire on correct neq senders (liveness).
        worst = self.synchrony.post_gst_bound() * max(1.0, neq_latency_factor)
        if self.synchrony.delta < worst:
            raise NetworkError(
                "delta must bound post-GST latency including the neq "
                f"premium (delta={self.synchrony.delta}, worst neq "
                f"latency={worst})"
            )
        self._procs: dict[str, Endpoint] = {}
        self._nics: dict[str, Nic] = {}
        # pid → (deliver-callback, nic): one dict lookup on the send path
        self._endpoints: dict[str, tuple] = {}
        self._fifo_tail: dict[tuple[str, str], float] = {}
        self._rng = sim.rng("network")
        # buffered propagation-latency draws (base already added): the
        # i-th value consumed equals the i-th value the historical scalar
        # sample() path would have produced, so traces stay bit-identical
        self._lat_buf: list[float] = []
        self._lat_pos = 0
        self._lat_base = self.synchrony.base_latency
        self._lat_jitter = self.synchrony.jitter
        self.messages_sent = 0
        self.neq_multicasts = 0
        #: individual link sends performed on behalf of neq_multicast —
        #: the sanitizer cross-checks this against neq-labeled transfers
        self.neq_sends = 0
        # stale FIFO-tail entries are swept between kernel dispatch
        # batches (passive: dropping a tail that is behind sim.now can
        # never change a future max(tail, deliver_at))
        sim.add_batch_hook(self._sweep_fifo_tails)

    # ------------------------------------------------------------- topology
    def register(self, proc: Endpoint) -> None:
        """Attach a process to the network (one NIC per process id)."""
        if proc.pid in self._procs:
            raise NetworkError(f"duplicate process id {proc.pid!r}")
        self._procs[proc.pid] = proc
        nic = Nic(self.bandwidth)
        self._nics[proc.pid] = nic
        self._endpoints[proc.pid] = (proc.deliver, nic)

    def process(self, pid: str) -> Endpoint:
        """Look up a registered process."""
        try:
            return self._procs[pid]
        except KeyError:
            raise NetworkError(f"unknown process {pid!r}") from None

    def nic(self, pid: str) -> Nic:
        """NIC state (for profiling/bench assertions)."""
        try:
            return self._nics[pid]
        except KeyError:
            raise NetworkError(f"unknown process {pid!r}") from None

    @property
    def pids(self) -> list[str]:
        """All registered process ids, in registration order."""
        return list(self._procs)

    # ------------------------------------------------------------ latencies
    def _draw_latencies(self, n: int) -> list[float]:
        """``n`` post-GST propagation latencies (base + jitter), from the
        buffered vectorized draw.

        Stream-compatible with the scalar path by construction: a size-k
        ``Generator.uniform`` draw yields the same values as k sequential
        scalar draws, and the buffer is consumed strictly in draw order.
        A mid-run change of the synchrony's base/jitter discards the
        buffer (still deterministic — the discard point is a pure function
        of the schedule), keeping latencies consistent with the new
        parameters.
        """
        syn = self.synchrony
        if syn.jitter != self._lat_jitter or syn.base_latency != self._lat_base:
            self._lat_buf = []
            self._lat_pos = 0
            self._lat_jitter = syn.jitter
            self._lat_base = syn.base_latency
        buf = self._lat_buf
        pos = self._lat_pos
        avail = len(buf) - pos
        if avail >= n:
            self._lat_pos = pos + n
            return buf[pos : pos + n]
        out = buf[pos:]
        need = n - avail
        fill = _LATENCY_BUF if _LATENCY_BUF > need else need
        fresh = (
            syn.base_latency + self._rng.uniform(0.0, syn.jitter, fill)
        ).tolist()
        self._lat_buf = fresh
        self._lat_pos = need
        out.extend(fresh[:need])
        return out

    # ----------------------------------------------------------------- send
    def send(self, src: str, dst: str, msg: Message, neq: bool = False) -> float:
        """Send ``msg`` from ``src`` to ``dst``; returns the delivery time.

        Reliable FIFO: per-(src,dst) delivery order matches send order.
        The message object is stamped with ``sender=src`` (link-level
        authentication); handlers receive the same object — the simulation
        trusts protocol code not to mutate received messages, which the
        test-suite enforces for the core protocols by checking digests.

        ``neq`` marks this individual send as travelling the
        non-equivocating channel (set by :meth:`neq_multicast`): the neq
        latency premium applies and ``msg._neq`` is stamped at *delivery*
        so the receiver sees the channel of this send — never a stale flag
        left over from how the same object was sent earlier.

        This is the validating path; the arithmetic lives in the shared
        flyweight :meth:`_fanout`, so unicast and multicast sends are the
        same float operations in the same order.
        """
        endpoints = self._endpoints
        if src not in endpoints:
            raise NetworkError(f"unknown sender {src!r}")
        entry = endpoints.get(dst)
        if entry is None:
            raise NetworkError(f"unknown process {dst!r}")
        return self._fanout(src, (dst,), (entry,), msg, neq)

    def _fanout(
        self,
        src: str,
        dsts: tuple,
        entries: tuple,
        msg: Message,
        neq: bool,
    ) -> float:
        """Flyweight send core: one resolved group, one vectorized latency
        draw, meter ingest via pending-array appends.  Returns the last
        delivery time.  Per-destination arithmetic is kept operation-for-
        operation identical to the historical per-send path (pinned by the
        golden trace fixtures)."""
        msg.sender = src
        size = msg.wire_size()
        sim = self.sim
        now = sim.now
        tx = size / self.bandwidth
        src_nic: Nic = self._endpoints[src][1]
        syn = self.synchrony
        n = len(dsts)

        # one vectorized draw per group; the pre-GST adversarial-delay
        # case interleaves two draws per send and so must stay scalar
        if syn.pre_gst_extra > 0.0 and now < syn.gst:
            rng = self._rng
            lats: Optional[list[float]] = [
                syn.sample(now, rng) for _ in range(n)
            ]
        elif syn.jitter > 0.0:
            lats = self._draw_latencies(n)
        else:
            lats = None  # constant base latency, no stream consumption

        base = syn.base_latency
        factor = self.neq_latency_factor
        fifo = self._fifo_tail
        bus = sim.bus
        want_net = bus._want_net
        egress_meter = src_nic.egress_meter
        eg_t = egress_meter._pending_t
        eg_b = egress_meter._pending_b
        post_at = sim.post_at
        deliver_fn = self._deliver
        msg_type = type(msg).__name__ if want_net else ""
        deliver_at = 0.0

        for i in range(n):
            egress_start = src_nic.egress_free
            if now > egress_start:
                egress_start = now
            egress_end = src_nic.egress_free = egress_start + tx
            eg_t.append(egress_start)
            eg_b.append(size)

            latency = base if lats is None else lats[i]
            if neq:
                latency = latency * factor
            arrive = egress_end + latency

            deliver, dst_nic = entries[i]
            ingress_start = dst_nic.ingress_free
            if arrive > ingress_start:
                ingress_start = arrive
            deliver_at = dst_nic.ingress_free = ingress_start + tx
            im = dst_nic.ingress_meter
            im.total += size
            im._pending_t.append(ingress_start)
            im._pending_b.append(size)

            dst = dsts[i]
            key = (src, dst)
            tail = fifo.get(key, 0.0)
            if tail > deliver_at:
                deliver_at = tail
            fifo[key] = deliver_at

            if want_net:
                bus.emit(
                    LinkTransfer(
                        time=now,
                        pid=src,
                        dst=dst,
                        nbytes=size,
                        msg_type=msg_type,
                        deliver_at=deliver_at,
                        neq=neq,
                    )
                )
            post_at(deliver_at, deliver_fn, deliver, msg, neq)

        egress_meter.total += size * n
        self.messages_sent += n
        return deliver_at

    @staticmethod
    def _deliver(deliver, msg: Message, neq: bool) -> None:
        if msg._neq is not neq:
            msg._neq = neq  # type: ignore[attr-defined]
        deliver(msg)

    # ---------------------------------------------------------- maintenance
    def _sweep_fifo_tails(self) -> None:
        """Drop FIFO-tail entries whose delivery time is behind ``sim.now``.

        Runs between kernel dispatch batches (:meth:`Simulator.
        add_batch_hook`).  A stale tail can never win the ``max(tail,
        deliver_at)`` race again — every future delivery lands at or after
        ``now`` — so the sweep is invisible to the simulation and merely
        bounds the map to pairs with in-flight traffic.
        """
        tails = self._fifo_tail
        if not tails:
            return
        now = self.sim.now
        stale = [key for key, tail in tails.items() if tail <= now]
        for key in stale:
            del tails[key]

    # ------------------------------------------------------------ multicast
    def multicast(self, src: str, dsts: Iterable[str], msg: Message) -> None:
        """Plain multicast: independent sends of the same message object.

        NOTE: a Byzantine sender equivocates by *not* using this helper and
        calling :meth:`send` with different contents per destination; the
        substrate cannot prevent that — the protocols must (Sec 5.2.2,
        "Limited Equivocation").
        """
        dsts = dsts if type(dsts) is tuple else tuple(dsts)
        if not dsts:
            return
        endpoints = self._endpoints
        if src not in endpoints:
            raise NetworkError(f"unknown sender {src!r}")
        try:
            entries = tuple(endpoints[d] for d in dsts)
        except KeyError as exc:
            raise NetworkError(f"unknown process {exc.args[0]!r}") from None
        self._fanout(src, dsts, entries, msg, False)

    def neq_multicast(self, src: str, group: Iterable[str], msg: Message) -> None:
        """Non-equivocating multicast (Mu-style reliable broadcast [3, 4]).

        Guarantees of the primitive, enforced by construction:

        * **No equivocation** — one payload object goes to every group
          member in a single call; there is no per-destination variant.
        * **Atomicity to correct receivers** — the substrate performs all
          the sends; a faulty *sender* can only choose not to invoke the
          primitive at all (an omission, handled by timeouts).

        It is heavyweight: propagation latency is multiplied by
        ``neq_latency_factor``.
        """
        group = group if type(group) is tuple else tuple(group)
        if not group:
            raise NetworkError("neq_multicast to empty group")
        endpoints = self._endpoints
        if src not in endpoints:
            raise NetworkError(f"unknown sender {src!r}")
        try:
            entries = tuple(endpoints[d] for d in group)
        except KeyError as exc:
            raise NetworkError(f"unknown process {exc.args[0]!r}") from None
        self.neq_multicasts += 1
        self._fanout(src, group, entries, msg, True)
        self.neq_sends += len(group)
