"""Substrate sanitizer: runtime invariant checks over the DES substrate.

OsirisBFT's pitch is correctness-by-checking instead of replication
(PAPER.md) — this package applies the same philosophy to the simulator
itself.  It is "ASan for the substrate": a set of conservation laws the
DES kernel, NIC/link model and CPU banks must obey on *every* run,
enforced by observability-bus sinks (purely observational — no RNG, no
scheduling, so sanitized runs stay bit-identical to bare ones) plus
post-run auditors that compare trace-derived shadows against the live
component state.

Invariants (see DESIGN.md "Substrate sanitizer" for the catalogue):

* **Link** — NIC full-duplex serialization, per-(src,dst) FIFO delivery,
  post-GST Δ-bound compliance including the neq-multicast premium,
  bit-exact egress shadow reconstruction, neq labeling conservation,
  and the ByteMeter proration spec.
* **CPU** — per-core span non-overlap, core indices within ``cores``,
  and the occupancy conservation law ``busy_seconds == completed +
  consumed-by-cancelled`` once a bank drains.
* **Conservation** — every committed record delivered exactly once
  (a post-run recompute of A(s, t), cut along the committed record
  counts, reproduces every committed chunk digest), no committed
  equivocation within a slot or across output processes, and
  trace/counter agreement at the OPs.

Entry points: ``Sanitizer`` (attach to a deployment via
``build_osiris_cluster(..., sanitize=True)`` or the bench scenario
runners) and ``python -m repro check fuzz`` (randomized sweeps with
failing-point shrinking).
"""

from repro.check.conservation import ConservationSink
from repro.check.cpu import CpuInvariantSink
from repro.check.fuzz import FuzzFailure, FuzzOutcome, run_fuzz
from repro.check.links import LinkInvariantSink
from repro.check.report import SanitizerReport, Violation
from repro.check.sanitizer import Sanitizer

__all__ = [
    "ConservationSink",
    "CpuInvariantSink",
    "FuzzFailure",
    "FuzzOutcome",
    "LinkInvariantSink",
    "Sanitizer",
    "SanitizerReport",
    "Violation",
    "run_fuzz",
]
