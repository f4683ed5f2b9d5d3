"""Anomaly Detection as a verifiable application (the paper's use case).

Tasks carry link updates; the computation lists every instance of the
anomaly pattern containing the new link at the post-update version of the
network (Fig 1).  The verification operators are exactly Algorithm 2:

* ``is_valid``       — record is a subgraph of the network, matches the
  pattern, and contains the updated link;
* ``happens_before`` — prefix (lexicographic) ordering of match tuples;
* ``output_size``    — exact counting via the specialized/discounted
  counting routines, far cheaper than enumeration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.apps.anomaly.patterns import Pattern
from repro.core.api import ComputeResult, CountResult, VerifiableApplication
from repro.core.tasks import Opcode, Record, Task

if TYPE_CHECKING:
    from repro.apps.anomaly.graph import GraphView, MultiVersionGraph

__all__ = ["AnomalyApp", "make_link_task"]


def make_link_task(
    i: int,
    u: int,
    v: int,
    op: str = "add",
    compute: bool = True,
) -> Task:
    """A link-update task; ``compute=True`` also requests pattern
    matching around the link (the anomaly query)."""
    opcode = Opcode.BOTH if (compute and op == "add") else Opcode.UPDATE
    return Task(
        task_id=f"link{i}",
        opcode=opcode,
        update_payload=(op, u, v),
        compute_payload={"edge": [u, v]} if opcode.has_compute else None,
        size_bytes=48,
    )


class AnomalyApp(VerifiableApplication):
    """Streaming pattern matching over a dynamic network graph.

    Parameters
    ----------
    base_edges:
        Initial network (version 0).
    pattern:
        The anomaly pattern to match.
    step_cost:
        Simulated seconds per matcher extension step.  The paper's C++
        engine explores ~10⁷ extensions/sec/core; the default models
        that (1e-7 s/step).
    count_discount:
        Cost multiplier for counting-based verification (Sec 4.4).
    verify_step_cost:
        Simulated seconds to validate one record (adjacency checks are
        |E(p)| sorted lookups — cheap and independent of graph size).
    record_bytes:
        Wire size of one match record (k vertex ids + framing).
    """

    name = "anomaly-detection"

    def __init__(
        self,
        base_edges,
        pattern: Pattern,
        step_cost: float = 1e-7,
        count_discount: float = 0.1,
        verify_step_cost: float = 1e-6,
        record_bytes: Optional[int] = None,
    ) -> None:
        # the graph and matcher modules (and with them numpy) load when an
        # app is built, not when the package is imported for its task
        # factories
        from repro.apps.anomaly.matcher import EdgeAnchoredMatcher

        self.base_edges = list(base_edges)
        self.pattern = pattern
        self.matcher = EdgeAnchoredMatcher(
            pattern, step_cost=step_cost, count_discount=count_discount
        )
        self.step_cost = step_cost
        self.verify_step_cost = verify_step_cost
        self.record_bytes = record_bytes or (8 * pattern.size + 16)
        self._state_template: Optional[MultiVersionGraph] = None

    # ----------------------------------------------------------------- state
    def initial_state(self) -> MultiVersionGraph:
        # built once, cloned per replica: every replica starts from the
        # identical base state either way, but sorting + boxing the base
        # adjacency happens once per deployment instead of once per node
        if self._state_template is None:
            from repro.apps.anomaly.graph import MultiVersionGraph

            self._state_template = MultiVersionGraph(self.base_edges)
        return self._state_template.clone()

    # ------------------------------------------------------------------- T
    def valid_task(self, task: Task) -> bool:
        if task.opcode.has_update:
            payload = task.update_payload
            if (
                not isinstance(payload, tuple)
                or len(payload) != 3
                or payload[0] not in ("add", "del")
                or not isinstance(payload[1], int)
                or not isinstance(payload[2], int)
                or payload[1] == payload[2]
            ):
                return False
        if task.opcode.has_compute:
            cp = task.compute_payload
            if not isinstance(cp, dict) or "edge" not in cp:
                return False
            edge = cp["edge"]
            if len(edge) != 2 or edge[0] == edge[1]:
                return False
        return True

    # ------------------------------------------------------------------- A
    def compute(self, view: GraphView, task: Task) -> ComputeResult:
        u, v = task.compute_payload["edge"]
        out = self.matcher.enumerate(view, u, v)
        records = tuple(
            Record(key=m, size_bytes=self.record_bytes) for m in out.matches
        )
        return ComputeResult(records=records, cost=out.steps * self.step_cost)

    # ------------------------------------------------- verification operators
    def is_valid(self, view: GraphView, record: Record, task: Task) -> bool:
        if record.data is not None:
            # A(s, t) records are match tuples with no payload; anything
            # in ``data`` is not a member (r ∈ A(s, t) is on the whole
            # record, or a corrupted-but-valid-key record slips through)
            return False
        match = record.key
        if not isinstance(match, tuple) or not all(
            isinstance(x, int) for x in match
        ):
            return False
        u, v = task.compute_payload["edge"]
        return self.matcher.is_instance(view, match) and (
            self.matcher.contains_link(match, u, v)
        )

    def output_size(self, view: GraphView, task: Task) -> CountResult:
        u, v = task.compute_payload["edge"]
        out = self.matcher.count(view, u, v)
        return CountResult(count=out.count, cost=out.steps * self.step_cost)

    def verify_record_cost(self, record: Record) -> float:
        return self.verify_step_cost
