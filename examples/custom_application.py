#!/usr/bin/env python
"""Writing your own verifiable application, end to end.

The OsirisBFT programming model (paper Sec 4) asks an application for
the ⟨U, A⟩ pair plus three verification operators.  This example builds
a miniature *search index* from scratch:

* **state (U)** — documents stream in; every replica maintains the
  document store and an inverted index, multiversioned;
* **computation (A)** — a query task returns every document containing
  the query term, as sorted records;
* **is_valid** — re-check that the claimed document exists at this
  version and contains the term (cheap: one lookup);
* **happens_before** — document-id order (the default key order);
* **output_size** — the posting-list length from the inverted index —
  O(1), which is what makes omission detectable without re-running the
  search.

Byzantine executors hide one matching document from their results; the
verifiers' count check exposes it.

Run:  python examples/custom_application.py
"""

from bisect import bisect_right

from repro.core import (
    ComputeResult,
    CountResult,
    Opcode,
    OsirisConfig,
    Record,
    Task,
    VerifiableApplication,
    build_osiris_cluster,
)
from repro.core.faults import OmitRecordFault
from repro.store.state_machine import VersionedState


class IndexState(VersionedState):
    """Multiversioned document store + inverted index."""

    def __init__(self):
        self._docs: dict[int, tuple[int, frozenset]] = {}  # id -> (ts, terms)
        self._postings: dict[str, tuple[list, list]] = {}  # term -> (ts[], ids[])

    def apply(self, ts, payload):
        doc_id, text = payload
        terms = frozenset(text.split())
        self._docs[doc_id] = (ts, terms)
        for term in terms:
            tss, ids = self._postings.setdefault(term, ([], []))
            tss.append(ts)
            ids.append(doc_id)
        return 1e-6 * len(terms)

    def snapshot(self, ts):
        return IndexView(self, ts)


class IndexView:
    """Read view pinned at a version."""

    def __init__(self, state, ts):
        self._state = state
        self.ts = ts

    def postings(self, term):
        tss, ids = self._state._postings.get(term, ([], []))
        visible = ids[: bisect_right(tss, self.ts)]
        return sorted(set(visible))

    def doc_has_term(self, doc_id, term):
        entry = self._state._docs.get(doc_id)
        return entry is not None and entry[0] <= self.ts and term in entry[1]


class SearchApp(VerifiableApplication):
    """The ⟨U, A⟩ + operators bundle for the search index."""

    name = "search-index"

    def initial_state(self):
        return IndexState()

    def valid_task(self, task):
        if task.opcode.has_update:
            payload = task.update_payload
            if not (isinstance(payload, tuple) and len(payload) == 2):
                return False
        if task.opcode.has_compute:
            if not isinstance(task.compute_payload, str):
                return False
        return True

    def compute(self, view, task):
        term = task.compute_payload
        matches = view.postings(term)
        records = tuple(
            Record(key=(doc_id,), data=term, size_bytes=32)
            for doc_id in matches
        )
        # cost: model a scan over the posting list
        return ComputeResult(records=records, cost=2e-3 + 1e-4 * len(matches))

    def is_valid(self, view, record, task):
        return (
            len(record.key) == 1
            and record.data == task.compute_payload
            and view.doc_has_term(record.key[0], task.compute_payload)
        )

    def output_size(self, view, task):
        # O(1)-ish from the index: this is the omission detector
        return CountResult(count=len(view.postings(task.compute_payload)), cost=1e-5)


DOCS = [
    "the quick brown fox",
    "byzantine generals problem",
    "quick sort and merge sort",
    "fox hunting is banned",
    "byzantine fault tolerant analytics",
    "a quick byzantine fox",
]


def main():
    workload = []
    t = 0.0
    for i, text in enumerate(DOCS):
        workload.append(
            (t, Task(task_id=f"doc{i}", opcode=Opcode.UPDATE,
                     update_payload=(i, text), size_bytes=64))
        )
        t += 0.01
    for i, term in enumerate(["quick", "byzantine", "fox", "sort"]):
        workload.append(
            (t, Task(task_id=f"q{i}", opcode=Opcode.COMPUTE,
                     compute_payload=term, size_bytes=32))
        )
        t += 0.01

    cluster = build_osiris_cluster(
        SearchApp(),
        workload=iter(workload),
        n_workers=10,
        k=2,
        seed=5,
        config=OsirisConfig(f=1, suspect_timeout=0.5),
        faults={f"e{i}": OmitRecordFault() for i in range(4)},
    )
    cluster.start()
    cluster.run(until=30.0)

    m = cluster.metrics
    expected_hits = sum(
        sum(1 for d in DOCS if term in d.split())
        for term in ["quick", "byzantine", "fox", "sort"]
    )
    print(f"queries answered:  {m.tasks_completed} / 4")
    print(f"hits delivered:    {m.records_accepted} (expected {expected_hits})")
    print(f"omissions caught:  "
          f"{sum(1 for _, k, _ in m.faults_detected if k == 'count-mismatch')}")
    assert m.tasks_completed == 4
    assert m.records_accepted == expected_hits
    print("\nOK: a ~100-line application gets BFT analytics for free.")


if __name__ == "__main__":
    main()
