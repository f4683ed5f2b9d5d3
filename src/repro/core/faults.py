"""Byzantine fault injection strategies.

The output failure model (Sec 4.2) says every invalid executor output is
a **mismatch**, a **duplication** or an **omission**.  The strategies
here exercise the full space the evaluation and the safety proofs care
about: record corruption and fabrication (mismatch), record/chunk replay
(duplication), truncation and silence (omission), cross-task confusion,
slowness, and plain-channel equivocation.  Verifier- and OP-side faults
cover the generic protocol failures of Sec 5.2.2.

A strategy is attached to a process at deployment time via
:func:`repro.runtime.deploy.build_osiris_cluster`'s ``faults`` mapping; the
process then behaves Byzantinely *through its normal code paths* — it
still cannot forge other processes' signatures or equivocate through the
non-equivocating primitive, because those powers don't exist in the
substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tasks import Record, Task

__all__ = [
    "ExecutorFault",
    "CorruptRecordFault",
    "FabricateRecordFault",
    "DuplicateRecordFault",
    "OmitRecordFault",
    "TruncateOutputFault",
    "ReorderRecordsFault",
    "EarlyFinalFault",
    "SilentFault",
    "SlowFault",
    "DuplicateFinalChunkFault",
    "EquivocateChunksFault",
    "VerifierFault",
    "NegligentLeaderFault",
    "BogusDigestFault",
    "FalseAccusationFault",
    "SilentVerifierFault",
    "OutputFault",
    "SpuriousReportsFault",
    "EXECUTOR_FAULTS",
    "VERIFIER_FAULTS",
    "OUTPUT_FAULTS",
    "FAULT_REGISTRIES",
    "make_fault",
]


# ---------------------------------------------------------------- executors
class ExecutorFault:
    """Strategy interface consulted by the execution engine.

    The default implementation is honest; concrete faults override the
    hooks they need.  ``activate_at`` delays the Byzantine behaviour
    until a simulated time, supporting the Fig 7a "all executors fail at
    t=45s" experiment.
    """

    def __init__(self, activate_at: float = 0.0) -> None:
        self.activate_at = activate_at

    def active(self, now: float) -> bool:
        return now >= self.activate_at

    # hooks -----------------------------------------------------------------
    def transform_records(
        self, task: Task, records: list[Record]
    ) -> list[Record]:
        """Mutate the record sequence before chunking."""
        return records

    def transform_chunks(self, task: Task, chunks: list) -> list:
        """Mutate the chunk sequence after chunking (replay/early-final
        attacks that manipulate chunk framing rather than records)."""
        return chunks

    def suppress_final_chunk(self, task: Task) -> bool:
        """Withhold the final chunk (partial omission → timeout path)."""
        return False

    def silent(self, task: Task) -> bool:
        """Never produce any output for the task."""
        return False

    def extra_delay(self, task: Task) -> float:
        """Additional simulated compute delay (slow executor)."""
        return 0.0

    def equivocate(self, task: Task) -> bool:
        """Send different chunk contents to different verifiers over the
        plain channel (the digest still goes through the non-equivocating
        primitive — that is the whole point of the primitive)."""
        return False


class CorruptRecordFault(ExecutorFault):
    """Mismatch: corrupt the data of the last record of each task.

    This is exactly the Fig 7a injection: "each executor corrupts the
    final record in the next chunk it outputs to cause a mismatch."
    """

    def transform_records(self, task, records):
        if not records:
            return records
        last = records[-1]
        return records[:-1] + [
            Record(key=last.key, data="<corrupted>", size_bytes=last.size_bytes)
        ]


class FabricateRecordFault(ExecutorFault):
    """Mismatch: append a fabricated record that no task produces."""

    def transform_records(self, task, records):
        key = records[-1].key if records else (0,)
        bogus = Record(key=tuple(list(key) + [10**9]), data="<fabricated>")
        return records + [bogus]


class DuplicateRecordFault(ExecutorFault):
    """Duplication: replay the first record at the end of the stream."""

    def transform_records(self, task, records):
        if not records:
            return records
        return records + [records[0]]


class OmitRecordFault(ExecutorFault):
    """Omission: silently drop one record from the middle of the output."""

    def transform_records(self, task, records):
        if len(records) < 2:
            return records
        mid = len(records) // 2
        return records[:mid] + records[mid + 1 :]


class TruncateOutputFault(ExecutorFault):
    """Omission: drop the tail half of the output but still mark final."""

    def transform_records(self, task, records):
        return records[: max(1, len(records) // 2)] if records else records


class ReorderRecordsFault(ExecutorFault):
    """Mismatch/duplication surface: emit records out of program order."""

    def transform_records(self, task, records):
        return list(reversed(records)) if len(records) > 1 else records


class SilentFault(ExecutorFault):
    """Omission: accept assignments, never output (Sec 5.2.2's
    speculative-reassignment trigger)."""

    def silent(self, task):
        return True


class SlowFault(ExecutorFault):
    """Grey failure: correct output, pathological slowness."""

    def __init__(self, delay: float = 5.0, activate_at: float = 0.0) -> None:
        super().__init__(activate_at)
        self.delay = delay

    def extra_delay(self, task):
        return self.delay


class DuplicateFinalChunkFault(ExecutorFault):
    """Duplication across chunk boundaries: replay the final chunk as an
    additional chunk ("for example by sending a correct chunk twice",
    Sec 5.2.1) — caught by the taskFinished/ordering boundary checks."""

    def transform_chunks(self, task, chunks):
        from repro.core.tasks import Chunk

        last = chunks[-1]
        replay = Chunk(last.task_id, last.index + 1, last.records, final=True)
        return chunks + [replay]


class EarlyFinalFault(ExecutorFault):
    """Omission via framing: mark a middle chunk as final and keep
    streaming — caught by the count check or the chunk-after-final rule."""

    def transform_chunks(self, task, chunks):
        from repro.core.tasks import Chunk

        if len(chunks) < 2:
            return chunks
        out = list(chunks)
        mid = len(out) // 2 - 1 if len(out) % 2 == 0 else len(out) // 2
        mid = max(0, mid)
        c = out[mid]
        out[mid] = Chunk(c.task_id, c.index, c.records, final=True)
        return out


class EquivocateChunksFault(ExecutorFault):
    """Equivocation over the plain channel: different verifiers receive
    different chunk contents; σ(C) still goes via the primitive."""

    def equivocate(self, task):
        return True


# ---------------------------------------------------------------- verifiers
@dataclass
class VerifierFault:
    """Verifier-side Byzantine behaviours (all default honest)."""

    activate_at: float = 0.0
    #: as sub-cluster leader, never forward verified chunks to OP
    negligent_leader: bool = False
    #: endorse chunks with a wrong digest
    bogus_digest: bool = False
    #: accuse the executor of every task it sees
    false_accusation: bool = False
    #: drop all verifier duties
    silent: bool = False

    def active(self, now: float) -> bool:
        return now >= self.activate_at


class NegligentLeaderFault(VerifierFault):
    def __init__(self, activate_at: float = 0.0) -> None:
        super().__init__(activate_at=activate_at, negligent_leader=True)


class BogusDigestFault(VerifierFault):
    def __init__(self, activate_at: float = 0.0) -> None:
        super().__init__(activate_at=activate_at, bogus_digest=True)


class FalseAccusationFault(VerifierFault):
    def __init__(self, activate_at: float = 0.0) -> None:
        super().__init__(activate_at=activate_at, false_accusation=True)


class SilentVerifierFault(VerifierFault):
    def __init__(self, activate_at: float = 0.0) -> None:
        super().__init__(activate_at=activate_at, silent=True)


# ----------------------------------------------------------------- outputs
@dataclass
class OutputFault:
    """OP-side Byzantine behaviours."""

    activate_at: float = 0.0
    #: file negligent-leader reports against leaders that did nothing wrong
    spurious_reports: bool = False

    def active(self, now: float) -> bool:
        return now >= self.activate_at


class SpuriousReportsFault(OutputFault):
    def __init__(self, activate_at: float = 0.0) -> None:
        super().__init__(activate_at=activate_at, spurious_reports=True)


# -------------------------------------------------------------- registries
#: Executor fault strategies addressable by name (exp points, campaigns,
#: the fuzz driver and the adversary CLI all resolve kinds here).
EXECUTOR_FAULTS: dict[str, type] = {
    "silent": SilentFault,
    "slow": SlowFault,
    "corrupt-record": CorruptRecordFault,
    "fabricate-record": FabricateRecordFault,
    "duplicate-record": DuplicateRecordFault,
    "omit-record": OmitRecordFault,
    "truncate-output": TruncateOutputFault,
    "reorder-records": ReorderRecordsFault,
    "duplicate-final-chunk": DuplicateFinalChunkFault,
    "early-final": EarlyFinalFault,
    "equivocate-chunks": EquivocateChunksFault,
}

#: Verifier fault strategies addressable by name.
VERIFIER_FAULTS: dict[str, type] = {
    "negligent-leader": NegligentLeaderFault,
    "bogus-digest": BogusDigestFault,
    "false-accusation": FalseAccusationFault,
    "silent-verifier": SilentVerifierFault,
}

#: OP fault strategies addressable by name.
OUTPUT_FAULTS: dict[str, type] = {
    "spurious-reports": SpuriousReportsFault,
}

#: Role name → registry, the canonical role vocabulary.
FAULT_REGISTRIES: dict[str, dict[str, type]] = {
    "executor": EXECUTOR_FAULTS,
    "verifier": VERIFIER_FAULTS,
    "output": OUTPUT_FAULTS,
}


def make_fault(role: str, kind: str, params: dict | None = None):
    """Instantiate the named strategy for ``role`` (one per target pid —
    strategies may be stateful, so instances are never shared)."""
    registry = FAULT_REGISTRIES.get(role)
    if registry is None:
        raise ValueError(
            f"unknown fault role {role!r}; expected one of "
            f"{sorted(FAULT_REGISTRIES)}"
        )
    cls = registry.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown {role} fault {kind!r}; registered: {sorted(registry)}"
        )
    return cls(**dict(params or {}))
