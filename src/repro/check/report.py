"""Violation vocabulary shared by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Violation", "SanitizerReport"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant.

    ``invariant`` is a stable machine-readable name ("fifo-order",
    "delta-bound", "cpu-conservation", ...); ``pid`` the process (or
    component) it was observed at; ``time`` the simulated time of the
    offending event (-1.0 for post-run audit findings with no single
    event); ``detail`` a human-readable explanation with the numbers.
    """

    invariant: str
    pid: str
    time: float
    detail: str

    def __str__(self) -> str:
        at = f"t={self.time:.6g}" if self.time >= 0 else "post-run"
        return f"[{self.invariant}] {self.pid} {at}: {self.detail}"


@dataclass
class SanitizerReport:
    """Accumulated findings of one sanitized run."""

    violations: list[Violation] = field(default_factory=list)
    #: LinkTransfer events checked.
    transfers_checked: int = 0
    #: CpuSpan events checked.
    spans_checked: int = 0
    #: CPU banks audited post-run.
    banks_audited: int = 0
    #: Tasks whose committed output was recomputed and compared with A(s, t).
    outputs_recomputed: int = 0

    #: Cap on stored violations: a systematically broken substrate would
    #: otherwise flood memory with millions of identical findings.
    MAX_VIOLATIONS = 200

    def add(self, invariant: str, pid: str, time: float, detail: str) -> None:
        if len(self.violations) < self.MAX_VIOLATIONS:
            self.violations.append(Violation(invariant, pid, time, detail))

    @property
    def ok(self) -> bool:
        return not self.violations

    def invariants_hit(self) -> set[str]:
        """Distinct invariant names that fired."""
        return {v.invariant for v in self.violations}

    def summary(self) -> str:
        head = (
            f"sanitizer: {len(self.violations)} violation(s); "
            f"{self.transfers_checked} transfers, "
            f"{self.spans_checked} cpu spans, "
            f"{self.banks_audited} banks, "
            f"{self.outputs_recomputed} outputs recomputed"
        )
        if self.ok:
            return head
        lines = [head]
        lines.extend(f"  {v}" for v in self.violations[:20])
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)
