"""The one diff of two runs' commit records (``ScenarioResult.commits``):
content digests accepted exactly once per slot, so two correct runs of
one spec agree on them however they were scheduled (DESIGN.md §13)."""

from __future__ import annotations

__all__ = ["crossval", "summary"]


def crossval(a, b) -> list[str]:
    """Every way results ``a`` and ``b`` disagree, one line each, naming
    the side (``a`` or ``b``) a value belongs to; ``[]`` means they agree.

    Reported: an OP present on one side only, a task completed on one
    side only, a slot whose digest (or, digests equal, record count)
    differs, and nonzero ``sanitizer_violations`` on either side.
    """
    out: list[str] = []
    for op in sorted(set(a.commits) | set(b.commits)):
        x, y = a.commits.get(op), b.commits.get(op)
        if x is None or y is None:
            out.append(f"{op}: present only in {'b' if x is None else 'a'}")
            continue
        done_a, done_b = set(x["completed"]), set(y["completed"])
        for task in sorted(done_a ^ done_b):
            side = "a" if task in done_a else "b"
            out.append(f"{op}: task {task} completed only in {side}")
        for key in sorted(set(x["chunks"]) | set(y["chunks"])):
            da, db = x["chunks"].get(key), y["chunks"].get(key)
            ra, rb = x["records"].get(key), y["records"].get(key)
            if da != db:
                da, db = da and da[:12], db and db[:12]
                out.append(f"{op}: slot {key} digest a={da} b={db}")
            elif ra != rb:
                out.append(f"{op}: slot {key} records a={ra} b={rb}")
    for side, result in (("a", a), ("b", b)):
        if result.sanitizer_violations:
            n = result.sanitizer_violations
            out.append(f"{side}: {n} sanitizer violation(s)")
    return out


def summary(label: str, a, mismatches: list[str]) -> str:
    """The verdict on ``mismatches = crossval(a, b)``, for a terminal:
    the first 20 lines of a failure; ``label`` names the spec and sides."""
    if not mismatches:
        slots = sum(len(c["chunks"]) for c in a.commits.values())
        return (
            f"cross-validation OK [{label}]: {len(a.commits)} OP(s), "
            f"{slots} committed slot(s) identical, 0 violations"
        )
    more = [f"  ... {len(mismatches) - 20} more"] if len(mismatches) > 20 else []
    return "\n".join(
        [f"cross-validation FAILED [{label}]:"]
        + [f"  {m}" for m in mismatches[:20]]
        + more
    )
