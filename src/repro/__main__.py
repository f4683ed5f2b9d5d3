"""Unified CLI: ``python -m repro <subcommand> [args...]``.

One dispatcher over the per-subsystem CLIs — each subcommand forwards
the remaining argv to that package's ``main()``:

=========  ====================================================
bench      paper figures and traces
adversary  fault campaigns: run one, or the whole attack matrix
check      sanitizer / conservation audits over a spec
live       OS-process runs and DES-vs-live cross-validation
mc         bounded interleaving exploration over the pure cores
serve      TCP gateway over a live deployment + serving bench
=========  ====================================================

The per-module invocations (``python -m repro.bench`` etc.) keep
working and stay the documented spelling in older scripts; this
dispatcher is sugar over exactly the same entry points, with the shared
``--json`` / ``--out`` output conventions of each sub-CLI unchanged.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional


def _bench(argv) -> int:
    from repro.bench.cli import main

    return main(argv)


def _adversary(argv) -> int:
    from repro.adversary.__main__ import main

    return main(argv)


def _check(argv) -> int:
    from repro.check.__main__ import main

    return main(argv)


def _live(argv) -> int:
    from repro.live.__main__ import main

    return main(argv)


def _mc(argv) -> int:
    from repro.mc.__main__ import main

    return main(argv)


def _serve(argv) -> int:
    from repro.serve.__main__ import main

    return main(argv)


_COMMANDS: dict[str, tuple[Callable, str]] = {
    "bench": (_bench, "paper figures and traces"),
    "adversary": (_adversary, "fault campaigns and the attack matrix"),
    "check": (_check, "sanitizer / conservation audits"),
    "live": (_live, "OS-process runs and cross-validation"),
    "mc": (_mc, "bounded interleaving exploration"),
    "serve": (_serve, "TCP gateway over a live deployment"),
}


def _usage() -> str:
    lines = ["usage: python -m repro <command> [args...]", "", "commands:"]
    for name, (_, help_text) in _COMMANDS.items():
        lines.append(f"  {name:<10} {help_text}")
    lines.append("")
    lines.append("run 'python -m repro <command> --help' for command options")
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return 0 if argv else 2
    name, rest = argv[0], argv[1:]
    entry = _COMMANDS.get(name)
    if entry is None:
        print(f"unknown command {name!r}\n\n{_usage()}", file=sys.stderr)
        return 2
    return entry[0](rest)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
