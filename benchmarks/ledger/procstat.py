"""``/proc`` readers: per-process CPU time, peak RSS, and session scans.

psutil-free on purpose (the container bakes in no extra packages).
"""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the parenthesised command
    name (which may itself contain spaces); ``None`` once the process is
    gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process, all its threads."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    """The process's high-water resident set (``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def session_members(sid: int) -> list[int]:
    """Live, non-zombie processes whose session id is ``sid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields and int(fields[3]) == sid and fields[0] != "Z":
            out.append(int(entry))
    return out
