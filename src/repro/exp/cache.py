"""Content-addressed result cache for sweep points.

A point's cache key is the SHA-256 of its canonical descriptor (see
:meth:`repro.api.DeploymentSpec.descriptor`) combined with the *code
version* — a digest over every ``.py`` file under ``src/repro``.  Any
edit to the simulator, protocol, apps, or harness changes the code
version and invalidates every entry at once; identical points on
identical code hit.  This is sound because DES scenario runs are
deterministic functions of (descriptor, code).

Entries are small JSON files under ``$REPRO_EXP_CACHE_DIR`` (default
``~/.cache/repro-exp``), sharded by key prefix, written atomically so a
killed run never leaves a torn entry and concurrent pool workers never
observe partial writes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional

__all__ = ["ResultCache", "code_version", "default_cache_dir"]

_ENV_VAR = "REPRO_EXP_CACHE_DIR"

_code_version_cache: Optional[str] = None


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_EXP_CACHE_DIR`` or ``~/.cache/repro-exp``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-exp"


def code_version() -> str:
    """SHA-256 over every ``.py`` file under ``src/repro`` (this tree).

    Files are folded in sorted relative-path order, each prefixed by its
    path and length, so renames and content changes both invalidate.
    Computed once per process (the tree cannot change mid-run).
    """
    global _code_version_cache
    if _code_version_cache is not None:
        return _code_version_cache
    root = Path(__file__).resolve().parent.parent  # src/repro
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        h.update(f"{rel}\x00{len(data)}\x00".encode())
        h.update(data)
    _code_version_cache = h.hexdigest()
    return _code_version_cache


def point_key(descriptor: dict[str, Any], version: str) -> str:
    """Content address of a point under a given code version."""
    blob = json.dumps(
        {"code_version": version, "point": descriptor},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """Filesystem-backed point-result cache.

    ``get``/``put`` are safe under concurrent readers and writers: puts
    go through a temp file + ``os.replace`` (atomic on POSIX), and a
    corrupt or unreadable entry is treated as a miss.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict[str, Any]]:
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for entry in self.root.glob("*/*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
