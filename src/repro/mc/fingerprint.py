"""Deterministic structural digests of core state, for state merging.

The explorer identifies "the same state reached along two schedules" by
hashing the protocol-relevant object graph of every core.  Python's
built-in ``hash`` is salted per process and ``id`` is allocation
order, so neither can appear in a digest that must be stable across
two runs (the ISSUE's determinism acceptance check runs the explorer
twice and compares counts).  :func:`stable_digest` walks the graph
with sha256 over value *tokens*:

* primitives hash their repr (floats via ``repr`` keeps 0.5 vs 0.25
  distinct without precision games);
* dicts hash items sorted by the token of the key, sets sorted by the
  token of each element — insertion order is an artifact of schedule,
  not of state;
* arbitrary objects hash their class name plus sorted ``__dict__`` /
  ``__slots__`` entries, minus a skip set of environment references
  (runtime, topology, registry, app, config …) that are shared across
  all schedules by construction;
* functions hash their qualname plus closure-cell contents and
  defaults (continuations queued as pending jobs close over state that
  matters); bound methods walk their ``__self__``;
* cycles are broken with a memo that tokens back-edges by *visit
  order*, not ``id`` — visit order is deterministic given the walk.
"""

from __future__ import annotations

import hashlib
from collections import deque
from enum import Enum
from functools import partial
from types import FunctionType, MethodType

__all__ = ["stable_digest", "DEFAULT_SKIP"]

# Attributes that point at shared environment, not explored state.
# ``world``/``_rt``/``host`` would recurse into the whole deployment;
# topo/registry/signer/app/config are immutable-by-convention and
# identical across schedules; ``_handlers`` is a derived dispatch table.
# ``sigma`` (``Chunk``'s digest memo, present only once something read
# it) and ``_attempts`` (the verifier's per-task index of ``_tasks``)
# are derived from attributes the walk already covers.
DEFAULT_SKIP = frozenset(
    {"_rt", "host", "topo", "registry", "signer", "app", "config",
     "_handlers", "world", "sigma", "_attempts"}
)

_PRIMITIVES = (str, bytes, int, float, bool, type(None))


def stable_digest(obj, skip: frozenset = DEFAULT_SKIP) -> str:
    """Hex sha256 of the structural walk of ``obj``.

    ``skip`` names attributes omitted wherever they appear on any
    object along the walk.
    """
    h = hashlib.sha256()
    memo: dict[int, int] = {}
    _walk(obj, h, memo, skip)
    return h.hexdigest()


def _atom_token(obj) -> bytes:
    """Sort key for dict keys / set elements: a self-contained token.

    Falls back to a full sub-digest for rare composite keys (tuples of
    primitives are the common case in this codebase).
    """
    t = type(obj)
    if t in (str, int, float, bool, type(None)):
        return f"{t.__name__}:{obj!r}".encode()
    if t is bytes:
        return b"bytes:" + obj
    if isinstance(obj, Enum):
        return f"enum:{type(obj).__name__}.{obj.name}".encode()
    if t is tuple:
        return b"tup:" + b"|".join(_atom_token(x) for x in obj)
    if t is frozenset:
        return b"fz:" + b"|".join(sorted(_atom_token(x) for x in obj))
    sub = hashlib.sha256()
    _walk(obj, sub, {}, DEFAULT_SKIP)
    return b"obj:" + sub.digest()


def _walk(obj, h, memo: dict[int, int], skip: frozenset) -> None:
    t = type(obj)
    if t in _PRIMITIVES:
        h.update(_atom_token(obj))
        return
    if isinstance(obj, Enum):
        h.update(_atom_token(obj))
        return

    oid = id(obj)
    if oid in memo:
        h.update(f"<cycle:{memo[oid]}>".encode())
        return
    memo[oid] = len(memo)

    if t is dict:
        h.update(b"{")
        for key, value in sorted(
            obj.items(), key=lambda kv: _atom_token(kv[0])
        ):
            h.update(_atom_token(key))
            h.update(b"=")
            _walk(value, h, memo, skip)
            h.update(b",")
        h.update(b"}")
    elif t in (set, frozenset):
        h.update(b"s{")
        for token in sorted(_atom_token(x) for x in obj):
            h.update(token)
            h.update(b",")
        h.update(b"}")
    elif t in (list, tuple) or t is deque:
        h.update(f"{t.__name__}[".encode())
        for item in obj:
            _walk(item, h, memo, skip)
            h.update(b",")
        h.update(b"]")
    elif t is FunctionType:
        h.update(f"fn:{obj.__qualname__}".encode())
        if obj.__closure__:
            h.update(b"(")
            for cell in obj.__closure__:
                try:
                    contents = cell.cell_contents
                except ValueError:  # empty cell
                    h.update(b"<empty>")
                else:
                    _walk(contents, h, memo, skip)
                h.update(b",")
            h.update(b")")
        if obj.__defaults__:
            h.update(b"d(")
            for default in obj.__defaults__:
                _walk(default, h, memo, skip)
                h.update(b",")
            h.update(b")")
    elif t is MethodType:
        h.update(f"bm:{obj.__func__.__qualname__}@".encode())
        _walk(obj.__self__, h, memo, skip)
    elif t is partial:
        h.update(b"partial:")
        _walk(obj.func, h, memo, skip)
        _walk(obj.args, h, memo, skip)
        _walk(obj.keywords, h, memo, skip)
    elif hasattr(obj, "__dict__") or hasattr(obj, "__slots__"):
        h.update(f"<{type(obj).__name__}".encode())
        fields: dict = {}
        if hasattr(obj, "__dict__"):
            fields.update(obj.__dict__)
        for slots_of in type(obj).__mro__:
            for name in getattr(slots_of, "__slots__", ()):
                if name not in fields and hasattr(obj, name):
                    fields[name] = getattr(obj, name)
        for name in sorted(fields):
            if name in skip:
                continue
            h.update(f".{name}=".encode())
            _walk(fields[name], h, memo, skip)
        h.update(b">")
    else:  # last resort: partial/objects without dicts — repr-ish tag
        h.update(f"<?{type(obj).__name__}>".encode())
