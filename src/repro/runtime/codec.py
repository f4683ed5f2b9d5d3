"""Canonical JSON wire format for protocol messages and control types.

Anything that crosses a process boundary goes through this module: the
replay capture logs (a captured inbox must survive a JSONL file → later
debugging session), every pipe hop of the live OS-process backend
(:mod:`repro.live`) and every served frame (:mod:`repro.serve.frames`).
A live node's sends to *itself* never get here: they are handed over as
objects, as the DES hands every delivery over (DESIGN.md §13).  Values
are encoded structurally: every registered dataclass (wire messages,
``Task``/``Assignment``/``Chunk``/``Record``/``Signature``, trace
events, live control types) becomes a tagged object, bytes become hex,
tuples are distinguished from lists, sets are sorted into deterministic
order, and registered enums round-trip by value.  Closures are never
serialized — callback continuations are captured *by identifier* (see
:mod:`repro.runtime.replay`), which is what keeps the wire format this
small.

Both directions dispatch on the **exact** type of each value:

* :func:`encode_json` writes the JSON text itself.  Every value's
  emitter appends fragments to one list, and the message is one
  ``"".join`` of it.  Each type has one table entry: a registered
  dataclass gets an emitter compiled from its ``init`` fields, in
  sorted-name order, the first time one is encoded.  A type the table
  does not know (a subclass of a built-in, a numpy scalar, an enum) is
  resolved once through the ``isinstance`` chain in :data:`_FALLBACK`,
  in the order the format defines, and cached under its exact type.
  The text is what ``json.dumps(..., sort_keys=True,
  separators=(",", ":"))`` wrote of the tagged tree this module used
  to build: a long ASCII string with nothing to escape is appended as
  it is, between two quote fragments, and every other string goes
  through ``json``'s own escaper; numbers are ``int.__repr__`` and
  ``float.__repr__`` (``NaN``, ``Infinity``); set elements sort by
  ``json.dumps`` of their tagged tree, read back from their text.
* :func:`decode` walks ``json.loads`` output: lists element-wise, each
  object by its tag, and a class body through a decoder compiled for
  its wire name on first use.  A tagged object carries exactly its
  tag's keys, so a raw dict anywhere but as a class body's ``f`` is
  rejected.

``tests/runtime/test_codec_reference.py`` holds a frozen copy of the
``isinstance``-ladder codec over ``json.dumps`` and checks, on
generated values (long strings with one character to escape included),
that the JSON is byte-identical and that malformed input raises as it
did.

The base class registry is built lazily on first use: the message
modules of the baselines import their deployment builders, which import
the DES backend, so an import-time registry would be cyclic.  Layers
above the runtime (observability, the live backend, the gateway) extend
the registry with :func:`register` / :func:`register_enum` instead of
being imported from here.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Callable, Optional

from repro.errors import ReplayError

__all__ = [
    "decode",
    "encode_json",
    "decode_json",
    "register",
    "register_enum",
    "registered_types",
]

_REGISTRY: Optional[dict[str, type]] = None
#: classes added by upper layers (obs events, live control types)
_EXTRA: dict[str, type] = {}
#: enum classes that round-trip by value; ``Opcode`` is installed lazily
_ENUMS: dict[str, type] = {}

#: exact types that are their own JSON form
_PASS = frozenset({str, int, float, bool, type(None)})
#: wire name → ``fn(tagged_object)`` for registered dataclasses
_DECODERS: dict[str, Callable[[dict], Any]] = {}
#: the keys a class body may carry (``q``/``s`` are the transport stamps)
_BODY_KEYS = frozenset({"__c", "f", "q", "s"})
_ENUM_KEYS = frozenset({"__e", "v"})


def register(*classes: type) -> None:
    """Add dataclasses to the wire registry (idempotent per class).

    Registration is by class *name* — the decoder's tag — so two
    distinct classes may not share one.  Re-registering a class changes
    nothing, so callers may register on every use.
    """
    for cls in classes:
        if not is_dataclass(cls):
            raise ReplayError(f"{cls.__name__} is not a dataclass")
        name = cls.__name__
        current = _EXTRA.get(name)
        if current is cls:
            continue
        if current is not None:
            raise ReplayError(
                f"wire name {name!r} already registered to a "
                f"different class"
            )
        _EXTRA[name] = cls
        if _REGISTRY is not None:
            # a name taken from a base class drops what was compiled for it
            _EMITTERS.pop(_REGISTRY.get(name), None)
            _DECODERS.pop(name, None)
            _REGISTRY[name] = cls


def register_enum(cls: type) -> None:
    """Add an :class:`~enum.Enum` class to the wire registry."""
    if not (isinstance(cls, type) and issubclass(cls, Enum)):
        raise ReplayError(f"{cls!r} is not an Enum class")
    current = _ENUMS.get(cls.__name__)
    if current is not None and current is not cls:
        raise ReplayError(
            f"enum name {cls.__name__!r} already registered to a "
            f"different class"
        )
    _ENUMS[cls.__name__] = cls


def _build_registry() -> dict[str, type]:
    import repro.baselines.rcp as rcp
    import repro.baselines.zft as zft
    import repro.consensus.messages as cs_messages
    import repro.consensus.pbft as pbft
    import repro.core.messages as core_messages
    from repro.core.tasks import Assignment, Chunk, Opcode, Record, Task
    from repro.crypto.signatures import Signature

    reg: dict[str, type] = {}
    for mod in (core_messages, cs_messages):
        for name in mod.__all__:
            reg[name] = getattr(mod, name)
    for mod in (zft, rcp, pbft):
        for name in mod.__all__:
            cls = getattr(mod, name)
            if is_dataclass(cls):
                reg[name] = cls
    for cls in (Task, Record, Assignment, Chunk, Signature):
        reg[cls.__name__] = cls
    _ENUMS.setdefault("Opcode", Opcode)
    reg.update(_EXTRA)
    return reg


def _registry() -> dict[str, type]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def registered_types() -> dict[str, type]:
    """Snapshot of the wire registry (name → class), extras included."""
    return dict(_registry())


def _enum_for(name: str) -> type:
    _registry()  # ensure the base enums are installed
    cls = _ENUMS.get(name)
    if cls is None:
        raise ReplayError(f"unknown enum {name!r}")
    return cls


# ------------------------------------------------------------------ encode
#: what ``json`` escapes in an ASCII string: the quote, the backslash,
#: the C0 controls and DEL (which it writes as ``\u007f``)
_DIRTY = bytes(range(0x20)) + b'"\\\x7f'
#: below this length one call of the C escaper costs less than the check
_SHORT = 128


def _emit(value: Any, ap: Callable[[str], None], ws: bool) -> None:
    """Append the JSON text of ``value`` to a fragment list through its
    ``append``, ``ap``."""
    (_EMITTERS.get(type(value)) or _resolve(value))(value, ap, ws)


def _emit_str(value: str, ap: Callable, ws: bool) -> None:
    # a long clean string goes out as it is, between two quote fragments
    if (
        len(value) >= _SHORT
        and value.isascii()
        and len(value.encode().translate(None, _DIRTY)) == len(value)
    ):
        ap('"')
        ap(value)
        ap('"')
    else:
        ap(_escape(value))


def _emit_int(value: int, ap: Callable, ws: bool) -> None:
    ap(int.__repr__(value))  # an ``IntEnum`` is written as its number


#: ``float.__repr__`` of the values JSON has no literal for
_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _emit_float(value: float, ap: Callable, ws: bool) -> None:
    text = float.__repr__(value)
    ap(_NONFINITE.get(text, text))


def _emit_items(items: Any, ap: Callable, ws: bool) -> None:
    get = _EMITTERS.get
    sep = False
    for v in items:
        if sep:
            ap(",")
        sep = True
        (get(type(v)) or _resolve(v))(v, ap, ws)


def _emit_list(value: list, ap: Callable, ws: bool) -> None:
    ap("[")
    _emit_items(value, ap, ws)
    ap("]")


def _emit_tuple(value: tuple, ap: Callable, ws: bool) -> None:
    ap('{"__t":[')
    _emit_items(value, ap, ws)
    ap("]}")


def _emit_bytes(value: bytes, ap: Callable, ws: bool) -> None:
    ap('{"__b":"')
    ap(value.hex())
    ap('"}')


def _emit_dict(value: dict, ap: Callable, ws: bool) -> None:
    ap('{"__d":[')
    sep = "["
    for k, v in value.items():
        ap(sep)
        sep = ",["
        _emit(k, ap, ws)
        ap(",")
        _emit(v, ap, ws)
        ap("]")
    ap("]}")


def _set_order(text: str) -> str:
    # the key the format sorts set elements by: ``json.dumps`` of each
    # element's tagged tree, which ``json.loads`` of its text recovers
    return json.dumps(json.loads(text), sort_keys=True, default=str)


def _emit_members(tag: str, value: Any, ap: Callable, ws: bool) -> None:
    texts = []
    for v in value:
        part: list[str] = []
        _emit(v, part.append, ws)
        texts.append("".join(part))
    texts.sort(key=_set_order)
    ap(tag)
    ap(",".join(texts))
    ap("]}")


def _emit_set(value: set, ap: Callable, ws: bool) -> None:
    _emit_members('{"__s":[', value, ap, ws)


def _emit_frozenset(value: frozenset, ap: Callable, ws: bool) -> None:
    _emit_members('{"__fs":[', value, ap, ws)


def _plain(value: Any) -> str:
    """``value`` as ``json`` writes it: what the format carries untagged
    (an enum's value, a sender stamp that is not a ``str``)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: member → its tagged text; enum classes are finite
_ENUM_TEXT: dict[Enum, str] = {}


def _emit_enum(value: Enum, ap: Callable, ws: bool) -> None:
    text = _ENUM_TEXT.get(value)
    if text is None:
        text = _ENUM_TEXT[value] = (
            f'{{"__e":{_escape(type(value).__name__)},'
            f'"v":{_plain(value.value)}}}'
        )
    ap(text)


def _emit_sender(value: Any, ap: Callable) -> None:
    ap(_escape(value) if type(value) is str else _plain(value))


#: exact type → ``fn(value, ap, with_sender)``; compiled dataclass
#: emitters and fallback resolutions are added as types are first seen
_EMITTERS: dict[type, Callable[[Any, Callable, bool], None]] = {
    str: _emit_str,
    int: _emit_int,
    float: _emit_float,
    bool: lambda value, ap, ws: ap("true" if value else "false"),
    type(None): lambda value, ap, ws: ap("null"),
    list: _emit_list,
    tuple: _emit_tuple,
    bytes: _emit_bytes,
    dict: _emit_dict,
    set: _emit_set,
    frozenset: _emit_frozenset,
}

#: what a type outside the table encodes as: the first base it is an
#: instance of, in this order (an ``IntEnum`` is an ``int``, a
#: ``namedtuple`` a ``tuple``)
_FALLBACK: tuple[tuple[type, Callable[[Any, Callable, bool], None]], ...] = (
    (str, _emit_str),  # a ``str`` subclass is written as its text
    (int, _emit_int),
    (float, _emit_float),
    (bytes, _emit_bytes),
    (tuple, _emit_tuple),
    (list, _emit_list),
    (frozenset, _emit_frozenset),
    (set, _emit_set),
    (dict, _emit_dict),
    (Enum, _emit_enum),
)


def _resolve(value: Any) -> Callable[[Any, Callable, bool], None]:
    """Emitter for a type seen for the first time, cached by exact type."""
    cls = type(value)
    for base, fn in _FALLBACK:
        if isinstance(value, base):
            break
    else:
        if not (is_dataclass(value) and _registry().get(cls.__name__) is cls):
            raise ReplayError(f"cannot encode {cls.__name__}: {value!r}")
        fn = _compile_emitter(cls)
    _EMITTERS[cls] = fn
    return fn


def _compile_emitter(cls: type) -> Callable[[Any, Callable, bool], None]:
    """``fn(obj, ap, with_sender)`` writing ``{"__c","f"[,"q"][,"s"]}``
    for ``cls``, its ``init`` fields in sorted-name order."""
    names = sorted(f.name for f in fields(cls) if f.init)
    head = f'{{"__c":{_escape(cls.__name__)},"f":{{'
    body = "" if names else f"    ap({head!r})\n"
    for i, n in enumerate(names):
        key = ("," if i else head) + _escape(n) + ":"
        body += (
            f"    ap({key!r})\n"
            f"    x = v.{n}\n"
            "    (G(type(x)) or R(x))(x, ap, ws)\n"
        )
    src = (
        "def emit(v, ap, ws):\n"
        f"{body}"
        # sender and the non-equivocation marker are stamped by the
        # transport on delivered copies, not constructor fields; both are
        # part of the inbox (with_sender=True) but not of outgoing content
        "    if ws:\n"
        "        ap('}')\n"
        "        if getattr(v, '_neq', False):\n"
        "            ap(',\"q\":true')\n"
        "        s = getattr(v, 'sender', None)\n"
        "        if s is not None:\n"
        "            ap(',\"s\":')\n"
        "            S(s, ap)\n"
        "        ap('}')\n"
        "    else:\n"
        "        ap('}}')\n"
    )
    namespace = {"G": _EMITTERS.get, "R": _resolve, "S": _emit_sender}
    exec(src, namespace)
    return namespace["emit"]


# ------------------------------------------------------------------ decode
def decode(value: Any) -> Any:
    """Rebuild the value :func:`encode_json` wrote from its ``json.loads``
    form."""
    t = type(value)
    if t is dict:
        name = value.get("__c")
        if name is not None:
            if value.keys() <= _BODY_KEYS:
                fn = _DECODERS.get(name)
                if fn is None:
                    fn = _decoder_for(name)
                return fn(value)
        elif len(value) == 1:
            ((tag, body),) = value.items()
            fn = _TAGGED.get(tag)
            if fn is not None:
                return fn(body)
        elif value.keys() == _ENUM_KEYS:
            return _enum_for(value["__e"])(value["v"])
        raise ReplayError(f"unrecognized tagged object {value!r}")
    if t is list:
        return [v if type(v) in _PASS else decode(v) for v in value]
    if t in _PASS or isinstance(value, (str, int, float)):
        return value  # encode() passes an IntEnum or numpy float through
    raise ReplayError(f"cannot decode {t.__name__}: {value!r}")


def _dec_tuple(items: list) -> tuple:
    return tuple([v if type(v) in _PASS else decode(v) for v in items])


def _dec_set(items: list) -> set:
    return {decode(v) for v in items}


def _dec_frozenset(items: list) -> frozenset:
    return frozenset([decode(v) for v in items])


def _dec_dict(pairs: list) -> dict:
    return {decode(k): decode(v) for k, v in pairs}


_TAGGED: dict[str, Callable[[Any], Any]] = {
    "__b": bytes.fromhex,
    "__t": _dec_tuple,
    "__s": _dec_set,
    "__fs": _dec_frozenset,
    "__d": _dec_dict,
}


def _decoder_for(name: str) -> Callable[[dict], Any]:
    """``fn(class_body)`` for the class registered as ``name``: a keyword
    call straight from the body's fields when they are exactly the
    ``init`` fields, and ``cls(**fields)`` (which raises on a wrong name)
    otherwise."""
    cls = _registry().get(name)
    if cls is None:
        raise ReplayError(f"unknown class {name!r}")
    names = [f.name for f in fields(cls) if f.init]
    load = "".join(f"        a{i} = f[{n!r}]\n" for i, n in enumerate(names))
    args = ", ".join(
        f"{n}=a{i} if type(a{i}) in P else D(a{i})" for i, n in enumerate(names)
    )
    src = (
        "def dec(value):\n"
        "    f = value['f']\n"
        "    if f.keys() == KEYS:\n"
        f"{load}"
        f"        obj = cls({args})\n"
        "    else:\n"
        "        obj = cls(**{k: D(v) for k, v in f.items()})\n"
        "    if 's' in value:\n"
        "        obj.sender = value['s']\n"
        "    if value.get('q'):\n"
        "        obj._neq = True\n"
        "    return obj\n"
    )
    namespace = {"P": _PASS, "D": decode, "cls": cls, "KEYS": frozenset(names)}
    exec(src, namespace)
    fn = _DECODERS[name] = namespace["dec"]
    return fn


# -------------------------------------------------------------------- JSON
def encode_json(value: Any, with_sender: bool = True) -> str:
    """Compact deterministic JSON text of ``value``: one join of the
    fragments its emitters append."""
    out: list[str] = []
    _emit(value, out.append, with_sender)
    return "".join(out)


def decode_json(text: str) -> Any:
    return decode(json.loads(text))
