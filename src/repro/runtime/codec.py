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

**Frames.**  The live pipe mesh carries bulk records, and scanning them
as JSON (escape check on encode, string scan on decode) cost more than
moving them.  :func:`encode_frame` writes a value as a *head* and a
*body* through the same emitter table, with a frame context in place of
the ``with_sender`` flag: a ``str`` of at least :data:`_SHORT`
characters that ``isascii()`` and a ``bytes`` of at least
:data:`_SHORT` are appended to the body as they are and written into
the head as ``{"__r":[off,len]}`` / ``{"__rb":[off,len]}``; every other
value is written exactly as ``encode_json(v, with_sender=False)``
writes it (set members keep the text's order).  So the head is codec
JSON, and putting each ref's text back into it gives the text byte for
byte (``tests/runtime/test_codec_frame.py``).  :func:`decode_frame`
walks the head with the same decoder table, resolving refs against the
body; a ref that is not an in-bounds ``[int, int]``, or a ``__r`` span
that is not ASCII, raises :class:`~repro.errors.ReplayError` (a text
has no body, so :func:`decode_json` rejects both tags).  Only the mesh
frames; replay logs, signatures, served frames and the up queue write
text.

The base class registry is built lazily on first use, so importing the
codec loads no protocol module: the serve client imports it through
:mod:`repro.serve.frames` and never loads a core.  Building it loads
the message modules (the baselines' with their cores and plans) and no
backend.  Layers above the runtime (observability, the live backend,
the gateway) extend the registry with :func:`register` /
:func:`register_enum` instead of being imported from here.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Callable, Iterable, Optional

from repro.errors import ReplayError

__all__ = [
    "decode",
    "encode_json",
    "decode_json",
    "decode_frame",
    "encode_frame",
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
#: wire name → ``fn(tagged_object, frame_body)`` for registered dataclasses
_DECODERS: dict[str, Callable[[dict, Optional[bytes]], Any]] = {}
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


class _Body(list):
    """The body of a frame being encoded: the raw segments the head's refs
    point into, and their total length so far."""

    size = 0  # a class default, so a frame without refs runs no __init__

    def ref(self, tag: str, data: bytes) -> str:
        """Append ``data``; the head's text for it."""
        off = self.size
        self.append(data)
        self.size = off + len(data)
        return f'{{"{tag}":[{off},{len(data)}]}}'


def _emit(value: Any, ap: Callable[[str], None], cx: Any) -> None:
    """Append the JSON text of ``value`` to a fragment list through its
    ``append``, ``ap``.  ``cx`` is the mode: ``True`` or ``False``
    (text, with or without the sender stamps) or a frame's :class:`_Body`
    (content form, long values raw in the body)."""
    (_EMITTERS.get(type(value)) or _resolve(value))(value, ap, cx)


def _emit_str(value: str, ap: Callable, cx: Any) -> None:
    if len(value) >= _SHORT and value.isascii():
        if cx.__class__ is _Body:  # into the body, unscanned
            ap(cx.ref("__r", value.encode()))
            return
        # a long clean string goes out as it is, between two quote fragments
        if len(value.encode().translate(None, _DIRTY)) == len(value):
            ap('"')
            ap(value)
            ap('"')
            return
    ap(_escape(value))


def _emit_int(value: int, ap: Callable, cx: Any) -> None:
    ap(int.__repr__(value))  # an ``IntEnum`` is written as its number


#: ``float.__repr__`` of the values JSON has no literal for
_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _emit_float(value: float, ap: Callable, cx: Any) -> None:
    text = float.__repr__(value)
    ap(_NONFINITE.get(text, text))


def _emit_items(items: Any, ap: Callable, cx: Any) -> None:
    get = _EMITTERS.get
    sep = False
    for v in items:
        if sep:
            ap(",")
        sep = True
        (get(type(v)) or _resolve(v))(v, ap, cx)


def _emit_list(value: list, ap: Callable, cx: Any) -> None:
    ap("[")
    _emit_items(value, ap, cx)
    ap("]")


def _emit_tuple(value: tuple, ap: Callable, cx: Any) -> None:
    ap('{"__t":[')
    _emit_items(value, ap, cx)
    ap("]}")


def _emit_bytes(value: bytes, ap: Callable, cx: Any) -> None:
    if len(value) >= _SHORT and cx.__class__ is _Body:
        ap(cx.ref("__rb", value))
        return
    ap('{"__b":"')
    ap(value.hex())
    ap('"}')


def _emit_dict(value: dict, ap: Callable, cx: Any) -> None:
    ap('{"__d":[')
    sep = "["
    for k, v in value.items():
        ap(sep)
        sep = ",["
        _emit(k, ap, cx)
        ap(",")
        _emit(v, ap, cx)
        ap("]")
    ap("]}")


def _set_order(text: str) -> str:
    # the key the format sorts set elements by: ``json.dumps`` of each
    # element's tagged tree, which ``json.loads`` of its text recovers
    return json.dumps(json.loads(text), sort_keys=True, default=str)


def _emit_members(tag: str, value: Any, ap: Callable, cx: Any) -> None:
    # a frame orders the members by their text form too, then writes
    # them in that order, so its refs stand where the text's strings do
    text = cx if cx.__class__ is bool else False
    keyed = []
    for v in value:
        part: list[str] = []
        _emit(v, part.append, text)
        keyed.append(("".join(part), v))
    keyed.sort(key=_member_order)
    ap(tag)
    if text is cx:
        ap(",".join([t for t, _ in keyed]))
    else:
        _emit_items([v for _, v in keyed], ap, cx)
    ap("]}")


def _member_order(pair: tuple[str, Any]) -> str:
    return _set_order(pair[0])


def _emit_set(value: set, ap: Callable, cx: Any) -> None:
    _emit_members('{"__s":[', value, ap, cx)


def _emit_frozenset(value: frozenset, ap: Callable, cx: Any) -> None:
    _emit_members('{"__fs":[', value, ap, cx)


def _plain(value: Any) -> str:
    """``value`` as ``json`` writes it: what the format carries untagged
    (an enum's value, a sender stamp that is not a ``str``)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: member → its tagged text; enum classes are finite
_ENUM_TEXT: dict[Enum, str] = {}


def _emit_enum(value: Enum, ap: Callable, cx: Any) -> None:
    text = _ENUM_TEXT.get(value)
    if text is None:
        text = _ENUM_TEXT[value] = (
            f'{{"__e":{_escape(type(value).__name__)},'
            f'"v":{_plain(value.value)}}}'
        )
    ap(text)


def _emit_sender(value: Any, ap: Callable) -> None:
    ap(_escape(value) if type(value) is str else _plain(value))


#: exact type → ``fn(value, ap, cx)``; compiled dataclass
#: emitters and fallback resolutions are added as types are first seen
_EMITTERS: dict[type, Callable[[Any, Callable, Any], None]] = {
    str: _emit_str,
    int: _emit_int,
    float: _emit_float,
    bool: lambda value, ap, cx: ap("true" if value else "false"),
    type(None): lambda value, ap, cx: ap("null"),
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
_FALLBACK: tuple[tuple[type, Callable[[Any, Callable, Any], None]], ...] = (
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


def _resolve(value: Any) -> Callable[[Any, Callable, Any], None]:
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


def _compile_emitter(cls: type) -> Callable[[Any, Callable, Any], None]:
    """``fn(obj, ap, cx)`` writing ``{"__c","f"[,"q"][,"s"]}``
    for ``cls``, its ``init`` fields in sorted-name order."""
    names = sorted(f.name for f in fields(cls) if f.init)
    head = f'{{"__c":{_escape(cls.__name__)},"f":{{'
    body = "" if names else f"    ap({head!r})\n"
    for i, n in enumerate(names):
        key = ("," if i else head) + _escape(n) + ":"
        body += (
            f"    ap({key!r})\n"
            f"    x = v.{n}\n"
            "    (G(type(x)) or R(x))(x, ap, cx)\n"
        )
    src = (
        "def emit(v, ap, cx):\n"
        f"{body}"
        # sender and the non-equivocation marker are stamped by the
        # transport on delivered copies, not constructor fields; both are
        # part of the inbox (with_sender=True) but not of outgoing content
        "    if cx is True:\n"
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
def decode(value: Any, body: Optional[bytes] = None) -> Any:
    """Rebuild the value :func:`encode_json` wrote from its ``json.loads``
    form; ``body`` is the frame body a head's refs point into (a text
    has none, so a ref in it is rejected)."""
    t = type(value)
    if t is dict:
        name = value.get("__c")
        if name is not None:
            if value.keys() <= _BODY_KEYS:
                fn = _DECODERS.get(name)
                if fn is None:
                    fn = _decoder_for(name)
                return fn(value, body)
        elif len(value) == 1:
            ((tag, item),) = value.items()
            if tag == "__b":  # hex needs no body: no call through the table
                return bytes.fromhex(item)
            fn = _TAGGED.get(tag)
            if fn is not None:
                return fn(item, body)
        elif value.keys() == _ENUM_KEYS:
            return _enum_for(value["__e"])(value["v"])
        raise ReplayError(f"unrecognized tagged object {value!r}")
    if t is list:
        return [v if type(v) in _PASS else decode(v, body) for v in value]
    if t in _PASS or isinstance(value, (str, int, float)):
        return value  # encode() passes an IntEnum or numpy float through
    raise ReplayError(f"cannot decode {t.__name__}: {value!r}")


def _dec_tuple(items: list, body: Optional[bytes]) -> tuple:
    return tuple([v if type(v) in _PASS else decode(v, body) for v in items])


def _dec_set(items: list, body: Optional[bytes]) -> set:
    return {decode(v, body) for v in items}


def _dec_frozenset(items: list, body: Optional[bytes]) -> frozenset:
    return frozenset([decode(v, body) for v in items])


def _dec_dict(pairs: list, body: Optional[bytes]) -> dict:
    return {decode(k, body): decode(v, body) for k, v in pairs}


def _span(ref: Any, body: Optional[bytes]) -> bytes:
    """The body bytes ``ref`` names: anything but an ``[int, int]`` that
    lies inside the body raises, where a slice would come back short."""
    if body is None:
        raise ReplayError(f"raw ref {ref!r} outside a frame")
    if type(ref) is list and len(ref) == 2:
        off, size = ref
        if (
            type(off) is int
            and type(size) is int
            and 0 <= off <= off + size <= len(body)
        ):
            return body[off : off + size]
    raise ReplayError(f"raw ref {ref!r} is not a span of a {len(body)}-byte body")


def _dec_raw(ref: Any, body: Optional[bytes]) -> str:
    try:
        return _span(ref, body).decode("ascii")
    except UnicodeDecodeError:
        raise ReplayError(f"raw string {ref!r} is not ASCII") from None


#: tag → ``fn(item, body)``; ``__b`` is :func:`decode`'s own first case
_TAGGED: dict[str, Callable[[Any, Optional[bytes]], Any]] = {
    "__t": _dec_tuple,
    "__s": _dec_set,
    "__fs": _dec_frozenset,
    "__d": _dec_dict,
    "__r": _dec_raw,
    "__rb": _span,
}


def _decoder_for(name: str) -> Callable[[dict, Optional[bytes]], Any]:
    """``fn(class_body, frame_body)`` for the class registered as
    ``name``: a keyword call straight from the body's fields when they
    are exactly the ``init`` fields, and ``cls(**fields)`` (which raises
    on a wrong name) otherwise."""
    cls = _registry().get(name)
    if cls is None:
        raise ReplayError(f"unknown class {name!r}")
    names = [f.name for f in fields(cls) if f.init]
    load = "".join(f"        a{i} = f[{n!r}]\n" for i, n in enumerate(names))
    args = ", ".join(
        f"{n}=a{i} if type(a{i}) in P else D(a{i}, b)" for i, n in enumerate(names)
    )
    src = (
        "def dec(value, b):\n"
        "    f = value['f']\n"
        "    if f.keys() == KEYS:\n"
        f"{load}"
        f"        obj = cls({args})\n"
        "    else:\n"
        "        obj = cls(**{k: D(v, b) for k, v in f.items()})\n"
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
    _emit(value, out.append, True if with_sender else False)
    return "".join(out)


def decode_json(text: str) -> Any:
    return decode(json.loads(text))


# ------------------------------------------------------------------ frames
def encode_frame(value: Any) -> tuple[bytes, list[bytes]]:
    """``value`` in content form as a frame: the head (ASCII codec JSON,
    a ref in place of each long ASCII string and long ``bytes``) and the
    body segments the refs point into, in order."""
    out: list[str] = []
    body = _Body()
    _emit(value, out.append, body)
    return "".join(out).encode(), body


def decode_frame(head: str | bytes, body: bytes | Iterable[bytes]) -> Any:
    """Rebuild the value :func:`encode_frame` wrote; ``body`` is its bytes
    or the segments :func:`encode_frame` returned."""
    if not isinstance(body, bytes):
        body = b"".join(body)
    return decode(json.loads(head), body)
