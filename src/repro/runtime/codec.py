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

* :func:`encode` passes ``str``/``int``/``float``/``bool``/``None``
  through and looks every other type up in one table.  Containers have
  fixed entries; a registered dataclass gets an encoder compiled from
  its ``init`` fields the first time one is encoded.  A type the table
  does not know (a subclass of a built-in, a numpy scalar, an enum) is
  resolved once through the ``isinstance`` chain in :data:`_FALLBACK`,
  in the order the format defines, and cached under its exact type.
* :func:`decode` walks ``json.loads`` output: lists element-wise, each
  object by its tag, and a class body through a decoder compiled for
  its wire name on first use.  A tagged object carries exactly its
  tag's keys, so a raw dict anywhere but as a class body's ``f`` is
  rejected.

``tests/runtime/test_codec_reference.py`` holds a frozen copy of the
``isinstance``-ladder codec this replaced and checks, on generated
values, that the JSON is byte-identical and that malformed input raises
as it did.

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
from typing import Any, Callable, Optional

from repro.errors import ReplayError

__all__ = [
    "encode",
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
#: exact type → ``fn(value, with_sender)``; compiled dataclass encoders
#: and fallback resolutions are added as types are first seen
_ENCODERS: dict[type, Callable[[Any, bool], Any]] = {}
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
            _ENCODERS.pop(_REGISTRY.get(name), None)
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
def encode(value: Any, with_sender: bool = True) -> Any:
    """Lower ``value`` to JSON-compatible structures (tagged)."""
    t = type(value)
    if t in _PASS:
        return value
    fn = _ENCODERS.get(t)
    if fn is None:
        fn = _resolve(value)
    return fn(value, with_sender)


def _enc_list(value: list, ws: bool) -> list:
    return [v if type(v) in _PASS else encode(v, ws) for v in value]


def _enc_tuple(value: tuple, ws: bool) -> dict:
    return {"__t": [v if type(v) in _PASS else encode(v, ws) for v in value]}


def _enc_bytes(value: bytes, ws: bool) -> dict:
    return {"__b": value.hex()}


def _enc_dict(value: dict, ws: bool) -> dict:
    return {"__d": [[encode(k, ws), encode(v, ws)] for k, v in value.items()]}


def _set_order(e: Any) -> str:
    return json.dumps(e, sort_keys=True, default=str)


def _enc_set(value: set, ws: bool) -> dict:
    # sets are unordered; sort by encoded form for a deterministic wire
    return {"__s": sorted((encode(v, ws) for v in value), key=_set_order)}


def _enc_frozenset(value: frozenset, ws: bool) -> dict:
    return {"__fs": sorted((encode(v, ws) for v in value), key=_set_order)}


def _enc_enum(value: Enum, ws: bool) -> dict:
    return {"__e": type(value).__name__, "v": value.value}


def _enc_pass(value: Any, ws: bool) -> Any:
    return value


_ENCODERS.update(
    {
        list: _enc_list,
        tuple: _enc_tuple,
        bytes: _enc_bytes,
        dict: _enc_dict,
        set: _enc_set,
        frozenset: _enc_frozenset,
    }
)

#: what a type outside the table encodes as: the first base it is an
#: instance of, in this order (an ``IntEnum`` is an ``int``, a
#: ``namedtuple`` a ``tuple``)
_FALLBACK: tuple[tuple[type, Callable[[Any, bool], Any]], ...] = (
    (str, _enc_pass),
    (int, _enc_pass),
    (float, _enc_pass),
    (bytes, _enc_bytes),
    (tuple, _enc_tuple),
    (list, _enc_list),
    (frozenset, _enc_frozenset),
    (set, _enc_set),
    (dict, _enc_dict),
    (Enum, _enc_enum),
)


def _resolve(value: Any) -> Callable[[Any, bool], Any]:
    """Encoder for a type seen for the first time, cached by exact type."""
    cls = type(value)
    for base, fn in _FALLBACK:
        if isinstance(value, base):
            break
    else:
        if not (is_dataclass(value) and _registry().get(cls.__name__) is cls):
            raise ReplayError(f"cannot encode {cls.__name__}: {value!r}")
        fn = _compile_encoder(cls)
    _ENCODERS[cls] = fn
    return fn


def _compile_encoder(cls: type) -> Callable[[Any, bool], Any]:
    """``fn(obj, with_sender)`` building ``{"__c", "f"[, "s"][, "q"]}``
    for ``cls`` straight from its ``init`` fields."""
    names = [f.name for f in fields(cls) if f.init]
    load = "".join(f"    a{i} = v.{n}\n" for i, n in enumerate(names))
    body = ", ".join(
        f"{n!r}: a{i} if type(a{i}) in P else E(a{i}, ws)"
        for i, n in enumerate(names)
    )
    src = (
        "def enc(v, ws):\n"
        f"{load}"
        f"    out = {{'__c': NAME, 'f': {{{body}}}}}\n"
        # sender and the non-equivocation marker are stamped by the
        # transport on delivered copies, not constructor fields; both are
        # part of the inbox (with_sender=True) but not of outgoing content
        "    if ws:\n"
        "        s = getattr(v, 'sender', None)\n"
        "        if s is not None:\n"
        "            out['s'] = s\n"
        "        if getattr(v, '_neq', False):\n"
        "            out['q'] = True\n"
        "    return out\n"
    )
    namespace = {"P": _PASS, "E": encode, "NAME": cls.__name__}
    exec(src, namespace)
    return namespace["enc"]


# ------------------------------------------------------------------ decode
def decode(value: Any) -> Any:
    """Invert :func:`encode`."""
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
#: one encoder object instead of one per ``json.dumps`` call; what
#: :func:`encode` returns is a fresh tree, so it cannot hold a cycle
_dumps = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
).encode


def encode_json(value: Any, with_sender: bool = True) -> str:
    """Compact deterministic JSON string of :func:`encode`."""
    return _dumps(encode(value, with_sender))


def decode_json(text: str) -> Any:
    return decode(json.loads(text))
