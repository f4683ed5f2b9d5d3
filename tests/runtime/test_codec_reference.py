"""The codec's wire format is pinned to its ``isinstance``-ladder form.

Replay logs, served frames and the crossval digests all read codec
JSON, so the exact-type tables and compiled per-class encoders of
:mod:`repro.runtime.codec` must produce the bytes the ladder did, and
the decoder must rebuild the same objects and reject what it rejected.
``_reference_encode`` / ``_reference_decode`` below are a frozen copy of
that ladder (only the registry lookups point at the live module, which
owns the registry).  The property tests pin no example count, so
``HYPOTHESIS_PROFILE=ci`` searches deeper.
"""

import enum
import json
from collections import OrderedDict, namedtuple
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.tasks import Opcode
from repro.errors import ReplayError
from repro.live.wire import register_wire
from repro.net.message import Message
from repro.runtime import codec
from repro.serve.frames import register_frames
from tests.runtime.test_codec_completeness import build_sample


def _reference_encode(value, with_sender=True):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, bytes):
        return {"__b": value.hex()}
    if isinstance(value, tuple):
        return {"__t": [_reference_encode(v, with_sender) for v in value]}
    if isinstance(value, list):
        return [_reference_encode(v, with_sender) for v in value]
    if isinstance(value, (set, frozenset)):
        body = sorted(
            (_reference_encode(v, with_sender) for v in value),
            key=lambda e: json.dumps(e, sort_keys=True, default=str),
        )
        tag = "__fs" if isinstance(value, frozenset) else "__s"
        return {tag: body}
    if isinstance(value, dict):
        return {
            "__d": [
                [_reference_encode(k, with_sender), _reference_encode(v, with_sender)]
                for k, v in value.items()
            ]
        }
    cls = type(value)
    if isinstance(value, enum.Enum):
        return {"__e": cls.__name__, "v": value.value}
    if is_dataclass(value) and codec._registry().get(cls.__name__) is cls:
        body = {
            f.name: _reference_encode(getattr(value, f.name), with_sender)
            for f in fields(value)
            if f.init
        }
        out = {"__c": cls.__name__, "f": body}
        sender = getattr(value, "sender", None)
        if with_sender and sender is not None:
            out["s"] = sender
        if with_sender and getattr(value, "_neq", False):
            out["q"] = True
        return out
    raise ReplayError(f"cannot encode {cls.__name__}: {value!r}")


def _reference_decode(value):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, list):
        return [_reference_decode(v) for v in value]
    if isinstance(value, dict):
        if "__b" in value:
            return bytes.fromhex(value["__b"])
        if "__t" in value:
            return tuple(_reference_decode(v) for v in value["__t"])
        if "__s" in value:
            return {_reference_decode(v) for v in value["__s"]}
        if "__fs" in value:
            return frozenset(_reference_decode(v) for v in value["__fs"])
        if "__d" in value:
            return {_reference_decode(k): _reference_decode(v) for k, v in value["__d"]}
        if "__e" in value:
            return codec._enum_for(value["__e"])(value["v"])
        if "__c" in value:
            cls = codec._registry().get(value["__c"])
            if cls is None:
                raise ReplayError(f"unknown class {value['__c']!r}")
            kwargs = {k: _reference_decode(v) for k, v in value["f"].items()}
            obj = cls(**kwargs)
            if "s" in value:
                obj.sender = value["s"]
            if value.get("q"):
                obj._neq = True
            return obj
        raise ReplayError(f"unrecognized tagged object {value!r}")
    raise ReplayError(f"cannot decode {type(value).__name__}: {value!r}")


def _reference_json(value, with_sender=True):
    return json.dumps(
        _reference_encode(value, with_sender), sort_keys=True, separators=(",", ":")
    )


register_wire()
register_frames()
REGISTERED = sorted(codec.registered_types().items())


class _Level(enum.IntEnum):
    LOW = 1


class _Colour(str, enum.Enum):
    RED = "red"


_Pair = namedtuple("_Pair", "a b")

#: values outside the exact-type tables: resolved through the fallback
#: chain, which must land where the ladder did
ODD = st.sampled_from(
    [
        np.float64(1.5),
        _Level.LOW,
        _Colour.RED,
        _Pair(1, "x"),
        OrderedDict([("k", 1), (2, b"\x00")]),
    ]
)
#: printable ASCII without the quote and the backslash: text the escaper
#: leaves as it is
CLEAN = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\')
#: one character the escaper must rewrite, or none; each kind is its
#: own branch, so every kind is drawn often
ESCAPED = (
    st.just('"')
    | st.just("\\")
    | st.just("\x7f")
    | st.characters(max_codepoint=0x1F)
    | st.characters(min_codepoint=0x80)
    | st.characters(categories=["Cs"])  # a lone surrogate
    | st.just("")
)


def _long_text(size, at, ch):
    clean = (CLEAN * (size // len(CLEAN) + 1))[:size]
    return clean[:at] + ch + clean[at:]


#: at least 4 KiB of clean ASCII with one drawn character at a drawn
#: position: the edges of the encoder's unescaped path for long strings
LONG_TEXT = st.builds(
    _long_text, st.integers(4096, 4200), st.integers(0, 4096), ESCAPED
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | LONG_TEXT
)
HASHABLE = st.recursive(
    SCALARS | st.binary(max_size=4) | st.sampled_from(list(Opcode)),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)


@st.composite
def registered_values(draw):
    """A sample of a registered class, transport stamps set or not."""
    _, cls = draw(st.sampled_from(REGISTERED))
    obj = build_sample(cls)
    if issubclass(cls, Message):
        obj.sender = draw(st.none() | st.text(max_size=4))
        if draw(st.booleans()):
            obj._neq = draw(st.booleans())
    return obj


VALUES = st.recursive(
    SCALARS | st.binary(max_size=8) | st.sampled_from(list(Opcode)) | ODD,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.sets(HASHABLE, max_size=4)
    | st.frozensets(HASHABLE, max_size=4)
    | st.dictionaries(HASHABLE, inner, max_size=4)
    | registered_values(),
    max_leaves=12,
)


@given(value=VALUES | LONG_TEXT, with_sender=st.booleans())
def test_encoding_is_byte_identical(value, with_sender):
    assert codec.encode_json(value, with_sender) == _reference_json(
        value, with_sender
    )


@given(value=registered_values(), with_sender=st.booleans())
def test_every_registered_type_is_byte_identical(value, with_sender):
    assert codec.encode_json(value, with_sender) == _reference_json(
        value, with_sender
    )


@given(value=VALUES | LONG_TEXT)
def test_decoding_rebuilds_equal_objects_with_equal_stamps(value):
    text = _reference_json(value)
    ours, theirs = codec.decode_json(text), _reference_decode(json.loads(text))
    assert ours == theirs
    # the stamped (inbox) form covers sender/_neq on every nested object
    assert _reference_json(ours) == _reference_json(theirs) == text


# ---------------------------------------------------------- malformed input
RAW_DICTS = st.dictionaries(
    st.text(max_size=4).filter(lambda k: not k.startswith("__")),
    SCALARS,
    min_size=1,
    max_size=3,
)


MALFORMED_KINDS = [
    "unknown-class",
    "unknown-tag",
    "in-list",
    "in-tuple",
    "in-field",
    "field-name",
]


@st.composite
def malformed(draw):
    """A JSON value the reference decoder rejects, in one of the shapes
    the format's strictness is about."""
    name, cls = draw(st.sampled_from(REGISTERED))
    body = json.loads(codec.encode_json(build_sample(cls)))
    kind = draw(st.sampled_from(MALFORMED_KINDS))
    raw = draw(RAW_DICTS)
    if kind == "unknown-class":
        return {"__c": "No" + name + draw(st.text(max_size=3)), "f": body["f"]}
    if kind == "unknown-tag":
        return {"__" + draw(st.sampled_from(["x", "c2", "bb", "t_"])): body}
    if kind == "in-list":
        return [body, raw]
    if kind == "in-tuple":
        return {"__t": [raw, body]}
    f = dict(body["f"])
    if kind == "in-field" and f:
        f[draw(st.sampled_from(sorted(f)))] = raw
    else:
        f["not_a_field_" + draw(st.text("xyz", max_size=3))] = 1
    return {**body, "f": f}


@given(value=malformed())
def test_malformed_input_raises_as_the_reference_did(value):
    with pytest.raises(Exception) as ref:
        _reference_decode(value)
    with pytest.raises(ref.type):
        codec.decode(value)
    with pytest.raises(ref.type):
        codec.decode_json(json.dumps(value))


@pytest.mark.parametrize(
    "value",
    [
        {"__c": "NoSuchMessage", "f": {}},
        {"__zz": 1},
        [{"a": 1}],
        {"__t": [1, {"a": 1}]},
        {"__c": "CsRequest", "f": {"request_id": {"a": 1}}},
        {"__c": "CsRequest", "f": {"request_ident": "r"}},
        (1, 2),
        b"\x00",
    ],
    ids=[
        "unknown-class",
        "unknown-tag",
        "raw-dict-in-list",
        "raw-dict-in-tuple",
        "raw-dict-in-field",
        "wrong-field-name",
        "non-json-tuple",
        "non-json-bytes",
    ],
)
def test_each_rejection_keeps_its_exception_type(value):
    with pytest.raises(Exception) as ref:
        _reference_decode(value)
    with pytest.raises(ref.type):
        codec.decode(value)


def test_unregistered_dataclass_is_refused_on_both_paths():
    from dataclasses import dataclass

    @dataclass
    class Stray:
        x: int = 0

    with pytest.raises(ReplayError):
        _reference_encode(Stray())
    with pytest.raises(ReplayError):
        codec.encode_json(Stray())


def test_registration_extends_the_compiled_tables():
    from dataclasses import dataclass

    @dataclass
    class LateComer:
        x: int = 0

    registry = codec._registry()
    first = codec.encode_json(Opcode.BOTH)
    codec.register(LateComer)
    assert codec._registry() is registry
    assert codec.decode_json(codec.encode_json(LateComer(x=3))) == LateComer(x=3)
    assert codec.encode_json(Opcode.BOTH) == first
