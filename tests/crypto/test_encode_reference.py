"""The canonical encoder is byte-identical to its isinstance-chain form.

σ(C), every signature payload and the golden traces all hash
``canonical_bytes`` output, so f+1 verifiers only agree if every process
encodes a value to the same bytes.  ``_reference_encode`` below is a
frozen copy of the encoder before it moved to exact-type dispatch; the
property tests check the live encoder against it on nested values.
They pin no example count, so ``HYPOTHESIS_PROFILE=ci`` searches deeper.
"""

import enum
import hashlib
import hmac
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.tasks import Chunk, Opcode, Record, Task
from repro.crypto import KeyRegistry, Signature, canonical_bytes, digest
from repro.errors import CryptoError

_FLOAT = struct.Struct("!d")
_INT = struct.Struct("!q")


def _reference_encode(value, out):
    t = type(value)
    if t is int:
        if -(2**63) <= value < 2**63:
            out.append(b"i")
            out.append(_INT.pack(value))
        else:
            enc = str(value).encode()
            out.append(b"I" + _INT.pack(len(enc)))
            out.append(enc)
        return
    if t is tuple or t is list:
        out.append(b"l" + _INT.pack(len(value)))
        for item in value:
            if type(item) is int and -(2**63) <= item < 2**63:
                out.append(b"i")
                out.append(_INT.pack(item))
            else:
                _reference_encode(item, out)
        return
    if t is str:
        enc = value.encode("utf-8")
        out.append(b"s" + _INT.pack(len(enc)))
        out.append(enc)
        return
    if t is float:
        out.append(b"f")
        out.append(_FLOAT.pack(value))
        return
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, (int, np.integer)):
        v = int(value)
        if -(2**63) <= v < 2**63:
            out.append(b"i")
            out.append(_INT.pack(v))
        else:
            enc = str(v).encode()
            out.append(b"I" + _INT.pack(len(enc)))
            out.append(enc)
    elif isinstance(value, (float, np.floating)):
        out.append(b"f")
        out.append(_FLOAT.pack(float(value)))
    elif isinstance(value, str):
        enc = value.encode("utf-8")
        out.append(b"s" + _INT.pack(len(enc)))
        out.append(enc)
    elif isinstance(value, bytes):
        out.append(b"b" + _INT.pack(len(value)))
        out.append(value)
    elif isinstance(value, (list, tuple)):
        out.append(b"l" + _INT.pack(len(value)))
        for item in value:
            _reference_encode(item, out)
    elif isinstance(value, dict):
        try:
            items = sorted(value.items())
        except TypeError as exc:
            raise CryptoError(
                "dict keys must be orderable for canonical encoding"
            ) from exc
        out.append(b"d" + _INT.pack(len(items)))
        for k, v in items:
            _reference_encode(k, out)
            _reference_encode(v, out)
    elif isinstance(value, frozenset):
        _reference_encode(sorted(value), out)
        out.append(b"S")
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        out.append(b"a")
        _reference_encode(str(arr.dtype), out)
        _reference_encode(list(arr.shape), out)
        out.append(arr.tobytes())
    elif hasattr(value, "canonical"):
        out.append(b"o")
        _reference_encode(type(value).__name__, out)
        _reference_encode(value.canonical(), out)
    else:
        raise CryptoError(
            f"cannot canonically encode {type(value).__name__}: {value!r}"
        )


def reference_bytes(value) -> bytes:
    out: list[bytes] = []
    _reference_encode(value, out)
    return b"".join(out)


# ------------------------------------------------------------- strategies
_EDGE = 2**63
ints = st.one_of(
    st.integers(),
    st.integers(min_value=-_EDGE - 4, max_value=-_EDGE + 4),
    st.integers(min_value=_EDGE - 4, max_value=_EDGE + 4),
    st.integers(min_value=-(2**80), max_value=2**80),
)
numpy_scalars = st.one_of(
    st.integers(-_EDGE, _EDGE - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(width=64).map(np.float64),
    st.floats(width=32).map(np.float32),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.floats(),
    st.text(max_size=20),
    st.binary(max_size=20),
    numpy_scalars,
)
keys = st.lists(ints, max_size=3).map(tuple)
signatures = st.builds(Signature, signer=st.text(max_size=8), mac=st.binary(max_size=32))
tasks = st.builds(
    Task,
    task_id=st.text(max_size=8),
    opcode=st.sampled_from(list(Opcode)),
    timestamp=ints,
)


def _protocol(children):
    records = st.builds(
        Record, key=keys, data=children, size_bytes=st.integers(0, 2**20)
    )
    chunks = st.builds(
        Chunk,
        task_id=st.text(max_size=8),
        index=st.integers(0, 100),
        records=st.lists(records, max_size=4).map(tuple),
        final=st.booleans(),
    )
    return st.one_of(records, chunks)


values = st.recursive(
    st.one_of(scalars, signatures, tasks),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(ints, children, max_size=4),
        st.frozensets(ints, max_size=4),
        st.frozensets(st.text(max_size=6), max_size=4),
        _protocol(children),
    ),
    max_leaves=24,
)


# ------------------------------------------------------------------ tests
@given(values)
def test_canonical_bytes_matches_reference(value):
    assert canonical_bytes(value) == reference_bytes(value)


@given(st.lists(values, max_size=3))
def test_digest_of_nested_values_matches_reference(value):
    assert digest(value) == hashlib.sha256(reference_bytes(value)).digest()


class _MyInt(int):
    pass


class _MyStr(str):
    pass


class _MyList(list):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


class _CanonicalTuple(tuple):
    """A chain type with ``canonical()``: the chain encodes it as a tuple."""

    def canonical(self):
        return ["never", "used"]


class _InstanceCanonical:
    def __init__(self):
        self.canonical = lambda: [1, "x"]


@pytest.mark.parametrize(
    "value",
    [
        _MyInt(7),
        _MyInt(2**64),
        _MyStr("sub"),
        _MyList([1, "a", None]),
        _Level.LOW,
        [_Level.HIGH, _MyInt(-(2**63) - 1)],
        _CanonicalTuple((1, 2)),
        _InstanceCanonical(),
        np.array([[1, 2], [3, 4]], dtype=np.int32),
        np.float64(0.5),
        np.int8(-3),
        {"k": (np.uint64(2**64 - 1), frozenset({3, 1}))},
        Record(key=(1, 2), data={"x": [np.int64(5)]}),
    ],
    ids=lambda v: type(v).__name__,
)
def test_fallback_chain_cases_match_reference(value):
    assert canonical_bytes(value) == reference_bytes(value)


@pytest.mark.parametrize(
    "value",
    [object(), {(1,): "a", "x": "b"}, [1, {1, 2}], np.bool_(True)],
    ids=["object", "unorderable-keys", "set", "numpy-bool"],
)
def test_unencodable_values_raise_like_reference(value):
    with pytest.raises(CryptoError):
        reference_bytes(value)
    with pytest.raises(CryptoError):
        canonical_bytes(value)


_REGISTRY = KeyRegistry(seed=b"reference")
_SIGNER = _REGISTRY.register("p0")


@given(values)
def test_sign_matches_hmac_new(payload):
    expected = hmac.new(
        _SIGNER._secret, canonical_bytes(payload), hashlib.sha256
    ).digest()
    sig = _SIGNER.sign(payload)
    assert sig.mac == expected
    assert _REGISTRY.verify(payload, Signature("p0", expected))
