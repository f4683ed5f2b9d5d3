"""Cryptographic digests over canonically-serialized Python values.

Chunk digests (``σ(C)`` in the paper) and signature payloads both need a
stable byte representation of protocol objects.  We canonicalize with a
small recursive encoder rather than ``pickle`` because pickle output is
not guaranteed stable across interpreter runs, and digest stability is a
correctness requirement here: an output process accepts a chunk only when
f+1 verifiers produced *matching* digests.

The encoder dispatches on the exact type of each value through one
table; classes exposing ``canonical()`` join the table the first time
they are seen.  Anything else (numpy scalars, subclasses of the built-in
types) takes the general ``isinstance`` chain.  Both routes produce the
same bytes.  :func:`digest` is pure and keeps no memo: the one cache of
a digest is :attr:`repro.core.tasks.Chunk.sigma`, per chunk object.

This module never imports numpy.  A value can only be a numpy scalar or
array if numpy is loaded, so the chain looks its types up in
``sys.modules`` and skips them while numpy is absent.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from typing import Any, Callable

from repro.errors import CryptoError

__all__ = ["canonical_bytes", "digest", "digest_hex"]

_FLOAT = struct.Struct("!d")
_INT = struct.Struct("!q")
_I64_LO = -(2**63)
_I64_HI = 2**63

_Encoder = Callable[[Any, list], None]


def _enc_int(value: int, out: list[bytes]) -> None:
    if _I64_LO <= value < _I64_HI:
        out.append(b"i")
        out.append(_INT.pack(value))
    else:
        enc = str(value).encode()
        out.append(b"I" + _INT.pack(len(enc)))
        out.append(enc)


def _enc_str(value: str, out: list[bytes]) -> None:
    enc = value.encode("utf-8")
    out.append(b"s" + _INT.pack(len(enc)))
    out.append(enc)


def _enc_float(value: float, out: list[bytes]) -> None:
    out.append(b"f")
    out.append(_FLOAT.pack(value))


def _enc_bytes(value: bytes, out: list[bytes]) -> None:
    out.append(b"b" + _INT.pack(len(value)))
    out.append(value)


def _enc_none(value: None, out: list[bytes]) -> None:
    out.append(b"N")


def _enc_bool(value: bool, out: list[bytes]) -> None:
    out.append(b"T" if value else b"F")


def _enc_seq(value, out: list[bytes]) -> None:
    out.append(b"l" + _INT.pack(len(value)))
    # small ints (record keys, sequence numbers) and strings are encoded
    # inline: byte-identical to the table entry, minus one call per item
    for item in value:
        t = type(item)
        if t is int and _I64_LO <= item < _I64_HI:
            out.append(b"i")
            out.append(_INT.pack(item))
        elif t is str:
            enc = item.encode("utf-8")
            out.append(b"s" + _INT.pack(len(enc)))
            out.append(enc)
        else:
            (_ENCODERS.get(t) or _encoder_for(item))(item, out)


def _enc_dict(value: dict, out: list[bytes]) -> None:
    try:
        items = sorted(value.items())
    except TypeError as exc:
        raise CryptoError(
            "dict keys must be orderable for canonical encoding"
        ) from exc
    out.append(b"d" + _INT.pack(len(items)))
    for k, v in items:
        _encode(k, out)
        _encode(v, out)


def _enc_frozenset(value: frozenset, out: list[bytes]) -> None:
    _enc_seq(sorted(value), out)
    out.append(b"S")


def _enc_ndarray(value, out: list[bytes]) -> None:
    arr = sys.modules["numpy"].ascontiguousarray(value)
    out.append(b"a")
    _enc_str(str(arr.dtype), out)
    _enc_seq(list(arr.shape), out)
    out.append(arr.tobytes())


def _enc_canonical_of(cls: type) -> _Encoder:
    """Encoder for a protocol class: ``b"o"``, its name, ``canonical()``."""
    head = b"o" + canonical_bytes(cls.__name__)

    def _enc_object(value, out: list[bytes]) -> None:
        out.append(head)
        _encode(value.canonical(), out)

    return _enc_object


_ENCODERS: dict[type, _Encoder] = {
    int: _enc_int,
    bool: _enc_bool,
    type(None): _enc_none,
    float: _enc_float,
    str: _enc_str,
    bytes: _enc_bytes,
    list: _enc_seq,
    tuple: _enc_seq,
    dict: _enc_dict,
    frozenset: _enc_frozenset,
}

# types the general chain claims before it looks for ``canonical()``: a
# subclass of any of them never joins the table (numpy's three are added
# while numpy is loaded; a class cannot derive from them otherwise)
_CHAIN_TYPES = (int, float, str, bytes, list, tuple, dict, frozenset)


def _encoder_for(value: Any) -> _Encoder:
    """Table miss: register ``canonical()`` classes, else the chain."""
    cls = type(value)
    if hasattr(cls, "canonical") and not issubclass(cls, _CHAIN_TYPES):
        np = sys.modules.get("numpy")
        if np is None or not issubclass(
            cls, (np.integer, np.floating, np.ndarray)
        ):
            enc = _ENCODERS[cls] = _enc_canonical_of(cls)
            return enc
    return _encode_general


def _encode_general(value: Any, out: list[bytes]) -> None:
    # numpy scalars, subclasses of the built-in types, and objects with
    # an instance-level ``canonical``
    np = sys.modules.get("numpy")
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int) or (
        np is not None and isinstance(value, np.integer)
    ):
        _enc_int(int(value), out)
    elif isinstance(value, float) or (
        np is not None and isinstance(value, np.floating)
    ):
        _enc_float(float(value), out)
    elif isinstance(value, str):
        _enc_str(value, out)
    elif isinstance(value, bytes):
        _enc_bytes(value, out)
    elif isinstance(value, (list, tuple)):
        _enc_seq(value, out)
    elif isinstance(value, dict):
        _enc_dict(value, out)
    elif isinstance(value, frozenset):
        _enc_frozenset(value, out)
    elif np is not None and isinstance(value, np.ndarray):
        _enc_ndarray(value, out)
    elif hasattr(value, "canonical"):
        # Protocol objects expose `canonical()` returning plain containers.
        out.append(b"o")
        _enc_str(type(value).__name__, out)
        _encode(value.canonical(), out)
    else:
        raise CryptoError(
            f"cannot canonically encode {type(value).__name__}: {value!r}"
        )


def _encode(value: Any, out: list[bytes]) -> None:
    (_ENCODERS.get(type(value)) or _encoder_for(value))(value, out)


def canonical_bytes(value: Any) -> bytes:
    """Serialize a value to its canonical byte form (stable across runs)."""
    out: list[bytes] = []
    _encode(value, out)
    return b"".join(out)


def digest(value: Any) -> bytes:
    """SHA-256 digest of the canonical serialization of ``value``."""
    return hashlib.sha256(canonical_bytes(value)).digest()


def digest_hex(value: Any) -> str:
    """Hex form of :func:`digest`, convenient for logs and assertions."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()
