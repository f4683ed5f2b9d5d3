"""Two-level frames: a codec-JSON head beside a raw body.

:func:`~repro.runtime.codec.encode_frame` writes a value as the text
:func:`~repro.runtime.codec.encode_json` writes in content form, except
that each long ASCII string and each long ``bytes`` becomes a ref
``{"__r":[off,len]}`` / ``{"__rb":[off,len]}`` into the body.  The
properties below pin both halves of that sentence: a frame decodes to
what the text decodes to, and putting each ref's text back into the
head gives the text byte for byte.  The hostile cases pin that a frame
which lies about its body raises :class:`~repro.errors.ReplayError`
instead of coming back short.
"""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.consensus.messages import CsRequest
from repro.core.tasks import Chunk, Record
from repro.errors import ReplayError
from repro.runtime import codec
from tests.runtime.test_codec_reference import (
    ESCAPED,
    HASHABLE,
    LONG_TEXT,
    VALUES,
    _long_text,
)

SHORT = codec._SHORT
#: strings around the raw threshold, clean or with one character that
#: is not plain ASCII text (an escape, non-ASCII, a lone surrogate)
EDGE_TEXT = st.builds(
    _long_text, st.integers(SHORT - 2, SHORT + 2), st.integers(0, SHORT - 2), ESCAPED
)
BULK = (
    LONG_TEXT
    | EDGE_TEXT
    | st.binary(min_size=SHORT - 1, max_size=SHORT + 300)
)
BULK_HASHABLE = HASHABLE | BULK


def _in_classes(inner):
    """``inner`` nested in registered dataclasses, as messages carry it."""
    return st.builds(
        lambda data, req: CsRequest(
            request_id=req,
            payload=Chunk(
                task_id="t",
                index=0,
                records=(Record(key=(0,), data=data),),
                final=True,
            ),
        ),
        inner,
        st.text(max_size=4) | BULK,
    )


FRAME_VALUES = st.recursive(
    VALUES | BULK,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.sets(BULK_HASHABLE, max_size=3)
    | st.frozensets(BULK_HASHABLE, max_size=3)
    | st.dictionaries(BULK_HASHABLE, inner, max_size=3)
    | _in_classes(inner),
    max_leaves=10,
)

_REF = re.compile(rb'\{"__(r|rb)":\[(\d+),(\d+)\]\}')


def _as_text(head, body):
    """The head with each ref replaced by the text ``encode_json`` writes
    for the value it names; checks that the refs tile the body in order."""
    end = 0

    def back(m):
        nonlocal end
        tag, off, size = m.group(1), int(m.group(2)), int(m.group(3))
        assert off == end, "refs must tile the body in head order"
        end = off + size
        raw = body[off:end]
        if tag == b"r":
            return json.dumps(raw.decode("ascii")).encode()
        return b'{"__b":"' + raw.hex().encode() + b'"}'

    text = _REF.sub(back, head)
    assert end == len(body)
    return text.decode("ascii")


@given(value=FRAME_VALUES)
def test_a_frame_decodes_to_what_the_text_decodes_to(value):
    head, body = codec.encode_frame(value)
    ours = codec.decode_frame(head, body)
    theirs = codec.decode_json(codec.encode_json(value, False))
    assert ours == theirs
    assert codec.encode_json(ours) == codec.encode_json(theirs)


@given(value=FRAME_VALUES)
def test_the_head_is_the_text_with_refs_in_place_of_long_values(value):
    head, body = codec.encode_frame(value)
    assert _as_text(head, b"".join(body)) == codec.encode_json(value, False)


def test_only_long_ascii_strings_and_long_bytes_go_raw():
    clean, dirty = "c" * SHORT, 'd"' * SHORT
    wide, short = "é" * SHORT, "s" * (SHORT - 1)
    blob, tiny = bytes(range(256))[:SHORT], b"\x00" * (SHORT - 1)
    head, body = codec.encode_frame([clean, dirty, wide, short, blob, tiny])
    assert body == [clean.encode(), dirty.encode(), blob]
    assert head.decode() == (
        f'[{{"__r":[0,{SHORT}]}},{{"__r":[{SHORT},{2 * SHORT}]}},'
        f"{json.dumps(wide)},{json.dumps(short)},"
        f'{{"__rb":[{3 * SHORT},{SHORT}]}},{{"__b":"{tiny.hex()}"}}]'
    )


# ------------------------------------------------------------ hostile frames
def _long_frame():
    head, body = codec.encode_frame(CsRequest(request_id="r", payload="p" * 500))
    return head, b"".join(body)


HOSTILE = {
    "ref-past-the-body-end": (b'{"__r":[0,9]}', b"abcd"),
    "bytes-ref-past-the-body-end": (b'{"__rb":[2,3]}', b"abcd"),
    "negative-offset": (b'{"__r":[-1,2]}', b"abcd"),
    "negative-length": (b'{"__r":[2,-1]}', b"abcd"),
    "float-offset": (b'{"__r":[0.0,2]}', b"abcd"),
    "float-length": (b'{"__rb":[0,2.0]}', b"abcd"),
    "bool-offset": (b'{"__r":[true,2]}', b"abcd"),
    "not-a-pair": (b'{"__r":[0,1,2]}', b"abcd"),
    "not-a-list": (b'{"__r":"0,1"}', b"abcd"),
    "non-ascii-under-r": (b'{"__r":[0,2]}', "é".encode()),
    "invalid-utf8-under-r": (b'{"__r":[0,1]}', b"\xff"),
    "truncated-body": (_long_frame()[0], _long_frame()[1][:-1]),
    "empty-body": (_long_frame()[0], b""),
}


@pytest.mark.parametrize("head,body", HOSTILE.values(), ids=HOSTILE.keys())
def test_a_hostile_frame_raises_replay_error(head, body):
    with pytest.raises(ReplayError):
        codec.decode_frame(head, body)


@pytest.mark.parametrize("tag", ["__r", "__rb"])
def test_a_text_has_no_body_to_ref(tag):
    with pytest.raises(ReplayError):
        codec.decode_json(json.dumps([{tag: [0, 0]}]))
    with pytest.raises(ReplayError):
        codec.decode({tag: [0, 0]})
