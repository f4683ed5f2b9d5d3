"""Tests for task/record/chunk data types."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Chunk, Opcode, Record, Task, chunk_records
from repro.core.tasks import Assignment
from repro.crypto import digest
from repro.errors import ProtocolError
from repro.runtime.codec import decode_json, encode_json


class TestOpcode:
    def test_update_flags(self):
        assert Opcode.UPDATE.has_update and not Opcode.UPDATE.has_compute

    def test_compute_flags(self):
        assert Opcode.COMPUTE.has_compute and not Opcode.COMPUTE.has_update

    def test_both_flags(self):
        assert Opcode.BOTH.has_update and Opcode.BOTH.has_compute


class TestTask:
    def test_with_timestamp_preserves_payloads(self):
        t = Task("t1", Opcode.BOTH, update_payload="u", compute_payload="c")
        t2 = t.with_timestamp(7)
        assert t2.timestamp == 7
        assert t2.update_payload == "u" and t2.compute_payload == "c"
        assert t.timestamp == -1  # original untouched

    def test_canonical_includes_timestamp(self):
        t = Task("t1", Opcode.COMPUTE)
        assert t.canonical() != t.with_timestamp(1).canonical()


class TestAssignment:
    def test_signed_payload_binds_all_fields(self):
        t = Task("t1", Opcode.COMPUTE, timestamp=3)
        a = Assignment(t, "e0", 1, attempt=0)
        variants = [
            Assignment(t, "e1", 1, 0),
            Assignment(t, "e0", 2, 0),
            Assignment(t, "e0", 1, 1),
        ]
        for v in variants:
            assert v.signed_payload() != a.signed_payload()

    def test_key_is_task_and_attempt(self):
        t = Task("t1", Opcode.COMPUTE)
        assert Assignment(t, "e0", 0, 2).key == ("t1", 2)


class TestChunking:
    def _records(self, sizes):
        return [Record(key=(i,), size_bytes=s) for i, s in enumerate(sizes)]

    def test_empty_output_yields_single_final_chunk(self):
        chunks = chunk_records("t", [], max_bytes=100)
        assert len(chunks) == 1
        assert chunks[0].final and chunks[0].records == ()

    def test_single_chunk_when_under_limit(self):
        chunks = chunk_records("t", self._records([10, 10]), max_bytes=100)
        assert len(chunks) == 1 and chunks[0].final

    def test_split_on_byte_limit(self):
        chunks = chunk_records("t", self._records([60, 60, 60]), max_bytes=100)
        assert len(chunks) == 3
        assert [c.final for c in chunks] == [False, False, True]

    def test_indices_are_sequential(self):
        chunks = chunk_records("t", self._records([60] * 5), max_bytes=100)
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_oversized_record_gets_own_chunk(self):
        chunks = chunk_records("t", self._records([500, 10]), max_bytes=100)
        assert len(chunks[0].records) == 1

    def test_invalid_max_bytes(self):
        with pytest.raises(ProtocolError):
            chunk_records("t", [], max_bytes=0)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=200), max_size=50),
        max_bytes=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=100, deadline=None)
    def test_chunking_partitions_records(self, sizes, max_bytes):
        """Chunks are a disjoint, order-preserving partition; exactly the
        last is final; no chunk except singletons exceeds the limit."""
        records = self._records(sizes)
        chunks = chunk_records("t", records, max_bytes)
        flat = [r for c in chunks for r in c.records]
        assert flat == records
        assert [c.final for c in chunks] == [False] * (len(chunks) - 1) + [True]
        for c in chunks:
            if len(c.records) > 1:
                assert c.payload_bytes() <= max_bytes

    def test_chunk_payload_bytes(self):
        c = Chunk("t", 0, tuple(self._records([10, 20])), final=True)
        assert c.payload_bytes() == 30

    def test_chunk_canonical_distinguishes_contents(self):
        a = Chunk("t", 0, (Record(key=(1,)),), final=True)
        b = Chunk("t", 0, (Record(key=(2,)),), final=True)
        assert a.canonical() != b.canonical()


class TestChunkSigma:
    def _chunk(self):
        records = tuple(Record(key=(i,), data=f"r{i}") for i in range(3))
        return Chunk("t", 0, records, final=True)

    def test_sigma_is_the_chunk_digest(self):
        chunk = self._chunk()
        assert chunk.sigma == digest(chunk)
        assert chunk.sigma is chunk.sigma  # computed once per object

    def test_digest_keeps_no_memo(self):
        chunk = self._chunk()
        digest(chunk)
        assert "sigma" not in vars(chunk)

    def test_rebuilt_chunk_with_one_record_changed_has_new_sigma(self):
        chunk = self._chunk()
        before = chunk.sigma
        records = list(chunk.records)
        records[1] = Record(records[1].key, "<tampered>", records[1].size_bytes)
        tampered = Chunk(chunk.task_id, chunk.index, tuple(records), chunk.final)
        assert tampered.sigma != before
        assert chunk.sigma == before

    def test_memo_is_invisible_to_eq_hash_replace_and_codec(self):
        chunk, twin = self._chunk(), self._chunk()
        wire = encode_json(chunk)
        assert len(chunk.sigma) == 32  # fills the memo
        assert chunk == twin and hash(chunk) == hash(twin)
        assert encode_json(chunk) == wire
        copy = dataclasses.replace(chunk)
        assert "sigma" not in vars(copy) and copy == chunk
        assert decode_json(wire).sigma == chunk.sigma
