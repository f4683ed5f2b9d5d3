"""Tests for the signature registry: unforgeability is structural."""

import pytest

from repro.crypto import KeyRegistry, Signature, sign_cost, verify_cost
from repro.crypto import signatures
from repro.errors import CryptoError


@pytest.fixture
def registry():
    return KeyRegistry(seed=b"test")


class TestSignVerify:
    def test_valid_signature_verifies(self, registry):
        signer = registry.register("v0")
        payload = {"task": 1, "executor": "e0"}
        sig = signer.sign(payload)
        assert registry.verify(payload, sig)

    def test_signature_binds_payload(self, registry):
        signer = registry.register("v0")
        sig = signer.sign({"task": 1})
        assert not registry.verify({"task": 2}, sig)

    def test_signature_binds_signer(self, registry):
        registry.register("v0")
        other = registry.register("v1")
        sig = other.sign({"task": 1})
        forged = Signature(signer="v0", mac=sig.mac)
        assert not registry.verify({"task": 1}, forged)

    def test_unknown_signer_rejected(self, registry):
        sig = Signature(signer="ghost", mac=b"\x00" * 32)
        assert not registry.verify({"x": 1}, sig)

    def test_duplicate_registration_rejected(self, registry):
        registry.register("v0")
        with pytest.raises(CryptoError):
            registry.register("v0")

    def test_known(self, registry):
        registry.register("v0")
        assert registry.known("v0")
        assert not registry.known("v1")

    def test_signatures_deterministic_per_registry_seed(self):
        a = KeyRegistry(seed=b"s").register("p").sign([1])
        b = KeyRegistry(seed=b"s").register("p").sign([1])
        assert a == b

    def test_registry_seeds_isolate_keys(self):
        reg_a = KeyRegistry(seed=b"a")
        reg_b = KeyRegistry(seed=b"b")
        sig = reg_a.register("p").sign([1])
        reg_b.register("p")
        assert not reg_b.verify([1], sig)


class TestQuorum:
    def test_quorum_of_distinct_group_members(self, registry):
        signers = [registry.register(f"v{i}") for i in range(3)]
        payload = ["assign", 1]
        sigs = [s.sign(payload) for s in signers]
        group = {"v0", "v1", "v2"}
        assert registry.verify_quorum(payload, sigs, group, need=2)

    def test_duplicate_signer_counts_once(self, registry):
        s = registry.register("v0")
        payload = ["assign", 1]
        sigs = [s.sign(payload), s.sign(payload)]
        assert not registry.verify_quorum(payload, sigs, {"v0", "v1"}, need=2)

    def test_out_of_group_signer_ignored(self, registry):
        inside = registry.register("v0")
        outside = registry.register("e0")
        payload = ["assign", 1]
        sigs = [inside.sign(payload), outside.sign(payload)]
        assert not registry.verify_quorum(payload, sigs, {"v0", "v1"}, need=2)

    def test_invalid_signature_ignored(self, registry):
        registry.register("v0")
        v1 = registry.register("v1")
        payload = ["assign", 1]
        sigs = [Signature("v0", b"\x00" * 32), v1.sign(payload)]
        assert not registry.verify_quorum(payload, sigs, {"v0", "v1"}, need=2)
        assert registry.verify_quorum(payload, sigs, {"v0", "v1"}, need=1)


class TestMacCache:
    def test_verdicts_hold_from_the_cache_and_after_eviction(
        self, registry, monkeypatch
    ):
        monkeypatch.setattr(signatures, "MAC_CACHE_SIZE", 2)
        signer = registry.register("v0")
        registry.register("v1")
        valid = signer.sign([1])
        forged = Signature("v1", valid.mac)
        unknown = Signature("ghost", valid.mac)
        for _ in range(2):  # a miss, then a hit
            assert registry.verify([1], valid)
            assert not registry.verify([1], forged)
            assert not registry.verify([1], unknown)
        for i in range(4):  # push both entries out
            registry.verify([2, i], valid)
        assert registry.verify([1], valid)
        assert not registry.verify([1], forged)

    def test_cache_keeps_at_most_the_bound_newest_first(
        self, registry, monkeypatch
    ):
        bound, extra = 8, 5
        monkeypatch.setattr(signatures, "MAC_CACHE_SIZE", bound)
        signer = registry.register("v0")
        payloads = [["p", i] for i in range(bound + extra)]
        for p in payloads:
            assert registry.verify(p, signer.sign(p))
        cache = registry._mac_cache
        assert len(cache) == bound
        kept = [signatures.canonical_bytes(p) for p in payloads[extra:]]
        assert [pb for _, pb in cache] == kept

    def test_quorum_check_encodes_its_payload_once(self, registry, monkeypatch):
        signers = [registry.register(f"v{i}") for i in range(4)]
        payload = ["assign", 1]
        sigs = [s.sign(payload) for s in signers]
        calls = []
        real = signatures.canonical_bytes

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(signatures, "canonical_bytes", counting)
        assert registry.verify_quorum(payload, sigs, {"v0", "v1", "v2", "v3"}, 4)
        assert calls == [payload]


class TestCosts:
    def test_costs_scale_linearly(self):
        assert sign_cost(10) == pytest.approx(10 * sign_cost(1))
        assert verify_cost(10) == pytest.approx(10 * verify_cost(1))

    def test_verify_costs_more_than_sign(self):
        assert verify_cost(1) > sign_cost(1)
