"""Digital signatures with structurally-enforced unforgeability.

The paper assumes adversaries "cannot break cryptographic primitives like
digital signatures", so "by authenticating all communication, correct
processes cannot be impersonated" (Sec 3).  Running offline we do not need
real asymmetric crypto — we need the *property*.  We enforce it
structurally:

* A :class:`KeyRegistry` mints one :class:`Signer` per process id.  The
  signer object is the private key; signing computes an HMAC over the
  canonical digest of the payload with a per-process secret.
* Verification goes through the registry (the "public key infrastructure")
  and never exposes secrets.
* Byzantine process implementations in this repo only ever hold *their
  own* signer, so they can lie about content but cannot forge another
  process's signature — exactly the paper's adversary.

This mirrors how the C++ implementation dedicates CPU to cryptography:
:func:`sign_cost` / :func:`verify_cost` provide the simulated CPU charge.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any

from repro.crypto.digest import canonical_bytes
from repro.errors import CryptoError

__all__ = [
    "KeyRegistry",
    "Signature",
    "Signer",
    "SIGN_COST",
    "VERIFY_COST",
    "sign_cost",
    "verify_cost",
]

#: Simulated CPU seconds to produce one signature (ballpark of Ed25519 on a
#: server core: ~20 µs sign, ~60 µs verify).
SIGN_COST = 20e-6
VERIFY_COST = 60e-6
#: MACs a registry remembers; past this the oldest entry goes first.  A
#: DES run verifies far fewer distinct (signer, payload) pairs, so its
#: hits are those of an unbounded cache.
MAC_CACHE_SIZE = 1 << 16


def sign_cost(count: int = 1) -> float:
    """Simulated CPU cost of producing ``count`` signatures."""
    return SIGN_COST * count


def verify_cost(count: int = 1) -> float:
    """Simulated CPU cost of verifying ``count`` signatures."""
    return VERIFY_COST * count


@dataclass(frozen=True)
class Signature:
    """A signature: the claimed signer id plus the MAC bytes."""

    signer: str
    mac: bytes

    def canonical(self) -> list:
        return [self.signer, self.mac]


class Signer:
    """Private signing capability for one process id."""

    __slots__ = ("pid", "_secret")

    def __init__(self, pid: str, secret: bytes) -> None:
        self.pid = pid
        self._secret = secret

    def sign(self, payload: Any) -> Signature:
        """Sign the canonical form of ``payload``."""
        mac = hmac.digest(self._secret, canonical_bytes(payload), "sha256")
        return Signature(self.pid, mac)


class KeyRegistry:
    """Mints signers and verifies signatures — the trusted PKI root.

    One registry exists per deployment; it is part of the substrate, not a
    process, so it cannot be Byzantine (matching the standard PKI
    assumption).
    """

    def __init__(self, seed: bytes = b"osiris") -> None:
        self._seed = seed
        self._secrets: dict[str, bytes] = {}
        self._issued: set[str] = set()
        # (signer, payload bytes) -> MAC.  The MAC is a pure function of
        # that pair, and broadcast protocols make every receiver verify
        # the same signature over the same bytes — the registry computes
        # it once.  Keyed by content, never by object identity, so
        # tampered payloads can never alias a cached entry.  Bounded by
        # MAC_CACHE_SIZE, oldest first.
        self._mac_cache: dict[tuple[str, bytes], bytes] = {}

    def register(self, pid: str) -> Signer:
        """Create the signer for ``pid``.  Each pid can be issued once."""
        if pid in self._issued:
            raise CryptoError(f"signer for {pid!r} already issued")
        self._issued.add(pid)
        secret = hashlib.sha256(self._seed + pid.encode()).digest()
        self._secrets[pid] = secret
        return Signer(pid, secret)

    def provision(self, pid: str) -> None:
        """Install ``pid``'s verification material without issuing its
        signer.  Key derivation is deterministic per (seed, pid), so
        every process of a live deployment can provision the same PKI
        view independently — the distributed analogue of sharing one
        registry object — while the one-issuance guard still keeps each
        private signer local to the process that registers it."""
        if pid not in self._secrets:
            self._secrets[pid] = hashlib.sha256(
                self._seed + pid.encode()
            ).digest()

    def known(self, pid: str) -> bool:
        """Whether ``pid`` has a registered key."""
        return pid in self._secrets

    def verify(self, payload: Any, sig: Signature) -> bool:
        """Check that ``sig`` is a valid signature over ``payload``.

        Returns ``False`` (never raises) for unknown signers or bad MACs —
        a forged signature is a runtime condition protocols must survive.
        """
        return self._check(canonical_bytes(payload), sig)

    def _check(self, pb: bytes, sig: Signature) -> bool:
        """:meth:`verify` of a payload already in canonical bytes."""
        secret = self._secrets.get(sig.signer)
        if secret is None:
            return False
        key = (sig.signer, pb)
        cache = self._mac_cache
        expected = cache.get(key)
        if expected is None:
            if len(cache) >= MAC_CACHE_SIZE:
                del cache[next(iter(cache))]  # dicts keep insertion order
            expected = cache[key] = hmac.digest(secret, pb, "sha256")
        return hmac.compare_digest(expected, sig.mac)

    def verify_quorum(
        self, payload: Any, sigs: list[Signature], group: set[str], need: int
    ) -> bool:
        """Check ``payload`` carries ``need`` valid signatures from distinct
        members of ``group`` — the f+1-of-VP_CO pattern used throughout the
        task flow."""
        pb = canonical_bytes(payload)
        seen: set[str] = set()
        for sig in sigs:
            if sig.signer in group and sig.signer not in seen:
                if self._check(pb, sig):
                    seen.add(sig.signer)
                    if len(seen) >= need:
                        return True
        return False
