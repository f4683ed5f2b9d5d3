"""Cryptographic substrate: digests and signatures.

Real hash functions (SHA-256/HMAC) with structurally-enforced key
ownership stand in for the paper's Ed25519-style signatures; simulated
CPU costs (:data:`~repro.crypto.signatures.SIGN_COST`,
:data:`~repro.crypto.signatures.VERIFY_COST`) charge the protocol for
crypto work like the C++ implementation's dedicated crypto cores.
"""

from repro.crypto.digest import canonical_bytes, digest, digest_hex
from repro.crypto.signatures import (
    SIGN_COST,
    VERIFY_COST,
    KeyRegistry,
    Signature,
    Signer,
    sign_cost,
    verify_cost,
)

__all__ = [
    "KeyRegistry",
    "SIGN_COST",
    "Signature",
    "Signer",
    "VERIFY_COST",
    "canonical_bytes",
    "digest",
    "digest_hex",
    "sign_cost",
    "verify_cost",
]
