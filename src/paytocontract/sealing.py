"""Authenticated symmetric encryption for contract leaves and redemption files.

The construction is a 256-bit-key AEAD stream cipher (ChaCha20-Poly1305);
the 12-byte nonce travels as the header of the sealed blob.  ``cryptography``
is imported on the first seal or open, so a process that only hashes or
verifies contracts never loads it.
"""

import functools
from random import Random
from typing import Optional

from .curve import rand_bytes
from .errors import ProtocolError

NONCE_BYTES = 12


@functools.cache
def _aead():
    """``(ChaCha20Poly1305, InvalidTag)``, imported on the first call."""
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    return ChaCha20Poly1305, InvalidTag


def seal(key: bytes, plaintext: bytes, rng: Optional[Random] = None) -> bytes:
    """nonce || ciphertext || tag under a 32-byte key."""
    if len(key) != 32:
        raise ValueError("sealing key must be 32 bytes")
    nonce = rand_bytes(NONCE_BYTES, rng)
    cipher, _ = _aead()
    return nonce + cipher(key).encrypt(nonce, plaintext, None)


def open_sealed(key: bytes, blob: bytes) -> bytes:
    if len(key) != 32:
        raise ValueError("sealing key must be 32 bytes")
    if len(blob) < NONCE_BYTES + 16:
        raise ProtocolError("authentication failure", "sealed blob too short")
    cipher, invalid_tag = _aead()
    try:
        return cipher(key).decrypt(blob[:NONCE_BYTES], blob[NONCE_BYTES:], None)
    except invalid_tag:
        raise ProtocolError("authentication failure") from None
