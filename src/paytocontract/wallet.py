"""Labeled wallets: keypairs, addresses, and scripts derived from a base.

A labeled wallet indexes keypairs by arbitrary byte-string labels.  The
derivation is homomorphic: the private side needs the private base, the
public side only the public base, and the two always agree:

    G ** derive_private(s, label) == derive_public(G ** s, label)

Two schemes exist.  The additive one offsets the exponent by the label
hash; the multiplicative one scales it.  Either works as long as both
sides pick the same one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

from .curve import (
    G,
    KeyPair,
    Point,
    Scalar,
    Signature,
    ecdsa_verify,
    hash160,
    hash_to_scalar,
)
from .errors import ProtocolError

Label = Union[bytes, str]


def _label_bytes(label: Label) -> bytes:
    return label.encode("utf-8") if isinstance(label, str) else bytes(label)


class DerivationScheme(str, Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


def derive_private(base: Scalar, label: Label, scheme: DerivationScheme = DerivationScheme.ADDITIVE) -> Scalar:
    """Derived private key for ``label``; raises if the result degenerates to zero."""
    if not base:
        raise ValueError("private base must be nonzero")
    h = hash_to_scalar(_label_bytes(label))
    derived = base + h if scheme is DerivationScheme.ADDITIVE else base * h
    if not derived:
        raise ProtocolError("degenerate derived key", "re-salt the label")
    return derived


def derive_public(pubbase: Point, label: Label, scheme: DerivationScheme = DerivationScheme.ADDITIVE) -> Point:
    """Derived pubkey for ``label``, computed without any private key."""
    if pubbase.is_identity():
        raise ValueError("public base must not be the identity")
    h = hash_to_scalar(_label_bytes(label))
    derived = pubbase * G ** h if scheme is DerivationScheme.ADDITIVE else pubbase ** h
    if derived.is_identity():
        raise ProtocolError("degenerate derived key", "re-salt the label")
    return derived


@dataclass(frozen=True, slots=True)
class Address:
    """20-byte address digest, tagged pay-to-pubkey-hash or pay-to-script-hash."""

    kind: str  # "p2pkh" | "p2sh"
    digest: bytes

    def __post_init__(self):
        if self.kind not in ("p2pkh", "p2sh"):
            raise ValueError(f"unknown address kind {self.kind!r}")
        if len(self.digest) != 20:
            raise ValueError("address digest must be 20 bytes")

    def render(self) -> str:
        return f"{self.kind}:{self.digest.hex()}"

    @classmethod
    def parse(cls, text: str) -> Address:
        kind, _, digest = text.partition(":")
        return cls(kind, bytes.fromhex(digest))


def derive_address(
    pubbase: Point, label: Label, scheme: DerivationScheme = DerivationScheme.ADDITIVE
) -> Address:
    """Pay-to-pubkey-hash address of the derived pubkey."""
    return p2pkh_address(derive_public(pubbase, label, scheme))


@dataclass(frozen=True)
class WalletBase:
    """Wallet base; without ``private_base`` this is the watch-only side."""

    pubbase: Point
    private_base: Optional[Scalar] = None

    def __post_init__(self):
        if self.private_base is not None and G ** self.private_base != self.pubbase:
            raise ValueError("pubbase does not match private base")

    @classmethod
    def from_private(cls, private: Scalar) -> WalletBase:
        return cls(G ** private, private)

    @classmethod
    def watch_only(cls, pubbase: Point) -> WalletBase:
        return cls(pubbase)

    def derive_keypair(self, label: Label, scheme: DerivationScheme = DerivationScheme.ADDITIVE) -> KeyPair:
        if self.private_base is None:
            raise ProtocolError("watch-only wallet", "private base unavailable")
        priv = derive_private(self.private_base, label, scheme)
        return KeyPair(priv, G ** priv)

    def derive_address(self, label: Label, scheme: DerivationScheme = DerivationScheme.ADDITIVE) -> Address:
        return derive_address(self.pubbase, label, scheme)


# ---------------------------------------------------------------------------
# Scripts

class Opcode(str, Enum):
    CHECKMULTISIG = "OP_CHECKMULTISIG"
    HASH160 = "OP_HASH160"
    EQUAL = "OP_EQUAL"


_OPCODE_BYTES = {Opcode.CHECKMULTISIG: 0xAE, Opcode.HASH160: 0xA9, Opcode.EQUAL: 0x87}

# script element: small-int push (1..16), opcode, pubkey literal, or 20-byte digest literal
ScriptElement = Union[int, Opcode, Point, bytes]


@dataclass(frozen=True, slots=True)
class Script:
    ops: Tuple[ScriptElement, ...]

    def __post_init__(self):
        for op in self.ops:
            if isinstance(op, bool) or not isinstance(op, (int, Opcode, Point, bytes)):
                raise ValueError(f"bad script element {op!r}")
            if isinstance(op, int) and not isinstance(op, Opcode) and not 1 <= op <= 16:
                raise ValueError("small-int push must be in 1..16")
            if isinstance(op, bytes) and len(op) != 20:
                raise ValueError("digest literal must be 20 bytes")

    def pubkeys(self) -> Tuple[Point, ...]:
        return tuple(op for op in self.ops if isinstance(op, Point))

    def multisig_params(self) -> Optional[Tuple[int, int, Tuple[Point, ...]]]:
        """(m, n, pubkeys) when this is an m-of-n multisig template, else None."""
        ops = self.ops
        if len(ops) < 4 or not isinstance(ops[0], int) or isinstance(ops[0], Opcode):
            return None
        m, n, tail = ops[0], ops[-2], ops[-1]
        keys = ops[1:-2]
        if tail is not Opcode.CHECKMULTISIG or not isinstance(n, int) or isinstance(n, Opcode):
            return None
        if len(keys) != n or not all(isinstance(k, Point) for k in keys):
            return None
        if not 1 <= m <= n:
            return None
        return m, n, tuple(keys)

    def serialize(self) -> bytes:
        """Canonical byte form: opcode bytes, literals length-prefixed."""
        out = bytearray()
        for op in self.ops:
            if isinstance(op, Opcode):
                out.append(_OPCODE_BYTES[op])
            elif isinstance(op, Point):
                enc = op.encode()
                out.append(len(enc))
                out += enc
            elif isinstance(op, bytes):
                out.append(len(op))
                out += op
            else:
                out.append(0x50 + op)
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes) -> Script:
        byte_ops = {v: k for k, v in _OPCODE_BYTES.items()}
        ops = []
        i = 0
        while i < len(data):
            b = data[i]
            i += 1
            if b in byte_ops:
                ops.append(byte_ops[b])
            elif 0x51 <= b <= 0x60:
                ops.append(b - 0x50)
            elif b in (20, 33):
                chunk = data[i : i + b]
                if len(chunk) != b:
                    raise ValueError("truncated script literal")
                ops.append(Point.decode(chunk) if b == 33 else chunk)
                i += b
            else:
                raise ValueError(f"unsupported script byte 0x{b:02x}")
        return cls(tuple(ops))


def multisig_script(m: int, pubkeys: Tuple[Point, ...]) -> Script:
    """m-of-n checkmultisig template over explicit pubkeys."""
    n = len(pubkeys)
    if not 1 <= m <= n <= 16:
        raise ValueError("need 1 <= m <= n <= 16")
    return Script((m, *pubkeys, n, Opcode.CHECKMULTISIG))


def derive_script(base: Script, label: Label) -> Script:
    """Replace every explicit pubkey in ``base`` by its derived pubkey.

    Scripts carrying only pubkey hashes cannot be derived; the hash hides
    the point the derivation needs.
    """
    if not base.pubkeys():
        if any(isinstance(op, bytes) for op in base.ops):
            raise ProtocolError("hashed pubkeys not derivable")
        raise ProtocolError("nothing to derive")
    derived = tuple(
        derive_public(op, label) if isinstance(op, Point) else op for op in base.ops
    )
    return Script(derived)


def p2pkh_address(pub: Point) -> Address:
    """Pay-to-pubkey-hash address committing to the encoded pubkey."""
    return Address("p2pkh", hash160(pub.encode()))


def p2sh_address(script: Script) -> Address:
    """Pay-to-script-hash address committing to the serialized script."""
    if not script.ops:
        raise ValueError("empty script")
    return Address("p2sh", hash160(script.serialize()))


def p2sh_locking_script(address: Address) -> Script:
    """Spend-side shape of a P2SH output: HASH160 <digest> EQUAL."""
    if address.kind != "p2sh":
        raise ValueError("not a p2sh address")
    return Script((Opcode.HASH160, address.digest, Opcode.EQUAL))


def verify_script_signature(script: Script, signature: Signature, pub: Point) -> bool:
    """Check a detached endorsement of a base script (e.g. by a reputation key)."""
    return ecdsa_verify(pub, script.serialize(), signature)


def script_to_json(script: Script) -> list:
    items = []
    for op in script.ops:
        if isinstance(op, Opcode):
            items.append({"op": op.value})
        elif isinstance(op, Point):
            items.append({"pubkey": op.encode().hex()})
        elif isinstance(op, bytes):
            items.append({"digest": op.hex()})
        else:
            items.append({"push": op})
    return items


def script_from_json(items: list) -> Script:
    if not items:
        raise ValueError("empty script")
    ops = []
    for item in items:
        if "op" in item:
            ops.append(Opcode(item["op"]))
        elif "pubkey" in item:
            ops.append(Point.decode(bytes.fromhex(item["pubkey"])))
        elif "digest" in item:
            ops.append(bytes.fromhex(item["digest"]))
        elif "push" in item:
            ops.append(int(item["push"]))
        else:
            raise ValueError(f"bad script element {item!r}")
    return Script(tuple(ops))
