"""Contracts as salted Merkle trees.

A contract is a tree of named fields.  Every node carries a salt and hashes
to a 32-byte digest; a branch digest commits to its children's digests, so
replacing any subtree by its digest (redaction) leaves the root hash intact.
The root hash doubles as the wallet label that binds the payment address to
the document, which is what lets the same object serve as bill and receipt.

Static fields (under ``merchant/``) are signed ahead of time with the
merchant's long-lived key; dynamic order fields (under ``order/``) are
filled in per order and may be signed with a separate tracking key.
Leaf values can be encrypted to a third party; the tree then commits to the
ciphertext, so holders may reveal cleartext, ciphertext, or digest alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from random import Random
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .curve import G, KeyPair, Point, Scalar, Signature, ecdsa_sign, ecdsa_verify, rand_bytes, sha256
from .errors import MALFORMED, ProtocolError
from .sealing import open_sealed, seal
from .wallet import Address, derive_address, derive_private

SALT_BYTES = 16
MERCHANT_PUBKEY_PATH = "merchant/pubkey"

FieldPath = Union[str, Sequence[str]]


def parse_path(path: FieldPath) -> Tuple[str, ...]:
    segments = tuple(path.split("/")) if isinstance(path, str) else tuple(path)
    if not segments or any(not s for s in segments):
        raise ValueError(f"bad field path {path!r}")
    return segments


def path_str(segments: Sequence[str]) -> str:
    return "/".join(segments)


def _check_salt(salt: bytes):
    if len(salt) != SALT_BYTES:
        raise ValueError(f"salt must be {SALT_BYTES} bytes")


def _check_name(name: str):
    if not name or "/" in name or len(name.encode()) > 0xFFFF:
        raise ValueError(f"bad field name {name!r}")


@dataclass(frozen=True)
class Leaf:
    salt: bytes
    value: bytes
    encrypted: bool = False

    def __post_init__(self):
        _check_salt(self.salt)


@dataclass(frozen=True)
class Branch:
    salt: bytes
    children: Mapping[str, "ContractNode"]

    def __post_init__(self):
        _check_salt(self.salt)
        for name in self.children:
            _check_name(name)
        # freeze child order to the canonical (sorted) one
        object.__setattr__(self, "children", dict(sorted(self.children.items())))


@dataclass(frozen=True)
class Redacted:
    digest: bytes

    def __post_init__(self):
        if len(self.digest) != 32:
            raise ValueError("redacted digest must be 32 bytes")


ContractNode = Union[Leaf, Branch, Redacted]


def node_digest(node: ContractNode) -> bytes:
    """Salted Merkle digest; domain-separated so leaves and branches cannot collide."""
    if isinstance(node, Leaf):
        return sha256(b"\x00" + node.salt + node.value)
    if isinstance(node, Branch):
        parts = [b"\x01", node.salt]
        for name, child in node.children.items():
            encoded = name.encode()
            parts.append(len(encoded).to_bytes(2, "big"))
            parts.append(encoded)
            parts.append(node_digest(child))
        return sha256(b"".join(parts))
    return node.digest


def node_to_json(node: ContractNode) -> dict:
    if isinstance(node, Leaf):
        return {
            "kind": "leaf",
            "salt": node.salt.hex(),
            "value": node.value.hex(),
            "encrypted": node.encrypted,
        }
    if isinstance(node, Branch):
        return {
            "kind": "branch",
            "salt": node.salt.hex(),
            "children": {name: node_to_json(child) for name, child in node.children.items()},
        }
    return {"kind": "redacted", "digest": node.digest.hex()}


def node_from_json(obj: dict) -> ContractNode:
    if not isinstance(obj, dict):
        raise ProtocolError("invalid contract", "node must be an object")
    kind = obj.get("kind")
    if kind == "leaf":
        return Leaf(bytes.fromhex(obj["salt"]), bytes.fromhex(obj["value"]), bool(obj["encrypted"]))
    if kind == "branch":
        children = {name: node_from_json(child) for name, child in obj["children"].items()}
        return Branch(bytes.fromhex(obj["salt"]), children)
    if kind == "redacted":
        return Redacted(bytes.fromhex(obj["digest"]))
    raise ValueError(f"unknown node kind {kind!r}")


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


def canonical_encode(node: ContractNode) -> bytes:
    """Deterministic JSON bytes: sorted keys, no whitespace, hex values."""
    return _canonical_json(node_to_json(node))


def decode_node(data: bytes) -> ContractNode:
    return node_from_json(json.loads(data))


def resolve(root: ContractNode, path: FieldPath) -> ContractNode:
    node = root
    for segment in parse_path(path):
        if not isinstance(node, Branch) or segment not in node.children:
            raise ProtocolError("no such field", path_str(parse_path(path)))
        node = node.children[segment]
    return node


def _replace_node(root: Branch, segments: Tuple[str, ...], new: ContractNode) -> Branch:
    head, rest = segments[0], segments[1:]
    if head not in root.children:
        raise ProtocolError("no such field", path_str(segments))
    child = root.children[head]
    if rest:
        if not isinstance(child, Branch):
            raise ProtocolError("no such field", path_str(segments))
        child = _replace_node(child, rest, new)
    else:
        child = new
    children = dict(root.children)
    children[head] = child
    return Branch(root.salt, children)


def iter_nodes(root: ContractNode, prefix: Tuple[str, ...] = ()) -> Iterator[Tuple[Tuple[str, ...], ContractNode]]:
    yield prefix, root
    if isinstance(root, Branch):
        for name, child in root.children.items():
            yield from iter_nodes(child, prefix + (name,))


@dataclass(frozen=True)
class Contract:
    """Merkle-tree document naming its merchant key and carrying field signatures.

    Signatures cover ``path || subtree digest``, so a signature stays valid
    under any redaction that leaves its subtree intact -- including
    redaction of the signed subtree itself, whose digest is preserved.
    """

    root: Branch
    merchant_pubkey: Point
    static_signatures: Mapping[str, Signature] = field(default_factory=dict)
    dynamic_signatures: Mapping[str, Signature] = field(default_factory=dict)
    dynamic_signing_key: Optional[Point] = None

    def __post_init__(self):
        try:
            node = resolve(self.root, MERCHANT_PUBKEY_PATH)
        except ProtocolError:
            raise ProtocolError("invalid contract", "merchant pubkey field missing") from None
        # a redacted pubkey field stays committed; check only when visible
        if isinstance(node, Leaf) and node.value != self.merchant_pubkey.encode():
            raise ProtocolError("invalid contract", "merchant pubkey mismatch")


def contract_hash(c: Contract) -> bytes:
    """Root digest; invariant under any redaction."""
    return node_digest(c.root)


def redact(c: Contract, path: FieldPath) -> Contract:
    """Replace the subtree at ``path`` by its digest, leaving the hash intact."""
    segments = parse_path(path)
    node = resolve(c.root, segments)
    if isinstance(node, Redacted):
        raise ProtocolError("already redacted", path_str(segments))
    return replace(c, root=_replace_node(c.root, segments, Redacted(node_digest(node))))


def encrypt_leaf(c: Contract, path: FieldPath, recipient_pub: Point, rng: Optional[Random] = None) -> Contract:
    """Encrypt a leaf value to ``recipient_pub``.

    The tree then commits to the ciphertext, so this must happen before the
    contract is signed over or paid; it changes the root hash.
    """
    segments = parse_path(path)
    node = resolve(c.root, segments)
    if not isinstance(node, Leaf):
        raise ProtocolError("not a leaf", path_str(segments))
    if node.encrypted:
        raise ProtocolError("already encrypted", path_str(segments))
    ephemeral = KeyPair.generate(rng)
    shared = recipient_pub ** ephemeral.private
    key = sha256(shared.x.to_bytes(32, "big"))
    blob = ephemeral.public.encode() + seal(key, node.value, rng)
    return replace(c, root=_replace_node(c.root, segments, Leaf(node.salt, blob, encrypted=True)))


def decrypt_leaf(c: Contract, path: FieldPath, recipient_priv: Scalar) -> bytes:
    """Recover the cleartext of an encrypted leaf."""
    node = resolve(c.root, path)
    if not isinstance(node, Leaf) or not node.encrypted:
        raise ProtocolError("not an encrypted leaf", path_str(parse_path(path)))
    ephemeral = Point.decode(node.value[:33])
    key = sha256((ephemeral ** recipient_priv).x.to_bytes(32, "big"))
    return open_sealed(key, node.value[33:])


def _signature_message(segments: Tuple[str, ...], digest: bytes) -> bytes:
    return path_str(segments).encode() + digest


def sign_fields(c: Contract, key: Scalar, paths: Sequence[FieldPath]) -> Contract:
    """Sign subtree digests; routed to static or dynamic by which key signs.

    Static bucket for the merchant key, dynamic bucket for the tracking key.
    """
    pub = G ** key
    if pub == c.merchant_pubkey:
        bucket = "static_signatures"
    elif c.dynamic_signing_key is not None and pub == c.dynamic_signing_key:
        bucket = "dynamic_signatures"
    else:
        raise ProtocolError("unknown signing key")
    signatures = dict(getattr(c, bucket))
    for path in paths:
        segments = parse_path(path)
        digest = node_digest(resolve(c.root, segments))
        signatures[path_str(segments)] = ecdsa_sign(key, _signature_message(segments, digest))
    return replace(c, **{bucket: signatures})


@dataclass(frozen=True)
class ContractReport:
    """Outcome of checking every signature a contract carries."""

    ok: bool
    static: Mapping[str, str]   # path -> "valid" | "invalid" | "unverifiable"
    dynamic: Mapping[str, str]
    redacted_paths: Tuple[str, ...]
    encrypted_paths: Tuple[str, ...]
    warnings: Tuple[str, ...]


def _check_signatures(root: Branch, sigs: Mapping[str, Signature], pub: Optional[Point]) -> Dict[str, str]:
    results = {}
    for path, sig in sigs.items():
        if pub is None:
            results[path] = "invalid"
            continue
        segments = parse_path(path)
        try:
            digest = node_digest(resolve(root, segments))
        except ProtocolError:
            # subtree hidden inside a redacted ancestor; nothing to check
            results[path] = "unverifiable"
            continue
        ok = ecdsa_verify(pub, _signature_message(segments, digest), sig)
        results[path] = "valid" if ok else "invalid"
    return results


def verify_contract(c: Contract) -> ContractReport:
    """Check all present signatures and inventory redacted/encrypted fields."""
    static = _check_signatures(c.root, c.static_signatures, c.merchant_pubkey)
    dynamic = _check_signatures(c.root, c.dynamic_signatures, c.dynamic_signing_key)
    redacted = []
    encrypted = []
    for segments, node in iter_nodes(c.root):
        if isinstance(node, Redacted):
            redacted.append(path_str(segments))
        elif isinstance(node, Leaf) and node.encrypted:
            encrypted.append(path_str(segments))
    warnings = []
    if not c.static_signatures:
        warnings.append("no static signatures")
    if c.dynamic_signatures and c.dynamic_signing_key is None:
        warnings.append("dynamic signatures without a signing key")
    ok = all(v != "invalid" for v in static.values()) and all(
        v != "invalid" for v in dynamic.values()
    )
    return ContractReport(ok, static, dynamic, tuple(redacted), tuple(encrypted), tuple(warnings))


def payment_address(c: Contract) -> Address:
    """The address the contract itself determines: derived from (P, root hash)."""
    return derive_address(c.merchant_pubkey, contract_hash(c))


def payment_private_key(c: Contract, merchant_priv: Scalar) -> Scalar:
    """Spending key for the payment address; needs the merchant's private base."""
    return derive_private(merchant_priv, contract_hash(c))


def _to_value_bytes(value) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, int):
        return str(value).encode()
    raise ValueError(f"unsupported field value {value!r}")


def build_template(
    merchant_pubkey: Point,
    static_fields: Mapping[str, Union[bytes, str, int]],
    rng: Optional[Random] = None,
    dynamic_signing_key: Optional[Point] = None,
) -> Contract:
    """Unordered contract shell: merchant identity fields, no order yet."""
    children: Dict[str, ContractNode] = {
        "pubkey": Leaf(rand_bytes(SALT_BYTES, rng), merchant_pubkey.encode())
    }
    for name, value in static_fields.items():
        _check_name(name)
        if name == "pubkey":
            raise ProtocolError("path collision", "merchant/pubkey is reserved")
        children[name] = Leaf(rand_bytes(SALT_BYTES, rng), _to_value_bytes(value))
    root = Branch(
        rand_bytes(SALT_BYTES, rng),
        {"merchant": Branch(rand_bytes(SALT_BYTES, rng), children)},
    )
    return Contract(root, merchant_pubkey, dynamic_signing_key=dynamic_signing_key)


def build_contract(
    template: Contract,
    order_fields: Mapping[str, Union[bytes, str, int]],
    rng: Optional[Random] = None,
) -> Contract:
    """Fill order fields into a template under ``order/`` with fresh salts.

    Fresh salts randomize the root hash, so distinct orders (even identical
    ones) produce unlinkable payment addresses.
    """
    if "order" in template.root.children:
        raise ProtocolError("path collision", "template already has an order branch")
    leaves: Dict[str, ContractNode] = {}
    for name, value in order_fields.items():
        _check_name(name)
        leaves[name] = Leaf(rand_bytes(SALT_BYTES, rng), _to_value_bytes(value))
    children = dict(template.root.children)
    children["order"] = Branch(rand_bytes(SALT_BYTES, rng), leaves)
    return replace(template, root=Branch(template.root.salt, children))


def with_leaf_value(c: Contract, path: FieldPath, value: Union[bytes, str, int]) -> Contract:
    """Replace one leaf value in place (same salt); changes the root hash."""
    segments = parse_path(path)
    node = resolve(c.root, segments)
    if not isinstance(node, Leaf):
        raise ProtocolError("not a leaf", path_str(segments))
    return replace(c, root=_replace_node(c.root, segments, Leaf(node.salt, _to_value_bytes(value))))


def order_price(c: Contract) -> int:
    """The payable amount in satoshis, read from the ``order/price`` leaf."""
    node = resolve(c.root, "order/price")
    if not isinstance(node, Leaf) or node.encrypted:
        raise ProtocolError("no such field", "order/price not readable")
    return int(node.value.decode())


def contract_to_json(c: Contract) -> dict:
    obj = {
        "root": node_to_json(c.root),
        "merchant_pubkey": c.merchant_pubkey.encode().hex(),
        "static_signatures": {p: s.to_bytes().hex() for p, s in c.static_signatures.items()},
        "dynamic_signatures": {p: s.to_bytes().hex() for p, s in c.dynamic_signatures.items()},
    }
    if c.dynamic_signing_key is not None:
        obj["dynamic_signing_key"] = c.dynamic_signing_key.encode().hex()
    return obj


def contract_from_json(obj: dict) -> Contract:
    root = node_from_json(obj["root"])
    if not isinstance(root, Branch):
        raise ProtocolError("invalid contract", "root must be a branch")
    dyn_key = obj.get("dynamic_signing_key")
    return Contract(
        root,
        Point.decode(bytes.fromhex(obj["merchant_pubkey"])),
        {p: Signature.from_bytes(bytes.fromhex(s)) for p, s in obj["static_signatures"].items()},
        {p: Signature.from_bytes(bytes.fromhex(s)) for p, s in obj.get("dynamic_signatures", {}).items()},
        Point.decode(bytes.fromhex(dyn_key)) if dyn_key else None,
    )


def encode_contract(c: Contract) -> bytes:
    """Canonical contract file bytes (deterministic JSON)."""
    return _canonical_json(contract_to_json(c))


def decode_contract(data: bytes) -> Contract:
    """Contract from file bytes: strict UTF-8 JSON of ``contract_to_json``'s shape."""
    try:
        return contract_from_json(json.loads(data.decode()))
    except MALFORMED as exc:
        raise ProtocolError("invalid contract", str(exc)) from None
