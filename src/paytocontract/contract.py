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

import functools
import re
from dataclasses import dataclass, field, replace
from random import Random
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .curve import G, KeyPair, Point, Scalar, Signature, ecdsa_sign, ecdsa_verify, rand_bytes, sha256
from .errors import MALFORMED, MAX_AMOUNT, ProtocolError, _bytes_from_hex, _dump_line, _load_json
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


def check_name(name: str):
    if not name or "/" in name or len(name.encode()) > 0xFFFF:
        raise ValueError(f"bad field name {name!r}")


@dataclass(frozen=True)
class Leaf:
    """A field value.  ``digest`` is its salted Merkle digest, hashed once at
    construction behind a domain byte that commits to ``encrypted``: 0x00 for a
    plain leaf, 0x02 for an encrypted one (0x01 is a branch's)."""

    salt: bytes
    value: bytes
    encrypted: bool = False
    digest: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_salt(self.salt)
        object.__setattr__(self, "digest", sha256((b"\x02" if self.encrypted else b"\x00") + self.salt + self.value))


@dataclass(frozen=True)
class Branch:
    """Named children in canonical (sorted) order, behind a read-only view so
    that ``digest``, hashed once at construction over the children's own
    digests, cannot go stale.  ``hidden`` is the branch's inventory: the
    ``(kind, path)`` of every redacted node and encrypted leaf below it,
    ``kind`` being ``"redacted"`` or ``"encrypted"`` and ``path`` relative to
    the branch, in preorder over the sorted children."""

    salt: bytes
    children: Mapping[str, "ContractNode"]
    digest: bytes = field(init=False, compare=False, repr=False)
    hidden: Tuple[Tuple[str, str], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_salt(self.salt)
        children = dict(sorted(self.children.items()))
        hidden = ()
        for name, child in children.items():
            check_name(name)
            if not isinstance(child, Leaf) or child.encrypted:  # a plain leaf, the common child, hides nothing
                hidden += _hidden(name, child)
        object.__setattr__(self, "children", MappingProxyType(children))
        object.__setattr__(self, "digest", _branch_digest(self.salt, children))
        object.__setattr__(self, "hidden", hidden)


def _branch_digest(salt: bytes, children: Mapping[str, ContractNode]) -> bytes:
    parts = [b"\x01", salt]
    for name, child in children.items():
        encoded = name.encode()
        parts += (len(encoded).to_bytes(2, "big"), encoded, child.digest)
    return sha256(b"".join(parts))


def _hidden(path: str, node: ContractNode) -> Tuple[Tuple[str, str], ...]:
    """The inventory entries of ``node`` placed at ``path``."""
    if isinstance(node, Leaf):
        return (("encrypted", path),) if node.encrypted else ()
    if isinstance(node, Redacted):
        return (("redacted", path),)
    return tuple((kind, f"{path}/{below}") for kind, below in node.hidden)


@dataclass(frozen=True)
class Redacted:
    digest: bytes

    def __post_init__(self):
        if len(self.digest) != 32:
            raise ValueError("redacted digest must be 32 bytes")


ContractNode = Union[Leaf, Branch, Redacted]


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
    kind = obj.get("kind")
    if kind == "leaf":
        encrypted = obj["encrypted"]
        if type(encrypted) is not bool:  # bool() would read "false" as true
            raise ValueError(f"encrypted must be a JSON boolean, not {encrypted!r}")
        return Leaf(_bytes_from_hex(obj["salt"]), _bytes_from_hex(obj["value"]), encrypted)
    if kind == "branch":
        children = {name: node_from_json(child) for name, child in obj["children"].items()}
        return Branch(_bytes_from_hex(obj["salt"]), children)
    if kind == "redacted":
        return Redacted(_bytes_from_hex(obj["digest"]))
    raise ValueError(f"unknown node kind {kind!r}")


def _walk(root: ContractNode, segments: Tuple[str, ...]) -> List[ContractNode]:
    """The nodes from ``root`` down to the one at ``segments``, root first."""
    nodes = [root]
    for segment in segments:
        node = nodes[-1]
        if not isinstance(node, Branch) or segment not in node.children:
            raise ProtocolError("no such field", path_str(segments))
        nodes.append(node.children[segment])
    return nodes


def resolve(root: ContractNode, path: FieldPath) -> ContractNode:
    return _walk(root, parse_path(path))[-1]


@dataclass(frozen=True)
class Contract:
    """Merkle-tree document naming its merchant key and carrying field signatures.

    Signatures cover ``sha256(path || subtree digest)``, so a signature stays valid
    under any redaction that leaves its subtree intact -- including
    redaction of the signed subtree itself, whose digest is preserved.
    """

    root: Branch
    merchant_pubkey: Point
    static_signatures: Mapping[str, Signature] = field(default_factory=dict)
    dynamic_signatures: Mapping[str, Signature] = field(default_factory=dict)
    dynamic_signing_key: Optional[Point] = None

    def __post_init__(self):
        node = self.root
        for segment in parse_path(MERCHANT_PUBKEY_PATH):
            if isinstance(node, Redacted):
                break
            if not isinstance(node, Branch) or segment not in node.children:
                raise ProtocolError("invalid contract", "merchant pubkey field missing")
            node = node.children[segment]
        # a pubkey field that is redacted, or under a redacted ancestor, stays
        # committed; check only when visible
        if isinstance(node, Leaf) and node.value != self.merchant_pubkey.encode():
            raise ProtocolError("invalid contract", "merchant pubkey mismatch")


def contract_hash(c: Contract) -> bytes:
    """Root digest; invariant under any redaction."""
    return c.root.digest


def _edit(c: Contract, path: FieldPath, change: Callable[[ContractNode, str], ContractNode]) -> Contract:
    """Put ``change(node, path)`` in place of the node at ``path``, rebuilding
    each branch above it with its own salt."""
    segments = parse_path(path)
    nodes = _walk(c.root, segments)
    node = change(nodes.pop(), path_str(segments))
    for segment, branch in zip(reversed(segments), reversed(nodes)):
        node = _with_child(branch, segment, node)
    return replace(c, root=node)


def _with_child(branch: Branch, name: str, child: ContractNode) -> Branch:
    """``branch`` with ``child`` in place of its child ``name``.  The other
    children were checked when ``branch`` was built, so they are not checked
    again; a ``child`` with the old one's digest (a redaction) keeps
    ``branch``'s digest, and the inventory changes in ``name``'s entries only."""
    children = branch.children.copy()
    old = children[name]
    children[name] = child
    new = object.__new__(Branch)
    object.__setattr__(new, "salt", branch.salt)
    object.__setattr__(new, "children", MappingProxyType(children))
    object.__setattr__(new, "digest", branch.digest if child.digest == old.digest
                       else _branch_digest(branch.salt, children))
    # each child's entries are contiguous, in name order
    before = tuple(e for e in branch.hidden if e[1].partition("/")[0] < name)
    after = tuple(e for e in branch.hidden if e[1].partition("/")[0] > name)
    object.__setattr__(new, "hidden", before + _hidden(name, child) + after)
    return new


def _leaf(node: ContractNode, where: str) -> Leaf:
    if not isinstance(node, Leaf):
        raise ProtocolError("not a leaf", where)
    return node


def redact(c: Contract, path: FieldPath) -> Contract:
    """Replace the subtree at ``path`` by its digest, leaving the hash intact."""
    def hide(node: ContractNode, where: str) -> Redacted:
        if isinstance(node, Redacted):
            raise ProtocolError("already redacted", where)
        return Redacted(node.digest)
    return _edit(c, path, hide)


def _leaf_key(shared: Point) -> bytes:
    """Sealing key of an encrypted leaf: the hash of the Diffie-Hellman point's x."""
    return sha256(shared.x.to_bytes(32, "big"))


def encrypt_leaf(c: Contract, path: FieldPath, recipient_pub: Point, rng: Optional[Random] = None) -> Contract:
    """Encrypt a leaf value to ``recipient_pub``.

    The tree then commits to the ciphertext, so this must happen before the
    contract is signed over or paid; it changes the root hash.
    """
    def encrypt(node: ContractNode, where: str) -> Leaf:
        if _leaf(node, where).encrypted:
            raise ProtocolError("already encrypted", where)
        ephemeral = KeyPair.generate(rng)
        key = _leaf_key(recipient_pub ** ephemeral.private)
        return Leaf(node.salt, ephemeral.public.encode() + seal(key, node.value, rng), encrypted=True)
    return _edit(c, path, encrypt)


def decrypt_leaf(c: Contract, path: FieldPath, recipient_priv: Scalar) -> bytes:
    """Recover the cleartext of an encrypted leaf."""
    node = resolve(c.root, path)
    if not isinstance(node, Leaf) or not node.encrypted:
        raise ProtocolError("not an encrypted leaf", path_str(parse_path(path)))
    key = _leaf_key(Point.decode(node.value[:33]) ** recipient_priv)
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
        digest = resolve(c.root, segments).digest
        signatures[path_str(segments)] = ecdsa_sign(key, sha256(_signature_message(segments, digest)))
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


# The three memos below are LRU caches of successes: a failure raises, and
# ``functools.lru_cache`` keeps no exception.  Each calls the function it
# memoizes through the module's binding when it runs, so a wrapper put there
# sees every miss.
#
# A shop's template carries the same static signatures into every order, so
# the customer's and the auditor's checks repeat them (Bitcoin Core's signature
# cache exists for the same reason).  The key is the exact triple, and the
# message is hashed only on a miss.
@functools.lru_cache(maxsize=256)
def _verified(pub: Point, message: bytes, sig: Signature) -> None:
    """Return if ``sig`` is valid on SHA-256(message) under ``pub``, else raise ``ValueError``."""
    if not ecdsa_verify(pub, sha256(message), sig):
        raise ValueError("invalid signature")


def _check_signatures(root: Branch, sigs: Mapping[str, Signature], pub: Optional[Point]) -> Dict[str, str]:
    results = {}
    for path, sig in sigs.items():
        if pub is None:
            results[path] = "invalid"
            continue
        segments = parse_path(path)
        try:
            digest = resolve(root, segments).digest
        except ProtocolError:
            # subtree hidden inside a redacted ancestor; nothing to check
            results[path] = "unverifiable"
            continue
        try:
            _verified(pub, _signature_message(segments, digest), sig)
        except ValueError:
            results[path] = "invalid"
        else:
            results[path] = "valid"
    return results


def verify_contract(c: Contract) -> ContractReport:
    """Check all present signatures, and list the redacted and encrypted
    fields from the root's inventory."""
    static = _check_signatures(c.root, c.static_signatures, c.merchant_pubkey)
    dynamic = _check_signatures(c.root, c.dynamic_signatures, c.dynamic_signing_key)
    # ``Contract`` also admits a wholly redacted root, which is its own inventory
    hidden = c.root.hidden if isinstance(c.root, Branch) else _hidden("", c.root)
    redacted = tuple(path for kind, path in hidden if kind == "redacted")
    encrypted = tuple(path for kind, path in hidden if kind == "encrypted")
    warnings = []
    if not c.static_signatures:
        warnings.append("no static signatures")
    if c.dynamic_signatures and c.dynamic_signing_key is None:
        warnings.append("dynamic signatures without a signing key")
    ok = all(v != "invalid" for v in static.values()) and all(
        v != "invalid" for v in dynamic.values()
    )
    return ContractReport(ok, static, dynamic, redacted, encrypted, tuple(warnings))


# The customer's payment, the merchant's detection and every receipt check of
# one order ask for the same address, and redaction keeps the hash, so only the
# first of them pays for the fixed-base multiply.
@functools.lru_cache(maxsize=256)
def _address(merchant_pubkey: Point, label: bytes) -> Address:
    return derive_address(merchant_pubkey, label)


def payment_address(c: Contract) -> Address:
    """The address the contract itself determines: derived from (P, root hash)."""
    return _address(c.merchant_pubkey, contract_hash(c))


def payment_private_key(c: Contract, merchant_priv: Scalar) -> Scalar:
    """Spending key for the payment address; needs the merchant's private base."""
    return derive_private(merchant_priv, contract_hash(c))


def _to_value_bytes(value) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, int) and not isinstance(value, bool):
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
        check_name(name)
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
        check_name(name)
        leaves[name] = Leaf(rand_bytes(SALT_BYTES, rng), _to_value_bytes(value))
    children = dict(template.root.children)
    children["order"] = Branch(rand_bytes(SALT_BYTES, rng), leaves)
    return replace(template, root=Branch(template.root.salt, children))


def with_leaf_value(c: Contract, path: FieldPath, value: Union[bytes, str, int]) -> Contract:
    """Replace one leaf value in place (same salt); changes the root hash."""
    return _edit(c, path, lambda node, where: Leaf(_leaf(node, where).salt, _to_value_bytes(value)))


# at most the 20 digits of MAX_AMOUNT, which also keeps int() within its digit limit
_PRICE = re.compile(rb"0|[1-9][0-9]{0,19}")


def order_price(c: Contract) -> int:
    """The payable amount in satoshis, read from the ``order/price`` leaf.

    A hidden price (missing, redacted or encrypted) is ``no such field``; a
    price that is not a canonical decimal of at most ``MAX_AMOUNT`` is
    ``invalid price``.
    """
    node = resolve(c.root, "order/price")
    if not isinstance(node, Leaf) or node.encrypted:
        raise ProtocolError("no such field", "order/price not readable")
    if not _PRICE.fullmatch(node.value) or int(node.value) > MAX_AMOUNT:
        raise ProtocolError("invalid price", repr(node.value))
    return int(node.value)


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


def _signatures_from_json(obj: dict) -> Dict[str, Signature]:
    """A signature map read from a file.  Each path is parsed here, so a key
    that is no field path (empty, or with an empty segment) makes the file
    malformed; ``Contract`` does not check, so contracts built in memory pay
    nothing for it."""
    sigs = {}
    for path, sig in obj.items():
        parse_path(path)
        sigs[path] = Signature.from_bytes(_bytes_from_hex(sig))
    return sigs


# A merchant reads many contracts that carry its own key, and the decode's
# square root costs several times the rest of the read.
@functools.lru_cache(maxsize=16)
def _decode_key(text: str) -> Point:
    """``Point.decode`` of a contract key's hex."""
    return Point.decode(_bytes_from_hex(text))


def contract_from_json(obj: dict) -> Contract:
    root = node_from_json(obj["root"])
    if not isinstance(root, Branch):
        raise ProtocolError("invalid contract", "root must be a branch")
    dyn_key = obj.get("dynamic_signing_key")
    return Contract(
        root,
        _decode_key(obj["merchant_pubkey"]),
        _signatures_from_json(obj["static_signatures"]),
        _signatures_from_json(obj.get("dynamic_signatures", {})),
        _decode_key(dyn_key) if dyn_key else None,
    )


def encode_contract(c: Contract) -> bytes:
    """Canonical contract file bytes (deterministic JSON)."""
    return _dump_line(contract_to_json(c))


def decode_contract(data: bytes) -> Contract:
    """Contract from file bytes: strict UTF-8 JSON of ``contract_to_json``'s shape."""
    try:
        return contract_from_json(_load_json(data))
    except MALFORMED as exc:
        raise ProtocolError("invalid contract", str(exc)) from None
