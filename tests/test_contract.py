import dataclasses
import hashlib
import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from paytocontract import contract, curve
from paytocontract.chain import MAX_AMOUNT
from paytocontract.contract import (
    SALT_BYTES,
    Branch,
    Contract,
    Leaf,
    Redacted,
    build_contract,
    build_template,
    contract_hash,
    contract_to_json,
    decode_contract,
    decrypt_leaf,
    encode_contract,
    encrypt_leaf,
    node_from_json,
    node_to_json,
    order_price,
    payment_address,
    payment_private_key,
    redact,
    resolve,
    sign_fields,
    verify_contract,
    with_leaf_value,
)
from paytocontract.curve import G, KeyPair, Point, Scalar, Signature, ecdsa_sign, hash160, random_scalar, sha256
from paytocontract.errors import ProtocolError, _dump_line, _load_json
from paytocontract.wallet import derive_address, derive_public

# frozen at first implementation: canonical bytes of a leaf holding "42"
# under a fixed all-0xab salt
LEAF_42_CANONICAL = (
    b'{"encrypted":false,"kind":"leaf",'
    b'"salt":"abababababababababababababababab","value":"3432"}'
)


def _salt(i: int = 0) -> bytes:
    return bytes([i % 256]) * 16


def _random_tree(rng: Random, depth: int = 2) -> Branch:
    children = {}
    for i in range(rng.randrange(1, 4)):
        name = f"f{i}"
        if depth > 0 and rng.random() < 0.5:
            children[name] = _random_tree(rng, depth - 1)
        else:
            children[name] = Leaf(rng.randbytes(16), rng.randbytes(rng.randrange(0, 24)))
    return Branch(rng.randbytes(16), children)


def _sample_contract(rng: Random, merchant: KeyPair):
    template = build_template(
        merchant.public,
        {"terms": "ships in 14 days", "pricelist": "widget=90000"},
        rng,
    )
    template = sign_fields(
        template, merchant.private, ["merchant/pubkey", "merchant/terms", "merchant/pricelist"]
    )
    return build_contract(
        template,
        {"item": "widget", "quantity": "2", "price": 90000, "delivery_address": "1 Pier Rd"},
        rng,
    )


def _reference_digest(node) -> bytes:
    """The salted Merkle digest from scratch: SHA-256 of a domain byte (0x00 a
    plain leaf, 0x01 a branch, 0x02 an encrypted leaf) and the salt, then the
    value (leaf) or each child's 2-byte name length, name and digest in name
    order (branch)."""
    if isinstance(node, Redacted):
        return node.digest
    if isinstance(node, Leaf):
        return hashlib.sha256((b"\x02" if node.encrypted else b"\x00") + node.salt + node.value).digest()
    h = hashlib.sha256(b"\x01" + node.salt)
    for name in sorted(node.children):
        encoded = name.encode()
        h.update(len(encoded).to_bytes(2, "big") + encoded + _reference_digest(node.children[name]))
    return h.digest()


def _reference_hidden(branch, prefix: str = "") -> list:
    """The (kind, path) of every redacted node and encrypted leaf below
    ``branch``, walked from scratch in preorder over the sorted names."""
    entries = []
    for name in sorted(branch.children):
        child, path = branch.children[name], prefix + name
        if isinstance(child, Redacted):
            entries.append(("redacted", path))
        elif isinstance(child, Branch):
            entries += _reference_hidden(child, path + "/")
        elif child.encrypted:
            entries.append(("encrypted", path))
    return entries


def _assert_fresh(node):
    """Every digest and every branch's inventory below ``node`` equals one
    computed from scratch."""
    assert node.digest == _reference_digest(node)
    if isinstance(node, Branch):
        assert list(node.hidden) == _reference_hidden(node)
        for child in node.children.values():
            _assert_fresh(child)


def _canonical(node) -> bytes:
    """The canonical node encoding: the JSON of ``node_to_json`` with sorted
    keys and no whitespace, as contract files hold it."""
    return _dump_line(node_to_json(node))


class TestCanonicalEncoding:
    def test_leaf_regression_vector(self):
        assert _canonical(Leaf(_salt(0xAB), b"42")) == LEAF_42_CANONICAL

    def test_round_trip_random_trees(self):
        rng = Random(31)
        for _ in range(50):
            tree = _random_tree(rng)
            encoded = _canonical(tree)
            assert _canonical(node_from_json(_load_json(encoded))) == encoded

    def test_child_insertion_order_irrelevant(self):
        a = Branch(_salt(), {"x": Leaf(_salt(1), b"1"), "y": Leaf(_salt(2), b"2")})
        b = Branch(_salt(), {"y": Leaf(_salt(2), b"2"), "x": Leaf(_salt(1), b"1")})
        assert _canonical(a) == _canonical(b)
        assert a.digest == b.digest

    def test_salt_length_enforced(self):
        with pytest.raises(ValueError):
            Leaf(b"short", b"v")

    def test_slash_in_field_name_rejected(self):
        with pytest.raises(ValueError):
            Branch(_salt(), {"a/b": Leaf(_salt(), b"")})


class TestNodeDigest:
    def test_redacted_digest_passthrough(self):
        d = hashlib.sha256(b"anything").digest()
        assert Redacted(d).digest == d

    def test_branch_digest_stable_under_child_redaction(self):
        rng = Random(32)
        for _ in range(20):
            tree = _random_tree(rng)
            name = next(iter(tree.children))
            swapped = Branch(
                tree.salt,
                {**tree.children, name: Redacted(tree.children[name].digest)},
            )
            assert swapped.digest == tree.digest

    def test_same_value_different_salts_differ(self):
        assert Leaf(_salt(1), b"v").digest != Leaf(_salt(2), b"v").digest

    def test_leaf_branch_domain_separation(self):
        # a leaf can never collide with a branch even on equal preimage tails
        leaf = Leaf(_salt(), b"")
        branch = Branch(_salt(), {})
        assert leaf.digest != branch.digest


    def test_every_stored_digest_equals_a_from_scratch_hash(self):
        rng = Random(170)
        for _ in range(30):
            _assert_fresh(_random_tree(rng, depth=3))
        merchant, reader = KeyPair.generate(rng), KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        for changed in (c, redact(c, "order/delivery_address"), redact(c, "merchant"),
                        encrypt_leaf(c, "order/item", reader.public, rng),
                        with_leaf_value(c, "order/quantity", "3"),
                        decode_contract(encode_contract(redact(c, "order/price")))):
            _assert_fresh(changed.root)
        leaf = resolve(c.root, "order/item")
        _assert_fresh(dataclasses.replace(leaf, value=b"lamp"))

    def test_equal_nodes_compare_equal_and_children_are_read_only(self):
        rng = Random(171)
        tree = _random_tree(rng, depth=3)
        again = node_from_json(_load_json(_canonical(tree)))
        assert again == tree and again is not tree and again.digest == tree.digest
        assert Leaf(_salt(1), b"v") == Leaf(_salt(1), b"v") != Leaf(_salt(1), b"w")
        name = next(iter(tree.children))
        with pytest.raises(TypeError):
            tree.children[name] = Leaf(_salt(), b"")
        with pytest.raises(TypeError):
            del tree.children[name]
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.digest = bytes(32)


class TestRedaction:
    def test_hash_and_address_invariant(self):
        rng = Random(33)
        merchant = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        before_hash = contract_hash(c)
        before_addr = payment_address(c)
        redacted = redact(c, "order/delivery_address")
        assert contract_hash(redacted) == before_hash
        assert payment_address(redacted) == before_addr
        # the original contract is untouched
        assert isinstance(resolve(c.root, "order/delivery_address"), Leaf)

    def test_redacted_field_unreadable(self):
        rng = Random(34)
        c = _sample_contract(rng, KeyPair.generate(rng))
        redacted = redact(c, "order/delivery_address")
        node = resolve(redacted.root, "order/delivery_address")
        assert isinstance(node, Redacted)
        with pytest.raises(ProtocolError, match="no such field"):
            resolve(redacted.root, "order/delivery_address/street")

    def test_double_redaction_rejected(self):
        rng = Random(35)
        c = _sample_contract(rng, KeyPair.generate(rng))
        once = redact(c, "order")
        with pytest.raises(ProtocolError, match="already redacted"):
            redact(once, "order")

    def test_redacting_the_merchant_branch_keeps_the_contract(self):
        # the pubkey field stays committed under its redacted ancestor
        rng = Random(38)
        c = _sample_contract(rng, KeyPair.generate(rng))
        redacted = redact(c, "merchant")
        assert contract_hash(redacted) == contract_hash(c)
        assert payment_address(redacted) == payment_address(c)
        assert decode_contract(encode_contract(redacted)) == redacted
        report = verify_contract(redacted)
        assert report.static == dict.fromkeys(["merchant/pubkey", "merchant/terms", "merchant/pricelist"],
                                              "unverifiable")
        assert report.ok and report.redacted_paths == ("merchant",)

    def test_a_wholly_redacted_root_is_one_redacted_path(self):
        rng = Random(40)
        c = _sample_contract(rng, KeyPair.generate(rng))
        hidden = Contract(Redacted(c.root.digest), c.merchant_pubkey, c.static_signatures)
        assert contract_hash(hidden) == contract_hash(c) and payment_address(hidden) == payment_address(c)
        report = verify_contract(hidden)
        assert report.ok and set(report.static.values()) == {"unverifiable"}
        assert (report.redacted_paths, report.encrypted_paths) == (("",), ())

    def test_merchant_pubkey_still_required_when_nothing_is_redacted(self):
        rng = Random(39)
        c = _sample_contract(rng, KeyPair.generate(rng))
        merchant = resolve(c.root, "merchant")
        without = Branch(merchant.salt, {k: v for k, v in merchant.children.items() if k != "pubkey"})
        with pytest.raises(ProtocolError, match="merchant pubkey field missing"):
            dataclasses.replace(c, root=Branch(c.root.salt, {**c.root.children, "merchant": without}))
        with pytest.raises(ProtocolError, match="merchant pubkey field missing"):
            dataclasses.replace(c, root=Branch(c.root.salt, {**c.root.children, "merchant": Leaf(_salt(), b"")}))

    def test_unknown_path_rejected(self):
        rng = Random(36)
        c = _sample_contract(rng, KeyPair.generate(rng))
        with pytest.raises(ProtocolError, match="no such field"):
            redact(c, "order/tracking_number")

    def test_mutation_changes_hash(self):
        rng = Random(37)
        c = _sample_contract(rng, KeyPair.generate(rng))
        changed = with_leaf_value(c, "order/quantity", "3")
        assert contract_hash(changed) != contract_hash(c)


class TestLeafEncryption:
    def test_encrypt_decrypt_round_trip(self):
        rng = Random(38)
        merchant = KeyPair.generate(rng)
        auditor = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        sealed = encrypt_leaf(c, "order/delivery_address", auditor.public, rng)
        assert decrypt_leaf(sealed, "order/delivery_address", auditor.private) == b"1 Pier Rd"

    def test_digest_commits_to_ciphertext(self):
        rng = Random(39)
        merchant = KeyPair.generate(rng)
        auditor = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        sealed = encrypt_leaf(c, "order/delivery_address", auditor.public, rng)
        node = resolve(sealed.root, "order/delivery_address")
        assert node.encrypted
        expected = hashlib.sha256(b"\x02" + node.salt + node.value).digest()
        assert node.digest == expected
        # encryption changed the root hash: it must precede signing/payment
        assert contract_hash(sealed) != contract_hash(c)

    def test_wrong_key_fails_authentication(self):
        rng = Random(40)
        merchant = KeyPair.generate(rng)
        auditor = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        sealed = encrypt_leaf(c, "order/delivery_address", auditor.public, rng)
        with pytest.raises(ProtocolError, match="authentication failure"):
            decrypt_leaf(sealed, "order/delivery_address", merchant.private)

    def test_double_encryption_rejected(self):
        rng = Random(41)
        merchant = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        sealed = encrypt_leaf(c, "order/item", merchant.public, rng)
        with pytest.raises(ProtocolError, match="already encrypted"):
            encrypt_leaf(sealed, "order/item", merchant.public, rng)

    @pytest.mark.parametrize("path", ["order/item", "order"], ids=["plain-leaf", "branch"])
    def test_only_an_encrypted_leaf_decrypts(self, path):
        rng = Random(43)
        merchant = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        with pytest.raises(ProtocolError) as exc:
            decrypt_leaf(c, path, merchant.private)
        assert (exc.value.code, str(exc.value)) == ("not-an-encrypted-leaf", f"not an encrypted leaf: {path}")

    def test_branch_not_encryptable(self):
        rng = Random(42)
        c = _sample_contract(rng, KeyPair.generate(rng))
        with pytest.raises(ProtocolError, match="not a leaf"):
            encrypt_leaf(c, "order", KeyPair.generate(rng).public, rng)


class TestSignatures:
    def test_sign_then_verify(self):
        rng = Random(43)
        c = _sample_contract(rng, KeyPair.generate(rng))
        assert verify_contract(c).ok

    def test_signatures_survive_unrelated_redaction(self):
        rng = Random(44)
        c = _sample_contract(rng, KeyPair.generate(rng))
        redacted = redact(c, "order/delivery_address")
        report = verify_contract(redacted)
        assert report.ok
        assert all(v == "valid" for v in report.static.values())
        assert "order/delivery_address" in report.redacted_paths

    def test_signature_survives_redaction_of_signed_subtree(self):
        # the redacted node carries exactly the digest the signature covers
        rng = Random(45)
        c = _sample_contract(rng, KeyPair.generate(rng))
        redacted = redact(c, "merchant/terms")
        assert verify_contract(redacted).static["merchant/terms"] == "valid"

    def test_tampered_leaf_fails_naming_path(self):
        rng = Random(46)
        c = _sample_contract(rng, KeyPair.generate(rng))
        tampered = with_leaf_value(c, "merchant/terms", "no warranty at all")
        report = verify_contract(tampered)
        assert not report.ok
        assert report.static["merchant/terms"] == "invalid"

    def test_unsigned_contract_is_structurally_valid(self):
        rng = Random(47)
        merchant = KeyPair.generate(rng)
        template = build_template(merchant.public, {"terms": "t"}, rng)
        c = build_contract(template, {"price": 5}, rng)
        report = verify_contract(c)
        assert report.ok
        assert "no static signatures" in report.warnings

    def test_dynamic_key_routing(self):
        rng = Random(48)
        merchant = KeyPair.generate(rng)
        tracker = KeyPair.generate(rng)
        template = build_template(merchant.public, {"terms": "t"}, rng,
                                  dynamic_signing_key=tracker.public)
        c = build_contract(template, {"price": 5, "tracking": "TK123"}, rng)
        c = sign_fields(c, merchant.private, ["merchant"])
        c = sign_fields(c, tracker.private, ["order/tracking"])
        assert set(c.static_signatures) == {"merchant"}
        assert set(c.dynamic_signatures) == {"order/tracking"}
        assert verify_contract(c).ok

    def test_signature_inside_redacted_ancestor_unverifiable(self):
        rng = Random(58)
        merchant = KeyPair.generate(rng)
        c = sign_fields(_sample_contract(rng, merchant), merchant.private, ["order/item"])
        report = verify_contract(redact(c, "order"))
        assert report.static["order/item"] == "unverifiable"
        assert report.static["merchant/terms"] == "valid"
        assert report.ok

    def test_dynamic_signatures_without_signing_key_invalid(self):
        rng = Random(59)
        merchant, tracker = KeyPair.generate(rng), KeyPair.generate(rng)
        template = build_template(merchant.public, {"terms": "t"}, rng, dynamic_signing_key=tracker.public)
        c = build_contract(template, {"tracking": "TK1"}, rng)
        c = sign_fields(c, tracker.private, ["order/tracking"])
        report = verify_contract(dataclasses.replace(c, dynamic_signing_key=None))
        assert report.dynamic == {"order/tracking": "invalid"}
        assert not report.ok
        assert "dynamic signatures without a signing key" in report.warnings

    def test_unknown_signing_key_rejected(self):
        rng = Random(49)
        c = _sample_contract(rng, KeyPair.generate(rng))
        with pytest.raises(ProtocolError, match="unknown signing key"):
            sign_fields(c, random_scalar(rng), ["merchant"])


class TestPaymentBinding:
    def test_address_composition(self):
        rng = Random(50)
        merchant = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        assert payment_address(c) == derive_address(merchant.public, contract_hash(c))

    def test_merchant_derived_key_matches_address(self):
        rng = Random(51)
        merchant = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        priv = payment_private_key(c, merchant.private)
        assert hash160((G ** priv).encode()) == payment_address(c).digest
        assert G ** priv == derive_public(merchant.public, contract_hash(c))

    def test_address_invariant_under_redaction(self):
        rng = Random(52)
        merchant = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        assert payment_address(redact(c, "order")) == payment_address(c)


class TestBuild:
    @pytest.mark.parametrize("value", [1.5, None, ["a"], True, False])
    def test_a_field_value_is_bytes_text_or_an_integer(self, value):
        template = build_template(G ** Scalar(1), {}, Random(1))
        c = build_contract(template, {"a": b"\x00", "b": "\u00e9", "c": 12}, Random(2))
        assert [resolve(c.root, f"order/{name}").value for name in "abc"] == [b"\x00", "\u00e9".encode(), b"12"]
        with pytest.raises(ValueError, match="unsupported field value"):
            build_contract(template, {"a": value}, Random(2))

    def test_fresh_salts_unlink_identical_orders(self):
        rng = Random(53)
        merchant = KeyPair.generate(rng)
        template = build_template(merchant.public, {"terms": "t"}, rng)
        fields = {"item": "w", "price": 10}
        a = build_contract(template, fields, rng)
        b = build_contract(template, fields, rng)
        assert contract_hash(a) != contract_hash(b)
        assert payment_address(a) != payment_address(b)

    def test_deterministic_salt_seed_reproduces(self):
        merchant = KeyPair(Scalar(64))
        def make():
            rng = Random(99)
            template = build_template(merchant.public, {"terms": "t"}, rng)
            return build_contract(template, {"item": "w", "price": 10}, rng)
        assert contract_hash(make()) == contract_hash(make())
        assert encode_contract(make()) == encode_contract(make())

    def test_template_signatures_carry_into_contract(self):
        rng = Random(54)
        merchant = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        assert verify_contract(c).ok
        assert set(c.static_signatures) == {"merchant/pubkey", "merchant/terms", "merchant/pricelist"}

    def test_order_collision_rejected(self):
        rng = Random(55)
        merchant = KeyPair.generate(rng)
        template = build_template(merchant.public, {}, rng)
        c = build_contract(template, {"price": 5}, rng)
        with pytest.raises(ProtocolError, match="path collision"):
            build_contract(c, {"price": 6}, rng)

    def test_price_parsing(self):
        rng = Random(56)
        c = _sample_contract(rng, KeyPair.generate(rng))
        assert order_price(c) == 90000
        assert order_price(with_leaf_value(c, "order/price", "0")) == 0
        assert order_price(with_leaf_value(c, "order/price", str(MAX_AMOUNT))) == MAX_AMOUNT

    @pytest.mark.parametrize("value", [
        b"-5", b"+90000", b"9_0000", b" 90000 ", b"abc", b"", b"00", b"090000", b"90000\n",
        "\u0663".encode(), b"\xff", str(MAX_AMOUNT + 1).encode(), str(10 ** 20).encode(), b"1" * 5000])
    def test_non_canonical_price_rejected(self, value):
        rng = Random(56)
        c = with_leaf_value(_sample_contract(rng, KeyPair.generate(rng)), "order/price", value)
        with pytest.raises(ProtocolError) as exc:
            order_price(c)
        assert exc.value.code == "invalid-price"

    def test_missing_merchant_pubkey_rejected(self):
        with pytest.raises(ProtocolError, match="invalid contract"):
            Contract(Branch(_salt(), {"order": Leaf(_salt(), b"")}), G)

    def test_pubkey_field_mismatch_rejected(self):
        tree = Branch(_salt(), {"merchant": Branch(_salt(1), {"pubkey": Leaf(_salt(2), b"junk")})})
        with pytest.raises(ProtocolError, match="invalid contract"):
            Contract(tree, G)


class TestContractCodec:
    def test_file_round_trip_canonical(self):
        rng = Random(57)
        merchant = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        encoded = encode_contract(c)
        again = decode_contract(encoded)
        assert encode_contract(again) == encoded
        assert contract_hash(again) == contract_hash(c)
        assert verify_contract(again).ok

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="invalid contract"):
            decode_contract(b"{not json")

    @pytest.mark.parametrize("root", [
        [],
        {"kind": "branch", "salt": "00" * SALT_BYTES, "children": {"item": []}},
        {"kind": "branch", "salt": "00" * SALT_BYTES, "children": []},
        "branch",
        None,
    ])
    def test_non_object_node_rejected(self, root):
        with pytest.raises(ProtocolError) as exc:
            decode_contract(json.dumps({"root": root}).encode())
        assert exc.value.code == "invalid-contract"

    @pytest.mark.parametrize("bucket", ["static_signatures", "dynamic_signatures"])
    @pytest.mark.parametrize("path", ["", "a//b", "/x"])
    def test_signature_path_that_is_no_field_path_rejected(self, bucket, path):
        rng = Random(58)
        obj = contract_to_json(_sample_contract(rng, KeyPair.generate(rng)))
        obj[bucket][path] = obj["static_signatures"]["merchant/terms"]
        with pytest.raises(ProtocolError) as exc:
            decode_contract(json.dumps(obj).encode())
        assert exc.value.code == "invalid-contract" and repr(path) in str(exc.value)

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [], {}])
    def test_the_encrypted_flag_is_a_json_boolean(self, flag):
        # ``bool("false")`` is true, which would read a plain price as encrypted
        rng = Random(59)
        obj = contract_to_json(_sample_contract(rng, KeyPair.generate(rng)))
        price = obj["root"]["children"]["order"]["children"]["price"]
        for genuine in (False, True):
            price["encrypted"] = genuine
            report = verify_contract(decode_contract(json.dumps(obj).encode()))
            assert report.ok and report.encrypted_paths == (("order/price",) if genuine else ())
        price["encrypted"] = flag
        with pytest.raises(ProtocolError) as exc:
            decode_contract(json.dumps(obj).encode())
        assert exc.value.code == "invalid-contract" and "JSON boolean" in str(exc.value)


class TestProperties:
    def test_redaction_invariance_over_random_subsets(self):
        rng = Random(58)
        for _ in range(30):
            merchant = KeyPair.generate(rng)
            c = _sample_contract(rng, merchant)
            reference_hash = contract_hash(c)
            reference_addr = payment_address(c)
            candidates = ["order/item", "order/quantity", "order/delivery_address",
                          "merchant/terms", "merchant/pricelist", "order"]
            chosen = [p for p in candidates if rng.random() < 0.4]
            current = c
            for path in chosen:
                try:
                    current = redact(current, path)
                except ProtocolError:
                    pass  # parent already redacted
            assert contract_hash(current) == reference_hash
            assert payment_address(current) == reference_addr

    def test_any_single_bit_mutation_changes_hash(self):
        rng = Random(59)
        merchant = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        baseline = contract_hash(c)
        for path in ("order/item", "order/quantity", "order/price", "merchant/terms"):
            node = resolve(c.root, path)
            flipped = bytearray(node.value)
            flipped[0] ^= 1
            assert contract_hash(with_leaf_value(c, path, bytes(flipped))) != baseline


# field names that sort apart from their prefixes and past ASCII
NAMES = st.sampled_from(["a", "a0", "ab", "b", "é"])
SALTS = st.binary(min_size=SALT_BYTES, max_size=SALT_BYTES)
NODES = st.recursive(
    st.builds(Leaf, SALTS, st.binary(max_size=6), st.booleans())
    | st.builds(Redacted, st.binary(min_size=32, max_size=32)),
    lambda children: st.builds(Branch, SALTS, st.dictionaries(NAMES, children, max_size=3)),
    max_leaves=10,
)
EDITOR = KeyPair(Scalar(0xE))  # the merchant of every generated contract, and a reader


@st.composite
def _contracts(draw) -> Contract:
    """A contract with nested branches, encrypted leaves and redacted nodes
    beside (and inside) its ``merchant`` branch."""
    merchant = dict(draw(st.dictionaries(NAMES, NODES, max_size=3)), pubkey=Leaf(draw(SALTS), EDITOR.public.encode()))
    root = dict(draw(st.dictionaries(NAMES, NODES, max_size=3)), merchant=Branch(draw(SALTS), merchant))
    return Contract(Branch(draw(SALTS), root), EDITOR.public)


def _paths(node, prefix=()):
    """The path of every node below ``node``, with the node."""
    for name, child in node.children.items():
        yield prefix + (name,), child
        if isinstance(child, Branch):
            yield from _paths(child, prefix + (name,))


PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=60)


class TestEditProperties:
    """Edits rebuild only the branches on the edited path, from the old
    branches' children and inventories; whatever the tree, the result is the
    tree built from scratch."""

    @staticmethod
    def _check(c: Contract):
        _assert_fresh(c.root)
        report = verify_contract(c)
        expected = _reference_hidden(c.root)
        assert report.redacted_paths == tuple(path for kind, path in expected if kind == "redacted")
        assert report.encrypted_paths == tuple(path for kind, path in expected if kind == "encrypted")

    @PROPERTIES
    @given(_contracts(), st.randoms(use_true_random=False))
    def test_redacting_any_paths_keeps_the_hash_and_the_address(self, c, rng):
        self._check(c)
        paths = [segments for segments, node in _paths(c.root) if not isinstance(node, Redacted)]
        receipts = [redact(c, segments) for segments in paths]
        # then one after another, so later edits start from rebuilt branches
        current = c
        for segments in rng.sample(paths, len(paths)):
            try:
                current = redact(current, segments)
            except ProtocolError:
                continue  # under a redacted ancestor by now
            receipts.append(current)
        for receipt in receipts:
            assert contract_hash(receipt) == contract_hash(c)
            assert payment_address(receipt) == payment_address(c)
            self._check(receipt)

    @PROPERTIES
    @given(_contracts(), st.data())
    def test_changing_or_encrypting_any_leaf_rehashes_the_path(self, c, data):
        # the merchant pubkey field must keep the key's encoding, so it stays as it is
        leaves = [segments for segments, node in _paths(c.root)
                  if isinstance(node, Leaf) and segments != ("merchant", "pubkey")]
        for segments in leaves:
            changed = with_leaf_value(c, segments, b"changed")
            self._check(changed)
            assert resolve(changed.root, segments).value == b"changed"
        plain = [segments for segments in leaves if not resolve(c.root, segments).encrypted]
        if plain:
            segments = data.draw(st.sampled_from(plain))
            sealed = encrypt_leaf(c, segments, EDITOR.public, Random(0))
            self._check(sealed)
            assert decrypt_leaf(sealed, segments, EDITOR.private) == resolve(c.root, segments).value


def _flip(data: bytes, bit: int) -> bytes:
    flipped = bytearray(data)
    flipped[bit // 8] ^= 0x80 >> bit % 8
    return bytes(flipped)


def _decodes(encoding: bytes) -> bool:
    try:
        Point.decode(encoding)
    except ProtocolError:
        return False
    return True


def _valid(pub, message, sig) -> bool:
    """Whether ``contract._verified`` accepts the triple: it returns on a valid one and raises on any other."""
    try:
        contract._verified(pub, message, sig)
    except ValueError:
        return False
    return True


@pytest.fixture
def fresh_memos():
    """The three memos emptied before the test and after it, so that no test
    sees another's entries."""
    memos = (contract._verified, contract._address, contract._decode_key)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


class TestVerifyMemo:
    """``_check_signatures`` verifies each exact (pubkey, message, signature)
    triple once per process, and caches successes only."""

    @pytest.fixture
    def pure(self, monkeypatch, fresh_memos):
        """An empty memo, and the list of pure verifies ``contract`` makes."""
        calls = []
        verify = contract.ecdsa_verify
        monkeypatch.setattr(contract, "ecdsa_verify", lambda *args: calls.append(args) or verify(*args))
        return calls

    @staticmethod
    def _triple(rng: Random):
        pair = KeyPair.generate(rng)
        message = rng.randbytes(rng.randrange(1, 48))
        return pair.public, message, ecdsa_sign(pair.private, sha256(message))

    def test_a_hit_needs_the_exact_triple(self, pure):
        pub, message, sig = self._triple(Random(150))
        assert _valid(pub, message, sig) and _valid(pub, message, sig)
        assert len(pure) == 1
        # one bit of the pubkey's encoding: its parity prefix, and a bit of x
        # that lands on another curve point
        encodings = [_flip(pub.encode(), 7)]
        encodings += [e for e in (_flip(pub.encode(), b) for b in range(8, 264)) if _decodes(e)][:2]
        assert len(encodings) == 3
        for encoding in encodings:
            assert not _valid(Point.decode(encoding), message, sig)
        for bit in range(0, len(message) * 8, 5):
            assert not _valid(pub, _flip(message, bit), sig)
        for bit in (255, 200, 511, 300):
            assert not _valid(pub, message, Signature.from_bytes(_flip(sig.to_bytes(), bit)))
        assert contract._verified.cache_info().currsize == 1

    def test_a_tampered_signature_on_a_cached_contract_reads_invalid(self, pure):
        rng = Random(151)
        c = _sample_contract(rng, KeyPair.generate(rng))
        assert verify_contract(c).ok and verify_contract(redact(c, "order/delivery_address")).ok
        assert len(pure) == 3
        sig = c.static_signatures["merchant/terms"]
        flipped = Signature.from_bytes(_flip(sig.to_bytes(), 255))
        tampered = dict(c.static_signatures, **{"merchant/terms": flipped})
        report = verify_contract(dataclasses.replace(c, static_signatures=tampered))
        assert report.static == {"merchant/pubkey": "valid", "merchant/terms": "invalid",
                                 "merchant/pricelist": "valid"}
        assert len(pure) == 4

    def test_an_invalid_triple_is_never_cached(self, pure):
        pub, message, sig = self._triple(Random(152))
        for _ in range(2):
            assert not _valid(pub, message + b"!", sig)
        assert len(pure) == 2 and contract._verified.cache_info().currsize == 0

    def test_identity_missing_or_non_signature_reads_invalid(self, pure, monkeypatch):
        rng = Random(153)
        merchant = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        multiplies, var_mul = [], curve._var_mul
        monkeypatch.setattr(curve, "_var_mul", lambda *args: multiplies.append(args) or var_mul(*args))
        sigs = c.static_signatures
        assert set(contract._check_signatures(c.root, sigs, None).values()) == {"invalid"}
        assert set(contract._check_signatures(c.root, sigs, Point.identity()).values()) == {"invalid"}
        as_bytes = {path: sig.to_bytes() for path, sig in sigs.items()}
        assert set(contract._check_signatures(c.root, as_bytes, merchant.public).values()) == {"invalid"}
        # a missing key verifies nothing; the identity key and the bare bytes
        # reach ``ecdsa_verify``, whose early reject does no curve arithmetic
        assert len(pure) == 6 and multiplies == [] and contract._verified.cache_info().currsize == 0

    def test_the_cap_holds_and_evicts_the_oldest_first(self, pure, monkeypatch):
        """256 triples; "oldest" counts from a triple's last use."""
        monkeypatch.setattr(contract, "ecdsa_verify", lambda *args: pure.append(args) or True)
        pub, message, sig = self._triple(Random(154))
        triples = [(pub, message + i.to_bytes(2, "big"), sig) for i in range(258)]
        for triple in triples:
            assert _valid(*triple)
        assert len(pure) == 258
        assert contract._verified.cache_info().currsize == contract._verified.cache_info().maxsize == 256
        assert _valid(*triples[257]) and len(pure) == 258
        assert _valid(*triples[0]) and len(pure) == 259  # evicted, so verified again
        assert _valid(*triples[3]) and len(pure) == 259  # kept
        assert _valid(*triples[2]) and len(pure) == 260  # the oldest when triples[0] came back
        assert contract._verified.cache_info().currsize == 256

    def test_agrees_with_the_oracle(self, pure):
        rng = Random(155)
        for _ in range(6):
            pub, message, sig = self._triple(rng)
            for candidate in (message, _flip(message, rng.randrange(len(message) * 8))):
                expected = oracle.ecdsa_verify(oracle.as_tuple(pub), candidate, sig.r.value, sig.s.value)
                assert _valid(pub, candidate, sig) == expected  # cold
                assert _valid(pub, candidate, sig) == expected  # warm
        assert contract._verified.cache_info().currsize == 6


class TestReceiptCost:
    """The auditor's receipt check costs the edited path and the signatures,
    not the size of the contract."""

    def test_redact_hashes_nothing_and_a_second_verify_verifies_and_walks_nothing(self, monkeypatch,
                                                                                  fresh_memos):
        rng = Random(156)
        c = _sample_contract(rng, KeyPair.generate(rng))
        assert verify_contract(c).ok  # the customer's check fills the memo
        calls = []
        for name in ("sha256", "ecdsa_verify"):
            original = getattr(contract, name)
            monkeypatch.setattr(contract, name, lambda *args, _name=name, _original=original:
                                calls.append(_name) or _original(*args))
        init = Scalar.__init__
        monkeypatch.setattr(Scalar, "__init__", lambda self, value: calls.append("Scalar") or init(self, value))
        receipt = redact(c, "order/delivery_address")
        report = verify_contract(receipt)
        assert calls == []
        assert report.ok and set(report.static.values()) == {"valid"}
        assert report.redacted_paths == ("order/delivery_address",) and report.encrypted_paths == ()
        # the report lists the root's stored inventory: no walk of the tree overrides it
        object.__setattr__(receipt.root, "hidden", (("encrypted", "order/item"),))
        report = verify_contract(receipt)
        assert (report.redacted_paths, report.encrypted_paths) == ((), ("order/item",))


class TestAddressMemo:
    """``payment_address`` derives each exact (merchant pubkey, contract hash)
    pair once per process, and caches successes only."""

    @pytest.fixture
    def derived(self, monkeypatch, fresh_memos):
        """An empty memo, and the list of derivations ``contract`` makes."""
        calls = []
        derive = contract.derive_address
        monkeypatch.setattr(contract, "derive_address", lambda *args: calls.append(args) or derive(*args))
        return calls

    def test_the_key_is_the_exact_pair(self, derived):
        rng = Random(160)
        merchant, other = KeyPair.generate(rng), KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        hidden = redact(c, "merchant/pubkey")
        foreign = dataclasses.replace(hidden, merchant_pubkey=other.public)
        assert contract_hash(foreign) == contract_hash(c)
        original = payment_address(c)
        assert payment_address(foreign) == derive_address(other.public, contract_hash(c)) != original
        assert payment_address(hidden) == original
        assert len(derived) == 2

    def test_cold_and_warm_agree_with_the_oracle(self, derived):
        rng = Random(161)
        for _ in range(4):
            merchant = KeyPair.generate(rng)
            c = _sample_contract(rng, merchant)
            h = int.from_bytes(hashlib.sha256(contract_hash(c)).digest(), "big") % oracle.N
            x, y = oracle.point_add(oracle.as_tuple(merchant.public), oracle.point_mul(h, oracle.G))
            expected = hash160(bytes([2 + (y & 1)]) + x.to_bytes(32, "big"))
            assert payment_address(c).digest == expected  # cold
            assert payment_address(c).digest == expected  # warm
            assert payment_address(redact(c, "order")).digest == expected
        assert len(derived) == 4

    def test_a_failed_derivation_is_never_cached(self, derived):
        rng = Random(162)
        c = _sample_contract(rng, KeyPair.generate(rng))
        bare = Contract(redact(c, "merchant").root, Point.identity())
        for _ in range(2):
            with pytest.raises(ValueError):
                payment_address(bare)
        assert len(derived) == 2 and contract._address.cache_info().currsize == 0


class TestKeyMemo:
    """``contract_from_json`` decodes each contract key once per process, and
    caches successes only."""

    @pytest.fixture
    def decoded(self, monkeypatch, fresh_memos):
        """An empty memo, and the encodings ``Point.decode`` is asked for."""
        calls, decode = [], Point.decode
        monkeypatch.setattr(Point, "decode", lambda data: calls.append(data) or decode(data))
        return calls

    def test_one_merchants_contracts_decode_its_key_once(self, decoded):
        rng = Random(164)
        merchant, tracker = KeyPair.generate(rng), KeyPair.generate(rng)
        template = build_template(merchant.public, {"terms": "t"}, rng, dynamic_signing_key=tracker.public)
        files = [encode_contract(build_contract(template, {"price": i}, rng)) for i in range(20)]
        for data in files:
            c = decode_contract(data)
            assert encode_contract(c) == data
            assert (c.merchant_pubkey, c.dynamic_signing_key) == (merchant.public, tracker.public)
        assert decoded == [merchant.public.encode(), tracker.public.encode()]
        info = contract._decode_key.cache_info()
        assert (info.hits, info.misses, info.currsize) == (38, 2, 2)

    def test_an_off_curve_key_is_refused_on_every_read(self, decoded):
        rng = Random(165)
        good = contract_to_json(_sample_contract(rng, KeyPair.generate(rng)))
        off_curve = "02" + "00" * 31 + "05"  # no y satisfies y^2 = 5^3 + 7
        bad = [json.dumps(dict(good, merchant_pubkey=off_curve)).encode(),
               json.dumps(dict(good, dynamic_signing_key=off_curve)).encode()]
        for _ in range(2):  # before and after a good decode fills the memo
            for data in bad:
                with pytest.raises(ProtocolError) as exc:
                    decode_contract(data)
                assert exc.value.code == "invalid-point"
            decode_contract(json.dumps(good).encode())
        # the memo holds the good key alone: decoded once, and a hit the second time
        assert contract._decode_key.cache_info().currsize == 1
        assert decoded.count(bytes.fromhex(good["merchant_pubkey"])) == 1
        assert decoded.count(bytes.fromhex(off_curve)) == 4


# memo, its size, what a miss computes (and where it lives), and the arguments of its i-th entry
MEMOS = [
    (contract._verified, 256, (contract, "ecdsa_verify"), lambda i: (G, i.to_bytes(4, "big"), SIGNATURE)),
    (contract._address, 256, (contract, "derive_address"), lambda i: (G, i.to_bytes(32, "big"))),
    (contract._decode_key, 16, (Point, "decode"), lambda i: (format(i, "066x"),)),
]
SIGNATURE = ecdsa_sign(Scalar(7), sha256(b"x"))


@pytest.mark.parametrize("memo, size, computes, entry", MEMOS, ids=["verified", "addresses", "keys"])
def test_a_memo_holds_its_cap_and_evicts_the_oldest_first(monkeypatch, fresh_memos, memo, size, computes, entry):
    """Each memo is least-recently-used: "oldest" counts from an entry's last use."""
    calls = []
    monkeypatch.setattr(*computes, lambda *args: calls.append(args) or True)
    assert memo.cache_info().maxsize == size
    entries = [entry(i) for i in range(size + 2)]
    answers = [memo(*args) for args in entries]
    assert len(calls) == size + 2 and memo.cache_info().currsize == size
    assert memo(*entries[-1]) == answers[-1] and len(calls) == size + 2
    assert memo(*entries[2]) == answers[2] and len(calls) == size + 2  # the oldest kept, now the newest
    assert memo(*entries[0]) == answers[0] and len(calls) == size + 3  # evicted, so computed again
    for args in entries[4:] + [entries[2], entries[0]]:  # every entry kept is a hit
        memo(*args)
    assert len(calls) == size + 3 and memo.cache_info().currsize == size
    memo(*entries[3])  # evicted when entries[0] came back, since entries[2] was used after it
    assert len(calls) == size + 4
