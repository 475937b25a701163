import dataclasses
import hashlib
import json
from random import Random

import pytest

import oracle
from paytocontract import contract
from paytocontract.chain import MAX_AMOUNT
from paytocontract.contract import (
    SALT_BYTES,
    Branch,
    Contract,
    Leaf,
    Redacted,
    build_contract,
    build_template,
    canonical_encode,
    contract_hash,
    contract_to_json,
    decode_contract,
    decrypt_leaf,
    encode_contract,
    encrypt_leaf,
    node_digest,
    node_from_json,
    order_price,
    payment_address,
    payment_private_key,
    redact,
    resolve,
    sign_fields,
    verify_contract,
    with_leaf_value,
)
from paytocontract.curve import G, KeyPair, Point, Scalar, Signature, ecdsa_sign, hash160, random_scalar
from paytocontract.errors import ProtocolError, _load_json
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


class TestCanonicalEncoding:
    def test_leaf_regression_vector(self):
        assert canonical_encode(Leaf(_salt(0xAB), b"42")) == LEAF_42_CANONICAL

    def test_round_trip_random_trees(self):
        rng = Random(31)
        for _ in range(50):
            tree = _random_tree(rng)
            encoded = canonical_encode(tree)
            assert canonical_encode(node_from_json(_load_json(encoded))) == encoded

    def test_child_insertion_order_irrelevant(self):
        a = Branch(_salt(), {"x": Leaf(_salt(1), b"1"), "y": Leaf(_salt(2), b"2")})
        b = Branch(_salt(), {"y": Leaf(_salt(2), b"2"), "x": Leaf(_salt(1), b"1")})
        assert canonical_encode(a) == canonical_encode(b)
        assert node_digest(a) == node_digest(b)

    def test_salt_length_enforced(self):
        with pytest.raises(ValueError):
            Leaf(b"short", b"v")

    def test_slash_in_field_name_rejected(self):
        with pytest.raises(ValueError):
            Branch(_salt(), {"a/b": Leaf(_salt(), b"")})


class TestNodeDigest:
    def test_redacted_digest_passthrough(self):
        d = hashlib.sha256(b"anything").digest()
        assert node_digest(Redacted(d)) == d

    def test_branch_digest_stable_under_child_redaction(self):
        rng = Random(32)
        for _ in range(20):
            tree = _random_tree(rng)
            name = next(iter(tree.children))
            swapped = Branch(
                tree.salt,
                {**tree.children, name: Redacted(node_digest(tree.children[name]))},
            )
            assert node_digest(swapped) == node_digest(tree)

    def test_same_value_different_salts_differ(self):
        assert node_digest(Leaf(_salt(1), b"v")) != node_digest(Leaf(_salt(2), b"v"))

    def test_leaf_branch_domain_separation(self):
        # a leaf can never collide with a branch even on equal preimage tails
        leaf = Leaf(_salt(), b"")
        branch = Branch(_salt(), {})
        assert node_digest(leaf) != node_digest(branch)


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
        expected = hashlib.sha256(b"\x00" + node.salt + node.value).digest()
        assert node_digest(node) == expected
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
        merchant = KeyPair.from_private(Scalar(64))
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


class TestVerifyMemo:
    """``_check_signatures`` verifies each exact (pubkey, message, signature)
    triple once per process, and caches successes only."""

    @pytest.fixture
    def pure(self, monkeypatch):
        """An empty memo, and the list of pure verifies ``contract`` makes."""
        monkeypatch.setattr(contract, "_verified", {})
        calls = []
        verify = contract.ecdsa_verify
        monkeypatch.setattr(contract, "ecdsa_verify", lambda *args: calls.append(args) or verify(*args))
        return calls

    @staticmethod
    def _triple(rng: Random):
        pair = KeyPair.generate(rng)
        message = rng.randbytes(rng.randrange(1, 48))
        return pair.public, message, ecdsa_sign(pair.private, message)

    def test_a_hit_needs_the_exact_triple(self, pure):
        pub, message, sig = self._triple(Random(150))
        assert contract._verify_once(pub, message, sig) and contract._verify_once(pub, message, sig)
        assert len(pure) == 1
        # one bit of the pubkey's encoding: its parity prefix, and a bit of x
        # that lands on another curve point
        encodings = [_flip(pub.encode(), 7)]
        encodings += [e for e in (_flip(pub.encode(), b) for b in range(8, 264)) if _decodes(e)][:2]
        assert len(encodings) == 3
        for encoding in encodings:
            assert not contract._verify_once(Point.decode(encoding), message, sig)
        for bit in range(0, len(message) * 8, 5):
            assert not contract._verify_once(pub, _flip(message, bit), sig)
        for bit in (255, 200, 511, 300):
            assert not contract._verify_once(pub, message, Signature.from_bytes(_flip(sig.to_bytes(), bit)))
        assert len(contract._verified) == 1

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
            assert not contract._verify_once(pub, message + b"!", sig)
        assert len(pure) == 2 and contract._verified == {}

    def test_identity_missing_or_non_signature_reads_invalid(self, pure):
        rng = Random(153)
        merchant = KeyPair.generate(rng)
        c = _sample_contract(rng, merchant)
        sigs = c.static_signatures
        assert set(contract._check_signatures(c.root, sigs, None).values()) == {"invalid"}
        assert set(contract._check_signatures(c.root, sigs, Point.identity()).values()) == {"invalid"}
        as_bytes = {path: sig.to_bytes() for path, sig in sigs.items()}
        assert set(contract._check_signatures(c.root, as_bytes, merchant.public).values()) == {"invalid"}
        assert pure == [] and contract._verified == {}

    def test_the_cap_holds_and_evicts_the_oldest_first(self, pure, monkeypatch):
        monkeypatch.setattr(contract, "_VERIFIED_CAP", 3)
        rng = Random(154)
        triples = [self._triple(rng) for _ in range(5)]
        for triple in triples:
            assert contract._verify_once(*triple)
        assert len(pure) == 5
        assert list(contract._verified) == [pub.encode() + sig.to_bytes() + message
                                            for pub, message, sig in triples[2:]]
        assert contract._verify_once(*triples[4]) and len(pure) == 5
        assert contract._verify_once(*triples[0]) and len(pure) == 6  # evicted, so verified again
        assert len(contract._verified) == 3

    def test_agrees_with_the_oracle(self, pure):
        rng = Random(155)
        for _ in range(6):
            pub, message, sig = self._triple(rng)
            for candidate in (message, _flip(message, rng.randrange(len(message) * 8))):
                expected = oracle.ecdsa_verify(oracle.as_tuple(pub), candidate, sig.r.value, sig.s.value)
                assert contract._verify_once(pub, candidate, sig) == expected  # cold
                assert contract._verify_once(pub, candidate, sig) == expected  # warm
        assert len(contract._verified) == 6
