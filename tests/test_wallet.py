import hashlib
import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from paytocontract.curve import G, ORDER, KeyPair, Scalar, hash160, random_scalar
from paytocontract.errors import ProtocolError
from paytocontract.wallet import (
    Address,
    DerivationScheme,
    Opcode,
    Script,
    derive_address,
    derive_addresses,
    derive_private,
    derive_public,
    derive_script,
    multisig_script,
    p2pkh_address,
    p2sh_address,
    script_from_json,
    script_to_json,
)

ADD = DerivationScheme.ADDITIVE
MUL = DerivationScheme.MULTIPLICATIVE


def _h(label: bytes) -> int:
    # independent label-hash oracle
    return int.from_bytes(hashlib.sha256(label).digest(), "big") % oracle.N


class TestDerivePrivate:
    def test_additive_base_one_label_x(self):
        expected = (1 + _h(b"x")) % oracle.N
        assert derive_private(Scalar(1), b"x", ADD).value == expected

    def test_multiplicative_matches_modular_oracle(self):
        rng = Random(21)
        for _ in range(20):
            s = random_scalar(rng)
            label = rng.randbytes(12)
            assert derive_private(s, label, MUL).value == s.value * _h(label) % oracle.N

    def test_string_labels_are_utf8(self):
        assert derive_private(Scalar(1), "x") == derive_private(Scalar(1), b"x")

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            derive_private(Scalar(0), b"x")

    def test_degenerate_derived_key_rejected(self):
        # pick the base that cancels the label hash exactly
        base = Scalar((-_h(b"x")) % ORDER)
        with pytest.raises(ProtocolError, match="degenerate derived key"):
            derive_private(base, b"x", ADD)


class TestDerivePublic:
    def test_additive_matches_exponent_oracle(self):
        expected = oracle.point_mul((1 + _h(b"x")) % oracle.N, oracle.G)
        assert oracle.as_tuple(derive_public(G, b"x", ADD)) == expected

    def test_multiplicative_is_exponent_scaling(self):
        rng = Random(22)
        s = random_scalar(rng)
        label = b"scale me"
        expected = G ** Scalar(s.value * _h(label) % ORDER)
        assert derive_public(G ** s, label, MUL) == expected

    def test_identity_base_rejected(self):
        from paytocontract.curve import Point

        with pytest.raises(ValueError):
            derive_public(Point.identity(), b"x")

    def test_degenerate_identity_result_rejected(self):
        base = G ** Scalar((-_h(b"x")) % ORDER)
        with pytest.raises(ProtocolError, match="degenerate derived key"):
            derive_public(base, b"x", ADD)

    def test_distinct_labels_distinct_points(self):
        rng = Random(23)
        base = G ** random_scalar(rng)
        seen = set()
        for i in range(1000):
            p = derive_public(base, f"label-{i}")
            seen.add(p.encode())
        assert len(seen) == 1000


class TestHomomorphism:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(1, ORDER - 1), st.binary(max_size=40))
    def test_private_and_public_derivations_agree(self, base, label):
        # the paper's key homomorphism, G ** derive_private(a, l) == derive_public(G ** a, l),
        # with the public side also recomputed by the oracle's textbook multiply
        for scheme in (ADD, MUL):
            derived = derive_private(Scalar(base), label, scheme)
            public = derive_public(G ** Scalar(base), label, scheme)
            assert G ** derived == public
            assert oracle.as_tuple(public) == oracle.point_mul(derived.value, oracle.G)

    def test_type2_base_reconstruction(self):
        # knowing one derived private key and the label recovers the base
        rng = Random(25)
        s = random_scalar(rng)
        label = b"order-431"
        derived = derive_private(s, label, ADD)
        h = Scalar(_h(label))
        assert derived - h == s


class TestDeriveAddress:
    def test_composition_with_hash160(self):
        rng = Random(26)
        base = G ** random_scalar(rng)
        addr = derive_address(base, b"invoice-1")
        assert addr.kind == "p2pkh"
        assert addr.digest == hash160(derive_public(base, b"invoice-1").encode())

    def test_deterministic(self):
        base = G ** Scalar(77)
        assert derive_address(base, b"L") == derive_address(base, b"L")

    def test_distinct_labels_distinct_addresses(self):
        base = G ** Scalar(77)
        addresses = {derive_address(base, f"lbl{i}").digest for i in range(200)}
        assert len(addresses) == 200

    def test_render_parse_round_trip(self):
        addr = derive_address(G, b"z")
        assert Address.parse(addr.render()) == addr

    def test_p2pkh_address_of_generator_vector(self):
        # hash160 of the compressed generator: the well-known address of private key 1
        assert p2pkh_address(G) == Address("p2pkh", bytes.fromhex("751e76e8199196d454941c45d1b3a323f1433bd6"))

    def test_derive_address_is_p2pkh_of_derived_pubkey(self):
        base = G ** Scalar(77)
        for scheme in (ADD, MUL):
            assert derive_address(base, b"L", scheme) == p2pkh_address(derive_public(base, b"L", scheme))


class TestDeriveAddresses:
    def test_matches_single_derive_address(self):
        rng = Random(28)
        bases = [G, G ** random_scalar(rng), G ** random_scalar(rng)]
        labels = [b"", b"invoice-1", "text label", b"invoice-1", bytes(32)] + [rng.randbytes(32) for _ in range(10)]
        pairs = [(bases[i % len(bases)], label) for i, label in enumerate(labels)]
        assert derive_addresses(pairs) == [derive_address(base, label) for base, label in pairs]
        assert derive_addresses([]) == []

    def test_identity_base_rejected_like_derive_public(self):
        from paytocontract.curve import Point

        with pytest.raises(ValueError, match="public base must not be the identity"):
            derive_addresses([(G, b"x"), (Point.identity(), b"x")])

    def test_degenerate_result_raises_the_same_error(self):
        base = G ** Scalar((-_h(b"x")) % ORDER)
        with pytest.raises(ProtocolError) as single:
            derive_address(base, b"x")
        with pytest.raises(ProtocolError) as batch:
            derive_addresses([(G, b"x"), (base, b"x")])
        assert batch.value.code == single.value.code == "degenerate-derived-key"
        assert str(batch.value) == str(single.value)


class TestWalletBase:
    """A keypair as a labeled wallet base: the public side alone (watch-only)
    derives the same addresses and pubkeys as the private side."""

    def test_watch_only_derives_addresses_not_keys(self):
        pair = KeyPair.generate(Random(27))
        assert derive_address(pair.public, b"a") == p2pkh_address(G ** derive_private(pair.private, b"a"))
        with pytest.raises(ValueError, match="private base must be nonzero"):
            derive_private(Scalar(0), b"a")

    def test_derived_keypair_consistent(self):
        pair = KeyPair(derive_private(Scalar(99), b"k"))
        assert pair.public == G ** pair.private == derive_public(G ** Scalar(99), b"k")


class TestScripts:
    def _two_keys(self):
        return G ** Scalar(101), G ** Scalar(202)

    @pytest.mark.parametrize("element", ["OP_EQUAL", 1.0, True, None, bytearray(20)], ids=repr)
    def test_an_element_of_another_type_is_refused(self, element):
        with pytest.raises(ValueError, match="bad script element"):
            Script((1, element))

    def test_derive_two_of_two_multisig(self):
        p1, p2 = self._two_keys()
        base = multisig_script(2, (p1, p2))
        derived = derive_script(base, b"x")
        # same shape, each pubkey replaced by its derived pubkey
        assert derived.ops == (2, derive_public(p1, b"x"), derive_public(p2, b"x"), 2, Opcode.CHECKMULTISIG)
        assert len(derived.ops) == len(base.ops)
        assert [type(op) for op in derived.ops] == [type(op) for op in base.ops]

    def test_derive_one_of_one(self):
        p1, _ = self._two_keys()
        base = multisig_script(1, (p1,))
        derived = derive_script(base, b"y")
        assert derived.pubkeys() == (derive_public(p1, b"y"),)

    def test_repeated_derivation_composes_exponents(self):
        s = Scalar(404)
        base = multisig_script(1, (G ** s,))
        twice = derive_script(derive_script(base, b"x"), b"y")
        combined = (s.value + _h(b"x") + _h(b"y")) % oracle.N
        assert oracle.as_tuple(twice.pubkeys()[0]) == oracle.point_mul(combined, oracle.G)

    def test_no_pubkeys_rejected(self):
        with pytest.raises(ProtocolError, match="nothing to derive"):
            derive_script(Script((1, 1, Opcode.CHECKMULTISIG)), b"x")

    def test_hashed_pubkeys_rejected(self):
        script = Script((Opcode.HASH160, b"\x11" * 20, Opcode.EQUAL))
        with pytest.raises(ProtocolError, match="hashed pubkeys not derivable"):
            derive_script(script, b"x")

    def test_p2sh_address_matches_serialize_then_hash_oracle(self):
        p1, p2 = self._two_keys()
        script = derive_script(multisig_script(2, (p1, p2)), b"x")
        # independent serialization: OP_2 .. OP_CHECKMULTISIG byte layout
        expected = bytearray([0x52])
        for point in script.pubkeys():
            enc = point.encode()
            expected += bytes([len(enc)]) + enc
        expected += bytes([0x52, 0xAE])
        assert script.serialize() == bytes(expected)
        addr = p2sh_address(script)
        assert addr.kind == "p2sh"
        assert addr.digest == hash160(bytes(expected))

    def test_p2sh_address_deterministic_and_key_sensitive(self):
        p1, p2 = self._two_keys()
        a = p2sh_address(multisig_script(2, (p1, p2)))
        assert a == p2sh_address(multisig_script(2, (p1, p2)))
        assert a != p2sh_address(multisig_script(2, (p1, G ** Scalar(203))))

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            p2sh_address(Script(()))

    def test_multisig_params(self):
        p1, p2 = self._two_keys()
        assert multisig_script(2, (p1, p2)).multisig_params() == (2, 2, (p1, p2))
        assert Script((Opcode.HASH160, b"\x00" * 20, Opcode.EQUAL)).multisig_params() is None
        with pytest.raises(ValueError):
            multisig_script(3, (p1, p2))

    def test_serialize_round_trip(self):
        p1, p2 = self._two_keys()
        script = multisig_script(2, (p1, p2))
        assert Script.deserialize(script.serialize()) == script

    def test_json_round_trip(self):
        p1, _ = self._two_keys()
        script = Script((Opcode.HASH160, b"\x22" * 20, Opcode.EQUAL, 3, p1))
        assert script_from_json(script_to_json(script)) == script

    # any sequence of the four element kinds, keys of either parity among them
    SCRIPT_ELEMENTS = st.one_of(st.integers(1, 16), st.sampled_from(list(Opcode)),
                                st.binary(min_size=20, max_size=20),
                                st.integers(1, ORDER - 1).map(lambda k: G ** Scalar(k)))

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.lists(SCRIPT_ELEMENTS, min_size=1, max_size=8).map(lambda ops: Script(tuple(ops))))
    def test_every_script_round_trips_through_bytes_and_json(self, script):
        assert Script.deserialize(script.serialize()) == script
        assert script_from_json(json.loads(json.dumps(script_to_json(script)))) == script
