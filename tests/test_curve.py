import hashlib
import os
import subprocess
import sys
from random import Random

import pytest

import oracle
from paytocontract import curve
from paytocontract.curve import (
    G,
    ORDER,
    KeyPair,
    Point,
    Scalar,
    Signature,
    ecdsa_sign,
    ecdsa_verify,
    hash160,
    hash_to_scalar,
    random_scalar,
    shared_xs,
)
from paytocontract.errors import ProtocolError
from paytocontract.ripemd160 import ripemd160

# frozen: SHA-256 of the inputs, reduced mod the order, computed with an
# independent big-integer oracle (both digests are already below the order)
H_EMPTY = 0xE3B0C44298FC1C149AFBF4C8996FB92427AE41E4649B934CA495991B7852B855
H_SAVINGS1 = 0x6B1CAFCD4902875730BDF9DCFBF621E701B561042BBD9BD50CB5DB15E09369BC

# standard secp256k1 base point and its compressed encoding
G_COMPRESSED = "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"

# frozen: composition RIPEMD-160(SHA-256(.)), the well-known bitcoin vectors
HASH160_EMPTY = "b472a266d0bd89c13706a4132ccfb16f7c3b9fcb"
HASH160_G = "751e76e8199196d454941c45d1b3a323f1433bd6"

# official RIPEMD-160 test vectors (Dobbertin, Bosselaers, Preneel)
RIPEMD_VECTORS = {
    b"": "9c1185a5c5e9fc54612808977ee8f548b2258d31",
    b"a": "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe",
    b"abc": "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc",
    b"message digest": "5d0689ef49d2fae572b881b123a85ffa21595f36",
    b"abcdefghijklmnopqrstuvwxyz": "f71c27109c692c1b56bbdceb5b9d2865b3708dbc",
    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq": "12a053384a9c0c88e405a06c27dcf49ada62eb2b",
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789": "b0e20b6e3116640286ed3a87a5713079b21f5189",
    b"1234567890" * 8: "9b752e45573d4b39f4dbd3323cab82bf63326bfb",
}


class TestHashing:
    def test_hash_to_scalar_empty(self):
        assert hash_to_scalar(b"").value == H_EMPTY

    def test_hash_to_scalar_savings1(self):
        assert hash_to_scalar(b"savings1").value == H_SAVINGS1

    def test_hash_to_scalar_deterministic(self):
        assert hash_to_scalar(b"abc") == hash_to_scalar(b"abc")

    def test_hash_to_scalar_matches_independent_reduction(self):
        rng = Random(11)
        for _ in range(50):
            data = rng.randbytes(rng.randrange(0, 64))
            expected = int.from_bytes(hashlib.sha256(data).digest(), "big") % oracle.N
            got = hash_to_scalar(data)
            assert got.value == expected
            assert 0 <= got.value < ORDER

    def test_ripemd160_official_vectors(self):
        for msg, digest in RIPEMD_VECTORS.items():
            assert ripemd160(msg).hex() == digest
        assert ripemd160(b"a" * 1000000).hex() == "52783243c1697bdbe16d37f97f68f08325dc1528"

    def test_hash160_empty(self):
        assert hash160(b"").hex() == HASH160_EMPTY

    def test_hash160_compressed_generator(self):
        assert hash160(bytes.fromhex(G_COMPRESSED)).hex() == HASH160_G

    def test_hash160_deterministic_and_independent_pipeline(self):
        data = b"some payload"
        expected = ripemd160(hashlib.sha256(data).digest())
        assert hash160(data) == expected == hash160(data)
        assert len(expected) == 20

    def test_hash160_matches_pure_python_reference(self):
        # whichever RIPEMD-160 the import-time probe chose must agree with
        # the pure-Python reference
        rng = Random(12)
        for _ in range(200):
            data = rng.randbytes(rng.randrange(0, 200))
            assert hash160(data) == ripemd160(hashlib.sha256(data).digest())

    def test_ripemd160_falls_back_when_openssl_lacks_it(self, monkeypatch):
        def unsupported(name, *args, **kwargs):
            raise ValueError(f"unsupported hash type {name}")

        monkeypatch.setattr(hashlib, "new", unsupported)
        fallback = curve._select_ripemd160()
        assert fallback is ripemd160
        monkeypatch.setattr(curve, "_ripemd160", fallback)
        assert hash160(b"").hex() == HASH160_EMPTY
        assert hash160(bytes.fromhex(G_COMPRESSED)).hex() == HASH160_G


class TestPoint:
    def test_zero_exponent_gives_identity(self):
        assert (G ** Scalar(0)).is_identity()

    def test_generator_standard_coordinates(self):
        p = G ** Scalar(1)
        assert (p.x, p.y) == (oracle.GX, oracle.GY)

    def test_double_generator_matches_affine_oracle(self):
        assert oracle.as_tuple(G ** Scalar(2)) == oracle.point_double(oracle.G)

    def test_encode_generator(self):
        assert G.encode().hex() == G_COMPRESSED

    def test_codec_round_trip_1000_random_points(self):
        rng = Random(12)
        for _ in range(1000):
            p = G ** random_scalar(rng)
            assert Point.decode(p.encode()) == p

    def test_encode_identity_rejected(self):
        with pytest.raises(ProtocolError, match="identity not encodable"):
            Point.identity().encode()

    def test_decode_zero_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="invalid point"):
            Point.decode(bytes(33))

    def test_decode_off_curve_x_rejected(self):
        # x = 5 has no curve point with this parity structure: 5^3+7 = 132 is
        # a quadratic non-residue mod the field prime
        bad = b"\x02" + (5).to_bytes(32, "big")
        assert pow(132, (oracle.P - 1) // 2, oracle.P) != 1
        with pytest.raises(ProtocolError, match="invalid point"):
            Point.decode(bad)

    def test_group_laws_against_oracle(self):
        rng = Random(13)
        for _ in range(25):
            i, j = random_scalar(rng), random_scalar(rng)
            assert (G ** i) * (G ** j) == G ** Scalar((i.value + j.value) % ORDER)
            assert (G ** i) ** j == G ** Scalar(i.value * j.value % ORDER)
            expected = oracle.point_mul(i.value, oracle.G)
            assert oracle.as_tuple(G ** i) == expected

    def test_variable_base_multiplication_matches_oracle(self):
        rng = Random(14)
        base = G ** random_scalar(rng)
        k = random_scalar(rng)
        assert oracle.as_tuple(base ** k) == oracle.point_mul(k.value, oracle.as_tuple(base))

    def test_inverse_cancels(self):
        p = G ** Scalar(99)
        assert (p * p.inverse()).is_identity()

    def test_off_curve_construction_rejected(self):
        with pytest.raises(ValueError, match="not on curve"):
            Point(1, 1)


# scalars whose handling differs inside the multiply engine: the smallest
# and largest, powers of two at window and half-length boundaries, and the
# endomorphism eigenvalue and its negation (a GLV half of zero)
SPECIAL_SCALARS = (
    [1, 2, 3, ORDER - 1, ORDER - 2, curve._LAMBDA, ORDER - curve._LAMBDA]
    + [2 ** j for j in (1, 6, 7, 63, 64, 127, 128, 129, 200, 252, 255)]
)


def _glv_sign_cases():
    """Seeded scalars covering every sign pattern of the two GLV halves."""
    rng = Random(18)
    found = {}
    while len(found) < 4:
        k = random_scalar(rng).value
        k1, k2 = curve._glv_split(k)
        found.setdefault((k1 < 0, k2 < 0), k)
    return list(found.values())


class TestMultiplyEngine:
    """Both multiply paths cross-checked against the textbook affine oracle."""

    OTHER_BASE = G ** Scalar(0x5EED)

    def test_glv_split_recombines_and_halves(self):
        rng = Random(19)
        for k in SPECIAL_SCALARS + [random_scalar(rng).value for _ in range(200)]:
            k1, k2 = curve._glv_split(k)
            assert (k1 + k2 * curve._LAMBDA - k) % ORDER == 0
            assert abs(k1).bit_length() <= 129 and abs(k2).bit_length() <= 129

    def test_endomorphism_constants(self):
        assert oracle.point_mul(curve._LAMBDA, oracle.G) == (curve._BETA * oracle.GX % oracle.P, oracle.GY)

    def test_glv_cases_cover_negative_and_zero_halves(self):
        halves = [curve._glv_split(k) for k in SPECIAL_SCALARS + _glv_sign_cases()]
        assert any(k1 == 0 for k1, _ in halves) and any(k2 == 0 for _, k2 in halves)
        assert {(k1 < 0, k2 < 0) for k1, k2 in halves} == {
            (False, False), (False, True), (True, False), (True, True)}

    def test_fixed_base_special_scalars_match_oracle(self):
        for k in SPECIAL_SCALARS + _glv_sign_cases():
            assert oracle.as_tuple(G ** k) == oracle.point_mul(k, oracle.G), hex(k)

    def test_variable_base_special_scalars_match_oracle(self):
        base = oracle.as_tuple(self.OTHER_BASE)
        for k in SPECIAL_SCALARS + _glv_sign_cases():
            assert oracle.as_tuple(self.OTHER_BASE ** k) == oracle.point_mul(k, base), hex(k)

    def test_seeded_random_scalars_match_oracle(self):
        rng = Random(20)
        base = oracle.as_tuple(self.OTHER_BASE)
        for _ in range(30):
            k = random_scalar(rng).value
            assert oracle.as_tuple(G ** k) == oracle.point_mul(k, oracle.G)
            assert oracle.as_tuple(self.OTHER_BASE ** k) == oracle.point_mul(k, base)

    def test_random_bases_match_oracle(self):
        rng = Random(21)
        for _ in range(10):
            point = G ** random_scalar(rng)
            k = random_scalar(rng).value
            assert oracle.as_tuple(point ** k) == oracle.point_mul(k, oracle.as_tuple(point))

    def test_power_of_inverse_is_complement(self):
        rng = Random(22)
        for point in (G, self.OTHER_BASE):
            for k in [1, 2, ORDER - 1] + [random_scalar(rng).value for _ in range(10)]:
                assert point ** k == point.inverse() ** (ORDER - k)

    def test_table_entry_doubling_and_cancelling_in_mixed_add(self):
        # G ** k never adds a table entry to an equal or opposite partial sum
        # for a reduced k (the partial sum is too small), so the mixed
        # addition's doubling and identity branches are driven directly: an
        # entry in Jacobian form with Z != 1, plus the same affine entry.
        rows = curve._base_table()
        p = oracle.P
        for row, col in ((0, 0), (3, 17), (len(rows) - 1, len(rows[-1]) - 1)):
            x, y = rows[row][col]
            z = 0x1234567 + row
            jacobian = (x * z * z % p, y * z * z * z % p, z)
            doubled = curve._to_affine(curve._madd(jacobian, (x, y)))
            assert doubled == oracle.point_double((x, y))
            assert curve._to_affine(curve._madd(jacobian, (x, p - y))) is None

    def test_group_operation_on_equal_and_opposite_points(self):
        point = G ** Scalar(0xABCDEF)
        assert oracle.as_tuple(point * point) == oracle.point_double(oracle.as_tuple(point))
        assert (point * point.inverse()).is_identity()
        assert point * Point.identity() == point == Point.identity() * point

    def test_fixed_base_table_built_on_first_use(self):
        # a fresh interpreter: importing builds no table, the first G ** k
        # builds it and agrees with the oracle
        k = 0xC0FFEE << 140 | 0xBEEF
        program = (
            "import oracle\n"
            "from paytocontract import curve\n"
            "assert curve._base_table_rows is None\n"
            f"assert oracle.as_tuple(curve.G ** {k}) == oracle.point_mul({k}, oracle.G)\n"
            "assert curve._base_table_rows is not None\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        result = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr



class TestSharedXs:
    """OpenSSL's x-only ECDH against the pure engine and the affine oracle."""

    def test_seeded_random_pairs_match_engine_and_oracle(self):
        rng = Random(23)
        for _ in range(12):
            k = random_scalar(rng)
            points = [G ** random_scalar(rng) for _ in range(3)]
            expected = [oracle.point_mul(k.value, oracle.as_tuple(p))[0] for p in points]
            assert shared_xs(k, points) == [(p ** k).x for p in points] == expected

    def test_special_scalars_match_engine_and_oracle(self):
        points = [G, TestMultiplyEngine.OTHER_BASE, TestMultiplyEngine.OTHER_BASE.inverse()]
        for k in (1, 2, ORDER - 1, curve._LAMBDA):
            expected = [oracle.point_mul(k, oracle.as_tuple(p))[0] for p in points]
            assert shared_xs(Scalar(k), points) == [(p ** k).x for p in points] == expected, hex(k)

    def test_one_value_per_point_in_order_with_repeats(self):
        k = Scalar(0x5EED5)
        p, q = G ** Scalar(7), G ** Scalar(8)
        xs = shared_xs(k, [p, q, p, Point.identity(), p.inverse()])
        # -P shares the x-coordinate of P; the identity has none
        assert xs == [(p ** k).x, (q ** k).x, (p ** k).x, None, (p ** k).x]
        assert shared_xs(k, []) == []

    def test_zero_key_rejected(self):
        with pytest.raises(ValueError):
            shared_xs(Scalar(0), [G])


class TestScalar:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            Scalar(-1)
        with pytest.raises(ValueError):
            Scalar(ORDER)
        assert Scalar(ORDER - 1).value == ORDER - 1

    def test_reduce_wraps(self):
        assert Scalar.reduce(ORDER + 5).value == 5

    def test_arithmetic_mod_order(self):
        a, b = Scalar(ORDER - 1), Scalar(2)
        assert (a + b).value == 1
        assert (b - a).value == 3
        assert (a * b).value == ORDER - 2
        assert (a * a.inverse()).value == 1

    def test_bytes_round_trip(self):
        s = Scalar(123456789)
        assert Scalar.from_bytes(s.to_bytes()) == s
        assert len(s.to_bytes()) == 32

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Scalar(1).value = 2


class TestEcdsa:
    def test_sign_verify_round_trips(self):
        rng = Random(15)
        for _ in range(100):
            pair = KeyPair.generate(rng)
            message = rng.randbytes(rng.randrange(1, 64))
            sig = ecdsa_sign(pair.private, message)
            assert ecdsa_verify(pair.public, message, sig)

    def test_deterministic_signatures(self):
        pair = KeyPair.from_private(Scalar(42))
        assert ecdsa_sign(pair.private, b"msg") == ecdsa_sign(pair.private, b"msg")

    def test_bit_flip_rejected(self):
        pair = KeyPair.from_private(Scalar(42))
        sig = ecdsa_sign(pair.private, b"payment")
        for byte_index in range(len(b"payment")):
            for bit in range(8):
                tampered = bytearray(b"payment")
                tampered[byte_index] ^= 1 << bit
                assert not ecdsa_verify(pair.public, bytes(tampered), sig)

    def test_wrong_key_rejected(self):
        pair = KeyPair.from_private(Scalar(42))
        sig = ecdsa_sign(pair.private, b"payment")
        other = G ** Scalar(43)
        assert not ecdsa_verify(other, b"payment", sig)

    def test_independent_verifier_agrees(self):
        rng = Random(16)
        for _ in range(10):
            pair = KeyPair.generate(rng)
            message = rng.randbytes(32)
            sig = ecdsa_sign(pair.private, message)
            assert oracle.ecdsa_verify(
                oracle.as_tuple(pair.public), message, sig.r.value, sig.s.value
            )

    def test_zero_component_rejected(self):
        pair = KeyPair.from_private(Scalar(42))
        assert not ecdsa_verify(pair.public, b"m", Signature(Scalar(0), Scalar(1)))
        assert not ecdsa_verify(pair.public, b"m", Signature(Scalar(1), Scalar(0)))

    def test_signature_bytes_round_trip(self):
        sig = ecdsa_sign(Scalar(7), b"x")
        assert Signature.from_bytes(sig.to_bytes()) == sig
        assert len(sig.to_bytes()) == 64

    def test_identity_pubkey_rejected(self):
        sig = ecdsa_sign(Scalar(7), b"x")
        assert not ecdsa_verify(Point.identity(), b"x", sig)


class TestKeyPair:
    def test_public_matches_private(self):
        pair = KeyPair.generate(Random(17))
        assert pair.public == G ** pair.private

    def test_zero_private_rejected(self):
        with pytest.raises(ValueError):
            KeyPair.from_private(Scalar(0))

    def test_generation_reproducible_under_seed(self):
        assert KeyPair.generate(Random(5)) == KeyPair.generate(Random(5))
