import copy
import dataclasses
import hashlib
import hmac
import itertools
import os
import pickle
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
    ecdsa_verify_openssl,
    hash160,
    hash_to_scalar,
    random_scalar,
    sha256,
    shared_xs,
    tweak_points,
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

    def test_only_a_point_multiplies_a_point(self):
        with pytest.raises(TypeError):
            G * 3
        with pytest.raises(TypeError):
            G * Scalar(3)

    def test_the_identity_is_its_own_inverse(self):
        assert Point.identity().inverse() == Point.identity()
        assert G * G.inverse() == Point.identity()

    def test_repr_names_the_identity_or_x_and_parity(self):
        assert repr(Point.identity()) == "Point(identity)"
        assert repr(G) == f"Point(0x{oracle.GX:064x}, parity=0)"
        assert repr(G.inverse()) == f"Point(0x{oracle.GX:064x}, parity=1)"

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

    @pytest.mark.parametrize("x, y", [(oracle.GX + oracle.P, oracle.GY), (oracle.GX, oracle.GY + oracle.P),
                                      (-1, oracle.GY)])
    def test_out_of_range_coordinate_rejected(self, x, y):
        with pytest.raises(ValueError, match="coordinate out of range"):
            Point(x, y)

    def test_half_identity_rejected(self):
        with pytest.raises(ValueError, match="both coordinates or neither"):
            Point(oracle.GX, None)


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
        rows = curve._fixed_bases[G].table()
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

    @staticmethod
    def _fresh(program):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        result = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_fixed_base_table_built_on_first_use(self):
        # a fresh interpreter: importing builds no table, the first
        # _TABLED_POWER - 1 G ** k do without it, the next builds it, and
        # every one agrees with the oracle
        k = 0xC0FFEE << 140 | 0xBEEF
        self._fresh(
            "import oracle\n"
            "from paytocontract import curve\n"
            "generator = curve._fixed_bases[curve.G]\n"
            "assert generator.rows is None and curve._TABLED_POWER > 1\n"
            "for i in range(curve._TABLED_POWER - 1):\n"
            f"    assert oracle.as_tuple(curve.G ** ({k} + i)) == oracle.point_mul({k} + i, oracle.G)\n"
            "assert generator.rows is None\n"
            f"assert oracle.as_tuple(curve.G ** {k}) == oracle.point_mul({k}, oracle.G)\n"
            "assert generator.rows is not None\n"
            f"assert oracle.as_tuple(curve.G ** (-{k})) == oracle.point_mul(oracle.N - {k}, oracle.G)\n"
        )

    def test_tweak_points_builds_the_table_at_once(self):
        self._fresh(
            "import oracle\n"
            "from paytocontract import curve\n"
            "[p] = curve.tweak_points([(curve.G, 5)])\n"
            "assert curve._fixed_bases[curve.G].rows is not None\n"
            "assert oracle.as_tuple(p) == oracle.point_mul(6, oracle.G)\n"
        )



class TestFixedBases:
    """One fixed-base engine for G and for the keys ``fixed_base`` marks."""

    @pytest.fixture
    def fresh(self, monkeypatch):
        # the registry of a new process, holding G alone (its table kept)
        monkeypatch.setattr(curve, "_fixed_bases", {G: curve._fixed_bases[G]})

    def test_a_marked_key_is_tabled_on_its_twelfth_power(self):
        # a fresh interpreter: 11 powers of a marked key build no table, the
        # 12th builds one, and every power agrees with the oracle
        k = 0xFACADE << 150 | 0xD00D
        TestMultiplyEngine._fresh(
            "import oracle\n"
            "from paytocontract import curve\n"
            "key = curve.fixed_base(curve.G ** 0x5EED)\n"
            "base, entry = oracle.as_tuple(key), curve._fixed_bases[key]\n"
            "assert curve._TABLED_POWER == 12\n"
            "for i in range(11):\n"
            f"    assert oracle.as_tuple(curve.fixed_base(key) ** ({k} + i)) == oracle.point_mul({k} + i, base)\n"
            "assert entry.rows is None and entry.powers == 11\n"
            f"assert oracle.as_tuple(curve.fixed_base(key) ** {k}) == oracle.point_mul({k}, base)\n"
            "assert entry.rows is not None\n"
            f"assert oracle.as_tuple(key ** (-{k})) == oracle.point_mul(oracle.N - {k}, base)\n"
            "assert [p for p, e in curve._fixed_bases.items() if e.rows is not None] == [key]\n"
        )

    def test_cap_holds_four_keys_besides_g(self, fresh):
        generator = curve._fixed_bases[G]
        keys = [G ** Scalar(0x100 + i) for i in range(curve._FIXED_BASES_CAP + 2)]
        for key in keys:
            for e in range(curve._TABLED_POWER):
                curve.fixed_base(key) ** (e + 1)
        assert list(curve._fixed_bases) == [G] + keys[2:]
        assert curve._fixed_bases[G] is generator
        assert all(entry.rows is not None for entry in list(curve._fixed_bases.values())[1:])
        k = 0xDEADBEEF << 120 | 0x17
        assert oracle.as_tuple(keys[-1] ** k) == oracle.point_mul(k, oracle.as_tuple(keys[-1]))
        # a dropped key's powers still agree, and marking it again starts its count over
        assert oracle.as_tuple(keys[0] ** k) == oracle.point_mul(k, oracle.as_tuple(keys[0]))
        curve.fixed_base(keys[0])
        assert list(curve._fixed_bases) == [G] + keys[3:] + keys[:1]
        assert curve._fixed_bases[keys[0]].rows is None
        assert oracle.as_tuple(keys[0] ** k) == oracle.point_mul(k, oracle.as_tuple(keys[0]))

    def test_only_marked_bases_are_tabled(self, fresh):
        point = G ** Scalar(0x77)
        for e in range(2 * curve._TABLED_POWER):
            point ** (e + 1)
        assert list(curve._fixed_bases) == [G]
        assert curve.fixed_base(Point.identity()) == Point.identity()
        assert list(curve._fixed_bases) == [G]

    def test_a_marked_key_is_found_by_value(self, fresh):
        key = curve.fixed_base(G ** Scalar(0x99))
        copy_of_key = Point(key.x, key.y)
        copy_of_key ** 5
        assert curve._fixed_bases[key].powers == 1


class TestTweakPoints:
    """The batched ``base * G ** k`` against the single path and the affine oracle."""

    @staticmethod
    def _expected(base, k):
        return oracle.point_add(oracle.as_tuple(base), oracle.point_mul(k % ORDER, oracle.G))

    def test_matches_single_path_and_oracle(self):
        rng = Random(24)
        bases = [G, TestMultiplyEngine.OTHER_BASE, G ** random_scalar(rng)]
        ks = [0, 1, 2, ORDER - 1] + list(SPECIAL_SCALARS) + [random_scalar(rng).value for _ in range(20)]
        pairs = [(bases[i % len(bases)], k) for i, k in enumerate(ks)]
        results = tweak_points(pairs)
        assert len(results) == len(pairs)
        for (base, k), result in zip(pairs, results):
            assert result == base * G ** k, hex(k)
            assert oracle.as_tuple(result) == self._expected(base, k), hex(k)

    def test_identity_base_gives_the_power_and_zero_gives_the_base(self):
        base = TestMultiplyEngine.OTHER_BASE
        assert tweak_points([(Point.identity(), 5), (base, 0), (Point.identity(), 0)]) == [
            G ** 5, base, Point.identity()]

    def test_scalar_and_unreduced_exponents(self):
        base = TestMultiplyEngine.OTHER_BASE
        assert tweak_points([(base, Scalar(7)), (base, -1), (base, ORDER + 3)]) == [
            base * G ** 7, base * G ** (ORDER - 1), base * G ** 3]

    def test_empty_batch(self):
        assert tweak_points([]) == []
        assert curve._base_mul_batch([]) == []

    def test_duplicate_exponents(self):
        rng = Random(25)
        k = random_scalar(rng).value
        other = TestMultiplyEngine.OTHER_BASE
        pairs = [(G, k), (other, k), (G, k), (other, k + 1), (other, k)]
        assert tweak_points(pairs) == [base * G ** e for base, e in pairs]

    def test_base_equal_or_opposite_to_the_power(self):
        # the final addition's zero-denominator branches: a doubling and a cancellation
        rng = Random(26)
        for k in [1, 2, ORDER - 1] + [random_scalar(rng).value for _ in range(3)]:
            power = G ** k
            doubled, cancelled, plain = tweak_points([(power, k), (power.inverse(), k), (G, k)])
            assert oracle.as_tuple(doubled) == oracle.point_double(oracle.as_tuple(power))
            assert cancelled.is_identity()
            assert plain == G * power

    def test_batch_add_branches_match_oracle(self):
        p, q = oracle.as_tuple(G ** 11), oracle.as_tuple(G ** 12)
        minus_p = (p[0], oracle.P - p[1])
        pairs = [(p, q), (p, p), (p, minus_p), (None, q), (p, None), (None, None)]
        assert curve._batch_add(pairs) == [oracle.point_add(a, b) for a, b in pairs]

    def test_lockstep_batch_matches_single_fixed_base(self):
        rng = Random(27)
        ks = [1, 2, ORDER - 1] + [random_scalar(rng).value for _ in range(10)]
        rows = curve._fixed_bases[G].table()
        assert curve._base_mul_batch(ks) == [curve._to_affine(curve._table_mul(rows, k)) for k in ks]


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

    @pytest.mark.parametrize("length", [0, 1, 31, 33])
    def test_from_bytes_takes_32_bytes_only(self, length):
        with pytest.raises(ValueError, match=f"need 32 bytes, got {length}"):
            Scalar.from_bytes(b"\x01" * length)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            Scalar(0).inverse()

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Scalar(1).value = 2


@pytest.mark.parametrize("value", [Scalar(ORDER - 1), G ** Scalar(3), Point.identity()],
                         ids=["scalar", "point", "identity"])
def test_copies_and_pickles_are_equal_hash_the_same_and_stay_immutable(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert type(copied) is type(value) and copied == value and hash(copied) == hash(value)
        with pytest.raises(AttributeError):
            setattr(copied, type(value).__slots__[0], None)
        assert copied == value


class TestEcdsa:
    def test_sign_verify_round_trips(self):
        rng = Random(15)
        for _ in range(100):
            pair = KeyPair.generate(rng)
            digest = sha256(rng.randbytes(rng.randrange(1, 64)))
            sig = ecdsa_sign(pair.private, digest)
            assert ecdsa_verify(pair.public, digest, sig)

    def test_deterministic_signatures(self):
        pair = KeyPair(Scalar(42))
        assert ecdsa_sign(pair.private, sha256(b"msg")) == ecdsa_sign(pair.private, sha256(b"msg"))

    def test_bit_flip_rejected(self):
        pair = KeyPair(Scalar(42))
        sig = ecdsa_sign(pair.private, sha256(b"payment"))
        for byte_index in range(len(b"payment")):
            for bit in range(8):
                tampered = bytearray(b"payment")
                tampered[byte_index] ^= 1 << bit
                assert not ecdsa_verify(pair.public, sha256(bytes(tampered)), sig)

    def test_wrong_key_rejected(self):
        pair = KeyPair(Scalar(42))
        sig = ecdsa_sign(pair.private, sha256(b"payment"))
        other = G ** Scalar(43)
        assert not ecdsa_verify(other, sha256(b"payment"), sig)

    def test_independent_verifier_agrees(self):
        rng = Random(16)
        for _ in range(10):
            pair = KeyPair.generate(rng)
            message = rng.randbytes(32)
            sig = ecdsa_sign(pair.private, sha256(message))
            assert oracle.ecdsa_verify(
                oracle.as_tuple(pair.public), message, sig.r.value, sig.s.value
            )

    def test_a_zero_key_does_not_sign(self):
        with pytest.raises(ValueError, match="nonzero"):
            ecdsa_sign(Scalar(0), sha256(b"m"))

    def test_each_retry_draws_the_next_nonce(self):
        priv, digest = Scalar(42), sha256(b"m")
        first, second = itertools.islice(curve._nonces(priv, digest), 2)
        mac = hmac.new(priv.to_bytes(), digest + (1).to_bytes(4, "big"), hashlib.sha256)
        assert second == int.from_bytes(mac.digest(), "big") % ORDER != first

    def test_a_zero_nonce_or_a_zero_s_is_retried(self, monkeypatch):
        # r = 0 needs a nonce whose G ** k has x = 0 mod n, which no one can find; its
        # retry stays, as ECDSA requires it.  The other two are made to happen.
        digest = sha256(b"m")
        z, k, retry = int.from_bytes(digest, "big") % ORDER, 7, 11
        r = (G ** k).x % ORDER
        priv = Scalar(-z * pow(r, -1, ORDER) % ORDER)  # so that s = (z + r * priv) / k = 0
        drawn = []

        def nonces(key, d):
            for nonce in (0, k, retry):
                drawn.append(nonce)
                yield nonce

        monkeypatch.setattr(curve, "_nonces", nonces)
        sig = ecdsa_sign(priv, digest)
        assert drawn == [0, k, retry]
        assert sig.r.value == (G ** retry).x % ORDER and ecdsa_verify(G ** priv, digest, sig)

    def test_zero_component_rejected(self):
        pair = KeyPair(Scalar(42))
        assert not ecdsa_verify(pair.public, sha256(b"m"), Signature(Scalar(0), Scalar(1)))
        assert not ecdsa_verify(pair.public, sha256(b"m"), Signature(Scalar(1), Scalar(0)))

    def test_signature_bytes_round_trip(self):
        sig = ecdsa_sign(Scalar(7), sha256(b"x"))
        assert Signature.from_bytes(sig.to_bytes()) == sig
        assert len(sig.to_bytes()) == 64

    def test_identity_candidate_rejected(self):
        # r = -z / d and s = 1 make u1 * G + u2 * P = (z + r * d) * G the identity
        d = 42
        pub = G ** Scalar(d)
        z = int.from_bytes(hashlib.sha256(b"m").digest(), "big") % ORDER
        r = -z * pow(d, -1, ORDER) % ORDER
        candidate = oracle.point_add(oracle.point_mul(z, oracle.G), oracle.point_mul(r, oracle.as_tuple(pub)))
        assert candidate is None
        assert not oracle.ecdsa_verify(oracle.as_tuple(pub), b"m", r, 1)
        assert not ecdsa_verify(pub, sha256(b"m"), Signature(Scalar(r), Scalar(1)))

    def test_identity_pubkey_rejected(self):
        sig = ecdsa_sign(Scalar(7), sha256(b"x"))
        assert not ecdsa_verify(Point.identity(), sha256(b"x"), sig)

    def test_candidate_x_past_the_order_accepted_as_r_plus_order(self):
        # a synthetic candidate R with x >= ORDER, so r = x - ORDER and the
        # verify matches through its r + ORDER branch; the key is solved for
        # from R, so that G ** u1 * pub ** u2 == R
        x = ORDER + 1  # r = x - ORDER must be nonzero
        while pow((x ** 3 + 7) % oracle.P, (oracle.P - 1) // 2, oracle.P) != 1:
            x += 1
        candidate = Point(x, pow((x ** 3 + 7) % oracle.P, (oracle.P + 1) // 4, oracle.P))
        r, s = x - ORDER, 0x5EED
        z = int.from_bytes(hashlib.sha256(b"r + n").digest(), "big") % ORDER
        w = pow(s, -1, ORDER)
        pub = (candidate * (G ** (z * w)).inverse()) ** pow(r * w, -1, ORDER)
        assert (G ** (z * w)) * (pub ** (r * w)) == candidate and candidate.x != r
        sig = Signature(Scalar(r), Scalar(s))
        assert oracle.ecdsa_verify(oracle.as_tuple(pub), b"r + n", r, s)
        assert ecdsa_verify(pub, sha256(b"r + n"), sig) and ecdsa_verify_openssl(pub, sha256(b"r + n"), sig)
        assert not ecdsa_verify(pub, sha256(b"r + n!"), sig)

    def test_random_verifies_match_oracle(self):
        rng = Random(63)
        for _ in range(6):
            pair = KeyPair.generate(rng)
            message = rng.randbytes(rng.randrange(0, 48))
            sig = ecdsa_sign(pair.private, sha256(message))
            r, s = sig.r.value, sig.s.value
            cases = [(pair.public, message, r, s), (pair.public, message, r, ORDER - s),
                     (G ** random_scalar(rng), message, r, s), (pair.public, message + b"x", r, s),
                     (pair.public, message, random_scalar(rng).value, random_scalar(rng).value)]
            for pub, m, r_, s_ in cases:
                expected = oracle.ecdsa_verify(oracle.as_tuple(pub), m, r_, s_)
                assert ecdsa_verify(pub, sha256(m), Signature(Scalar(r_), Scalar(s_))) == expected
            assert [oracle.ecdsa_verify(oracle.as_tuple(p), m, a, b) for p, m, a, b in cases[:2]] == [True, True]


class TestSignature:
    """A ``Signature`` holds its 64 bytes r || s, and reads as the two scalars."""

    def test_to_bytes_is_the_bytes_that_went_in(self):
        rng = Random(71)
        for _ in range(20):
            data = Scalar(rng.randrange(ORDER)).to_bytes() + Scalar(rng.randrange(ORDER)).to_bytes()
            sig = Signature.from_bytes(data)
            assert sig.to_bytes() == data and type(sig.to_bytes()) is bytes
            assert sig == Signature(Scalar.from_bytes(data[:32]), Scalar.from_bytes(data[32:]))
            assert (sig.r.to_bytes(), sig.s.to_bytes()) == (data[:32], data[32:])
        assert Signature.from_bytes(bytearray(data)).to_bytes() == data

    def test_from_bytes_rejects_wrong_lengths_and_out_of_range_scalars(self):
        valid = Scalar(5).to_bytes()
        for data in (b"", valid, valid * 2 + b"\x00", (valid * 2)[:63]):
            with pytest.raises(ValueError):
                Signature.from_bytes(data)
        for high in (ORDER, 2 ** 256 - 1):
            big = high.to_bytes(32, "big")
            for data in (big + valid, valid + big):
                with pytest.raises(ValueError):
                    Signature.from_bytes(data)

    def test_equality_and_hashing_go_by_value(self):
        sig = ecdsa_sign(Scalar(7), sha256(b"x"))
        same = Signature.from_bytes(bytes(sig.to_bytes()))
        other = ecdsa_sign(Scalar(7), sha256(b"y"))
        assert sig == same and hash(sig) == hash(same) and len({sig, same, other}) == 2
        assert sig != other and sig != sig.to_bytes() and sig != (sig.r, sig.s)
        for copied in (copy.copy(sig), copy.deepcopy(sig), pickle.loads(pickle.dumps(sig))):
            assert copied == sig and type(copied) is Signature

    def test_immutable_without_a_dict(self):
        sig = ecdsa_sign(Scalar(7), sha256(b"x"))
        for name in ("r", "s", "_bytes", "extra"):
            with pytest.raises(AttributeError):
                setattr(sig, name, Scalar(1))
        assert not hasattr(sig, "__dict__")
        assert sig.to_bytes() == ecdsa_sign(Scalar(7), sha256(b"x")).to_bytes()

    def test_repr_names_both_scalars(self):
        assert repr(Signature(Scalar(1), Scalar(0xAB))) == "Signature(r=Scalar(0x1), s=Scalar(0xab))"


class TestEcdsaVerifyOpenssl:
    """OpenSSL's verify against the pure one and the textbook oracle."""

    @staticmethod
    def _agree(pub, message, r, s):
        sig = Signature(Scalar(r), Scalar(s))
        expected = oracle.ecdsa_verify(oracle.as_tuple(pub), message, r, s)
        digest = sha256(message)
        assert ecdsa_verify_openssl(pub, digest, sig) == ecdsa_verify(pub, digest, sig) == expected
        return expected

    def test_seeded_cases_match_pure_and_oracle(self):
        rng = Random(61)
        for _ in range(8):
            pair, other = KeyPair.generate(rng), KeyPair.generate(rng)
            message = rng.randbytes(rng.randrange(0, 80))
            sig = ecdsa_sign(pair.private, sha256(message))
            r, s = sig.r.value, sig.s.value
            assert self._agree(pair.public, message, r, s)
            # ECDSA without a low-s rule accepts both s and n - s
            assert self._agree(pair.public, message, r, ORDER - s)
            assert not self._agree(other.public, message, r, s)
            assert not self._agree(pair.public, message + b"x", r, s)
            assert not self._agree(pair.public, message, s, r)

    def test_degenerate_inputs_rejected(self):
        pair = KeyPair(Scalar(42))
        sig = ecdsa_sign(pair.private, sha256(b"m"))
        assert not ecdsa_verify_openssl(Point.identity(), sha256(b"m"), sig)
        assert not ecdsa_verify_openssl(pair.public, sha256(b"m"), sig.to_bytes())
        for r, s in ((0, sig.s.value), (sig.r.value, 0), (0, 0)):
            assert not self._agree(pair.public, b"m", r, s)

    def test_identity_candidate_rejected(self):
        # r = -z / d and s = 1 put u1 * G + u2 * P at the identity
        d = 42
        z = int.from_bytes(hashlib.sha256(b"m").digest(), "big") % ORDER
        assert not self._agree(G ** Scalar(d), b"m", -z * pow(d, -1, ORDER) % ORDER, 1)


def _textbook(pub, z, r, s) -> bool:
    """``oracle.ecdsa_verify``'s rule on z itself, for digests that no known message hashes to."""
    if not (0 < r < ORDER and 0 < s < ORDER):
        return False
    w = pow(s, -1, ORDER)
    candidate = oracle.point_add(oracle.point_mul(z * w % ORDER, oracle.G),
                                 oracle.point_mul(r * w % ORDER, oracle.as_tuple(pub)))
    return candidate is not None and candidate[0] % ORDER == r


class TestEcdsaDigest:
    """Signing and both verifies take the 32-byte digest a signature covers."""

    @pytest.mark.parametrize("length", [0, 20, 31, 33, 64, 200])
    def test_every_ecdsa_function_refuses_a_digest_that_is_not_32_bytes(self, length):
        pair = KeyPair(Scalar(42))
        sig = ecdsa_sign(pair.private, sha256(b"m"))
        digest = bytes(range(length))
        # the length is checked before anything else, the early rejects included
        for call in (lambda: ecdsa_sign(pair.private, digest),
                     lambda: ecdsa_verify(pair.public, digest, sig),
                     lambda: ecdsa_verify(Point.identity(), digest, sig),
                     lambda: ecdsa_verify_openssl(pair.public, digest, sig),
                     lambda: ecdsa_verify_openssl(pair.public, digest, sig.to_bytes())):
            with pytest.raises(ValueError, match="32-byte digest"):
                call()

    def test_a_signature_is_the_one_the_message_api_gave(self):
        # ``ecdsa_sign(Scalar(7), b"x")`` when sign took the message and hashed it
        expected = ("3bcc0b428860a9ab25e96ea0fd6f51a3b39b33a5e977e81a60aab57f55daa714"
                    "3b866b3b2bafe813f60457851393ca1838dc360b394e9dff83e38726ee246f5f")
        assert ecdsa_sign(Scalar(7), sha256(b"x")).hex() == expected

    @pytest.mark.parametrize("digest", [b"\x00" * 32, b"\xff" * 32, ORDER.to_bytes(32, "big"),
                                        (ORDER + 1).to_bytes(32, "big"), sha256(b"random")],
                             ids=["zero", "all-ones", "order", "order-plus-one", "random"])
    def test_pure_openssl_and_textbook_agree_on_any_digest(self, digest):
        rng = Random(digest)
        pair = KeyPair.generate(rng)
        sig = ecdsa_sign(pair.private, digest)
        z, r, s = int.from_bytes(digest, "big") % ORDER, sig.r.value, sig.s.value
        cases = [(pair.public, r, s, True), (pair.public, r, ORDER - s, True),
                 (G ** random_scalar(rng), r, s, False), (pair.public, s, r, False)]
        for pub, r_, s_, valid in cases:
            candidate = Signature(Scalar(r_), Scalar(s_))
            assert ecdsa_verify(pub, digest, candidate) == ecdsa_verify_openssl(pub, digest, candidate) \
                == _textbook(pub, z, r_, s_) == valid
        # both verifies read a digest mod the order, as the textbook does
        reduced = z.to_bytes(32, "big")
        assert ecdsa_verify(pair.public, reduced, sig) and ecdsa_verify_openssl(pair.public, reduced, sig)

    def test_pure_openssl_and_oracle_agree_on_random_digests_with_r_plus_order(self):
        # as ``test_candidate_x_past_the_order_accepted_as_r_plus_order``, on
        # random digests: R.x is past the order, so r = R.x - ORDER
        x = ORDER + 1
        while pow((x ** 3 + 7) % oracle.P, (oracle.P - 1) // 2, oracle.P) != 1:
            x += 1
        candidate = Point(x, pow((x ** 3 + 7) % oracle.P, (oracle.P + 1) // 4, oracle.P))
        rng = Random(67)
        for _ in range(3):
            message = rng.randbytes(rng.randrange(0, 64))
            digest, r, s = sha256(message), x - ORDER, rng.randrange(1, ORDER)
            z, w = int.from_bytes(digest, "big") % ORDER, pow(s, -1, ORDER)
            pub = (candidate * (G ** (z * w)).inverse()) ** pow(r * w, -1, ORDER)
            sig = Signature(Scalar(r), Scalar(s))
            assert oracle.ecdsa_verify(oracle.as_tuple(pub), message, r, s)
            assert ecdsa_verify(pub, digest, sig) and ecdsa_verify_openssl(pub, digest, sig)
            other = sha256(message + b"!")
            assert not oracle.ecdsa_verify(oracle.as_tuple(pub), message + b"!", r, s)
            assert not ecdsa_verify(pub, other, sig) and not ecdsa_verify_openssl(pub, other, sig)


class TestKeyPair:
    def test_public_matches_private(self):
        pair = KeyPair.generate(Random(17))
        assert pair.public == G ** pair.private
        assert oracle.as_tuple(pair.public) == oracle.point_mul(pair.private.value, oracle.G)

    def test_zero_private_rejected(self):
        with pytest.raises(ValueError, match="private key must be nonzero"):
            KeyPair(Scalar(0))

    def test_public_cannot_be_given_or_replaced(self):
        # every keypair's public key is derived, so none can disagree with its private key
        pair = KeyPair(Scalar(42))
        with pytest.raises(TypeError):
            KeyPair(Scalar(42), G ** Scalar(43))
        with pytest.raises(TypeError):
            KeyPair(Scalar(42), public=G ** Scalar(43))
        with pytest.raises(ValueError):
            dataclasses.replace(pair, public=G ** Scalar(43))
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.public = G ** Scalar(43)
        moved = dataclasses.replace(pair, private=Scalar(43))
        assert moved.public == G ** Scalar(43)
        assert copy.deepcopy(pair) == pickle.loads(pickle.dumps(pair)) == pair

    def test_generation_reproducible_under_seed(self):
        assert KeyPair.generate(Random(5)) == KeyPair.generate(Random(5))
