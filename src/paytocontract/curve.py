"""Finite-field and group arithmetic on secp256k1, hashing, and ECDSA.

The group is written multiplicatively to keep exponent notation readable:
``p * q`` combines two points and ``p ** k`` is scalar multiplication, so a
keypair satisfies ``public == G ** private`` and key homomorphism reads
``G ** (a + b) == G ** a * G ** b``.  Internally the group is written
additively; only the abstract group is exposed.  ``p ** k`` runs in
Jacobian coordinates, through a fixed-base table for ``G`` and for the keys
``fixed_base`` marks as long-lived, while ``p * q`` and the batch path
``tweak_points`` (many ``base * G ** k``) add in affine coordinates, a batch
sharing its inversions.  ``shared_xs`` hands a batch of x-only Diffie-Hellman values to
OpenSSL, and ``ecdsa_verify_openssl`` checks a signature there, for the
ledger replay's many verifies; ``cryptography`` is imported on the first
such call, once per process.

All values are immutable; a power's result never depends on which route computed it.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import secrets
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from .errors import ProtocolError

# secp256k1 domain parameters
ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
FIELD_PRIME = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

SCALAR_BYTES = 32
POINT_BYTES = 33  # SEC1 compressed


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _select_ripemd160() -> Callable[[bytes], bytes]:
    """OpenSSL's RIPEMD-160 when this build provides it, else the pure-Python one.

    OpenSSL 3 keeps RIPEMD-160 in its legacy provider, which many hosts do
    not load; ``hashlib.new`` then raises ``ValueError``.
    """
    try:
        hashlib.new("ripemd160")
    except ValueError:
        from .ripemd160 import ripemd160
        return ripemd160
    return lambda data: hashlib.new("ripemd160", data).digest()


_ripemd160 = _select_ripemd160()


def hash160(data: bytes) -> bytes:
    """RIPEMD-160 of SHA-256, the 20-byte address hash."""
    return _ripemd160(sha256(data))


def rand_bytes(n: int, rng: Optional[Random] = None) -> bytes:
    """``n`` random bytes; a seeded ``random.Random`` makes them reproducible."""
    if rng is None:
        return secrets.token_bytes(n)
    return rng.randbytes(n)


@dataclass(frozen=True, slots=True)
class Scalar:
    """Element of the exponent group, an integer modulo the curve order."""

    value: int

    def __post_init__(self):
        if not 0 <= self.value < ORDER:
            raise ValueError("scalar out of range")

    @classmethod
    def reduce(cls, value: int) -> Scalar:
        return cls(value % ORDER)

    @classmethod
    def from_bytes(cls, data: bytes) -> Scalar:
        if len(data) != SCALAR_BYTES:
            raise ValueError(f"need {SCALAR_BYTES} bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(SCALAR_BYTES, "big")

    def __add__(self, other: Scalar) -> Scalar:
        return Scalar((self.value + other.value) % ORDER)

    def __sub__(self, other: Scalar) -> Scalar:
        return Scalar((self.value - other.value) % ORDER)

    def __mul__(self, other: Scalar) -> Scalar:
        return Scalar(self.value * other.value % ORDER)

    def inverse(self) -> Scalar:
        if self.value == 0:
            raise ZeroDivisionError("cannot invert zero scalar")
        return Scalar(pow(self.value, -1, ORDER))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"Scalar(0x{self.value:x})"


def random_scalar(rng: Optional[Random] = None) -> Scalar:
    """Uniform nonzero scalar via rejection sampling."""
    while True:
        v = int.from_bytes(rand_bytes(SCALAR_BYTES, rng), "big")
        if 0 < v < ORDER:
            return Scalar(v)


def hash_to_scalar(data: bytes) -> Scalar:
    """SHA-256 digest read as a big-endian integer, reduced modulo the order."""
    return Scalar.reduce(int.from_bytes(sha256(data), "big"))


# ---------------------------------------------------------------------------
# Jacobian arithmetic (module-private).  A point is (X, Y, Z) with
# x = X/Z^2, y = Y/Z^3; the identity is any triple with Z == 0.  Affine
# points are (x, y) pairs.  The formulas are the a = 0 ones of the
# Explicit-Formulas Database (https://hyperelliptic.org/EFD).

_JID = (0, 1, 0)


def _dbl(p):
    # dbl-2009-l, with D = 4*X1*B in place of the EFD's 2*((X1+B)^2-A-C):
    # the squaring trick saves nothing in Python.  The identity maps to
    # itself (Z3 == 0), and secp256k1 has no point with y == 0.
    X, Y, Z = p
    B = Y * Y % FIELD_PRIME
    D = 4 * X * B % FIELD_PRIME
    E = 3 * X * X % FIELD_PRIME
    X3 = (E * E - 2 * D) % FIELD_PRIME
    return (X3, (E * (D - X3) - 8 * B * B) % FIELD_PRIME, 2 * Y * Z % FIELD_PRIME)


def _madd(p, q):
    # madd-2007-bl: Jacobian ``p`` plus affine ``q``, with Z3 = 2*Z1*H.
    X1, Y1, Z1 = p
    x2, y2 = q
    if Z1 == 0:
        return (x2, y2, 1)
    Z1Z1 = Z1 * Z1 % FIELD_PRIME
    H = (x2 * Z1Z1 - X1) % FIELD_PRIME
    r = 2 * (y2 * Z1 * Z1Z1 - Y1) % FIELD_PRIME
    if H == 0:
        return _dbl(p) if r == 0 else _JID
    HH = H * H % FIELD_PRIME
    I = 4 * HH
    J = H * I % FIELD_PRIME
    V = X1 * I % FIELD_PRIME
    X3 = (r * r - J - 2 * V) % FIELD_PRIME
    return (X3, (r * (V - X3) - 2 * Y1 * J) % FIELD_PRIME, 2 * Z1 * H % FIELD_PRIME)


def _batch_inverse(values):
    # Montgomery's simultaneous inversion: one field inversion for the whole
    # list.  No value may be zero.
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % FIELD_PRIME
    inv = pow(acc, -1, FIELD_PRIME)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % FIELD_PRIME
        inv = inv * values[i] % FIELD_PRIME
    return out


def _batch_to_affine(points):
    """Affine forms of Jacobian points, none of them the identity."""
    out = []
    for (X, Y, Z), zi in zip(points, _batch_inverse([p[2] for p in points])):
        zi2 = zi * zi % FIELD_PRIME
        out.append((X * zi2 % FIELD_PRIME, Y * zi2 * zi % FIELD_PRIME))
    return out


def _to_affine(p):
    """The affine form of one Jacobian point, None for the identity."""
    return None if p[2] == 0 else _batch_to_affine([p])[0]


# Fixed base: k is recoded into signed digits d_i in (-2^(W-1), 2^(W-1)], so
# k = sum d_i * 2^(W*i), and B ** k is one mixed addition per nonzero digit
# from an affine table row[i][|d|-1] = |d| * 2^(W*i) * B, negated for d < 0.
# One engine serves every long-lived base: G, and each key ``fixed_base``
# marks (the merchant key of the signal and dispute flows).  A base's table
# is built on its _TABLED_POWER-th power, so importing the package pays for
# none, and a process's first powers of a base go through _var_mul.
#
# A table costs 7-9 ms to build in a warm process (12-14 ms as the first
# work of a fresh one), after which a power takes about 0.26 ms against
# 0.85 ms through _var_mul (CPython 3.11, 2-core x86-64 host): a dozen or
# more powers to break even, while a short-lived ``p2c`` command does 1-4.
# So the 12th power builds the table, and a process that goes on to
# thousands pays about one more build's worth.  The same build cost fixes
# W: 6 bits hold 1376 points, about 250 KiB by ``sys.getsizeof``; 7 and 8
# bits multiply faster but take 2x and 3x as long to build.  At most
# _FIXED_BASES_CAP marked keys are held besides G, oldest dropped first;
# G is never dropped, and ``tweak_points`` builds its table at once.
_TABLE_WINDOW = 6
_TABLE_ROWS = -(-(ORDER.bit_length() + 1) // _TABLE_WINDOW)  # room for the last carry
_TABLED_POWER = 12
_FIXED_BASES_CAP = 4


def _build_table(x, y):
    # Row i is built in affine coordinates, B, 2B, ..., (2^(W-1))B for
    # B = 2^(W*i) * (x, y), one column at a time: each column shares a
    # single batched inversion across the rows.
    p = (x, y, 1)
    jacobian = [p]
    for _ in range(_TABLE_ROWS - 1):
        for _ in range(_TABLE_WINDOW):
            p = _dbl(p)
        jacobian.append(p)
    bases = _batch_to_affine(jacobian)
    columns = [bases, _batch_to_affine([_dbl(b) for b in jacobian])]
    for _ in range(3, (1 << (_TABLE_WINDOW - 1)) + 1):
        # jB + B is a chord for 2 <= j < 2^(W-1): jB != +-B, as the group order is prime
        columns.append(_batch_add(list(zip(columns[-1], bases))))
    return [list(row) for row in zip(*columns)]


def _table_terms(rows, k):
    """Yield the affine table entries whose sum is ``B ** k``, one per row of
    B's table, None for a zero digit."""
    size = 1 << _TABLE_WINDOW
    mask = size - 1
    half = size >> 1
    for row in rows:
        d = k & mask
        k >>= _TABLE_WINDOW
        if d > half:
            d -= size
            k += 1
        if d > 0:
            yield row[d - 1]
        elif d < 0:
            x, y = row[-d - 1]
            yield x, FIELD_PRIME - y
        else:
            yield None


def _table_mul(rows, k):
    acc = _JID
    for term in _table_terms(rows, k):
        if term is not None:
            acc = _madd(acc, term)
    return acc


class _FixedBase:
    """A long-lived base: the count of its powers, then its table."""

    __slots__ = ("x", "y", "powers", "rows")

    def __init__(self, x, y):
        self.x, self.y, self.powers, self.rows = x, y, 0, None

    def table(self):
        if self.rows is None:
            self.rows = _build_table(self.x, self.y)
        return self.rows

    def mul(self, k):
        """Jacobian ``base ** k``: through _var_mul until the _TABLED_POWER-th power builds the table."""
        if self.rows is None:
            self.powers += 1
            if self.powers < _TABLED_POWER:
                return _var_mul(k, self.x, self.y)
        return _table_mul(self.table(), k)


def _batch_add(pairs):
    """``p + q`` for each pair of affine points, None standing for the identity.

    Every chord's slope denominator shares one ``_batch_inverse``; a pair with
    equal x-coordinates (a doubling or a cancelling pair) goes through
    ``_madd`` instead.
    """
    out = [None] * len(pairs)
    chords = []
    for i, (p, q) in enumerate(pairs):
        if p is None:
            out[i] = q
        elif q is None:
            out[i] = p
        elif p[0] == q[0]:
            out[i] = _to_affine(_madd((p[0], p[1], 1), q))
        else:
            chords.append(i)
    if chords:
        inverses = _batch_inverse([pairs[i][1][0] - pairs[i][0][0] for i in chords])
        for i, inv in zip(chords, inverses):
            (x1, y1), (x2, y2) = pairs[i]
            slope = (y2 - y1) * inv % FIELD_PRIME
            x3 = (slope * slope - x1 - x2) % FIELD_PRIME
            out[i] = (x3, (slope * (x1 - x3) - y1) % FIELD_PRIME)
    return out


def _base_mul_batch(ks):
    """Affine ``G ** k`` for each k, the whole batch walking G's table rows in
    lockstep: one ``_batch_add``, so one inversion, per row.  Each k's terms
    are generated row by row, so the batch never holds them all."""
    rows = _fixed_bases[G].table()
    sums = [None] * len(ks)
    for column in zip(*(_table_terms(rows, k) for k in ks)):
        sums = _batch_add(list(zip(sums, column)))
    return sums


# Variable base: the GLV endomorphism (x, y) -> (BETA * x, y) multiplies by
# LAMBDA, so k = k1 + k2 * LAMBDA (mod ORDER) with |k1|, |k2| about 2^128
# halves the doublings.  Both halves are recoded in width-_VAR_WINDOW NAF
# and share one double-and-add loop over affine odd multiples of P and of
# BETA * P.  Split constants: Guide to Elliptic Curve Cryptography,
# Algorithm 3.74, with the basis used by libsecp256k1.
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1
_VAR_WINDOW = 5


def _glv_split(k):
    """Return (k1, k2) with k == k1 + k2 * _LAMBDA (mod ORDER), each about 2^128."""
    half = ORDER >> 1
    c1 = (_B2 * k + half) // ORDER
    c2 = (-_B1 * k + half) // ORDER
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _wnaf(k):
    """Width-_VAR_WINDOW NAF of k >= 0, least significant digit first."""
    size = 1 << _VAR_WINDOW
    half = size >> 1
    digits = []
    while k:
        zeros = (k & -k).bit_length() - 1
        digits += [0] * zeros
        k >>= zeros
        d = k & (size - 1)
        if d >= half:
            d -= size
        digits.append(d)
        k = (k - d) >> 1
    return digits


def _odd_table(odd, negate):
    """table[d] == d * Q for odd |d| < 2^(W-1), negative d at negative indices,
    from odd[i] == (2i + 1) * P with Q = -P if ``negate`` else P."""
    table = [None] * (1 << _VAR_WINDOW)
    for i, (x, y) in enumerate(odd):
        if negate:
            y = FIELD_PRIME - y
        table[2 * i + 1] = (x, y)
        table[-2 * i - 1] = (x, FIELD_PRIME - y)
    return table


def _var_mul(k, x, y):
    size = 1 << _VAR_WINDOW
    # Odd multiples P, 3P, ..., (size/2 - 1)P, stepping by 2P = (X2, Y2, Z)
    # without inverting Z: on the isomorphic curve y^2 = x^3 + 7*Z^6, where
    # (x, y) maps to (x*Z^2, y*Z^3), 2P is the affine (X2, Y2), and the a = 0
    # formulas never read the curve constant.  A Jacobian (X, Y, Z') there
    # is (X, Y, Z' * Z) on secp256k1.
    X2, Y2, Z = _dbl((x, y, 1))
    zz = Z * Z % FIELD_PRIME
    p = (x * zz % FIELD_PRIME, y * zz * Z % FIELD_PRIME, 1)
    odd = [p]
    for _ in range((size >> 2) - 1):
        p = _madd(p, (X2, Y2))
        odd.append(p)
    odd = _batch_to_affine([(X, Y, Zi * Z % FIELD_PRIME) for X, Y, Zi in odd])
    k1, k2 = _glv_split(k)
    t1 = _odd_table(odd, k1 < 0)
    t2 = _odd_table([(_BETA * mx % FIELD_PRIME, my) for mx, my in odd], k2 < 0)
    n1, n2 = _wnaf(abs(k1)), _wnaf(abs(k2))
    length = max(len(n1), len(n2))
    n1 += [0] * (length - len(n1))
    n2 += [0] * (length - len(n2))
    acc = _JID
    for i in range(length - 1, -1, -1):
        acc = _dbl(acc)
        d = n1[i]
        if d:
            acc = _madd(acc, t1[d])
        d = n2[i]
        if d:
            acc = _madd(acc, t2[d])
    return acc


@dataclass(frozen=True, slots=True)
class Point:
    """secp256k1 group element: an affine curve point or the identity."""

    x: Optional[int]
    y: Optional[int]

    def __post_init__(self):
        x, y = self.x, self.y
        if (x is None) != (y is None):
            raise ValueError("both coordinates or neither")
        if x is not None:
            if not (0 <= x < FIELD_PRIME and 0 <= y < FIELD_PRIME):
                raise ValueError("coordinate out of range")
            if (y * y - x * x * x - 7) % FIELD_PRIME != 0:
                raise ValueError("point not on curve")

    @classmethod
    def identity(cls) -> Point:
        return cls(None, None)

    def is_identity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        """SEC1 compressed encoding: parity prefix plus big-endian x."""
        if self.is_identity():
            raise ProtocolError("identity not encodable")
        prefix = b"\x03" if self.y & 1 else b"\x02"
        return prefix + self.x.to_bytes(32, "big")

    @classmethod
    def decode(cls, data: bytes) -> Point:
        if len(data) != POINT_BYTES or data[0] not in (2, 3):
            raise ProtocolError("invalid point", "bad length or prefix")
        x = int.from_bytes(data[1:], "big")
        if x >= FIELD_PRIME:
            raise ProtocolError("invalid point", "x out of range")
        y_sq = (pow(x, 3, FIELD_PRIME) + 7) % FIELD_PRIME
        y = pow(y_sq, (FIELD_PRIME + 1) // 4, FIELD_PRIME)
        if y * y % FIELD_PRIME != y_sq:
            raise ProtocolError("invalid point", "x not on curve")
        if (y & 1) != (data[0] & 1):
            y = FIELD_PRIME - y
        return cls(x, y)

    def __mul__(self, other: Point) -> Point:
        """Group operation: the product of two elements in multiplicative notation."""
        if not isinstance(other, Point):
            return NotImplemented
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        return _from_affine(_batch_add([((self.x, self.y), (other.x, other.y))])[0])

    def __pow__(self, exponent: Union[Scalar, int]) -> Point:
        """Repeated group operation; exponents live modulo the curve order."""
        k = exponent.value if isinstance(exponent, Scalar) else exponent % ORDER
        if k == 0 or self.is_identity():
            return Point.identity()
        base = _fixed_bases.get(self)
        return _from_affine(_to_affine(_var_mul(k, self.x, self.y) if base is None else base.mul(k)))

    def inverse(self) -> Point:
        if self.is_identity():
            return self
        return Point(self.x, FIELD_PRIME - self.y)

    def __repr__(self) -> str:
        if self.is_identity():
            return "Point(identity)"
        return f"Point(0x{self.x:064x}, parity={self.y & 1})"


G = Point(_GX, _GY)

# base point -> its _FixedBase, in marking order; G is first and never dropped
_fixed_bases = {G: _FixedBase(_GX, _GY)}


def fixed_base(point: Point) -> Point:
    """Mark ``point`` as a long-lived base and return it, so that its powers
    share one fixed-base table once there are enough of them to pay for it.

    Mark only a key that a process raises many times, such as a merchant's
    reputation key: each table holds about 250 KiB.  The registry is keyed
    by value, so any equal point's powers take the same route.
    """
    if point not in _fixed_bases and not point.is_identity():
        _fixed_bases[point] = _FixedBase(point.x, point.y)
        if len(_fixed_bases) > _FIXED_BASES_CAP + 1:
            del _fixed_bases[list(_fixed_bases)[1]]  # the oldest after G
    return point


def _from_affine(p) -> Point:
    """The Point of an affine pair, None standing for the identity."""
    return Point.identity() if p is None else Point(p[0], p[1])


def tweak_points(pairs: Iterable[Tuple[Point, Union[Scalar, int]]]) -> List[Point]:
    """``base * G ** k`` for each ``(base, k)`` pair, computed as one batch.

    Each distinct k's ``G ** k`` is built once, in affine coordinates, with
    the whole batch sharing one field inversion per fixed-base table row;
    the bases are then added in one more batched addition.  A batch pays
    one inversion per row however small it is, so a single pair stays with
    ``base * G ** k``.
    """
    pairs = [(base, k.value if isinstance(k, Scalar) else k % ORDER) for base, k in pairs]
    ks = list(dict.fromkeys(k for _, k in pairs))
    powers = dict(zip(ks, _base_mul_batch(ks)))
    sums = _batch_add([(None if base.is_identity() else (base.x, base.y), powers[k]) for base, k in pairs])
    return [_from_affine(s) for s in sums]


@functools.cache
def _openssl():
    """OpenSSL's secp256k1 through ``cryptography``, loaded on the first call:
    ``(ec, curve, ECDSA-over-a-SHA-256-digest, encode_dss_signature, InvalidSignature)``.
    A process that stays in the pure engine never imports it."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.hazmat.primitives.asymmetric.utils import Prehashed, encode_dss_signature
    from cryptography.hazmat.primitives.hashes import SHA256

    return ec, ec.SECP256K1(), ec.ECDSA(Prehashed(SHA256())), encode_dss_signature, InvalidSignature


def shared_xs(priv: Scalar, points: Iterable[Point]) -> List[Optional[int]]:
    """``(p ** priv).x`` for each point: None for the identity, else an int.

    OpenSSL's x-only ECDH, for scans that need only the x-coordinates of
    many Diffie-Hellman points under one nonzero key.  An exchange costs
    about half a ``P ** k``, but building the OpenSSL key costs about one
    exchange, so a single multiply, and any caller that needs the whole
    point, stays with ``P ** k``.
    """
    ec, secp256k1, *_ = _openssl()
    key = ec.derive_private_key(priv.value, secp256k1)
    ecdh = ec.ECDH()
    xs: List[Optional[int]] = []
    for p in points:
        if p.is_identity():
            xs.append(None)
        else:
            peer = ec.EllipticCurvePublicNumbers(p.x, p.y, secp256k1).public_key()
            xs.append(int.from_bytes(key.exchange(ecdh, peer), "big"))
    return xs


@dataclass(frozen=True)
class KeyPair:
    """Private exponent and its public point.  ``public`` is derived here, as
    ``G ** private``, and cannot be passed in or replaced, so no keypair holds
    a public key that is not its private key's."""

    private: Scalar
    public: Point = field(init=False)

    def __post_init__(self):
        if not self.private:
            raise ValueError("private key must be nonzero")
        object.__setattr__(self, "public", G ** self.private)

    @classmethod
    def generate(cls, rng: Optional[Random] = None) -> KeyPair:
        return cls(random_scalar(rng))


class Signature(bytes):
    """ECDSA signature.  The object is its own 64-byte serialization r || s, a
    ``bytes`` with no further fields, so a ledger holds one small object per
    signature; ``r`` and ``s`` are read out as ``Scalar``s.  It equals only
    another ``Signature`` with the same bytes, never the plain bytes."""

    __slots__ = ()

    def __new__(cls, r: Scalar, s: Scalar):
        return super().__new__(cls, r.to_bytes() + s.to_bytes())

    def __reduce__(self):
        # ``bytes`` would rebuild through ``cls(data)``, which takes (r, s)
        return Signature.from_bytes, (bytes(self),)

    @property
    def r(self) -> Scalar:
        return Scalar.from_bytes(self[:32])

    @property
    def s(self) -> Scalar:
        return Scalar.from_bytes(self[32:])

    def to_bytes(self) -> bytes:
        return bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> Signature:
        if len(data) != 64:
            raise ValueError(f"need 64 bytes, got {len(data)}")
        return cls(Scalar.from_bytes(data[:32]), Scalar.from_bytes(data[32:]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and bytes.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = bytes.__hash__

    def __repr__(self) -> str:
        return f"Signature(r={self.r!r}, s={self.s!r})"


def _nonces(priv: Scalar, digest: bytes) -> Iterator[int]:
    # Deterministic nonce stream: keyed hash of (private key, digest, retry
    # counter).  Reproducible signing, no RNG failure class.
    counter = 0
    while True:
        mac = hmac.new(priv.to_bytes(), digest + counter.to_bytes(4, "big"), hashlib.sha256)
        yield int.from_bytes(mac.digest(), "big") % ORDER
        counter += 1


def _digest_int(digest: bytes) -> int:
    """ECDSA's z: the 32-byte digest a signature covers, read mod the order.
    Any other length is a ``ValueError``, so no caller signs a message unhashed."""
    if len(digest) != 32:
        raise ValueError(f"need a 32-byte digest, got {len(digest)} bytes")
    return int.from_bytes(digest, "big") % ORDER


def ecdsa_sign(priv: Scalar, digest: bytes) -> Signature:
    """Sign a 32-byte digest, such as a txid; deterministic in (priv, digest)."""
    if not priv:
        raise ValueError("private key must be nonzero")
    z = _digest_int(digest)
    for k in _nonces(priv, digest):
        if k == 0:
            continue
        r = (G ** k).x % ORDER
        if r == 0:
            continue
        s = pow(k, -1, ORDER) * (z + r * priv.value) % ORDER
        if s == 0:
            continue
        return Signature(Scalar(r), Scalar(s))


def _unverifiable(pub: Point, sig: Signature) -> bool:
    """Both verifies' one early reject: not a ``Signature``, r or s zero, or the identity key."""
    return not isinstance(sig, Signature) or not any(sig[:32]) or not any(sig[32:]) or pub.is_identity()


def ecdsa_verify(pub: Point, digest: bytes, sig: Signature) -> bool:
    """True iff ``sig`` is valid on the 32-byte ``digest`` under ``pub``."""
    z = _digest_int(digest)
    if _unverifiable(pub, sig):
        return False
    r, s = sig.r.value, sig.s.value
    w = pow(s, -1, ORDER)
    # R = G ** u1 * pub ** u2, pub ** u2 made affine (u2 != 0, so never the
    # identity): R.x mod ORDER == r holds iff X == x * Z^2 for x = r, or
    # x = r + ORDER below the field prime, so R itself is never inverted
    X, _, Z = _madd(_fixed_bases[G].mul(z * w % ORDER), _to_affine(_var_mul(r * w % ORDER, pub.x, pub.y)))
    if Z == 0:
        return False
    zz = Z * Z % FIELD_PRIME
    return X == r * zz % FIELD_PRIME or (r + ORDER < FIELD_PRIME and X == (r + ORDER) * zz % FIELD_PRIME)


def ecdsa_verify_openssl(pub: Point, digest: bytes, sig: Signature) -> bool:
    """``ecdsa_verify`` through OpenSSL, about three times faster per signature.
    OpenSSL takes the digest as already hashed (``Prehashed(SHA256())``).

    The first call in a process imports ``cryptography``'s EC module, which
    raised peak RSS by about 6.5 MB on CPython 3.11 with cryptography 48,
    and the first verify adds about 1.8 MB of key and verify state.  So only
    a replay of the whole record, which verifies every signature on it, uses
    it; a single broadcast and a contract's signatures stay with the pure
    ``ecdsa_verify``.
    """
    _digest_int(digest)
    if _unverifiable(pub, sig):
        return False
    ec, secp256k1, ecdsa, encode_dss_signature, invalid_signature = _openssl()
    key = ec.EllipticCurvePublicNumbers(pub.x, pub.y, secp256k1).public_key()
    try:
        key.verify(encode_dss_signature(sig.r.value, sig.s.value), digest, ecdsa)
    except invalid_signature:
        return False
    return True
