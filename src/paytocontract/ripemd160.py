"""Pure-Python RIPEMD-160.

OpenSSL 3 ships RIPEMD-160 only in its legacy provider, so
``hashlib.new("ripemd160")`` fails on many hosts.  This is the reference
algorithm (Dobbertin, Bosselaers, Preneel) in plain Python, which
``curve.hash160`` falls back to on such hosts.
"""

import struct

# message schedule permutations, left and right lines
_RL = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [7, 4, 13, 1, 10, 6, 15, 3, 12, 0, 9, 5, 2, 14, 11, 8],
    [3, 10, 14, 4, 9, 15, 8, 1, 2, 7, 0, 6, 13, 11, 5, 12],
    [1, 9, 11, 10, 0, 8, 12, 4, 13, 3, 7, 15, 14, 5, 6, 2],
    [4, 0, 5, 9, 7, 12, 2, 10, 14, 1, 3, 8, 11, 6, 15, 13],
]
_RR = [
    [5, 14, 7, 0, 9, 2, 11, 4, 13, 6, 15, 8, 1, 10, 3, 12],
    [6, 11, 3, 7, 0, 13, 5, 10, 14, 15, 8, 12, 4, 9, 1, 2],
    [15, 5, 1, 3, 7, 14, 6, 9, 11, 8, 12, 2, 10, 0, 4, 13],
    [8, 6, 4, 1, 3, 11, 15, 0, 5, 12, 2, 13, 9, 7, 10, 14],
    [12, 15, 10, 4, 1, 5, 8, 7, 6, 2, 13, 14, 0, 3, 9, 11],
]
# per-step rotate amounts
_SL = [
    [11, 14, 15, 12, 5, 8, 7, 9, 11, 13, 14, 15, 6, 7, 9, 8],
    [7, 6, 8, 13, 11, 9, 7, 15, 7, 12, 15, 9, 11, 7, 13, 12],
    [11, 13, 6, 7, 14, 9, 13, 15, 14, 8, 13, 6, 5, 12, 7, 5],
    [11, 12, 14, 15, 14, 15, 9, 8, 9, 14, 5, 6, 8, 6, 5, 12],
    [9, 15, 5, 11, 6, 8, 13, 12, 5, 12, 13, 14, 11, 8, 5, 6],
]
_SR = [
    [8, 9, 9, 11, 13, 15, 15, 5, 7, 7, 8, 11, 14, 14, 12, 6],
    [9, 13, 15, 7, 12, 8, 9, 11, 7, 7, 12, 7, 6, 15, 13, 11],
    [9, 7, 15, 11, 8, 6, 6, 14, 12, 13, 5, 14, 13, 13, 7, 5],
    [15, 5, 8, 11, 14, 14, 6, 14, 6, 9, 12, 9, 12, 5, 15, 8],
    [8, 5, 12, 9, 12, 5, 14, 6, 8, 13, 6, 5, 15, 13, 11, 11],
]
_KL = [0x00000000, 0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xA953FD4E]
_KR = [0x50A28BE6, 0x5C4DD124, 0x6D703EF3, 0x7A6D76E9, 0x00000000]

_MASK = 0xFFFFFFFF


def _rol(x, n):
    return ((x << n) | (x >> (32 - n))) & _MASK


def _f(round_no, x, y, z):
    if round_no == 0:
        return x ^ y ^ z
    if round_no == 1:
        return (x & y) | (~x & z)
    if round_no == 2:
        return (x | ~y) ^ z
    if round_no == 3:
        return (x & z) | (y & ~z)
    return x ^ (y | ~z)


def _compress(state, block):
    x = struct.unpack("<16I", block)
    al, bl, cl, dl, el = state
    ar, br, cr, dr, er = state
    for rnd in range(5):
        for step in range(16):
            t = (al + _f(rnd, bl, cl, dl) + x[_RL[rnd][step]] + _KL[rnd]) & _MASK
            t = (_rol(t, _SL[rnd][step]) + el) & _MASK
            al, bl, cl, dl, el = el, t, bl, _rol(cl, 10), dl
            t = (ar + _f(4 - rnd, br, cr, dr) + x[_RR[rnd][step]] + _KR[rnd]) & _MASK
            t = (_rol(t, _SR[rnd][step]) + er) & _MASK
            ar, br, cr, dr, er = er, t, br, _rol(cr, 10), dr
    h0, h1, h2, h3, h4 = state
    return (
        (h1 + cl + dr) & _MASK,
        (h2 + dl + er) & _MASK,
        (h3 + el + ar) & _MASK,
        (h4 + al + br) & _MASK,
        (h0 + bl + cr) & _MASK,
    )


def ripemd160(data: bytes) -> bytes:
    """20-byte RIPEMD-160 digest of ``data``."""
    state = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
    padded = data + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += struct.pack("<Q", 8 * len(data))
    for off in range(0, len(padded), 64):
        state = _compress(state, padded[off : off + 64])
    return struct.pack("<5I", *state)
