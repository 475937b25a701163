"""Rules every stored format shares: the error type for protocol-level failures,
what malformed input raises, the amount bound, the one JSON form, as bytes, and
the one spelling of each stored integer and byte string."""

import json

# What decoding untrusted bytes raises: bad UTF-8, JSON, hex or numbers, a missing
# or mistyped field, an infinite number (JSON's ``1e999``) made an int, or nesting
# too deep.  Each reader maps it to its own code.
MALFORMED = (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError)

# the largest amount an output, an order price or a CLI argument may carry
MAX_AMOUNT = 2 ** 64 - 1


def _dump_line(obj: dict) -> bytes:
    """The one canonical JSON form, of records and contracts: UTF-8, sorted keys,
    no whitespace, text unescaped (a record's text is all ASCII hex and kinds)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


def _load_json(data: bytes):
    """The one JSON reader of stored bytes: strict UTF-8, where ``json.loads(bytes)``
    would also sniff UTF-16, UTF-32 and a BOM."""
    return json.loads(data.decode())


def _int_from_hex(text: str) -> int:
    """A ledger's ``index``, ``amount`` or ``coinbase`` in its one spelling, ``format(value, "x")``.
    ``int(text, 16)`` alone also takes a sign, ``0x``, ``_``, spaces, capitals, leading
    zeros and non-ASCII digits, which a save would then respell."""
    value = int(text, 16)
    if value < 0 or format(value, "x") != text:
        raise ValueError(f"not a canonical hex integer: {text!r}")
    return value


def _bytes_from_hex(text: str) -> bytes:
    """Any other stored byte string in its one spelling, ``bytes.hex()``'s.  ``bytes.fromhex``
    alone also takes capitals and ASCII whitespace, which a save would then respell."""
    data = bytes.fromhex(text)
    if data.hex() != text:
        raise ValueError("hex not lowercase or not without whitespace")
    return data


class ProtocolError(Exception):
    """Domain failure with a stable machine-readable ``code``.

    The code is the dash-joined form of the short message, e.g.
    ``"missing utxo"`` -> ``"missing-utxo"``; ``detail`` only extends the
    human-readable text.
    """

    def __init__(self, message: str, detail: str | None = None):
        self.code = "-".join(message.split())
        super().__init__(f"{message}: {detail}" if detail else message)
