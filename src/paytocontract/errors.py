"""Rules every stored format shares: the error type for protocol-level failures,
what malformed input raises, the amount bound and the one JSON form, as bytes."""

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


class ProtocolError(Exception):
    """Domain failure with a stable machine-readable ``code``.

    The code is the dash-joined form of the short message, e.g.
    ``"missing utxo"`` -> ``"missing-utxo"``; ``detail`` only extends the
    human-readable text.
    """

    def __init__(self, message: str, detail: str | None = None):
        self.code = "-".join(message.split())
        super().__init__(f"{message}: {detail}" if detail else message)
