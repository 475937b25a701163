"""Rules every stored format shares: the error type for protocol-level failures,
what malformed input raises, the amount bound and the one canonical JSON form."""

import json

# What decoding untrusted bytes raises: bad UTF-8, JSON, hex or numbers, a missing
# or mistyped field, or nesting too deep.  Each reader maps it to its own code.
MALFORMED = (ValueError, KeyError, TypeError, AttributeError, RecursionError)

# the largest amount an output, an order price or a CLI argument may carry
MAX_AMOUNT = 2 ** 64 - 1


def _dump_line(obj: dict) -> str:
    """The one canonical JSON form, of records and contracts: sorted keys, no
    whitespace, text unescaped (a record's text is all ASCII hex and kinds)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class ProtocolError(Exception):
    """Domain failure with a stable machine-readable ``code``.

    The code is the dash-joined form of the short message, e.g.
    ``"missing utxo"`` -> ``"missing-utxo"``; ``detail`` only extends the
    human-readable text.
    """

    def __init__(self, message: str, detail: str | None = None):
        self.code = "-".join(message.split())
        super().__init__(f"{message}: {detail}" if detail else message)
