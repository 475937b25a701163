"""Shared error type for protocol-level failures, and what malformed input raises."""

# What decoding untrusted bytes raises: bad UTF-8, JSON, hex or numbers, a missing
# or mistyped field, or nesting too deep.  Each reader maps it to its own code.
MALFORMED = (ValueError, KeyError, TypeError, AttributeError, RecursionError)


class ProtocolError(Exception):
    """Domain failure with a stable machine-readable ``code``.

    The code is the dash-joined form of the short message, e.g.
    ``"missing utxo"`` -> ``"missing-utxo"``; ``detail`` only extends the
    human-readable text.
    """

    def __init__(self, message: str, detail: str | None = None):
        self.code = "-".join(message.split())
        super().__init__(f"{message}: {detail}" if detail else message)
