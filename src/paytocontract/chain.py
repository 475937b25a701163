"""Deterministic in-process stand-ins for the two public mediums.

``Ledger`` is an append-only UTXO transaction record with signature-checked
spends -- no blocks, mining, or consensus, because the protocol only needs
a public record.  ``FileStore`` is a write-once filesystem keyed by 32-byte
digest filenames.

Both serialize as JSON Lines bytes, one canonical record per ``\n``, every field
in the one spelling a load accepts, ``format(v, "x")`` for an integer and
``bytes.hex()`` for bytes, which keeps txids and bytes stable across save/load.
A ``ledger_checkpoint`` binds the length and hash of ledger bytes that were
validated, so that a reload commits that prefix without verifying it again.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .curve import (G, Point, Scalar, Signature, ecdsa_sign, ecdsa_verify, ecdsa_verify_openssl,
                    hash160, sha256)
from .errors import MALFORMED, MAX_AMOUNT, ProtocolError, _bytes_from_hex, _dump_line, _int_from_hex, _load_json
from .wallet import Address, Script, p2pkh_address

# an output pays either an address or an explicit pubkey (pay-to-pubkey)
PayTarget = Union[Address, Point]

# a signature check, (pubkey, 32-byte digest, signature) -> valid
Verify = Callable[[Point, bytes, Signature], bool]


@dataclass(frozen=True, slots=True)
class TxOutput:
    payto: PayTarget
    amount: int

    def __post_init__(self):
        if not 0 <= self.amount <= MAX_AMOUNT:
            raise ValueError("amount out of range")
        if isinstance(self.payto, Point) and self.payto.is_identity():
            raise ValueError("cannot pay to the identity point")


@dataclass(frozen=True, slots=True)
class TxInput:
    """Spend of an existing output.

    Address-hash and pay-to-pubkey outputs are unlocked by ``pubkey`` +
    ``signature``; script-hash outputs by the revealed ``redeem_script``
    plus its threshold of ``signatures``.  An input carries exactly one of
    the two forms, so the validator and the record read it the same way.
    """

    prev_txid: bytes
    index: int
    pubkey: Optional[Point] = None
    signature: Optional[Signature] = None
    redeem_script: Optional[Script] = None
    signatures: Tuple[Signature, ...] = ()

    def __post_init__(self):
        if len(self.prev_txid) != 32 or self.index < 0:
            raise ValueError("bad outpoint")
        if (self.pubkey is None) == (self.redeem_script is None):
            raise ValueError("need exactly one of pubkey and redeem_script")
        if self.signatures if self.redeem_script is None else self.signature is not None:
            raise ValueError("a pubkey takes one signature, a redeem_script signatures")


@dataclass(frozen=True, slots=True)
class Transaction:
    """A transaction and its txid, the SHA-256 of its ``tx_preimage``.  The txid
    is derived here, so no transaction carries a txid that is not its own."""

    inputs: Tuple[TxInput, ...]
    outputs: Tuple[TxOutput, ...]
    coinbase_tag: Optional[int] = None  # a faucet transaction's position on the record
    txid: bytes = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "txid", sha256(tx_preimage(self.inputs, self.outputs, self.coinbase_tag)))


def _payto_to_json(payto: PayTarget) -> dict:
    if isinstance(payto, Address):
        return {"digest": payto.digest.hex(), "kind": payto.kind}
    return {"kind": "p2pk", "pubkey": payto.encode().hex()}


def _payto_from_json(obj: dict) -> PayTarget:
    if obj["kind"] == "p2pk":
        return Point.decode(_bytes_from_hex(obj["pubkey"]))
    return Address(obj["kind"], _bytes_from_hex(obj["digest"]))


def _input_to_json(inp: TxInput, with_sigs: bool) -> dict:
    obj = {"index": format(inp.index, "x"), "prev_txid": inp.prev_txid.hex()}
    if inp.redeem_script is not None:
        obj["script"] = inp.redeem_script.serialize().hex()
        if with_sigs:
            obj["signatures"] = [s.to_bytes().hex() for s in inp.signatures]
    else:
        obj["pubkey"] = inp.pubkey.encode().hex()
        if with_sigs and inp.signature is not None:
            obj["signature"] = inp.signature.to_bytes().hex()
    return obj


def _input_from_json(obj: dict) -> TxInput:
    prev_txid = _bytes_from_hex(obj["prev_txid"])
    index = _int_from_hex(obj["index"])
    if "script" in obj:
        script = Script.deserialize(_bytes_from_hex(obj["script"]))
        sigs = tuple(Signature.from_bytes(_bytes_from_hex(s)) for s in obj.get("signatures", []))
        return TxInput(prev_txid, index, redeem_script=script, signatures=sigs)
    sig = obj.get("signature")
    return TxInput(
        prev_txid,
        index,
        pubkey=Point.decode(_bytes_from_hex(obj["pubkey"])),
        signature=Signature.from_bytes(_bytes_from_hex(sig)) if sig else None,
    )


def _tx_json(inputs: Sequence[TxInput], outputs: Sequence[TxOutput], coinbase_tag: Optional[int],
             with_sigs: bool) -> dict:
    """The one serializer of a transaction: its record, or without signatures its preimage."""
    obj = {
        "inputs": [_input_to_json(i, with_sigs) for i in inputs],
        "outputs": [{"amount": format(o.amount, "x"), "payto": _payto_to_json(o.payto)} for o in outputs],
    }
    if coinbase_tag is not None:
        obj["coinbase"] = format(coinbase_tag, "x")
    return obj


def tx_to_json(tx: Transaction) -> dict:
    return _tx_json(tx.inputs, tx.outputs, tx.coinbase_tag, with_sigs=True)


def tx_from_json(obj: dict) -> Transaction:
    inputs = tuple(_input_from_json(i) for i in obj["inputs"])
    outputs = tuple(TxOutput(_payto_from_json(o["payto"]), _int_from_hex(o["amount"])) for o in obj["outputs"])
    tag = obj.get("coinbase")
    return Transaction(inputs, outputs, _int_from_hex(tag) if tag is not None else None)


def _read_lines(data: bytes, apply: Callable[[dict], object], first: int = 1):
    """Hand each non-blank line's record to ``apply``, numbering lines from ``first``; only
    ``\n`` ends a line (``\r`` is JSON whitespace, so a CRLF line loads).  A line that is not
    UTF-8 or JSON, or a record with a missing field, a wrong type or bad hex, is a
    ``corrupt record``; ``ProtocolError``s of the record's own checks pass."""
    for number, line in enumerate(data.split(b"\n"), first):
        if line.strip(b" \t\r"):
            try:
                apply(_load_json(line))
            except MALFORMED as exc:
                raise ProtocolError("corrupt record", f"line {number}: {exc!r}") from None


def tx_preimage(
    inputs: Sequence[TxInput],
    outputs: Sequence[TxOutput],
    coinbase_tag: Optional[int] = None,
) -> bytes:
    """Canonical serialization excluding signatures; hashing it yields the txid."""
    return _dump_line(_tx_json(inputs, outputs, coinbase_tag, with_sigs=False))


def transaction_pubkeys(tx: Transaction) -> List[Point]:
    """Every explicit pubkey the transaction exposes, in serialization order.

    Input pubkeys, pubkeys inside revealed redeem scripts, and pay-to-pubkey
    outputs all count; address outputs carry only hashes and do not.
    """
    points: List[Point] = []
    for inp in tx.inputs:
        if inp.pubkey is not None:
            points.append(inp.pubkey)
        if inp.redeem_script is not None:
            points.extend(inp.redeem_script.pubkeys())
    for out in tx.outputs:
        if isinstance(out.payto, Point):
            points.append(out.payto)
    return points


class _UnspentView(Mapping):
    """``Ledger.utxo``: a read-only ``(txid, index) -> TxOutput`` view of the
    unspent set, in commit order and then output order."""

    __slots__ = ("_ledger",)

    def __init__(self, ledger: Ledger):
        self._ledger = ledger

    def __getitem__(self, outpoint: Tuple[bytes, int]) -> TxOutput:
        txid, index = outpoint
        if not _is_unspent(self._ledger, txid, index):
            raise KeyError(outpoint)
        return self._ledger._by_txid[txid].outputs[index]

    def __iter__(self) -> Iterator[Tuple[bytes, int]]:
        for txid, mask in self._ledger._unspent.items():
            for index in range(mask.bit_length()):
                if mask >> index & 1:
                    yield txid, index

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self._ledger._unspent.values())


class Ledger:
    """Append-only transaction record with an unspent-output set.

    Single-writer and single-threaded; reads operate on values that are
    never mutated in place.  The record is ``_by_txid``, txid -> transaction
    in commit order; beside it the ledger keeps one index per query:
    - txid -> bit mask of its unspent output indexes (``_unspent``), with no
      entry once every output is spent; ``utxo`` reads it as a
      ``(txid, index) -> TxOutput`` mapping;
    - pay target -> paying transactions (``_payers``).
    """

    def __init__(self):
        self.total_issued = 0
        self._by_txid: Dict[bytes, Transaction] = {}
        self._unspent: Dict[bytes, int] = {}
        self._payers: Dict[PayTarget, Union[Transaction, List[Transaction]]] = {}

    @property
    def utxo(self) -> Mapping:
        return _UnspentView(self)

    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """The record in commit order, copied on each read."""
        return tuple(self._by_txid.values())

    def __len__(self) -> int:
        return len(self._by_txid)

    # -- mutation ----------------------------------------------------------

    def faucet(self, outputs: Sequence[TxOutput]) -> Transaction:
        """Mint a coinbase transaction (test/demo setup only)."""
        return self._commit(Transaction((), tuple(outputs), len(self._by_txid)))

    def broadcast(self, tx: Transaction) -> Transaction:
        """Validate and accept; raises ProtocolError on any rule violation."""
        if not tx.inputs or tx.coinbase_tag is not None:
            raise ProtocolError("coinbase only via faucet")
        return self._commit(tx, ecdsa_verify)

    def _validate(self, tx: Transaction, verify: Verify):
        seen = set()
        input_total = 0
        for inp in tx.inputs:
            outpoint = (inp.prev_txid, inp.index)
            if outpoint in seen or self.is_spent(inp.prev_txid, inp.index):
                raise ProtocolError("spent outpoint", f"{inp.prev_txid.hex()}:{inp.index}")
            prev = _resolve_spend(self, inp.prev_txid, inp.index)
            seen.add(outpoint)
            self._check_authorization(inp, prev.payto, tx.txid, verify)
            input_total += prev.amount
        if input_total < sum(o.amount for o in tx.outputs):
            raise ProtocolError("insufficient funds")

    @staticmethod
    def _check_authorization(inp: TxInput, payto: PayTarget, txid: bytes, verify: Verify):
        """Every input signs its transaction's txid, the SHA-256 of the preimage."""
        if isinstance(payto, Point) or payto.kind == "p2pkh":
            _check_key_lock(inp.pubkey, payto)
            if inp.signature is None or not verify(inp.pubkey, txid, inp.signature):
                raise ProtocolError("invalid signature")
            return
        # p2sh: reveal the script, then satisfy its multisig threshold
        _check_script_lock(inp.redeem_script, payto)
        params = inp.redeem_script.multisig_params()
        if params is None:
            raise ProtocolError("unsupported script")
        m, _, pubkeys = params
        if len(inp.signatures) != m:
            raise ProtocolError("invalid signature", f"need exactly {m} signatures")
        unused = list(pubkeys)
        for sig in inp.signatures:
            for candidate in unused:
                if verify(candidate, txid, sig):
                    unused.remove(candidate)
                    break
            else:
                raise ProtocolError("invalid signature")

    def _commit(self, tx: Transaction, verify: Optional[Verify] = None) -> Transaction:
        """Put ``tx`` on the record under the rules that need no signature, on every
        path: a record has no inputs exactly when it carries a coinbase tag, which is
        its position, and each txid is committed once (a breach is a ``ValueError``, a
        ``corrupt record`` on load).  Given ``verify``, a spend is validated in between;
        a checkpointed record is not, and its input outside the unspent set is a ``KeyError``."""
        position = len(self._by_txid)
        if tx.coinbase_tag != (None if tx.inputs else position):
            raise ValueError(f"record {position}: coinbase tag {tx.coinbase_tag}, {len(tx.inputs)} inputs")
        if verify is not None and tx.inputs:
            self._validate(tx, verify)
        if tx.txid in self._by_txid:
            raise ValueError(f"txid {tx.txid.hex()} is already on the record")
        for inp in tx.inputs:
            if not _is_unspent(self, inp.prev_txid, inp.index):
                raise KeyError((inp.prev_txid, inp.index))
            mask = self._unspent[inp.prev_txid] ^ 1 << inp.index
            if mask:
                self._unspent[inp.prev_txid] = mask
            else:
                del self._unspent[inp.prev_txid]
        self._by_txid[tx.txid] = tx
        if not tx.inputs:  # a coinbase mints its outputs
            self.total_issued += sum(o.amount for o in tx.outputs)
        if tx.outputs:
            self._unspent[tx.txid] = (1 << len(tx.outputs)) - 1
        for out in tx.outputs:
            # Most targets are paid once (a fresh contract-derived address),
            # so a single payer is stored bare: a one-element list would add
            # 64 bytes per paid target to a ledger held wholly in memory.
            payers = self._payers.get(out.payto)
            if payers is None:
                self._payers[out.payto] = tx
            elif isinstance(payers, Transaction):
                if payers is not tx:
                    self._payers[out.payto] = [payers, tx]
            elif payers[-1] is not tx:
                payers.append(tx)
        return tx

    # -- queries -----------------------------------------------------------

    def scan_address(self, addr: Address) -> List[Tuple[bytes, int, int]]:
        """All outputs ever paid to ``addr`` (spent or not), in ledger order."""
        payers = self._payers.get(addr, ())
        if isinstance(payers, Transaction):
            payers = (payers,)
        return [
            (tx.txid, i, out.amount)
            for tx in payers
            for i, out in enumerate(tx.outputs)
            if out.payto == addr
        ]

    def get_transaction(self, txid: bytes) -> Optional[Transaction]:
        return self._by_txid.get(txid)

    def is_spent(self, txid: bytes, index: int) -> bool:
        """Whether output ``index`` of a recorded transaction has been spent."""
        tx = self._by_txid.get(txid)
        return tx is not None and 0 <= index < len(tx.outputs) and not _is_unspent(self, txid, index)

    # -- persistence ---------------------------------------------------------

    def to_jsonl(self) -> bytes:
        # the empty last item ends the last record with its ``\n`` too
        return b"\n".join([*(_dump_line(tx_to_json(tx)) for tx in self._by_txid.values()), b""])

    @classmethod
    def from_jsonl(cls, data: bytes, checkpoint: Optional[bytes] = None) -> Ledger:
        """Rebuild by replaying every record through ``_commit``: a spend is
        validated in full, and a coinbase record mints as written.  A replay
        verifies every signature on the record, so it verifies them through
        OpenSSL (``ecdsa_verify_openssl``), whose fixed memory cost that many
        verifies repay.

        ``checkpoint`` is the ``ledger_checkpoint`` of a prefix of ``data``
        that was validated when it was saved.  That prefix is committed with
        no spend validated, so no signature verified, and nothing else that
        ``_commit`` enforces skipped: a txid on the record twice, or a coinbase
        tag that is not its record's position, is a ``corrupt record`` with or
        without the checkpoint.  Only the records after the prefix are
        replayed; line numbers in errors still count from the file's start.
        """
        ledger = cls()
        first = 1
        if checkpoint is not None:
            prefix = data[:_checkpointed_length(data, checkpoint)]
            _read_lines(prefix, lambda obj: ledger._commit(tx_from_json(obj)))
            data = data[len(prefix):]
            first += prefix.count(b"\n")
        _read_lines(data, lambda obj: ledger._commit(tx_from_json(obj), ecdsa_verify_openssl), first)
        return ledger


def ledger_checkpoint(data: bytes) -> bytes:
    """The checkpoint of validated ledger bytes: one canonical JSON line
    binding their length and SHA-256."""
    return _dump_line({"length": len(data), "sha256": sha256(data).hex()}) + b"\n"


def _checkpointed_length(data: bytes, checkpoint: bytes) -> int:
    """The length of the prefix of ``data`` that ``checkpoint`` binds.  A
    checkpoint that is not exactly ``ledger_checkpoint`` of a prefix ending on
    a line boundary is a ``corrupt record``."""
    try:
        length = _load_json(checkpoint)["length"]
    except MALFORMED as exc:
        raise ProtocolError("corrupt record", f"checkpoint: {exc!r}") from None
    if type(length) is not int or data.rfind(b"\n", 0, length) + 1 != length:
        raise ProtocolError("corrupt record", f"checkpoint: length {length!r} does not end a ledger line")
    if ledger_checkpoint(data[:length]) != checkpoint:
        raise ProtocolError("corrupt record", "checkpoint does not match the ledger")
    return length


def _check_key_lock(pub: Optional[Point], payto: PayTarget):
    """Builders' and validator's one lock rule for p2pk and p2pkh outputs."""
    if isinstance(payto, Point):
        unlocked = pub == payto
    elif payto.kind == "p2pkh":
        unlocked = pub is not None and p2pkh_address(pub) == payto
    else:
        raise ProtocolError("key does not match output", "p2sh outputs need a script spend")
    if not unlocked:
        raise ProtocolError("key does not match output")


def _check_script_lock(script: Optional[Script], payto: PayTarget):
    """Builder's and validator's one lock rule for p2sh outputs."""
    if isinstance(payto, Point) or payto.kind != "p2sh":
        raise ProtocolError("script does not match output", "not a p2sh output")
    if script is None or hash160(script.serialize()) != payto.digest:
        raise ProtocolError("script does not match output")


def _is_unspent(ledger: Ledger, txid: bytes, index: int) -> bool:
    # a negative shift count is a ValueError, so the index is checked first
    return index >= 0 and ledger._unspent.get(txid, 0) >> index & 1 == 1


def _resolve_spend(ledger: Ledger, txid: bytes, index: int) -> TxOutput:
    if not _is_unspent(ledger, txid, index):
        raise ProtocolError("missing utxo", f"{txid.hex()}:{index}")
    return ledger._by_txid[txid].outputs[index]


def _sign_and_build(ledger: Ledger, drafts: Sequence[Tuple[TxInput, Sequence[Scalar]]],
                       outputs: Sequence[TxOutput], change: Optional[PayTarget] = None) -> Transaction:
    """The builders' shared tail: check funds, pay any remainder to ``change``, and sign
    the txid with each input's keys; signatures are not in the preimage, so the txid
    of the unsigned transaction is the signed one's."""
    total = sum(ledger._by_txid[inp.prev_txid].outputs[inp.index].amount for inp, _ in drafts)
    remainder = total - sum(o.amount for o in outputs)
    if remainder < 0:
        raise ProtocolError("insufficient funds")
    if change is not None and remainder:
        outputs = [*outputs, TxOutput(change, remainder)]
    txid = Transaction(tuple(inp for inp, _ in drafts), tuple(outputs)).txid
    signed = [
        replace(inp, signature=ecdsa_sign(keys[0], txid)) if inp.redeem_script is None
        else replace(inp, signatures=tuple(ecdsa_sign(k, txid) for k in keys))
        for inp, keys in drafts
    ]
    return Transaction(tuple(signed), tuple(outputs))


def build_transaction(
    ledger: Ledger,
    spends: Sequence[Tuple[bytes, int, Scalar]],
    outputs: Sequence[TxOutput],
    change: Optional[PayTarget] = None,
) -> Transaction:
    """Spend address/pubkey outputs with their matching keys and sign every input."""
    drafts = []
    for txid, index, key in spends:
        prev = _resolve_spend(ledger, txid, index)
        pub = G ** key
        _check_key_lock(pub, prev.payto)
        drafts.append((TxInput(txid, index, pubkey=pub), (key,)))
    return _sign_and_build(ledger, drafts, outputs, change)


def build_script_spend(
    ledger: Ledger,
    spends: Sequence[Tuple[bytes, int, Sequence[Scalar], Script]],
    outputs: Sequence[TxOutput],
) -> Transaction:
    """Spend p2sh outputs by revealing each script and signing with enough keys."""
    drafts = []
    for txid, index, keys, script in spends:
        _check_script_lock(script, _resolve_spend(ledger, txid, index).payto)
        drafts.append((TxInput(txid, index, redeem_script=script), tuple(keys)))
    return _sign_and_build(ledger, drafts, outputs)


class FileStore:
    """Write-once distributed filesystem: 32-byte digest filenames -> bytes."""

    def __init__(self):
        self.files: Dict[bytes, bytes] = {}

    def put(self, name: bytes, data: bytes):
        if len(name) != 32:
            raise ValueError("filename must be a 32-byte digest")
        if name in self.files:
            raise ProtocolError("filename exists", name.hex())
        self.files[name] = bytes(data)

    def get(self, name: bytes) -> Optional[bytes]:
        return self.files.get(name)

    def to_jsonl(self) -> bytes:
        records = ({"data": data.hex(), "name": name.hex()} for name, data in self.files.items())
        return b"\n".join([*map(_dump_line, records), b""])

    @classmethod
    def from_jsonl(cls, data: bytes) -> FileStore:
        store = cls()
        _read_lines(data, lambda obj: store.put(_bytes_from_hex(obj["name"]),
                                                _bytes_from_hex(obj["data"])))
        return store
