"""Deterministic in-process stand-ins for the two public mediums.

``Ledger`` is an append-only UTXO transaction record with signature-checked
spends -- no blocks, mining, or consensus, because the protocol only needs
a public record.  ``FileStore`` is a write-once filesystem keyed by 32-byte
digest filenames.

Both serialize as newline-delimited canonical JSON with integers rendered
as big-endian hex, which keeps txids bit-stable across save/load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .curve import G, Point, Scalar, Signature, ecdsa_sign, ecdsa_verify, hash160, sha256
from .errors import MALFORMED, ProtocolError
from .wallet import Address, Script, p2pkh_address

MAX_AMOUNT = 2 ** 64 - 1

# an output pays either an address or an explicit pubkey (pay-to-pubkey)
PayTarget = Union[Address, Point]


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
    plus its threshold of ``signatures``.
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


@dataclass(frozen=True, slots=True)
class Transaction:
    inputs: Tuple[TxInput, ...]
    outputs: Tuple[TxOutput, ...]
    txid: bytes
    coinbase_tag: Optional[int] = None  # uniquifies faucet transactions

    @classmethod
    def assemble(
        cls,
        inputs: Sequence[TxInput],
        outputs: Sequence[TxOutput],
        coinbase_tag: Optional[int] = None,
    ) -> Transaction:
        txid = sha256(tx_preimage(inputs, outputs, coinbase_tag))
        return cls(tuple(inputs), tuple(outputs), txid, coinbase_tag)


def _hex_int(value: int) -> str:
    return format(value, "x")


def _payto_to_json(payto: PayTarget) -> dict:
    if isinstance(payto, Address):
        return {"digest": payto.digest.hex(), "kind": payto.kind}
    return {"kind": "p2pk", "pubkey": payto.encode().hex()}


def _payto_from_json(obj: dict) -> PayTarget:
    if obj["kind"] == "p2pk":
        return Point.decode(bytes.fromhex(obj["pubkey"]))
    return Address(obj["kind"], bytes.fromhex(obj["digest"]))


def _input_to_json(inp: TxInput, include_sigs: bool) -> dict:
    obj = {"index": _hex_int(inp.index), "prev_txid": inp.prev_txid.hex()}
    if inp.redeem_script is not None:
        obj["script"] = inp.redeem_script.serialize().hex()
        if include_sigs:
            obj["signatures"] = [s.to_bytes().hex() for s in inp.signatures]
    else:
        obj["pubkey"] = inp.pubkey.encode().hex()
        if include_sigs and inp.signature is not None:
            obj["signature"] = inp.signature.to_bytes().hex()
    return obj


def _input_from_json(obj: dict) -> TxInput:
    prev_txid = bytes.fromhex(obj["prev_txid"])
    index = int(obj["index"], 16)
    if "script" in obj:
        script = Script.deserialize(bytes.fromhex(obj["script"]))
        sigs = tuple(Signature.from_bytes(bytes.fromhex(s)) for s in obj.get("signatures", []))
        return TxInput(prev_txid, index, redeem_script=script, signatures=sigs)
    sig = obj.get("signature")
    return TxInput(
        prev_txid,
        index,
        pubkey=Point.decode(bytes.fromhex(obj["pubkey"])),
        signature=Signature.from_bytes(bytes.fromhex(sig)) if sig else None,
    )


def tx_to_json(tx: Transaction, include_sigs: bool = True) -> dict:
    obj = {
        "inputs": [_input_to_json(i, include_sigs) for i in tx.inputs],
        "outputs": [
            {"amount": _hex_int(o.amount), "payto": _payto_to_json(o.payto)} for o in tx.outputs
        ],
    }
    if tx.coinbase_tag is not None:
        obj["coinbase"] = _hex_int(tx.coinbase_tag)
    return obj


def tx_from_json(obj: dict) -> Transaction:
    inputs = tuple(_input_from_json(i) for i in obj["inputs"])
    outputs = tuple(
        TxOutput(_payto_from_json(o["payto"]), int(o["amount"], 16)) for o in obj["outputs"]
    )
    tag = obj.get("coinbase")
    return Transaction.assemble(inputs, outputs, int(tag, 16) if tag is not None else None)


def _dump_line(obj: dict) -> str:
    """The one canonical JSON form of a record: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_lines(data: Union[str, bytes], apply: Callable[[dict], object]):
    """Hand each non-blank line's record to ``apply``.  A line that is not
    UTF-8 or JSON, or a record with a missing field, a wrong type or bad hex,
    is a ``corrupt record``; ``ProtocolError``s of the record's own checks pass."""
    for number, line in enumerate(data.splitlines(), 1):
        if line.strip():
            try:
                apply(json.loads(line.decode() if isinstance(line, bytes) else line))
            except MALFORMED as exc:
                raise ProtocolError("corrupt record", f"line {number}: {exc!r}") from None


def tx_preimage(
    inputs: Sequence[TxInput],
    outputs: Sequence[TxOutput],
    coinbase_tag: Optional[int] = None,
) -> bytes:
    """Canonical serialization excluding signatures; hashing it yields the txid."""
    stub = Transaction(tuple(inputs), tuple(outputs), b"\x00" * 32, coinbase_tag)
    return _dump_line(tx_to_json(stub, include_sigs=False)).encode()


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


class Ledger:
    """Append-only transaction record with an unspent-output set.

    Single-writer and single-threaded; reads operate on values that are
    never mutated in place.  Beside the record it keeps one index per
    query: txid -> transaction and pay target -> paying transactions.
    """

    def __init__(self):
        self.transactions: List[Transaction] = []
        self.utxo: Dict[Tuple[bytes, int], TxOutput] = {}
        self.total_issued = 0
        self._by_txid: Dict[bytes, Transaction] = {}
        self._payers: Dict[PayTarget, Union[Transaction, List[Transaction]]] = {}

    def __len__(self) -> int:
        return len(self.transactions)

    # -- mutation ----------------------------------------------------------

    def faucet(self, outputs: Sequence[TxOutput]) -> Transaction:
        """Mint a coinbase transaction (test/demo setup only)."""
        return self._commit(Transaction.assemble((), outputs, coinbase_tag=len(self.transactions)))

    def broadcast(self, tx: Transaction) -> Transaction:
        """Validate and accept; raises ProtocolError on any rule violation."""
        if not tx.inputs or tx.coinbase_tag is not None:
            raise ProtocolError("coinbase only via faucet")
        self._validate(tx)
        return self._commit(tx)

    def _validate(self, tx: Transaction):
        preimage = tx_preimage(tx.inputs, tx.outputs, tx.coinbase_tag)
        if sha256(preimage) != tx.txid:
            raise ProtocolError("invalid txid")
        seen = set()
        input_total = 0
        for inp in tx.inputs:
            outpoint = (inp.prev_txid, inp.index)
            if outpoint in seen or self.is_spent(inp.prev_txid, inp.index):
                raise ProtocolError("spent outpoint", f"{inp.prev_txid.hex()}:{inp.index}")
            prev = _resolve_spend(self, inp.prev_txid, inp.index)
            seen.add(outpoint)
            self._check_authorization(inp, prev.payto, preimage)
            input_total += prev.amount
        if input_total < sum(o.amount for o in tx.outputs):
            raise ProtocolError("insufficient funds")

    @staticmethod
    def _check_authorization(inp: TxInput, payto: PayTarget, preimage: bytes):
        if isinstance(payto, Point) or payto.kind == "p2pkh":
            _check_key_lock(inp.pubkey, payto)
            if inp.signature is None or not ecdsa_verify(inp.pubkey, preimage, inp.signature):
                raise ProtocolError("invalid signature")
            return
        # p2sh: reveal the script, then satisfy its multisig threshold
        if inp.redeem_script is None or hash160(inp.redeem_script.serialize()) != payto.digest:
            raise ProtocolError("script does not match output")
        params = inp.redeem_script.multisig_params()
        if params is None:
            raise ProtocolError("unsupported script")
        m, _, pubkeys = params
        if len(inp.signatures) != m:
            raise ProtocolError("invalid signature", f"need exactly {m} signatures")
        unused = list(pubkeys)
        for sig in inp.signatures:
            for candidate in unused:
                if ecdsa_verify(candidate, preimage, sig):
                    unused.remove(candidate)
                    break
            else:
                raise ProtocolError("invalid signature")

    def _commit(self, tx: Transaction) -> Transaction:
        self.transactions.append(tx)
        self._by_txid[tx.txid] = tx
        if not tx.inputs:  # a coinbase mints its outputs
            self.total_issued += sum(o.amount for o in tx.outputs)
        for inp in tx.inputs:
            del self.utxo[(inp.prev_txid, inp.index)]
        for i, out in enumerate(tx.outputs):
            self.utxo[(tx.txid, i)] = out
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

    def list_pubkeys(self) -> Iterator[Tuple[Point, bytes]]:
        """Every explicit pubkey on the record, paired with its transaction."""
        for tx in self.transactions:
            for point in transaction_pubkeys(tx):
                yield point, tx.txid

    def get_transaction(self, txid: bytes) -> Optional[Transaction]:
        return self._by_txid.get(txid)

    def is_spent(self, txid: bytes, index: int) -> bool:
        """Whether output ``index`` of a recorded transaction has been spent."""
        tx = self._by_txid.get(txid)
        return tx is not None and 0 <= index < len(tx.outputs) and (txid, index) not in self.utxo

    # -- persistence ---------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(_dump_line(tx_to_json(tx)) + "\n" for tx in self.transactions)

    @classmethod
    def from_jsonl(cls, data: Union[str, bytes]) -> Ledger:
        """Rebuild by replaying every record through full validation; a coinbase
        record mints as written, so it needs no inputs and its position as tag."""
        ledger = cls()

        def replay(obj: dict):
            tx = tx_from_json(obj)
            if tx.coinbase_tag is None:
                ledger.broadcast(tx)
            elif tx.inputs or tx.coinbase_tag != len(ledger):
                raise ValueError(f"coinbase record {tx.coinbase_tag} has inputs or is misplaced")
            else:
                ledger._commit(tx)

        _read_lines(data, replay)
        return ledger


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


def _resolve_spend(ledger: Ledger, txid: bytes, index: int) -> TxOutput:
    out = ledger.utxo.get((txid, index))
    if out is None:
        raise ProtocolError("missing utxo", f"{txid.hex()}:{index}")
    return out


def _sign_and_assemble(ledger: Ledger, drafts: Sequence[Tuple[TxInput, Sequence[Scalar]]],
                       outputs: Sequence[TxOutput]) -> Transaction:
    """The builders' shared tail: check funds, then sign each input with its keys."""
    total = sum(ledger.utxo[(inp.prev_txid, inp.index)].amount for inp, _ in drafts)
    if total < sum(o.amount for o in outputs):
        raise ProtocolError("insufficient funds")
    preimage = tx_preimage([inp for inp, _ in drafts], outputs)
    signed = [
        replace(inp, signature=ecdsa_sign(keys[0], preimage)) if inp.redeem_script is None
        else replace(inp, signatures=tuple(ecdsa_sign(k, preimage) for k in keys))
        for inp, keys in drafts
    ]
    return Transaction.assemble(signed, outputs)


def build_transaction(
    ledger: Ledger,
    spends: Sequence[Tuple[bytes, int, Scalar]],
    outputs: Sequence[TxOutput],
) -> Transaction:
    """Spend address/pubkey outputs with their matching keys and sign every input."""
    drafts = []
    for txid, index, key in spends:
        prev = _resolve_spend(ledger, txid, index)
        pub = G ** key
        _check_key_lock(pub, prev.payto)
        drafts.append((TxInput(txid, index, pubkey=pub), (key,)))
    return _sign_and_assemble(ledger, drafts, outputs)


def build_script_spend(
    ledger: Ledger,
    spends: Sequence[Tuple[bytes, int, Sequence[Scalar], Script]],
    outputs: Sequence[TxOutput],
) -> Transaction:
    """Spend p2sh outputs by revealing each script and signing with enough keys."""
    drafts = []
    for txid, index, keys, script in spends:
        prev = _resolve_spend(ledger, txid, index)
        if not isinstance(prev.payto, Address) or prev.payto.kind != "p2sh":
            raise ProtocolError("script does not match output", "not a p2sh output")
        if hash160(script.serialize()) != prev.payto.digest:
            raise ProtocolError("script does not match output")
        drafts.append((TxInput(txid, index, redeem_script=script), tuple(keys)))
    return _sign_and_assemble(ledger, drafts, outputs)


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

    def to_jsonl(self) -> str:
        records = ({"data": data.hex(), "name": name.hex()} for name, data in self.files.items())
        return "".join(_dump_line(record) + "\n" for record in records)

    @classmethod
    def from_jsonl(cls, data: Union[str, bytes]) -> FileStore:
        store = cls()
        _read_lines(data, lambda obj: store.put(bytes.fromhex(obj["name"]),
                                                bytes.fromhex(obj["data"])))
        return store
