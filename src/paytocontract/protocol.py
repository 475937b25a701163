"""The payment flows between customer and merchant.

Basic flow: the customer checks and approves a contract, derives its
payment address locally, and pays; the merchant watches the same address
and can spend it with the matching derived private key.  No merchant
signature is produced at order time and no secure channel is needed.

Offline/anonymous extensions: a transaction output can carry a hidden
Diffie-Hellman signal between a customer pubkey and the merchant key; the
signalled value seeds a symmetric key and filename under which the
contract travels through a public filestore.  A discrete-log-equality
proof lets the customer publicly attribute a signal in a dispute without
revealing the signing key.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .chain import FileStore, Ledger, TxOutput, build_transaction, transaction_pubkeys
from .contract import (
    Contract,
    contract_hash,
    decode_contract,
    encode_contract,
    order_price,
    payment_address,
    payment_private_key,
    verify_contract,
)
from .curve import G, KeyPair, Point, Scalar, hash_to_scalar, random_scalar, sha256, shared_xs
from .errors import ProtocolError
from .sealing import open_sealed, seal
from .wallet import Address, derive_address, p2pkh_address

Spend = Tuple[bytes, int, Scalar]
ConfirmCallback = Callable[[Contract, str], bool]


@dataclass(frozen=True)
class MerchantIdentity:
    """Long-lived reputation keypair; its pubkey is the merchant's pseudonym."""

    reputation: KeyPair


class CustomerTrustStore:
    """Merchant pubkeys the customer obtained out of band, keyed by alias."""

    def __init__(self):
        self.known_merchants: Dict[str, Point] = {}

    def add(self, alias: str, pubkey: Point):
        if alias in self.known_merchants:
            raise ProtocolError("alias exists", alias)
        self.known_merchants[alias] = pubkey

    def alias_for(self, pubkey: Point) -> Optional[str]:
        for alias, known in self.known_merchants.items():
            if known == pubkey:
                return alias
        return None


class OrderState(str, Enum):
    AWAITING_PAYMENT = "awaiting_payment"
    PAID = "paid"
    ACCEPTED = "accepted"
    UNMATCHED = "unmatched"


@dataclass(frozen=True)
class OrderStatus:
    contract_hash: bytes
    state: OrderState
    paying_txid: Optional[bytes] = None

    def __post_init__(self):
        if self.state in (OrderState.PAID, OrderState.ACCEPTED) and self.paying_txid is None:
            raise ValueError("paid/accepted status needs a txid")


@dataclass(frozen=True)
class SignalRecord:
    """One detected signal: the pubkey, the shared point's x-coordinate, the tx."""

    signal_pubkey: Point
    value: Scalar
    txid: bytes


@dataclass(frozen=True)
class DlegProof:
    """Equality-of-discrete-logs evidence for a shared point.

    Shows log of ``shared`` base P equals log of the signal pubkey base G:
    both are the signal private key.
    """

    shared: Point
    commit_g: Point
    commit_p: Point
    response: Scalar


class SignalVariant(str, Enum):
    MERCHANT_CONTROLLED = "merchant_controlled"  # output address derived from P
    CUSTOMER_CONTROLLED = "customer_controlled"  # output address derived from a


class SignalKeyRegistry:
    """Client-side guard: a signal key must never be reused toward the same merchant."""

    def __init__(self):
        self._used: Set[Tuple[bytes, bytes]] = set()

    def claim(self, signal_pub: Point, merchant_pub: Point):
        key = (signal_pub.encode(), merchant_pub.encode())
        if key in self._used:
            raise ProtocolError("signal key reuse")
        self._used.add(key)


def _signal_address(variant: SignalVariant, merchant_pub: Point, signal_pub: Point, value: Scalar) -> Address:
    """Where a signal output pays: derived from the merchant's or the signal's pubkey."""
    base = merchant_pub if variant is SignalVariant.MERCHANT_CONTROLLED else signal_pub
    return derive_address(base, value.to_bytes())


def signal_value(signal_priv: Scalar, merchant_pub: Point) -> Scalar:
    """x-coordinate of the Diffie-Hellman point, as a scalar label."""
    shared = merchant_pub ** signal_priv
    if shared.is_identity():
        raise ValueError("degenerate shared point")
    return Scalar.reduce(shared.x)


# ---------------------------------------------------------------------------
# basic flow


def customer_approve_and_pay(
    contract: Contract,
    trust: CustomerTrustStore,
    funds: Sequence[Spend],
    ledger: Ledger,
    confirm: ConfirmCallback,
    change_address: Optional[Address] = None,
) -> bytes:
    """Verify, display for approval, then pay the contract-derived address.

    Returns the paying txid; the caller keeps the contract as its receipt.
    """
    alias = trust.alias_for(contract.merchant_pubkey)
    if alias is None:
        raise ProtocolError("untrusted merchant")
    if not verify_contract(contract).ok:
        raise ProtocolError("invalid contract", "signature check failed")
    if not confirm(contract, alias):
        raise ProtocolError("declined")
    amount = order_price(contract)
    outputs = [TxOutput(payment_address(contract), amount)]
    total = sum(ledger.utxo[(t, i)].amount for t, i, _ in funds if (t, i) in ledger.utxo)
    if change_address is not None and total > amount:
        outputs.append(TxOutput(change_address, total - amount))
    return ledger.broadcast(build_transaction(ledger, funds, outputs)).txid


def merchant_detect_payment(identity: MerchantIdentity, contract: Contract, ledger: Ledger) -> OrderStatus:
    """Scan for the contract's address; paid when an output covers the price."""
    if contract.merchant_pubkey != identity.reputation.public:
        raise ProtocolError("foreign contract")
    addr = payment_address(contract)
    # the derived private key must land on the same address, or we could
    # never redeem what we are about to confirm
    spend_key = payment_private_key(contract, identity.reputation.private)
    if p2pkh_address(G ** spend_key) != addr:
        raise ProtocolError("key derivation mismatch", "derived key does not own the payment address")
    price = order_price(contract)
    for txid, _, amount in ledger.scan_address(addr):
        if amount >= price:
            return OrderStatus(contract_hash(contract), OrderState.PAID, txid)
    return OrderStatus(contract_hash(contract), OrderState.AWAITING_PAYMENT)


def verify_payment(contract: Contract, ledger: Ledger) -> Tuple[bool, Optional[bytes]]:
    """Receipt check anyone can run: no private keys, just the public record."""
    addr = payment_address(contract)
    try:
        price = order_price(contract)
    except ProtocolError:
        price = 0  # price hidden; any payment to the address counts
    for txid, _, amount in ledger.scan_address(addr):
        if amount >= price:
            return True, txid
    return False, None


# ---------------------------------------------------------------------------
# signaling


def attach_signal(
    outputs: Sequence[TxOutput],
    signal_key: KeyPair,
    merchant_pub: Point,
    amount: int,
    variant: SignalVariant = SignalVariant.MERCHANT_CONTROLLED,
    registry: Optional[SignalKeyRegistry] = None,
) -> Tuple[List[TxOutput], Scalar]:
    """Append the signal output for (signal key, merchant) to a draft output list.

    The caller must place ``signal_key.public`` in the final transaction
    (usually by spending one of its outputs).  The signalled value is fixed
    by the key pairings, so a registry should guard against reuse.
    """
    if registry is not None:
        registry.claim(signal_key.public, merchant_pub)
    value = signal_value(signal_key.private, merchant_pub)
    addr = _signal_address(variant, merchant_pub, signal_key.public, value)
    return list(outputs) + [TxOutput(addr, amount)], value


def merchant_scan_signals(
    identity: MerchantIdentity,
    ledger: Ledger,
    watermark: int = 0,
    include_customer_controlled: bool = False,
) -> List[SignalRecord]:
    """Recompute the DH value for every pubkey on the record past ``watermark``
    and keep those whose derived address shows up among the same transaction's
    outputs.  Conforming signals are always found; a false positive needs a
    160-bit hash collision.

    Each distinct pubkey is computed once, however many transactions expose
    it.
    """
    priv = identity.reputation.private
    pub = identity.reputation.public
    variants = list(SignalVariant) if include_customer_controlled else [SignalVariant.MERCHANT_CONTROLLED]
    txs = ledger.transactions[watermark:]
    tx_points = [dict.fromkeys(transaction_pubkeys(tx)) for tx in txs]
    # one DH value and one set of candidate addresses per distinct pubkey
    distinct = list(dict.fromkeys(point for points in tx_points for point in points))
    candidates: Dict[Point, Tuple[Scalar, List[Address]]] = {}
    for point, x in zip(distinct, shared_xs(priv, distinct)):
        if x is not None:
            value = Scalar.reduce(x)
            candidates[point] = (value, [_signal_address(v, pub, point, value) for v in variants])
    records: List[SignalRecord] = []
    seen_values: Set[int] = set()
    for tx, points in zip(txs, tx_points):
        out_addresses = {o.payto for o in tx.outputs if isinstance(o.payto, Address)}
        for point in points:
            if point not in candidates:
                continue
            value, addresses = candidates[point]
            if any(a in out_addresses for a in addresses) and value.value not in seen_values:
                seen_values.add(value.value)
                records.append(SignalRecord(point, value, tx.txid))
    return records


def signal_output_spent(
    ledger: Ledger,
    record: SignalRecord,
    merchant_pub: Point,
    variant: SignalVariant = SignalVariant.MERCHANT_CONTROLLED,
) -> bool:
    """Whether the signal output was redeemed -- proof the signal was received."""
    addr = _signal_address(variant, merchant_pub, record.signal_pubkey, record.value)
    tx = ledger.get_transaction(record.txid)
    if tx is None:
        return False
    return any(
        out.payto == addr and ledger.is_spent(record.txid, i) for i, out in enumerate(tx.outputs)
    )


# ---------------------------------------------------------------------------
# discrete-log-equality proofs (dispute evidence)


def _dleq_challenge(merchant_pub: Point, shared: Point, commit_g: Point, commit_p: Point) -> Scalar:
    return hash_to_scalar(
        merchant_pub.encode() + shared.encode() + commit_g.encode() + commit_p.encode()
    )


def prove_dh(s: Scalar, merchant_pub: Point, rng: Optional[Random] = None) -> DlegProof:
    """Prove the shared point really is merchant_pub raised to the signal key."""
    if not s:
        raise ValueError("signal key must be nonzero")
    shared = merchant_pub ** s
    u = random_scalar(rng)
    commit_g = G ** u
    commit_p = merchant_pub ** u
    v = _dleq_challenge(merchant_pub, shared, commit_g, commit_p)
    return DlegProof(shared, commit_g, commit_p, u + v * s)


def verify_dh(proof: DlegProof, signal_pub: Point, merchant_pub: Point) -> bool:
    """Check the two exponent equations under the recomputed challenge."""
    try:
        if any(p.is_identity() for p in (proof.shared, proof.commit_g, proof.commit_p)):
            return False
        v = _dleq_challenge(merchant_pub, proof.shared, proof.commit_g, proof.commit_p)
        if G ** proof.response != proof.commit_g * signal_pub ** v:
            return False
        return merchant_pub ** proof.response == proof.commit_p * proof.shared ** v
    except (ProtocolError, ValueError, AttributeError):
        return False


# ---------------------------------------------------------------------------
# redemption over the filestore


def _redemption_key(value: Scalar) -> bytes:
    return sha256(value.to_bytes())


def redeem_post(contract: Contract, value: Scalar, fs: FileStore, rng: Optional[Random] = None) -> bytes:
    """Encrypt the contract under the signalled value and post it.

    The filename is the digest of the symmetric key, so only parties who
    know the value can even locate the file.  Returns the filename.
    """
    key = _redemption_key(value)
    fs.put(sha256(key), seal(key, encode_contract(contract), rng))
    return sha256(key)


def merchant_retrieve(
    identity: MerchantIdentity,
    record: SignalRecord,
    fs: FileStore,
    ledger: Ledger,
) -> Tuple[Optional[Contract], OrderStatus]:
    """Fetch and decrypt the contract behind a signal, then check its payment."""
    key = _redemption_key(record.value)
    blob = fs.get(sha256(key))
    if blob is None:
        return None, OrderStatus(b"\x00" * 32, OrderState.UNMATCHED)
    try:
        plaintext = open_sealed(key, blob)
    except ProtocolError:
        raise ProtocolError("bad ciphertext") from None
    try:
        contract = decode_contract(plaintext)
    except ProtocolError:
        raise ProtocolError("bad ciphertext", "not a contract") from None
    if contract.merchant_pubkey != identity.reputation.public:
        raise ProtocolError("foreign contract")
    status = merchant_detect_payment(identity, contract, ledger)
    if status.state is OrderState.PAID:
        status = OrderStatus(status.contract_hash, OrderState.ACCEPTED, status.paying_txid)
    return contract, status


def combined_pay_and_signal(
    contract: Contract,
    signal_key: KeyPair,
    merchant_pub: Point,
    funds: Sequence[Spend],
    ledger: Ledger,
    payment_amount: Optional[int] = None,
    signal_amount: int = 0,
    variant: SignalVariant = SignalVariant.MERCHANT_CONTROLLED,
    registry: Optional[SignalKeyRegistry] = None,
) -> Tuple[bytes, Scalar]:
    """One transaction with two outputs: the contract payment and the signal.

    The signal key must be among the spending keys so its pubkey appears in
    an input.  Both outputs belong to the merchant (in the default variant),
    so any split of the funds is acceptable.
    """
    if not any(key == signal_key.private for _, _, key in funds):
        raise ProtocolError("signal key not in transaction")
    amount = order_price(contract) if payment_amount is None else payment_amount
    outputs = [TxOutput(payment_address(contract), amount)]
    outputs, value = attach_signal(outputs, signal_key, merchant_pub, signal_amount, variant, registry)
    return ledger.broadcast(build_transaction(ledger, funds, outputs)).txid, value
