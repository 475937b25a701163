"""Scripted multi-actor walkthroughs against fresh simulated state.

Each scenario plays one complete flow -- basic storefront payment, offline
ordering from a posted form, fully anonymous redemption over the
filestore, and recovery from a tampered contract -- and returns an ordered
event transcript.  With a fixed seed every run is byte-for-byte identical,
which the golden-transcript tests rely on.
"""

from __future__ import annotations

from random import Random
from typing import Callable, List, Optional

from . import SCENARIOS
from .chain import Ledger, FileStore, TxOutput, build_transaction
from .contract import (
    Contract,
    build_contract,
    build_template,
    contract_hash,
    order_price,
    payment_address,
    payment_private_key,
    sign_fields,
    verify_contract,
    with_leaf_value,
)
from .curve import KeyPair
from .errors import ProtocolError
from .protocol import (
    CustomerTrustStore,
    MerchantIdentity,
    SignalKeyRegistry,
    combined_pay_and_signal,
    customer_approve_and_pay,
    merchant_detect_payment,
    merchant_retrieve,
    merchant_scan_signals,
    prove_dh,
    redeem_post,
    verify_dh,
    verify_payment,
)
from .wallet import Address, derive_address, p2pkh_address

ApproveCallback = Optional[Callable[[Contract, str], bool]]

STATIC_FIELDS = {
    "terms": "goods ship within 14 days of payment; no returns on digital items",
    "pricelist": "widget=90000 gadget=120000 ebook=70000",
}

ORDER_FIELDS = {
    "item": "widget",
    "quantity": "1",
    "price": 90000,
    "delivery_address": "12 Harbour Lane, Port Town",
}


class _Transcript:
    def __init__(self):
        self.events: List[dict] = []

    def emit(self, action: str, actor: str, **data) -> dict:
        event = {"step": len(self.events) + 1, "action": action, "actor": actor, **data}
        self.events.append(event)
        return event


def _fund(ledger: Ledger, keypair: KeyPair, amount: int) -> tuple:
    addr = p2pkh_address(keypair.public)
    tx = ledger.faucet([TxOutput(addr, amount)])
    return tx, addr


def _sweep(ledger: Ledger, identity: MerchantIdentity, contract: Contract, paying_txid: bytes,
           amount: int) -> tuple:
    """The merchant moves a contract's payment to its treasury address."""
    key = payment_private_key(contract, identity.reputation.private)
    treasury = derive_address(identity.reputation.public, b"treasury")
    return ledger.broadcast(build_transaction(ledger, [(paying_txid, 0, key)],
                                              [TxOutput(treasury, amount)])), treasury


def _merchant_setup(t: _Transcript, rng: Random, static_paths=("merchant/pubkey", "merchant/terms", "merchant/pricelist")):
    identity = MerchantIdentity(KeyPair.generate(rng))
    t.emit("merchant-setup", "merchant", pubkey=identity.reputation.public.encode().hex())
    template = build_template(identity.reputation.public, STATIC_FIELDS, rng)
    template = sign_fields(template, identity.reputation.private, list(static_paths))
    t.emit("template-signed", "merchant", signed_paths=list(static_paths))
    return identity, template


def run_basic(seed: Optional[int] = None, approve: ApproveCallback = None) -> List[dict]:
    """Storefront flow: order, interactive approval, payment, detection, sweep."""
    rng = Random(seed)
    t = _Transcript()
    ledger = Ledger()

    identity, template = _merchant_setup(t, rng)

    trust = CustomerTrustStore()
    trust.add("acme-books", identity.reputation.public)
    t.emit("trust-added", "customer", alias="acme-books",
           pubkey=identity.reputation.public.encode().hex())

    customer = KeyPair.generate(rng)
    funding, customer_addr = _fund(ledger, customer, 100000)
    t.emit("customer-funded", "customer", txid=funding.txid.hex(), amount=100000,
           address=customer_addr.render())

    t.emit("order-submitted", "customer", fields={k: str(v) for k, v in ORDER_FIELDS.items()})
    contract = build_contract(template, ORDER_FIELDS, rng)
    t.emit("contract-built", "webshop", contract_hash=contract_hash(contract).hex())

    report = verify_contract(contract)
    t.emit("contract-verified", "customer", ok=report.ok, warnings=list(report.warnings))

    approved = {}

    def confirm(c: Contract, alias: str) -> bool:
        answer = True if approve is None else approve(c, alias)
        approved["answer"] = answer
        return answer

    try:
        txid = customer_approve_and_pay(
            contract, trust, [(funding.txid, 0, customer.private)], ledger, confirm,
            change_address=customer_addr,
        )
    except ProtocolError as exc:
        t.emit("contract-approved", "customer", alias="acme-books", approved=False)
        t.emit("payment-declined", "customer", error=exc.code)
        return t.events
    t.emit("contract-approved", "customer", alias="acme-books", approved=approved["answer"])
    t.emit("payment-sent", "customer", txid=txid.hex(),
           address=payment_address(contract).render(), amount=order_price(contract))

    status = merchant_detect_payment(identity, contract, ledger)
    t.emit("payment-detected", "merchant", state=status.state.value,
           txid=status.paying_txid.hex())

    sweep, treasury = _sweep(ledger, identity, contract, status.paying_txid, order_price(contract))
    t.emit("funds-spent", "merchant", txid=sweep.txid.hex(), amount=order_price(contract),
           to=treasury.render())

    paid, receipt_txid = verify_payment(contract, ledger)
    t.emit("receipt-checked", "anyone", paid=paid, txid=receipt_txid.hex())
    return t.events


def run_offline(seed: Optional[int] = None) -> List[dict]:
    """Offline flow: the customer fills a posted contract form and pays first."""
    rng = Random(seed)
    t = _Transcript()
    ledger = Ledger()

    identity, form = _merchant_setup(t, rng)
    t.emit("contract-form-posted", "merchant", location="public notice board")

    customer = KeyPair.generate(rng)
    funding, _ = _fund(ledger, customer, 70000)
    t.emit("customer-funded", "customer", txid=funding.txid.hex(), amount=70000)

    order = {"item": "ebook", "quantity": "1", "price": 70000}
    contract = build_contract(form, order, rng)
    t.emit("contract-filled", "customer", fields=order,
           contract_hash=contract_hash(contract).hex())

    report = verify_contract(contract)
    t.emit("contract-verified", "customer", ok=report.ok)

    addr = payment_address(contract)
    tx = ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, customer.private)],
                                            [TxOutput(addr, 70000)]))
    t.emit("payment-sent", "customer", txid=tx.txid.hex(), address=addr.render(), amount=70000)

    t.emit("contract-submitted", "customer", channel="one-way email")

    status = merchant_detect_payment(identity, contract, ledger)
    t.emit("payment-detected", "merchant", state=status.state.value,
           txid=status.paying_txid.hex())

    sweep, treasury = _sweep(ledger, identity, contract, status.paying_txid, 70000)
    t.emit("funds-spent", "merchant", txid=sweep.txid.hex(), to=treasury.render())
    return t.events


def _decoy_traffic(ledger: Ledger, rng: Random, count: int):
    for _ in range(count):
        kp = KeyPair.generate(rng)
        funding, _ = _fund(ledger, kp, 50000)
        dest = Address("p2pkh", rng.randbytes(20))
        ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, kp.private)],
                                           [TxOutput(dest, 50000)]))


def run_anonymous(seed: Optional[int] = None) -> List[dict]:
    """Anonymous-merchant flow: combined pay+signal, filestore redemption."""
    rng = Random(seed)
    t = _Transcript()
    ledger = Ledger()
    fs = FileStore()

    identity, form = _merchant_setup(t, rng)
    t.emit("contract-form-posted", "merchant", location="public notice board")

    _decoy_traffic(ledger, rng, 4)
    t.emit("decoy-traffic", "others", transactions=len(ledger))

    customer = KeyPair.generate(rng)
    funding, _ = _fund(ledger, customer, 100000)
    t.emit("customer-funded", "customer", txid=funding.txid.hex(), amount=100000)

    order = {"item": "widget", "quantity": "1", "price": 90000,
             "delivery_address": "poste restante, Port Town"}
    contract = build_contract(form, order, rng)
    t.emit("contract-filled", "customer", contract_hash=contract_hash(contract).hex())

    registry = SignalKeyRegistry()
    txid, value = combined_pay_and_signal(
        contract, customer, identity.reputation.public,
        [(funding.txid, 0, customer.private)], ledger,
        payment_amount=90000, signal_amount=10000, registry=registry,
    )
    t.emit("pay-and-signal", "customer", txid=txid.hex(),
           payment_amount=90000, signal_amount=10000)

    filename = redeem_post(contract, value, fs, rng)
    t.emit("contract-posted", "customer", filename=filename.hex())

    _decoy_traffic(ledger, rng, 4)
    t.emit("decoy-traffic", "others", transactions=len(ledger))

    records = merchant_scan_signals(identity, ledger)
    t.emit("signal-scan", "merchant", signals_found=len(records),
           scanned_transactions=len(ledger))

    retrieved, status = merchant_retrieve(identity, records[0], fs, ledger)
    t.emit("contract-retrieved", "merchant",
           contract_hash=contract_hash(retrieved).hex(),
           state=status.state.value, txid=status.paying_txid.hex())

    # dispute evidence: customer can attribute the signal without the key
    proof = prove_dh(customer.private, identity.reputation.public, rng)
    valid = verify_dh(proof, customer.public, identity.reputation.public)
    t.emit("dleq-proved", "customer", valid=valid,
           shared=proof.shared.encode().hex())
    return t.events


def run_tamper(seed: Optional[int] = None) -> List[dict]:
    """Compromised-webshop flow: payment lands where only the true contract says."""
    rng = Random(seed)
    t = _Transcript()
    ledger = Ledger()

    identity, template = _merchant_setup(t, rng)

    trust = CustomerTrustStore()
    trust.add("acme-books", identity.reputation.public)
    t.emit("trust-added", "customer", alias="acme-books",
           pubkey=identity.reputation.public.encode().hex())

    customer = KeyPair.generate(rng)
    funding, customer_addr = _fund(ledger, customer, 100000)
    t.emit("customer-funded", "customer", txid=funding.txid.hex(), amount=100000)

    contract = build_contract(template, ORDER_FIELDS, rng)
    t.emit("contract-built", "webshop", contract_hash=contract_hash(contract).hex())

    # the attacker rewrites the merchant-side copy; the customer's device
    # shows and pays the contract he actually approved
    tampered = with_leaf_value(contract, "order/delivery_address", "1 Attacker Alley")
    t.emit("contract-tampered", "attacker", path="order/delivery_address",
           true_hash=contract_hash(contract).hex(),
           tampered_hash=contract_hash(tampered).hex())

    txid = customer_approve_and_pay(
        contract, trust, [(funding.txid, 0, customer.private)], ledger,
        lambda c, alias: True, change_address=customer_addr,
    )
    t.emit("payment-sent", "customer", txid=txid.hex(),
           address=payment_address(contract).render(), amount=order_price(contract))

    status = merchant_detect_payment(identity, tampered, ledger)
    t.emit("payment-detected", "merchant", watching="tampered contract",
           state=status.state.value)

    t.emit("contract-resubmitted", "customer", channel="out-of-band",
           contract_hash=contract_hash(contract).hex())

    status = merchant_detect_payment(identity, contract, ledger)
    t.emit("payment-detected", "merchant", watching="true contract",
           state=status.state.value, txid=status.paying_txid.hex())

    recovery, treasury = _sweep(ledger, identity, contract, status.paying_txid,
                                order_price(contract))
    t.emit("funds-recovered", "merchant", txid=recovery.txid.hex(),
           amount=order_price(contract), to=treasury.render())
    return t.events


def run_scenario(name: str, seed: Optional[int] = None, approve: ApproveCallback = None) -> List[dict]:
    """The transcript of ``run_<name>`` for a name in ``SCENARIOS``; only the
    basic flow takes ``approve``."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    if name == "basic":
        return run_basic(seed, approve)
    return globals()[f"run_{name}"](seed)
