"""storefront: basic pay-to-contract orders against one merchant, closed loop, one client.

Each order: the webshop builds the contract, the customer approves and
pays, the merchant detects the payment and sweeps it, and an auditor
checks the receipt with the delivery address redacted.  The ledger is
preloaded with unrelated faucet outputs so that ``Ledger.scan_address``
runs against a record much larger than the merchant's own traffic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from random import Random
from typing import List, Optional

import paytocontract as pc

from common import Outcome, keep_going, p2pkh, untraced

STATIC_FIELDS = {
    "terms": "goods ship within 14 days of payment; no returns on digital items",
    "pricelist": "widget=90000 gadget=120000 ebook=70000",
}
SIGNED_PATHS = ["merchant/pubkey", "merchant/terms", "merchant/pricelist"]
REDACTED_PATH = "order/delivery_address"
CUSTOMER_FUNDS = 10 ** 12


@dataclass(frozen=True)
class Sizes:
    background_txs: int = 5000  # unrelated faucet transactions preloaded
    outputs_per_tx: int = 4
    customers: int = 32
    order_specs: int = 256  # distinct order field sets, used in turn
    min_fields: int = 4  # line items per order, drawn log-uniformly in [min, max]
    max_fields: int = 300


TINY = Sizes(background_txs=40, customers=2, order_specs=3, max_fields=12)


@dataclass
class Customer:
    key: pc.KeyPair
    address: pc.Address
    outpoint: tuple  # (txid, index) of the customer's spendable output


@dataclass
class Inputs:
    identity: pc.MerchantIdentity
    template: pc.Contract
    trust: pc.CustomerTrustStore
    ledger: pc.Ledger
    customers: List[Customer]
    orders: List[dict]
    treasury: pc.Address
    rng: Random  # salt source handed to build_contract
    shape: dict


def _order_fields(rng: Random, sizes: Sizes) -> dict:
    lines = round(math.exp(rng.uniform(math.log(sizes.min_fields), math.log(sizes.max_fields))))
    fields = {f"line{j:03d}": f"sku-{rng.randrange(10 ** 6):06d} x{rng.randint(1, 9)}" for j in range(lines)}
    fields["price"] = rng.randint(1000, 500000)
    fields["delivery_address"] = f"{rng.randint(1, 999)} Harbour Lane, Port Town {rng.randrange(10 ** 5):05d}"
    return fields


def generate(seed: int, sizes: Sizes = Sizes()) -> Inputs:
    rng = Random(seed)
    ledger = pc.Ledger()
    for _ in range(sizes.background_txs):
        ledger.faucet([pc.TxOutput(pc.Address("p2pkh", rng.randbytes(20)), rng.randint(1, 10 ** 8))
                       for _ in range(sizes.outputs_per_tx)])
    identity = pc.MerchantIdentity(pc.KeyPair.generate(rng))
    template = pc.build_template(identity.reputation.public, STATIC_FIELDS, rng)
    template = pc.sign_fields(template, identity.reputation.private, SIGNED_PATHS)
    trust = pc.CustomerTrustStore()
    trust.add("acme-books", identity.reputation.public)
    customers = []
    for _ in range(sizes.customers):
        key = pc.KeyPair.generate(rng)
        address = p2pkh(key)
        funding = ledger.faucet([pc.TxOutput(address, CUSTOMER_FUNDS)])
        customers.append(Customer(key, address, (funding.txid, 0)))
    orders = [_order_fields(rng, sizes) for _ in range(sizes.order_specs)]
    treasury = pc.derive_address(identity.reputation.public, b"treasury")
    line_counts = sorted(len(o) - 2 for o in orders)
    shape = {
        "loop": "closed, 1 client, 1 thread",
        "background_txs": sizes.background_txs,
        "background_outputs": sizes.background_txs * sizes.outputs_per_tx,
        "customers": sizes.customers,
        "order_specs": sizes.order_specs,
        "fields": f"log-uniform line items in [{sizes.min_fields}, {sizes.max_fields}] plus price "
                  f"and delivery_address; drawn median {line_counts[len(line_counts) // 2]}",
        "signed_template_paths": len(SIGNED_PATHS),
    }
    return Inputs(identity, template, trust, ledger, customers, orders, treasury, Random(seed + 1), shape)


def _approve(contract, alias) -> bool:
    return True


def run(inputs: Inputs, seconds: float, items: Optional[int] = None, tracer=None) -> Outcome:
    """Place orders until ``seconds`` pass (or ``items`` orders are done)."""
    out = Outcome()
    merchant_priv = inputs.identity.reputation.private
    start = time.perf_counter()
    while keep_going(start, seconds, out.items, items):
        i = out.items
        fields = inputs.orders[i % len(inputs.orders)]
        customer = inputs.customers[i % len(inputs.customers)]
        if tracer is not None:
            tracer.begin_op()
        try:
            t0 = time.perf_counter()
            contract = pc.build_contract(inputs.template, fields, inputs.rng)
            txid = pc.customer_approve_and_pay(
                contract, inputs.trust, [(*customer.outpoint, customer.key.private)], inputs.ledger,
                _approve, change_address=customer.address)
            status = pc.merchant_detect_payment(inputs.identity, contract, inputs.ledger)
            t1 = time.perf_counter()
            sweep_key = pc.payment_private_key(contract, merchant_priv)
            sweep = pc.build_transaction(inputs.ledger, [(txid, 0, sweep_key)],
                                         [pc.TxOutput(inputs.treasury, fields["price"])])
            inputs.ledger.broadcast(sweep)
            t2 = time.perf_counter()
            receipt = pc.redact(contract, REDACTED_PATH)
            report = pc.verify_contract(receipt)
            paid, receipt_txid = pc.verify_payment(receipt, inputs.ledger)
            t3 = time.perf_counter()
        except pc.ProtocolError as exc:
            out.items += 1
            out.record(False, f"order {i}: {exc}")
            continue
        customer.outpoint = (txid, 1)  # the change output funds this customer's next order
        out.items += 1
        out.add("order_ms", t1 - t0)
        out.add("sweep_ms", t2 - t1)
        out.add("receipt_ms", t3 - t2)
        out.work += 1
        out.busy_s += t3 - t0
        with untraced(tracer):
            ok = (status.state is pc.OrderState.PAID and status.paying_txid == txid
                  and report.ok and REDACTED_PATH in report.redacted_paths
                  and paid and receipt_txid == txid
                  and pc.payment_address(receipt) == pc.payment_address(contract)
                  and inputs.ledger.get_transaction(sweep.txid) is not None)
        out.record(ok, f"order {i}: wrong detection, sweep or receipt")
    return out
