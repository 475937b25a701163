"""signal_scan: an anonymous merchant finds its signals on the public record.

Set-up builds a ledger of signed spends: most pubkeys distinct, some
transactions spending several outputs of one key, some keys reused across
transactions, a planted set of ``combined_pay_and_signal`` payments to
this merchant with their contracts posted through ``redeem_post``, and a
few signals to a different merchant that the scan must not report.

Each timed round is one ``merchant_scan_signals`` over the whole ledger,
then ``merchant_retrieve``, ``prove_dh`` and ``verify_dh`` for each hit.
Rounds repeat, closed loop, one client, until the time is up; the timed
part only reads the ledger and filestore, so every round sees the same
record.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Tuple

import paytocontract as pc

from common import Outcome, keep_going, p2pkh, untraced

STATIC_FIELDS = {"terms": "signalled orders only; contract travels through the filestore"}
SIGNED_PATHS = ["merchant/pubkey", "merchant/terms"]


@dataclass(frozen=True)
class Sizes:
    single_spends: int = 240  # keys that spend one output, once
    multi_spends: int = 30  # keys that spend several outputs in one transaction
    outputs_per_multi: int = 3
    reused_keys: int = 30  # keys that spend in two separate transactions
    planted: int = 8  # pay-and-signal transactions to this merchant
    foreign: int = 4  # pay-and-signal transactions to another merchant


TINY = Sizes(single_spends=6, multi_spends=2, reused_keys=2, planted=2, foreign=1)


@dataclass
class Planted:
    txid: bytes
    contract_hash: bytes
    signal_key: pc.KeyPair


@dataclass
class Inputs:
    identity: pc.MerchantIdentity
    ledger: pc.Ledger
    filestore: pc.FileStore
    planted: Dict[Tuple[bytes, bytes], Planted]  # (signal pubkey, txid) -> what was posted
    rng: Random  # nonce source handed to prove_dh
    scan_pubkeys: int  # pubkeys a scan examines (deduplicated within each transaction)
    distinct_pubkeys: int  # pubkeys distinct across the whole record
    shape: dict


def _spend(ledger: pc.Ledger, rng: Random, key: pc.KeyPair, outpoints: List[Tuple[bytes, int]], total: int):
    tx = pc.build_transaction(ledger, [(t, i, key.private) for t, i in outpoints],
                              [pc.TxOutput(pc.Address("p2pkh", rng.randbytes(20)), total)])
    ledger.broadcast(tx)


def _merchant(rng: Random):
    identity = pc.MerchantIdentity(pc.KeyPair.generate(rng))
    form = pc.build_template(identity.reputation.public, STATIC_FIELDS, rng)
    return identity, pc.sign_fields(form, identity.reputation.private, SIGNED_PATHS)


def _pay_and_signal(ledger, fs, registry, rng: Random, merchant_pub, form) -> Tuple[bytes, pc.Contract, pc.KeyPair]:
    customer = pc.KeyPair.generate(rng)
    funding = ledger.faucet([pc.TxOutput(p2pkh(customer), 100000)])
    price = rng.randint(1000, 90000)
    order = {"item": f"sku-{rng.randrange(10 ** 6):06d}", "price": price,
             "delivery_address": f"poste restante {rng.randrange(10 ** 5):05d}"}
    contract = pc.build_contract(form, order, rng)
    txid, value = pc.combined_pay_and_signal(
        contract, customer, merchant_pub, [(funding.txid, 0, customer.private)], ledger,
        payment_amount=price, signal_amount=100000 - price, registry=registry)
    pc.redeem_post(contract, value, fs, rng)
    return txid, contract, customer


def generate(seed: int, sizes: Sizes = Sizes()) -> Inputs:
    rng = Random(seed)
    identity, form = _merchant(rng)
    _, foreign_form = _merchant(rng)
    ledger, fs, registry = pc.Ledger(), pc.FileStore(), pc.SignalKeyRegistry()

    events = (["single"] * sizes.single_spends + ["multi"] * sizes.multi_spends
              + [("reuse", k) for k in range(sizes.reused_keys) for _ in range(2)]
              + ["planted"] * sizes.planted + ["foreign"] * sizes.foreign)
    rng.shuffle(events)
    reused: Dict[int, Tuple[pc.KeyPair, bytes]] = {}  # key index -> (key, funding txid)
    planted: Dict[Tuple[bytes, bytes], Planted] = {}
    for event in events:
        if event == "single":
            key = pc.KeyPair.generate(rng)
            funding = ledger.faucet([pc.TxOutput(p2pkh(key), 50000)])
            _spend(ledger, rng, key, [(funding.txid, 0)], 50000)
        elif event == "multi":
            key = pc.KeyPair.generate(rng)
            n = sizes.outputs_per_multi
            funding = ledger.faucet([pc.TxOutput(p2pkh(key), 20000) for _ in range(n)])
            _spend(ledger, rng, key, [(funding.txid, i) for i in range(n)], 20000 * n)
        elif event == "planted":
            txid, contract, customer = _pay_and_signal(ledger, fs, registry, rng, identity.reputation.public, form)
            planted[(customer.public.encode(), txid)] = Planted(txid, pc.contract_hash(contract), customer)
        elif event == "foreign":
            _pay_and_signal(ledger, fs, registry, rng, foreign_form.merchant_pubkey, foreign_form)
        else:  # a reused key: the first event funds two outputs and spends one, the second the other
            k = event[1]
            if k not in reused:
                key = pc.KeyPair.generate(rng)
                funding = ledger.faucet([pc.TxOutput(p2pkh(key), 30000) for _ in range(2)])
                reused[k] = (key, funding.txid)
                _spend(ledger, rng, key, [(funding.txid, 0)], 30000)
            else:
                key, funding_txid = reused[k]
                _spend(ledger, rng, key, [(funding_txid, 1)], 30000)

    scan_pubkeys = sizes.single_spends + sizes.multi_spends + 2 * sizes.reused_keys + sizes.planted + sizes.foreign
    distinct = scan_pubkeys - sizes.reused_keys
    shape = {
        "loop": "closed, 1 client, 1 thread; one scan round at a time",
        "ledger_txs": len(ledger),
        "pubkeys": scan_pubkeys,
        "distinct_ratio": round(distinct / scan_pubkeys, 4),
        "multi_input_txs": sizes.multi_spends,
        "outputs_per_multi": sizes.outputs_per_multi,
        "reused_keys": sizes.reused_keys,
        "planted_signals": sizes.planted,
        "foreign_signals": sizes.foreign,
    }
    return Inputs(identity, ledger, fs, planted, Random(seed + 1), scan_pubkeys, distinct, shape)


def run(inputs: Inputs, seconds: float, items: Optional[int] = None, tracer=None) -> Outcome:
    """Scan rounds until ``seconds`` pass (or ``items`` rounds are done)."""
    out = Outcome()
    identity, merchant_pub = inputs.identity, inputs.identity.reputation.public
    if tracer is not None:
        tracer.scan_pubkeys = inputs.scan_pubkeys
    start = time.perf_counter()
    while keep_going(start, seconds, out.items, items):
        if tracer is not None:
            tracer.begin_op()
            tracer.notes["protocol.scan.pubkeys"].append(inputs.scan_pubkeys)
            tracer.notes["protocol.scan.distinct_ratio"].append(inputs.distinct_pubkeys / inputs.scan_pubkeys)
        t0 = time.perf_counter()
        records = pc.merchant_scan_signals(identity, inputs.ledger)
        t1 = time.perf_counter()
        out.items += 1
        out.add("scan_ms", t1 - t0)
        out.work += inputs.scan_pubkeys
        out.busy_s += t1 - t0
        if tracer is not None:
            tracer.notes["protocol.scan.hits"].append(len(records))
        found = {(r.signal_pubkey.encode(), r.txid): r for r in records}
        out.record(found.keys() == inputs.planted.keys(),
                   f"round {out.items}: scan found {len(found)} signals, planted {len(inputs.planted)}")
        for key in sorted(found.keys() & inputs.planted.keys()):
            record, planted = found[key], inputs.planted[key]
            try:
                t0 = time.perf_counter()
                contract, status = pc.merchant_retrieve(identity, record, inputs.filestore, inputs.ledger)
                t1 = time.perf_counter()
                proof = pc.prove_dh(planted.signal_key.private, merchant_pub, inputs.rng)
                valid = pc.verify_dh(proof, record.signal_pubkey, merchant_pub)
                t2 = time.perf_counter()
            except pc.ProtocolError as exc:
                out.record(False, f"hit {key[1].hex()}: {exc}")
                continue
            out.add("redeem_ms", t1 - t0)
            out.add("dispute_ms", t2 - t1)
            with untraced(tracer):
                out.record(contract is not None and pc.contract_hash(contract) == planted.contract_hash
                           and status.state is pc.OrderState.ACCEPTED and status.paying_txid == planted.txid,
                           f"hit {key[1].hex()}: wrong contract or state")
                forged = dataclasses.replace(proof, response=proof.response + pc.Scalar(1))
                out.record(valid and not pc.verify_dh(forged, record.signal_pubkey, merchant_pub),
                           f"hit {key[1].hex()}: proof verification wrong")
    return out
