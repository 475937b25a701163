import contextlib
import dataclasses
import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from paytocontract import chain, contract, curve, protocol
from paytocontract.chain import (
    FileStore,
    Ledger,
    TxOutput,
    build_script_spend,
    build_transaction,
    transaction_pubkeys,
)
from paytocontract.contract import (
    build_contract,
    build_template,
    contract_hash,
    contract_to_json,
    decode_contract,
    encode_contract,
    payment_address,
    payment_private_key,
    redact,
    sign_fields,
    verify_contract,
    with_leaf_value,
)
from paytocontract.curve import G, ORDER, KeyPair, Point, Scalar, hash160, random_scalar, sha256
from paytocontract.errors import ProtocolError
from paytocontract.protocol import (
    CustomerTrustStore,
    DlegProof,
    MerchantIdentity,
    OrderState,
    OrderStatus,
    SignalKeyRegistry,
    SignalRecord,
    SignalVariant,
    attach_signal,
    combined_pay_and_signal,
    customer_approve_and_pay,
    merchant_detect_payment,
    merchant_retrieve,
    merchant_scan_signals,
    prove_dh,
    redeem_post,
    signal_value,
    verify_dh,
    verify_payment,
)
from paytocontract.sealing import NONCE_BYTES, open_sealed, seal
from paytocontract.wallet import (
    Address,
    DerivationScheme,
    derive_address,
    derive_private,
    multisig_script,
    p2pkh_address,
    p2sh_address,
)

YES = lambda contract, alias: True


def _addr(pair: KeyPair) -> Address:
    return Address("p2pkh", hash160(pair.public.encode()))


def _setup(rng: Random, price: int = 90000, fund: int = 100000):
    identity = MerchantIdentity(KeyPair.generate(rng))
    template = build_template(identity.reputation.public, {"terms": "t"}, rng)
    template = sign_fields(template, identity.reputation.private, ["merchant"])
    contract = build_contract(
        template, {"item": "widget", "price": price, "delivery_address": "1 Pier Rd"}, rng)
    trust = CustomerTrustStore()
    trust.add("acme", identity.reputation.public)
    ledger = Ledger()
    customer = KeyPair.generate(rng)
    funding = ledger.faucet([TxOutput(_addr(customer), fund)])
    funds = [(funding.txid, 0, customer.private)]
    return identity, contract, trust, ledger, customer, funds


class TestBasicFlow:
    def test_pay_then_detect_then_spend(self):
        rng = Random(91)
        identity, contract, trust, ledger, customer, funds = _setup(rng)
        txid = customer_approve_and_pay(contract, trust, funds, ledger, YES,
                                        change_address=_addr(customer))
        assert ledger.scan_address(payment_address(contract))
        status = merchant_detect_payment(identity, contract, ledger)
        assert status.state is OrderState.PAID
        assert status.paying_txid == txid
        # the merchant's derived key actually spends the output
        key = payment_private_key(contract, identity.reputation.private)
        sweep = build_transaction(
            ledger, [(txid, 0, key)],
            [TxOutput(derive_address(identity.reputation.public, b"payout"), 90000)])
        ledger.broadcast(sweep)

    def test_untrusted_merchant_rejected_before_payment(self):
        rng = Random(92)
        identity, contract, _, ledger, customer, funds = _setup(rng)
        empty_trust = CustomerTrustStore()
        with pytest.raises(ProtocolError, match="untrusted merchant"):
            customer_approve_and_pay(contract, empty_trust, funds, ledger, YES)
        assert ledger.scan_address(payment_address(contract)) == []

    def test_broken_signature_rejected(self):
        rng = Random(93)
        identity, contract, trust, ledger, customer, funds = _setup(rng)
        tampered = with_leaf_value(contract, "merchant/terms", "changed")
        with pytest.raises(ProtocolError, match="invalid contract"):
            customer_approve_and_pay(tampered, trust, funds, ledger, YES)

    def test_decline_stops_payment(self):
        rng = Random(94)
        identity, contract, trust, ledger, customer, funds = _setup(rng)
        with pytest.raises(ProtocolError, match="declined"):
            customer_approve_and_pay(contract, trust, funds, ledger,
                                     lambda c, alias: False)
        assert len(ledger) == 1  # only the faucet

    def test_no_payment_yet_awaiting(self):
        rng = Random(95)
        identity, contract, _, ledger, _, _ = _setup(rng)
        status = merchant_detect_payment(identity, contract, ledger)
        assert status.state is OrderState.AWAITING_PAYMENT
        assert status.paying_txid is None

    def test_foreign_contract_rejected(self):
        rng = Random(96)
        identity, contract, _, ledger, _, _ = _setup(rng)
        other = MerchantIdentity(KeyPair.generate(rng))
        with pytest.raises(ProtocolError, match="foreign contract"):
            merchant_detect_payment(other, contract, ledger)

    def test_underpayment_not_detected_as_paid(self):
        rng = Random(97)
        identity, contract, _, ledger, customer, funds = _setup(rng)
        addr = payment_address(contract)
        tx = build_transaction(ledger, funds, [TxOutput(addr, 89999)])
        ledger.broadcast(tx)
        assert merchant_detect_payment(identity, contract, ledger).state is OrderState.AWAITING_PAYMENT

    def test_receipt_verifier_needs_no_keys(self):
        rng = Random(98)
        identity, contract, trust, ledger, customer, funds = _setup(rng)
        assert verify_payment(contract, ledger) == (False, None)
        txid = customer_approve_and_pay(contract, trust, funds, ledger, YES)
        assert verify_payment(contract, ledger) == (True, txid)

    def test_receipt_verifier_counts_only_a_hidden_price_as_zero(self):
        rng = Random(99)
        identity, contract, _, ledger, _, funds = _setup(rng)
        ledger.broadcast(build_transaction(ledger, funds, [TxOutput(payment_address(contract), 1)]))
        # redaction keeps the address, and with the price hidden any payment counts
        hidden = redact(contract, "order/price")
        assert payment_address(hidden) == payment_address(contract)
        assert verify_payment(hidden, ledger)[0]
        assert not verify_payment(contract, ledger)[0]
        malformed = with_leaf_value(contract, "order/price", "-5")
        with pytest.raises(ProtocolError) as exc:
            verify_payment(malformed, ledger)
        assert exc.value.code == "invalid-price"

    def test_a_plain_price_flipped_to_encrypted_names_an_unpaid_contract(self):
        # a leaf's digest commits to its encrypted flag, so a receipt file whose plain
        # price is relabelled encrypted, which would hide the price, hashes elsewhere
        rng = Random(100)
        _, contract, trust, ledger, _, funds = _setup(rng)
        txid = customer_approve_and_pay(contract, trust, funds, ledger, YES)
        obj = contract_to_json(contract)
        price = obj["root"]["children"]["order"]["children"]["price"]
        assert price["encrypted"] is False
        price["encrypted"] = True
        flipped = decode_contract(json.dumps(obj).encode())
        assert verify_contract(flipped).encrypted_paths == ("order/price",)
        assert contract_hash(flipped) != contract_hash(contract)
        assert verify_payment(contract, ledger) == (True, txid)
        assert verify_payment(flipped, ledger) == (False, None)



def _multiplies(monkeypatch) -> list:
    """The EC multiplies made from here on, by route: every ``p ** k``, the
    variable-base engine, the fixed-base table and its batch."""
    calls = []
    for owner, name in ((curve.Point, "__pow__"), (curve, "_var_mul"), (curve._FixedBase, "mul"),
                        (curve, "_base_mul_batch")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _name=name, _original=original:
                            calls.append(_name) or _original(*args))
    return calls


class TestDetectionByConstruction:
    """Detection does not re-derive the merchant's spending key: the algebra
    makes it own the payment address, and the ledger refuses any other key."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(st.integers(1, ORDER - 1), st.integers(0, 2 ** 32))
    def test_the_derived_key_owns_the_payment_address(self, merchant, seed):
        rng = Random(seed)
        pair = KeyPair(Scalar(merchant))
        template = build_template(pair.public, {"terms": "t"}, rng)
        c = build_contract(template, {"item": "widget", "price": rng.randrange(1, 10 ** 8)}, rng)
        key = payment_private_key(c, pair.private)
        x, y = oracle.point_mul(key.value, oracle.G)
        owner = Address("p2pkh", hash160(bytes([2 + (y & 1)]) + x.to_bytes(32, "big")))
        assert p2pkh_address(G ** key) == payment_address(c) == owner

    def test_a_sweep_signed_with_a_wrongly_derived_key_is_refused(self):
        rng = Random(99)
        identity, c, trust, ledger, customer, funds = _setup(rng)
        txid = customer_approve_and_pay(c, trust, funds, ledger, YES, change_address=_addr(customer))
        merchant = identity.reputation.private
        right = payment_private_key(c, merchant)
        payout = (TxOutput(_addr(identity.reputation), 90000),)
        wrong = [right + Scalar(1), derive_private(merchant, contract_hash(c), DerivationScheme.MULTIPLICATIVE),
                 payment_private_key(c, customer.private), merchant]
        for key in wrong:
            # signed without the builder's lock check, so the ledger alone refuses it
            unsigned = chain.TxInput(txid, 0, pubkey=G ** key)
            sig = curve.ecdsa_sign(key, curve.sha256(chain.tx_preimage((unsigned,), payout)))
            forged = chain.Transaction((dataclasses.replace(unsigned, signature=sig),), payout)
            with pytest.raises(ProtocolError) as exc:
                ledger.broadcast(forged)
            assert exc.value.code == "key-does-not-match-output"
        ledger.broadcast(build_transaction(ledger, [(txid, 0, right)], payout))

    def test_detection_does_no_ec_multiply(self, monkeypatch):
        rng = Random(100)
        identity, c, trust, ledger, customer, funds = _setup(rng)
        txid = customer_approve_and_pay(c, trust, funds, ledger, YES)  # derives the payment address
        calls = _multiplies(monkeypatch)
        paid = OrderStatus(contract_hash(c), OrderState.PAID, txid)
        assert merchant_detect_payment(identity, c, ledger) == paid
        assert calls == []
        # where nothing derived the address yet, that derivation is the one multiply
        contract._address.cache_clear()
        assert merchant_detect_payment(identity, c, ledger) == paid
        assert calls == ["__pow__", "mul"]


class TestVerifyCountsPerOrder:
    """A shop's template signatures verify once per process: from the second
    order on, an order's only pure verifies are the two in ``broadcast``."""

    @pytest.fixture
    def verifies(self, monkeypatch):
        """Each pure verify ``chain`` and ``contract`` make, as (module, inside a broadcast)."""
        contract._verified.cache_clear()
        calls, broadcasting = [], []
        for module in (chain, contract):
            def counting(*args, _name=module.__name__.rpartition(".")[2], _verify=module.ecdsa_verify):
                calls.append((_name, bool(broadcasting)))
                return _verify(*args)
            monkeypatch.setattr(module, "ecdsa_verify", counting)
        broadcast = Ledger.broadcast

        def tracked(ledger, tx):
            broadcasting.append(tx)
            try:
                return broadcast(ledger, tx)
            finally:
                broadcasting.pop()
        monkeypatch.setattr(Ledger, "broadcast", tracked)
        return calls

    def test_five_orders_against_one_signed_template(self, verifies):
        rng = Random(170)
        identity = MerchantIdentity(KeyPair.generate(rng))
        merchant = identity.reputation
        template = build_template(merchant.public, {"terms": "t", "pricelist": "widget=90000"}, rng)
        template = sign_fields(template, merchant.private,
                               ["merchant/pubkey", "merchant/terms", "merchant/pricelist"])
        trust = CustomerTrustStore()
        trust.add("acme", merchant.public)
        ledger = Ledger()
        customer = KeyPair.generate(rng)
        outpoint = (ledger.faucet([TxOutput(_addr(customer), 10 ** 9)]).txid, 0)
        treasury = derive_address(merchant.public, b"treasury")
        per_order = []
        for i in range(5):
            verifies.clear()
            price = 90000 + i
            fields = {"item": "widget", "price": price, "delivery_address": f"{i} Pier Rd"}
            order = build_contract(template, fields, rng)
            txid = customer_approve_and_pay(order, trust, [(*outpoint, customer.private)], ledger, YES,
                                            change_address=_addr(customer))
            assert merchant_detect_payment(identity, order, ledger).paying_txid == txid
            key = payment_private_key(order, merchant.private)
            ledger.broadcast(build_transaction(ledger, [(txid, 0, key)], [TxOutput(treasury, price)]))
            receipt = redact(order, "order/delivery_address")
            assert verify_contract(receipt).ok and verify_payment(receipt, ledger) == (True, txid)
            outpoint = (txid, 1)
            per_order.append(list(verifies))
        assert per_order[0] == [("contract", False)] * 3 + [("chain", True)] * 2
        assert per_order[1:] == [[("chain", True)] * 2] * 4
        # the customer's check and the receipt's, three static signatures each, in each of five orders
        info = contract._verified.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 5 * 2 * 3 - 3, 3)

class TestTamper:
    def test_tampered_copy_never_pays_and_true_copy_recovers(self):
        rng = Random(99)
        identity, contract, trust, ledger, customer, funds = _setup(rng)
        tampered = with_leaf_value(contract, "order/delivery_address", "1 Attacker Alley")
        assert payment_address(tampered) != payment_address(contract)
        txid = customer_approve_and_pay(contract, trust, funds, ledger, YES)
        # merchant watching the tampered copy sees nothing, forever
        assert merchant_detect_payment(identity, tampered, ledger).state is OrderState.AWAITING_PAYMENT
        # handed the true contract, the merchant recovers every satoshi
        status = merchant_detect_payment(identity, contract, ledger)
        assert status.state is OrderState.PAID
        key = payment_private_key(contract, identity.reputation.private)
        recovery = build_transaction(
            ledger, [(status.paying_txid, 0, key)],
            [TxOutput(derive_address(identity.reputation.public, b"recovered"), 90000)])
        ledger.broadcast(recovery)
        assert ledger.utxo[(recovery.txid, 0)].amount == 90000


class TestSignaling:
    def test_a_zero_signal_key_has_no_signal_value(self):
        # its shared point would be the identity, which has no x-coordinate
        with pytest.raises(ValueError, match="degenerate shared point"):
            signal_value(Scalar(0), G ** Scalar(3))

    def test_dh_symmetry(self):
        rng = Random(100)
        merchant = KeyPair.generate(rng)
        signer = KeyPair.generate(rng)
        customer_side = signal_value(signer.private, merchant.public)
        merchant_side = Scalar.reduce((signer.public ** merchant.private).x)
        assert customer_side == merchant_side
        # oracle cross-check of the shared point
        shared = oracle.point_mul(signer.private.value, oracle.as_tuple(merchant.public))
        assert shared[0] % oracle.N == customer_side.value

    def test_attach_appends_derived_output(self):
        rng = Random(101)
        merchant = KeyPair.generate(rng)
        signer = KeyPair.generate(rng)
        outputs, value = attach_signal([], signer, merchant.public, 500)
        assert outputs[0].amount == 500
        assert outputs[0].payto == derive_address(merchant.public, value.to_bytes())

    def test_reuse_guard(self):
        rng = Random(102)
        merchant = KeyPair.generate(rng)
        signer = KeyPair.generate(rng)
        registry = SignalKeyRegistry()
        _, first = attach_signal([], signer, merchant.public, 0, registry=registry)
        with pytest.raises(ProtocolError, match="signal key reuse"):
            attach_signal([], signer, merchant.public, 0, registry=registry)
        # same inputs would have produced the identical value again
        assert signal_value(signer.private, merchant.public) == first

    def test_customer_controlled_variant(self):
        rng = Random(103)
        merchant = KeyPair.generate(rng)
        ledger = Ledger()
        signer = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(_addr(signer), 1000)])
        outputs, value = attach_signal([], signer, merchant.public, 1000,
                                       variant=SignalVariant.CUSTOMER_CONTROLLED)
        assert outputs[0].payto == derive_address(signer.public, value.to_bytes())
        tx = build_transaction(ledger, [(funding.txid, 0, signer.private)], outputs)
        ledger.broadcast(tx)
        # the merchant still detects it when variant scanning is on
        identity = MerchantIdentity(merchant)
        assert merchant_scan_signals(identity, ledger) == []
        records = merchant_scan_signals(identity, ledger, include_customer_controlled=True)
        assert len(records) == 1 and records[0].value == value
        # ... but cannot spend it: the customer can
        merchant_guess = derive_private(merchant.private, value.to_bytes())
        with pytest.raises(ProtocolError, match="key does not match output"):
            build_transaction(ledger, [(tx.txid, 0, merchant_guess)],
                              [TxOutput(_addr(merchant), 1000)])
        customer_key = derive_private(signer.private, value.to_bytes())
        ledger.broadcast(build_transaction(ledger, [(tx.txid, 0, customer_key)],
                                           [TxOutput(_addr(signer), 1000)]))

    def test_scan_finds_planted_signal_among_decoys(self):
        rng = Random(104)
        merchant = KeyPair.generate(rng)
        identity = MerchantIdentity(merchant)
        ledger = Ledger()
        for _ in range(20):
            decoy = KeyPair.generate(rng)
            funding = ledger.faucet([TxOutput(_addr(decoy), 5000)])
            tx = build_transaction(ledger, [(funding.txid, 0, decoy.private)],
                                   [TxOutput(Address("p2pkh", rng.randbytes(20)), 5000)])
            ledger.broadcast(tx)
        signer = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(_addr(signer), 5000)])
        outputs, value = attach_signal([], signer, merchant.public, 5000)
        planted = build_transaction(ledger, [(funding.txid, 0, signer.private)], outputs)
        ledger.broadcast(planted)
        records = merchant_scan_signals(identity, ledger)
        assert [(r.signal_pubkey, r.value, r.txid) for r in records] == [
            (signer.public, value, planted.txid)
        ]

    def test_empty_ledger_no_signals(self):
        rng = Random(105)
        identity = MerchantIdentity(KeyPair.generate(rng))
        assert merchant_scan_signals(identity, Ledger()) == []

    def test_values_unique_per_signal_key(self):
        # deterministic in (signal key, merchant key); distinct keys separate
        rng = Random(126)
        merchant = KeyPair.generate(rng)
        values = set()
        for _ in range(1000):
            s = random_scalar(rng)
            assert signal_value(s, merchant.public) == signal_value(s, merchant.public)
            values.add(signal_value(s, merchant.public).value)
        assert len(values) == 1000

    def test_watermark_skips_old_transactions(self):
        rng = Random(106)
        merchant = KeyPair.generate(rng)
        identity = MerchantIdentity(merchant)
        ledger = Ledger()
        signer = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(_addr(signer), 100)])
        outputs, _ = attach_signal([], signer, merchant.public, 100)
        ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, signer.private)], outputs))
        assert len(merchant_scan_signals(identity, ledger)) == 1
        assert merchant_scan_signals(identity, ledger, watermark=len(ledger)) == []

    def test_negative_watermark_rejected(self):
        identity, ledger, _ = _scan_ledger(Random(131))
        assert merchant_scan_signals(identity, ledger)
        for watermark in (-1, -4):
            with pytest.raises(ValueError, match="negative watermark"):
                merchant_scan_signals(identity, ledger, watermark)

    def test_signal_output_spent_query(self):
        rng = Random(107)
        merchant = KeyPair.generate(rng)
        identity = MerchantIdentity(merchant)
        ledger = Ledger()
        signer = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(_addr(signer), 100)])
        outputs, value = attach_signal([], signer, merchant.public, 100)
        ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, signer.private)], outputs))
        record = merchant_scan_signals(identity, ledger)[0]
        assert not ledger.is_spent(record.txid, 0)
        # the merchant redeems the signal output with the key its value labels
        key = derive_private(merchant.private, value.to_bytes())
        ledger.broadcast(build_transaction(ledger, [(record.txid, 0, key)],
                                           [TxOutput(_addr(merchant), 100)]))
        assert ledger.is_spent(record.txid, 0)


def _per_transaction_scan(identity, ledger, watermark=0, include_customer_controlled=False):
    """The signal scan as one ``P ** k`` per pubkey per transaction: the
    reference the batched ``merchant_scan_signals`` must reproduce."""
    priv = identity.reputation.private
    pub = identity.reputation.public
    variants = list(SignalVariant) if include_customer_controlled else [SignalVariant.MERCHANT_CONTROLLED]
    records = []
    seen_values = set()
    for tx in ledger.transactions[watermark:]:
        out_addresses = {o.payto for o in tx.outputs if isinstance(o.payto, Address)}
        for point in dict.fromkeys(transaction_pubkeys(tx)):
            shared = point ** priv
            if shared.is_identity():
                continue
            value = Scalar.reduce(shared.x)
            candidates = [protocol._signal_address(v, pub, point, value) for v in variants]
            if any(c in out_addresses for c in candidates) and value.value not in seen_values:
                seen_values.add(value.value)
                records.append(SignalRecord(point, value, tx.txid))
    return records


def _scan_ledger(rng: Random):
    """A record with every way a pubkey reaches the scan, signals among them.

    Returns the merchant, the ledger and a watermark that falls between a
    key's first signal and its repeat.
    """
    merchant, other = KeyPair.generate(rng), KeyPair.generate(rng)
    ledger = Ledger()

    def fund(key, n=1):
        return ledger.faucet([TxOutput(_addr(key), 1000) for _ in range(n)])

    def spend(key, outpoints, outputs):
        ledger.broadcast(build_transaction(ledger, [(t, i, key.private) for t, i in outpoints], outputs))

    def sink(amount=1000):
        return TxOutput(Address("p2pkh", rng.randbytes(20)), amount)

    for _ in range(4):  # decoys
        key = KeyPair.generate(rng)
        spend(key, [(fund(key).txid, 0)], [sink()])
    twice = KeyPair.generate(rng)  # signals, then repeats the same value later
    twice_funds = fund(twice, 2).txid
    spend(twice, [(twice_funds, 0)], attach_signal([], twice, merchant.public, 1000)[0])
    reused = KeyPair.generate(rng)  # a plain spend now, a signal later
    reused_funds = fund(reused, 2).txid
    spend(reused, [(reused_funds, 0)], [sink()])
    multi = KeyPair.generate(rng)  # one pubkey on two inputs of one transaction
    multi_funds = fund(multi, 2).txid
    outputs, _ = attach_signal([sink()], multi, merchant.public, 1000, SignalVariant.CUSTOMER_CONTROLLED)
    spend(multi, [(multi_funds, 0), (multi_funds, 1)], outputs)
    p2pk = KeyPair.generate(rng)  # a pay-to-pubkey output beside its own signal
    p2pk_funds = ledger.faucet([TxOutput(p2pk.public, 1000)]).txid
    payer = KeyPair.generate(rng)
    outputs, _ = attach_signal([TxOutput(p2pk.public, 500)], p2pk, merchant.public, 500)
    spend(payer, [(fund(payer).txid, 0)], outputs)
    spend(p2pk, [(p2pk_funds, 0)], [sink()])
    mark = len(ledger)
    spend(twice, [(twice_funds, 1)], attach_signal([], twice, merchant.public, 1000)[0])
    spend(reused, [(reused_funds, 1)], attach_signal([], reused, merchant.public, 1000)[0])
    a, b = KeyPair.generate(rng), KeyPair.generate(rng)  # a redeem-script pubkey signals
    script = multisig_script(2, (a.public, b.public))
    script_funds = ledger.faucet([TxOutput(p2sh_address(script), 1000)]).txid
    outputs, _ = attach_signal([], a, merchant.public, 1000)
    ledger.broadcast(build_script_spend(ledger, [(script_funds, 0, [a.private, b.private], script)], outputs))
    foreign = KeyPair.generate(rng)  # a signal to another merchant
    spend(foreign, [(fund(foreign).txid, 0)], attach_signal([], foreign, other.public, 1000)[0])
    return MerchantIdentity(merchant), ledger, mark


class TestBatchedScan:
    def test_record_covers_every_pubkey_source(self):
        _, ledger, mark = _scan_ledger(Random(131))
        pubkeys = [transaction_pubkeys(tx) for tx in ledger.transactions]
        assert any(len(set(points)) < len(points) for points in pubkeys)  # repeat within a tx
        seen = [p for points in pubkeys for p in dict.fromkeys(points)]
        assert len(set(seen)) < len(seen)  # reuse across transactions
        assert any(isinstance(o.payto, Point) for tx in ledger.transactions for o in tx.outputs)
        assert any(i.redeem_script is not None for tx in ledger.transactions for i in tx.inputs)
        assert 0 < mark < len(ledger)

    @pytest.mark.parametrize("customer_controlled", [False, True])
    def test_matches_per_transaction_scan(self, customer_controlled):
        identity, ledger, mark = _scan_ledger(Random(131))
        found = []
        for watermark in (0, mark, len(ledger)):
            expected = _per_transaction_scan(identity, ledger, watermark, customer_controlled)
            assert merchant_scan_signals(identity, ledger, watermark, customer_controlled) == expected
            found.append(len(expected))
        # twice, reused, p2pk, script key (+ multi); from the mark: twice again, reused, script key
        assert found == ([5, 3, 0] if customer_controlled else [4, 3, 0])


class TestScanBatching:
    """The scan's candidate addresses come from one batch: the number of
    batched inversions does not grow with the number of pubkeys, and no
    point is normalised on its own."""

    @staticmethod
    def _ledger_with_decoys(seed, decoys):
        rng = Random(seed)
        identity, ledger, _ = _scan_ledger(rng)
        for _ in range(decoys):
            key = KeyPair.generate(rng)
            funding = ledger.faucet([TxOutput(_addr(key), 1000)])
            ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, key.private)],
                                               [TxOutput(Address("p2pkh", rng.randbytes(20)), 1000)]))
        return identity, ledger

    def test_inversions_independent_of_pubkey_count(self, monkeypatch):
        calls = {"_batch_inverse": 0, "_to_affine": 0}
        for name in calls:
            original = getattr(curve, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(curve, name, counted)
        counts = []
        for seed, decoys in ((133, 0), (134, 12)):
            identity, ledger = self._ledger_with_decoys(seed, decoys)
            distinct = {p for tx in ledger.transactions for p in transaction_pubkeys(tx)}
            for customer_controlled in (False, True):
                calls.update(dict.fromkeys(calls, 0))
                assert merchant_scan_signals(identity, ledger, 0, customer_controlled)
                counts.append((len(distinct), calls["_batch_inverse"], calls["_to_affine"]))
        assert counts[0][0] < counts[2][0]
        assert {c[1] for c in counts} == {counts[0][1]}
        assert 0 < counts[0][1] <= curve._TABLE_ROWS + 1
        assert all(c[2] == 0 for c in counts)


class TestDlegProof:
    def test_honest_proof_verifies(self):
        rng = Random(108)
        for _ in range(20):
            merchant = KeyPair.generate(rng)
            signer = KeyPair.generate(rng)
            proof = prove_dh(signer.private, merchant.public, rng)
            assert verify_dh(proof, signer.public, merchant.public)

    def test_fresh_randomness_every_proof(self):
        rng = Random(109)
        merchant = KeyPair.generate(rng)
        signer = KeyPair.generate(rng)
        a = prove_dh(signer.private, merchant.public, rng)
        b = prove_dh(signer.private, merchant.public, rng)
        assert a.shared == b.shared
        assert a.commit_g != b.commit_g
        assert a.commit_p != b.commit_p
        assert a.response != b.response

    def test_single_component_mutations_fail(self):
        rng = Random(110)
        merchant = KeyPair.generate(rng)
        signer = KeyPair.generate(rng)
        proof = prove_dh(signer.private, merchant.public, rng)
        bump = G ** Scalar(1)
        mutations = [
            DlegProof(proof.shared * bump, proof.commit_g, proof.commit_p, proof.response),
            DlegProof(proof.shared, proof.commit_g * bump, proof.commit_p, proof.response),
            DlegProof(proof.shared, proof.commit_g, proof.commit_p * bump, proof.response),
            DlegProof(proof.shared, proof.commit_g, proof.commit_p, proof.response + Scalar(1)),
        ]
        for mutated in mutations:
            assert not verify_dh(mutated, signer.public, merchant.public)

    def test_an_identity_merchant_key_reads_invalid(self):
        rng = Random(114)
        merchant, signer = KeyPair.generate(rng), KeyPair.generate(rng)
        proof = prove_dh(signer.private, merchant.public, rng)
        assert verify_dh(proof, signer.public, merchant.public)
        assert not verify_dh(proof, signer.public, Point.identity())

    def test_swapped_commitments_fail(self):
        rng = Random(111)
        merchant = KeyPair.generate(rng)
        signer = KeyPair.generate(rng)
        proof = prove_dh(signer.private, merchant.public, rng)
        swapped = DlegProof(proof.shared, proof.commit_p, proof.commit_g, proof.response)
        assert not verify_dh(swapped, signer.public, merchant.public)

    def test_wrong_signal_pubkey_fails(self):
        rng = Random(112)
        merchant = KeyPair.generate(rng)
        signer = KeyPair.generate(rng)
        proof = prove_dh(signer.private, merchant.public, rng)
        other = KeyPair.generate(rng)
        assert not verify_dh(proof, other.public, merchant.public)

    def test_proof_locates_signaling_transaction(self):
        # a verified shared point lets anyone find the tx by derived address
        rng = Random(113)
        merchant = KeyPair.generate(rng)
        ledger = Ledger()
        signer = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(_addr(signer), 100)])
        outputs, value = attach_signal([], signer, merchant.public, 100)
        tx = build_transaction(ledger, [(funding.txid, 0, signer.private)], outputs)
        ledger.broadcast(tx)
        proof = prove_dh(signer.private, merchant.public, rng)
        assert verify_dh(proof, signer.public, merchant.public)
        public_value = Scalar.reduce(proof.shared.x)
        hits = ledger.scan_address(derive_address(merchant.public, public_value.to_bytes()))
        assert [h[0] for h in hits] == [tx.txid]


@contextlib.contextmanager
def _fresh_fixed_bases():
    """The fixed-base registry of a new process, holding G alone (its table kept)."""
    saved = curve._fixed_bases
    curve._fixed_bases = {G: saved[G]}
    try:
        yield
    finally:
        curve._fixed_bases = saved


DLEQ = settings(derandomize=True, database=None, deadline=None, max_examples=20)


class TestDlegProperties:
    """A proof is the same whichever route raised the merchant key, it
    verifies, and it fails with any one field changed; plus the guards."""

    @DLEQ
    @given(st.integers(1, ORDER - 1), st.integers(2, ORDER - 1), st.integers(0, 2 ** 32))  # the merchant is not G
    def test_proof_is_the_same_with_and_without_the_merchants_table(self, signal, merchant, seed):
        signer, merchant_pub = KeyPair(Scalar(signal)), G ** Scalar(merchant)
        with _fresh_fixed_bases():
            before = prove_dh(signer.private, merchant_pub, Random(seed))
            entry = curve._fixed_bases[merchant_pub]
            assert entry.rows is None
            entry.table()
            after = prove_dh(signer.private, merchant_pub, Random(seed))
            assert after == before
            assert verify_dh(before, signer.public, merchant_pub)
        assert verify_dh(before, signer.public, merchant_pub)
        for name in ("shared", "commit_g", "commit_p"):
            mutated = dataclasses.replace(before, **{name: getattr(before, name) * G})
            assert not verify_dh(mutated, signer.public, merchant_pub), name
        assert not verify_dh(dataclasses.replace(before, response=before.response + Scalar(1)),
                             signer.public, merchant_pub)

    def test_zero_signal_key_rejected(self):
        with pytest.raises(ValueError, match="signal key must be nonzero"):
            prove_dh(Scalar(0), G ** Scalar(5), Random(1))

    def test_identity_field_rejected(self):
        rng = Random(115)
        merchant, signer = KeyPair.generate(rng), KeyPair.generate(rng)
        proof = prove_dh(signer.private, merchant.public, rng)
        for name in ("shared", "commit_g", "commit_p"):
            mutated = dataclasses.replace(proof, **{name: Point.identity()})
            assert not verify_dh(mutated, signer.public, merchant.public), name

    @pytest.mark.parametrize("state", [OrderState.PAID, OrderState.ACCEPTED])
    def test_paid_and_accepted_status_need_a_txid(self, state):
        with pytest.raises(ValueError, match="paid/accepted status needs a txid"):
            OrderStatus(b"\x00" * 32, state)
        assert OrderStatus(b"\x00" * 32, state, b"\x01" * 32).paying_txid == b"\x01" * 32


class TestFixedBaseTables:
    """Which keys get a fixed-base table: the merchant key of the signal and
    dispute flows once raised often enough, and no customer or signal key."""

    @pytest.fixture(autouse=True)
    def fresh(self):
        with _fresh_fixed_bases():
            yield

    def test_signals_and_disputes_table_the_merchant_key_on_its_twelfth_power(self):
        rng = Random(171)
        merchant = KeyPair.generate(rng)
        signers = [KeyPair.generate(rng) for _ in range(8)]
        for signer in signers:
            attach_signal([], signer, merchant.public, 100)
        entry = curve._fixed_bases[merchant.public]
        assert (entry.powers, entry.rows) == (8, None)
        proofs = [prove_dh(signer.private, merchant.public, rng) for signer in signers[:2]]
        assert entry.rows is not None  # prove_dh raises it twice: powers 9, 10, 11, 12
        for _ in range(2):
            for signer in signers:
                proof = prove_dh(signer.private, merchant.public, rng)
                assert verify_dh(proof, signer.public, merchant.public)
        assert all(verify_dh(proof, signer.public, merchant.public) for proof, signer in zip(proofs, signers))
        assert list(curve._fixed_bases) == [G, merchant.public]  # no signal key is marked

    def test_storefront_like_orders_table_nothing_but_g(self):
        rng = Random(172)
        identity = MerchantIdentity(KeyPair.generate(rng))
        merchant = identity.reputation
        template = sign_fields(build_template(merchant.public, {"terms": "t"}, rng), merchant.private,
                               ["merchant/pubkey", "merchant/terms"])
        trust = CustomerTrustStore()
        trust.add("acme", merchant.public)
        ledger = Ledger()
        customers = [KeyPair.generate(rng) for _ in range(2)]
        outpoints = [(ledger.faucet([TxOutput(_addr(c), 10 ** 9)]).txid, 0) for c in customers]
        treasury = derive_address(merchant.public, b"treasury")
        for i in range(2 * curve._TABLED_POWER + 2):
            customer = customers[i % 2]
            order = build_contract(template, {"item": "widget", "price": 1000 + i}, rng)
            txid = customer_approve_and_pay(order, trust, [(*outpoints[i % 2], customer.private)], ledger, YES,
                                            change_address=_addr(customer))
            assert merchant_detect_payment(identity, order, ledger).paying_txid == txid
            key = payment_private_key(order, merchant.private)
            ledger.broadcast(build_transaction(ledger, [(txid, 0, key)], [TxOutput(treasury, 1000 + i)]))
            assert verify_payment(redact(order, "order/item"), ledger) == (True, txid)
            outpoints[i % 2] = (txid, 1)
        assert list(curve._fixed_bases) == [G]


class TestRedemption:
    def _anon_setup(self, rng: Random):
        identity = MerchantIdentity(KeyPair.generate(rng))
        template = build_template(identity.reputation.public, {"terms": "t"}, rng)
        template = sign_fields(template, identity.reputation.private, ["merchant"])
        contract = build_contract(template, {"item": "w", "price": 90000}, rng)
        ledger = Ledger()
        fs = FileStore()
        customer = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(_addr(customer), 100000)])
        funds = [(funding.txid, 0, customer.private)]
        return identity, contract, ledger, fs, customer, funds

    def test_full_anonymous_flow(self):
        rng = Random(114)
        identity, contract, ledger, fs, customer, funds = self._anon_setup(rng)
        txid, value = combined_pay_and_signal(
            contract, customer, identity.reputation.public, funds, ledger,
            payment_amount=90000, signal_amount=10000)
        posted = encode_contract(contract)
        filename = redeem_post(contract, value, fs, rng)
        records = merchant_scan_signals(identity, ledger)
        assert len(records) == 1
        retrieved, status = merchant_retrieve(identity, records[0], fs, ledger)
        assert status.state is OrderState.ACCEPTED
        assert status.paying_txid == txid
        assert encode_contract(retrieved) == posted
        # the stored blob is ciphertext, not the contract bytes
        assert fs.get(filename) != posted
        assert open_sealed(sha256(value.to_bytes()), fs.get(filename)) == posted

    def test_a_redeem_raises_no_point_and_decodes_the_merchant_key_once(self, monkeypatch):
        rng = Random(120)
        identity, c, ledger, fs, customer, funds = self._anon_setup(rng)
        txid, value = combined_pay_and_signal(c, customer, identity.reputation.public, funds, ledger,
                                              payment_amount=90000, signal_amount=10000)
        redeem_post(c, value, fs, rng)
        record = merchant_scan_signals(identity, ledger)[0]
        contract._decode_key.cache_clear()
        decodes, decode = [], Point.decode
        monkeypatch.setattr(Point, "decode", lambda data: decodes.append(data) or decode(data))
        calls = _multiplies(monkeypatch)
        for _ in range(3):
            _, status = merchant_retrieve(identity, record, fs, ledger)
            assert status == OrderStatus(contract_hash(c), OrderState.ACCEPTED, txid)
        assert calls == []
        assert decodes == [identity.reputation.public.encode()]

    def test_split_is_arbitrary(self):
        rng = Random(115)
        identity, contract, ledger, fs, customer, funds = self._anon_setup(rng)
        txid, value = combined_pay_and_signal(
            contract, customer, identity.reputation.public, funds, ledger,
            payment_amount=90000, signal_amount=0)
        assert merchant_detect_payment(identity, contract, ledger).state is OrderState.PAID

    def test_signal_key_must_spend(self):
        rng = Random(116)
        identity, contract, ledger, fs, customer, funds = self._anon_setup(rng)
        stranger = KeyPair.generate(rng)
        with pytest.raises(ProtocolError, match="signal key not in transaction"):
            combined_pay_and_signal(contract, stranger, identity.reputation.public,
                                    funds, ledger)

    def test_wrong_value_finds_nothing(self):
        rng = Random(117)
        identity, contract, ledger, fs, customer, funds = self._anon_setup(rng)
        _, value = combined_pay_and_signal(contract, customer, identity.reputation.public,
                                           funds, ledger)
        redeem_post(contract, value, fs, rng)
        record = merchant_scan_signals(identity, ledger)[0]
        from paytocontract.protocol import SignalRecord
        bogus = SignalRecord(record.signal_pubkey, value + Scalar(1), record.txid)
        retrieved, status = merchant_retrieve(identity, bogus, fs, ledger)
        assert retrieved is None
        assert status.state is OrderState.UNMATCHED

    def test_signal_without_file_unmatched(self):
        rng = Random(118)
        identity, contract, ledger, fs, customer, funds = self._anon_setup(rng)
        combined_pay_and_signal(contract, customer, identity.reputation.public, funds, ledger)
        record = merchant_scan_signals(identity, ledger)[0]
        retrieved, status = merchant_retrieve(identity, record, fs, ledger)
        assert retrieved is None and status.state is OrderState.UNMATCHED

    def test_file_without_payment_awaits(self):
        rng = Random(119)
        identity, contract, ledger, fs, customer, funds = self._anon_setup(rng)
        # signal-only transaction: no payment output
        outputs, value = attach_signal([], customer, identity.reputation.public, 1000)
        tx = build_transaction(ledger, funds, outputs)
        ledger.broadcast(tx)
        redeem_post(contract, value, fs, rng)
        record = merchant_scan_signals(identity, ledger)[0]
        retrieved, status = merchant_retrieve(identity, record, fs, ledger)
        assert encode_contract(retrieved) == encode_contract(contract)
        assert status.state is OrderState.AWAITING_PAYMENT

    def test_corrupted_file_bad_ciphertext(self):
        rng = Random(120)
        identity, contract, ledger, fs, customer, funds = self._anon_setup(rng)
        _, value = combined_pay_and_signal(contract, customer, identity.reputation.public,
                                           funds, ledger)
        key = sha256(value.to_bytes())
        fs.put(sha256(key), b"\x00" * 64)
        record = merchant_scan_signals(identity, ledger)[0]
        with pytest.raises(ProtocolError, match="bad ciphertext"):
            merchant_retrieve(identity, record, fs, ledger)

    def test_sealed_non_contract_bad_ciphertext(self):
        rng = Random(122)
        identity, contract, ledger, fs, customer, funds = self._anon_setup(rng)
        _, value = combined_pay_and_signal(contract, customer, identity.reputation.public,
                                           funds, ledger)
        key = sha256(value.to_bytes())
        fs.put(sha256(key), seal(key, b"not a contract", rng))
        record = merchant_scan_signals(identity, ledger)[0]
        with pytest.raises(ProtocolError) as exc:
            merchant_retrieve(identity, record, fs, ledger)
        assert (exc.value.code, str(exc.value)) == ("bad-ciphertext", "bad ciphertext: not a contract")

    def test_blob_shorter_than_nonce_and_tag_rejected(self):
        key = sha256(b"key")
        sealed = seal(key, b"", Random(123))
        assert len(sealed) == NONCE_BYTES + 16
        assert open_sealed(key, sealed) == b""
        with pytest.raises(ProtocolError) as exc:
            open_sealed(key, sealed[:-1])
        assert (exc.value.code, str(exc.value)) == (
            "authentication-failure", "authentication failure: sealed blob too short")

    @pytest.mark.parametrize("size", [0, 31, 33])
    def test_a_sealing_key_is_32_bytes(self, size):
        sealed = seal(sha256(b"key"), b"x", Random(124))
        for call in (lambda key: seal(key, b"x", Random(124)), lambda key: open_sealed(key, sealed)):
            with pytest.raises(ValueError, match="sealing key must be 32 bytes"):
                call(bytes(size))

    def test_foreign_contract_behind_signal(self):
        rng = Random(121)
        identity, contract, ledger, fs, customer, funds = self._anon_setup(rng)
        other = MerchantIdentity(KeyPair.generate(rng))
        other_template = build_template(other.reputation.public, {}, rng)
        other_contract = build_contract(other_template, {"price": 1}, rng)
        outputs, value = attach_signal([], customer, identity.reputation.public, 1000)
        ledger.broadcast(build_transaction(ledger, funds, outputs))
        redeem_post(other_contract, value, fs, rng)
        record = merchant_scan_signals(identity, ledger)[0]
        with pytest.raises(ProtocolError, match="foreign contract"):
            merchant_retrieve(identity, record, fs, ledger)

    def test_value_reuse_collides_on_filename(self):
        rng = Random(122)
        identity, contract, ledger, fs, customer, funds = self._anon_setup(rng)
        _, value = combined_pay_and_signal(contract, customer, identity.reputation.public,
                                           funds, ledger)
        redeem_post(contract, value, fs, rng)
        with pytest.raises(ProtocolError, match="filename exists"):
            redeem_post(contract, value, fs, rng)

    def test_observer_sees_no_merchant_link(self):
        # neither output address matches anything derivable from P alone
        rng = Random(123)
        identity, contract, ledger, fs, customer, funds = self._anon_setup(rng)
        txid, value = combined_pay_and_signal(contract, customer, identity.reputation.public,
                                              funds, ledger)
        tx = ledger.get_transaction(txid)
        p = identity.reputation.public
        guesses = {
            Address("p2pkh", hash160(p.encode())),
            derive_address(p, p.encode()),
            derive_address(p, b""),
            derive_address(p, customer.public.encode()),
        }
        for out in tx.outputs:
            assert out.payto not in guesses


class TestTrustStore:
    def test_alias_lookup(self):
        rng = Random(124)
        merchant = KeyPair.generate(rng)
        trust = CustomerTrustStore()
        trust.add("acme", merchant.public)
        assert trust.alias_for(merchant.public) == "acme"
        assert trust.alias_for(KeyPair.generate(rng).public) is None

    def test_duplicate_alias_rejected(self):
        rng = Random(125)
        trust = CustomerTrustStore()
        trust.add("acme", KeyPair.generate(rng).public)
        with pytest.raises(ProtocolError, match="alias exists"):
            trust.add("acme", KeyPair.generate(rng).public)


class TestUntrustedMerchant:
    """"Secure even if the merchant's online infrastructure is compromised": a
    served template may name any key, the customer pays only a key it already
    trusts, and the address it pays is fixed by that key and the contract hash."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(st.integers(1, ORDER - 1), st.lists(st.integers(1, ORDER - 1), max_size=3), st.integers(0, 2 ** 32))
    def test_a_template_for_a_key_the_customer_does_not_trust_is_refused(self, merchant, trusted, seed):
        rng = Random(seed)
        pair = KeyPair(Scalar(merchant))
        template = sign_fields(build_template(pair.public, {"terms": "t"}, rng), pair.private, ["merchant"])
        c = build_contract(template, {"item": "widget", "price": rng.randrange(1, 10 ** 5)}, rng)
        trust = CustomerTrustStore()
        for i, k in enumerate(k for k in trusted if k != merchant):
            trust.add(f"merchant-{i}", G ** Scalar(k))
        ledger = Ledger()
        customer = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(_addr(customer), 10 ** 5)])
        before, asked = ledger.to_jsonl(), []
        with pytest.raises(ProtocolError) as exc:
            customer_approve_and_pay(c, trust, [(funding.txid, 0, customer.private)], ledger,
                                     lambda contract, alias: asked.append(alias) or True)
        assert exc.value.code == "untrusted-merchant"
        assert (len(ledger), ledger.to_jsonl(), asked) == (1, before, [])

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(st.integers(1, ORDER - 1), st.integers(0, 2 ** 32))
    def test_the_payment_address_depends_only_on_the_merchant_key_and_the_contract_hash(self, merchant, seed):
        rng = Random(seed)
        pair = KeyPair(Scalar(merchant))
        c = build_contract(build_template(pair.public, {"terms": "t"}, rng),
                           {"item": "widget", "price": 4200, "delivery_address": "1 Pier Rd"}, rng)
        tweak = int.from_bytes(sha256(contract_hash(c)), "big") % oracle.N
        x, y = oracle.point_add(oracle.as_tuple(pair.public), oracle.point_mul(tweak, oracle.G))
        expected = Address("p2pkh", hash160(bytes([2 + (y & 1)]) + x.to_bytes(32, "big")))
        assert payment_address(c) == expected
        # a receipt with its order details redacted keeps the hash, and so the address
        assert payment_address(redact(redact(c, "order/delivery_address"), "order/item")) == expected
