from random import Random

import pytest

import oracle
from paytocontract import protocol
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
    encode_contract,
    payment_address,
    payment_private_key,
    sign_fields,
    with_leaf_value,
)
from paytocontract.curve import G, KeyPair, Point, Scalar, hash160, random_scalar, sha256
from paytocontract.errors import ProtocolError
from paytocontract.protocol import (
    CustomerTrustStore,
    DlegProof,
    MerchantIdentity,
    OrderState,
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
    signal_output_spent,
    signal_value,
    verify_dh,
    verify_payment,
)
from paytocontract.sealing import open_sealed
from paytocontract.wallet import Address, derive_address, multisig_script, p2sh_address

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

    def test_derived_key_off_address_raises(self, monkeypatch):
        # an explicit check, so that python -O cannot strip it
        rng = Random(99)
        identity, contract, _, ledger, _, _ = _setup(rng)
        monkeypatch.setattr(protocol, "payment_private_key", lambda contract, private: Scalar(1))
        with pytest.raises(ProtocolError, match="key derivation mismatch"):
            merchant_detect_payment(identity, contract, ledger)

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
        from paytocontract.wallet import derive_private
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
        assert not signal_output_spent(ledger, record, merchant.public)
        from paytocontract.wallet import derive_private
        key = derive_private(merchant.private, value.to_bytes())
        ledger.broadcast(build_transaction(ledger, [(record.txid, 0, key)],
                                           [TxOutput(_addr(merchant), 100)]))
        assert signal_output_spent(ledger, record, merchant.public)


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
