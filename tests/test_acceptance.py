"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline).
All checks are exact unless a runtime bound is stated.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

import oracle
from paytocontract.chain import FileStore, Ledger, TxOutput, build_script_spend, build_transaction
from paytocontract.cli import cli
from paytocontract.contract import (
    build_contract,
    build_template,
    contract_hash,
    encode_contract,
    payment_address,
    payment_private_key,
    redact,
    resolve,
    sign_fields,
    with_leaf_value,
)
from paytocontract.curve import (
    G,
    KeyPair,
    Scalar,
    ecdsa_sign,
    ecdsa_verify,
    hash160,
    random_scalar,
    sha256,
)
from paytocontract.errors import ProtocolError
from paytocontract.protocol import (
    CustomerTrustStore,
    DlegProof,
    MerchantIdentity,
    OrderState,
    attach_signal,
    combined_pay_and_signal,
    customer_approve_and_pay,
    merchant_detect_payment,
    merchant_retrieve,
    merchant_scan_signals,
    prove_dh,
    redeem_post,
    verify_dh,
)
from paytocontract.wallet import (
    Address,
    DerivationScheme,
    Opcode,
    derive_address,
    derive_private,
    derive_public,
    derive_script,
    multisig_script,
    p2sh_address,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def _addr(pair: KeyPair) -> Address:
    return Address("p2pkh", hash160(pair.public.encode()))


def test_criterion_1_homomorphism_suite():
    with criterion(1, "homomorphism, 1000 pairs, both schemes, <5s"):
        rng = Random(1001)
        start = time.monotonic()
        failures = 0
        for _ in range(1000):
            base = random_scalar(rng)
            label = rng.randbytes(rng.randrange(1, 40))
            pub = G ** base
            for scheme in (DerivationScheme.ADDITIVE, DerivationScheme.MULTIPLICATIVE):
                if G ** derive_private(base, label, scheme) != derive_public(pub, label, scheme):
                    failures += 1
        elapsed = time.monotonic() - start
        assert failures == 0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_end_to_end_basic_protocol():
    with criterion(2, "basic protocol end to end, deterministic under seed"):
        def run_once():
            rng = Random(1002)
            identity = MerchantIdentity(KeyPair.generate(rng))
            template = build_template(identity.reputation.public,
                                      {"terms": "t", "pricelist": "widget=90000"}, rng)
            template = sign_fields(template, identity.reputation.private,
                                   ["merchant/pubkey", "merchant/terms", "merchant/pricelist"])
            contract = build_contract(template, {"item": "widget", "price": 90000}, rng)
            trust = CustomerTrustStore()
            trust.add("acme", identity.reputation.public)
            ledger = Ledger()
            customer = KeyPair.generate(rng)
            funding = ledger.faucet([TxOutput(_addr(customer), 90000)])
            txid = customer_approve_and_pay(
                contract, trust, [(funding.txid, 0, customer.private)], ledger,
                lambda c, a: True)
            status = merchant_detect_payment(identity, contract, ledger)
            assert status.state is OrderState.PAID and status.paying_txid == txid
            key = payment_private_key(contract, identity.reputation.private)
            sweep = build_transaction(
                ledger, [(txid, 0, key)],
                [TxOutput(derive_address(identity.reputation.public, b"payout"), 90000)])
            ledger.broadcast(sweep)  # the ledger accepts the derived-key spend
            return txid, sweep.txid

        assert run_once() == run_once()


def test_criterion_3_tamper_attack_100_trials():
    with criterion(3, "100 single-field tampers: never paid, 100% recovered"):
        rng = Random(1003)
        identity = MerchantIdentity(KeyPair.generate(rng))
        template = build_template(identity.reputation.public, {"terms": "t"}, rng)
        template = sign_fields(template, identity.reputation.private, ["merchant"])
        trust = CustomerTrustStore()
        trust.add("acme", identity.reputation.public)
        ledger = Ledger()
        tamperable = ["order/item", "order/quantity", "order/price", "order/delivery_address"]
        recovered_total = 0
        for i in range(100):
            contract = build_contract(
                template,
                {"item": f"widget-{i}", "quantity": "1", "price": 90000,
                 "delivery_address": "1 Pier Rd"},
                rng)
            # a realistic tamper keeps the field well-formed (a garbled
            # contract would be rejected outright, not silently watched)
            path = rng.choice(tamperable)
            if path == "order/price":
                new_value = str(90000 + rng.randrange(1, 10000)).encode()
            else:
                original = resolve(contract.root, path).value
                mutated = bytearray(original)
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(5)
                new_value = bytes(mutated)
            tampered = with_leaf_value(contract, path, new_value)
            assert payment_address(tampered) != payment_address(contract)

            customer = KeyPair.generate(rng)
            funding = ledger.faucet([TxOutput(_addr(customer), 90000)])
            txid = customer_approve_and_pay(
                contract, trust, [(funding.txid, 0, customer.private)], ledger,
                lambda c, a: True)

            # watching the tampered copy never shows the payment
            assert merchant_detect_payment(identity, tampered, ledger).state \
                is OrderState.AWAITING_PAYMENT

            # the true contract recovers the full amount
            status = merchant_detect_payment(identity, contract, ledger)
            assert status.state is OrderState.PAID
            key = payment_private_key(contract, identity.reputation.private)
            recovery = build_transaction(
                ledger, [(status.paying_txid, 0, key)],
                [TxOutput(derive_address(identity.reputation.public, f"recover-{i}"), 90000)])
            ledger.broadcast(recovery)
            recovered_total += 90000
        assert recovered_total == 100 * 90000


def test_criterion_4_merkle_redaction_invariance():
    with criterion(4, "200 contracts: redaction invariant, mutation binding"):
        rng = Random(1004)
        merchant = KeyPair.generate(rng)
        template = build_template(merchant.public, {"terms": "t", "pricelist": "p"}, rng)
        paths = ["order/item", "order/quantity", "order/price", "order/delivery_address",
                 "merchant/terms", "merchant/pricelist", "order", "merchant"]
        for i in range(200):
            contract = build_contract(
                template,
                {"item": f"it-{i}", "quantity": str(i % 7), "price": 1000 + i,
                 "delivery_address": f"addr {i}"},
                rng)
            ref_hash = contract_hash(contract)
            ref_addr = payment_address(contract)

            current = contract
            for path in rng.sample(paths, rng.randrange(1, len(paths) + 1)):
                try:
                    current = redact(current, path)
                except ProtocolError:
                    pass  # covered by an earlier redaction
            assert contract_hash(current) == ref_hash
            assert payment_address(current) == ref_addr

            leaf_path = rng.choice(paths[:6])
            value = bytearray(resolve(contract.root, leaf_path).value)
            value[rng.randrange(len(value))] ^= 1 << rng.randrange(8)
            assert contract_hash(with_leaf_value(contract, leaf_path, bytes(value))) != ref_hash


def test_criterion_5_signaling_detection_exact():
    with criterion(5, "10 planted signals among 100 decoys, exact set, <10s"):
        rng = Random(1005)
        start = time.monotonic()
        merchant = KeyPair.generate(rng)
        identity = MerchantIdentity(merchant)
        ledger = Ledger()

        def decoy():
            pair = KeyPair.generate(rng)
            funding = ledger.faucet([TxOutput(_addr(pair), 5000)])
            tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                   [TxOutput(Address("p2pkh", rng.randbytes(20)), 5000)])
            ledger.broadcast(tx)

        planted = set()
        slots = rng.sample(range(110), 10)
        for slot in range(110):
            if slot in slots:
                signer = KeyPair.generate(rng)
                funding = ledger.faucet([TxOutput(_addr(signer), 5000)])
                outputs, value = attach_signal([], signer, merchant.public, 5000)
                tx = build_transaction(ledger, [(funding.txid, 0, signer.private)], outputs)
                ledger.broadcast(tx)
                planted.add(value.value)
            else:
                decoy()

        found = {r.value.value for r in merchant_scan_signals(identity, ledger)}
        elapsed = time.monotonic() - start
        assert found == planted
        assert len(found) == 10
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_6_chaum_pedersen_completeness_and_soundness():
    with criterion(6, "100/100 honest proofs verify; 100/100 mutations fail"):
        rng = Random(1006)
        ok = 0
        for _ in range(100):
            merchant = KeyPair.generate(rng)
            signer = KeyPair.generate(rng)
            proof = prove_dh(signer.private, merchant.public, rng)
            # the verifier recomputes the challenge from the hash equation and
            # checks both exponent equations
            if verify_dh(proof, signer.public, merchant.public):
                ok += 1
        assert ok == 100

        bump = G ** Scalar(1)
        failures = 0
        for i in range(100):
            merchant = KeyPair.generate(rng)
            signer = KeyPair.generate(rng)
            p = prove_dh(signer.private, merchant.public, rng)
            component = i % 4
            if component == 0:
                mutated = DlegProof(p.shared * bump, p.commit_g, p.commit_p, p.response)
            elif component == 1:
                mutated = DlegProof(p.shared, p.commit_g * bump, p.commit_p, p.response)
            elif component == 2:
                mutated = DlegProof(p.shared, p.commit_g, p.commit_p * bump, p.response)
            else:
                mutated = DlegProof(p.shared, p.commit_g, p.commit_p, p.response + Scalar(1))
            if not verify_dh(mutated, signer.public, merchant.public):
                failures += 1
        assert failures == 100


def test_criterion_7_redemption_round_trip():
    with criterion(7, "combined pay+signal -> scan -> fetch -> decrypt -> accepted"):
        rng = Random(1007)
        identity = MerchantIdentity(KeyPair.generate(rng))
        template = build_template(identity.reputation.public, {"terms": "t"}, rng)
        template = sign_fields(template, identity.reputation.private, ["merchant"])
        contract = build_contract(template, {"item": "w", "price": 90000}, rng)
        ledger = Ledger()
        fs = FileStore()
        customer = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(_addr(customer), 100000)])

        txid, value = combined_pay_and_signal(
            contract, customer, identity.reputation.public,
            [(funding.txid, 0, customer.private)], ledger,
            payment_amount=90000, signal_amount=10000)
        tx = ledger.get_transaction(txid)
        assert len(tx.outputs) == 2

        posted_bytes = encode_contract(contract)
        redeem_post(contract, value, fs, rng)

        records = merchant_scan_signals(identity, ledger)
        assert len(records) == 1
        retrieved, status = merchant_retrieve(identity, records[0], fs, ledger)
        assert status.state is OrderState.ACCEPTED
        assert status.paying_txid == txid
        assert encode_contract(retrieved) == posted_bytes


def test_criterion_8_script_derivation_and_p2sh_spend():
    with criterion(8, "2-of-2 base derives structurally; both keys spend p2sh"):
        rng = Random(1008)
        k1, k2 = KeyPair.generate(rng), KeyPair.generate(rng)
        base = multisig_script(2, (k1.public, k2.public))
        label = b"order-4711"
        derived = derive_script(base, label)
        assert derived.ops == (
            2, derive_public(k1.public, label), derive_public(k2.public, label),
            2, Opcode.CHECKMULTISIG,
        )

        ledger = Ledger()
        payer = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(_addr(payer), 80000)])
        addr = p2sh_address(derived)
        pay = build_transaction(ledger, [(funding.txid, 0, payer.private)],
                                [TxOutput(addr, 80000)])
        ledger.broadcast(pay)

        d1 = derive_private(k1.private, label)
        d2 = derive_private(k2.private, label)
        sweep = build_script_spend(ledger, [(pay.txid, 0, [d1, d2], derived)],
                                   [TxOutput(_addr(k1), 80000)])
        ledger.broadcast(sweep)
        assert (sweep.txid, 0) in ledger.utxo


def test_criterion_9_ecdsa_cross_check():
    with criterion(9, "100 sign/verify round trips + independent oracle on 10"):
        rng = Random(1009)
        for _ in range(100):
            pair = KeyPair.generate(rng)
            message = rng.randbytes(rng.randrange(1, 80))
            digest = sha256(message)
            assert ecdsa_verify(pair.public, digest, ecdsa_sign(pair.private, digest))
        for _ in range(10):
            pair = KeyPair.generate(rng)
            message = rng.randbytes(48)
            sig = ecdsa_sign(pair.private, sha256(message))
            assert oracle.ecdsa_verify(oracle.as_tuple(pair.public), message,
                                       sig.r.value, sig.s.value)


def test_criterion_10_cli_golden_transcripts():
    with criterion(10, "scenario transcripts reproduce golden files byte-for-byte"):
        runner = CliRunner()
        for name in ("basic", "offline", "anonymous", "tamper"):
            result = runner.invoke(cli, ["--seed", "42", "scenario", name, "--yes"])
            assert result.exit_code == 0, result.output
            golden = (GOLDEN / f"scenario_{name}.jsonl").read_text()
            assert result.stdout == golden, f"{name} transcript drifted"
            for line in result.stdout.strip().splitlines():
                json.loads(line)
