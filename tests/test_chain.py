import copy
import dataclasses
import json
import os
from contextlib import suppress
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paytocontract.chain import (
    MAX_AMOUNT,
    FileStore,
    Ledger,
    Transaction,
    TxInput,
    TxOutput,
    build_script_spend,
    build_transaction,
    ledger_checkpoint,
    transaction_pubkeys,
    tx_from_json,
    tx_preimage,
    tx_to_json,
)
from paytocontract.contract import (
    build_contract, build_template, contract_hash, contract_to_json, decode_contract, encrypt_leaf,
    order_price, payment_address, redact, sign_fields, verify_contract)
from paytocontract.curve import KeyPair, Point, ecdsa_sign, hash160, sha256
from paytocontract.errors import ProtocolError, _dump_line, _int_from_hex, _scalar_from_hex
from paytocontract.wallet import Address, Opcode, Script, derive_script, multisig_script, p2sh_address


def _addr(pair: KeyPair) -> Address:
    return Address("p2pkh", hash160(pair.public.encode()))


def _record_pubkeys(ledger: Ledger):
    """Every explicit pubkey on the record, paired with its transaction's txid."""
    return [(point, tx.txid) for tx in ledger.transactions for point in transaction_pubkeys(tx)]


def _funded(ledger: Ledger, rng: Random, amount: int = 100000):
    pair = KeyPair.generate(rng)
    tx = ledger.faucet([TxOutput(_addr(pair), amount)])
    return pair, tx


class TestBroadcast:
    def test_faucet_then_spend_full_amount(self):
        rng = Random(61)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        dest = KeyPair.generate(rng)
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(dest), 100000)])
        ledger.broadcast(tx)
        assert (tx.txid, 0) in ledger.utxo
        assert (funding.txid, 0) not in ledger.utxo

    def test_insufficient_funds(self):
        rng = Random(62)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng, 50)
        with pytest.raises(ProtocolError, match="insufficient funds"):
            build_transaction(ledger, [(funding.txid, 0, pair.private)],
                              [TxOutput(_addr(pair), 51)])

    def test_two_output_split(self):
        rng = Random(63)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        a, b = KeyPair.generate(rng), KeyPair.generate(rng)
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(a), 90000), TxOutput(_addr(b), 10000)])
        ledger.broadcast(tx)
        assert ledger.utxo[(tx.txid, 0)].amount == 90000
        assert ledger.utxo[(tx.txid, 1)].amount == 10000

    def test_change_is_the_last_output(self):
        rng = Random(65)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        second = ledger.faucet([TxOutput(_addr(pair), 5000)])
        a, b = KeyPair.generate(rng), KeyPair.generate(rng)
        spends = [(funding.txid, 0, pair.private), (second.txid, 0, pair.private)]
        tx = build_transaction(ledger, spends, [TxOutput(_addr(a), 60000), TxOutput(_addr(b), 10000)],
                               change=_addr(pair))
        assert tx.outputs == (TxOutput(_addr(a), 60000), TxOutput(_addr(b), 10000),
                              TxOutput(_addr(pair), 35000))
        ledger.broadcast(tx)
        assert ledger.utxo[(tx.txid, 2)] == TxOutput(_addr(pair), 35000)

    def test_no_change_output_when_inputs_equal_outputs(self):
        rng = Random(66)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(KeyPair.generate(rng)), 100000)], change=_addr(pair))
        assert [o.amount for o in tx.outputs] == [100000]

    def test_insufficient_funds_with_change(self):
        rng = Random(67)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng, 50)
        with pytest.raises(ProtocolError) as exc:
            build_transaction(ledger, [(funding.txid, 0, pair.private)],
                              [TxOutput(_addr(pair), 51)], change=_addr(pair))
        assert (exc.value.code, str(exc.value)) == ("insufficient-funds", "insufficient funds")

    def test_zero_amount_output_allowed(self):
        rng = Random(64)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(pair), 0)])
        ledger.broadcast(tx)

    def test_unknown_outpoint(self):
        rng = Random(65)
        ledger = Ledger()
        pair, _ = _funded(ledger, rng)
        with pytest.raises(ProtocolError, match="missing utxo"):
            build_transaction(ledger, [(b"\x01" * 32, 0, pair.private)], [])

    def test_wrong_key(self):
        rng = Random(66)
        ledger = Ledger()
        _, funding = _funded(ledger, rng)
        stranger = KeyPair.generate(rng)
        with pytest.raises(ProtocolError, match="key does not match output"):
            build_transaction(ledger, [(funding.txid, 0, stranger.private)],
                              [TxOutput(_addr(stranger), 100000)])

    def test_double_spend_rejected(self):
        rng = Random(67)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(pair), 100000)])
        ledger.broadcast(tx)
        with pytest.raises(ProtocolError, match="spent outpoint"):
            ledger.broadcast(tx)

    def test_tampered_amount_rejected(self):
        rng = Random(68)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(pair), 100000)])
        # re-assemble with a different amount: txid matches the new preimage
        # but the signatures were made over the old one
        forged = Transaction(tx.inputs, (TxOutput(_addr(pair), 99999),))
        with pytest.raises(ProtocolError, match="invalid signature"):
            ledger.broadcast(forged)

    def test_coinbase_not_broadcastable(self):
        ledger = Ledger()
        tx = Transaction((), (TxOutput(Address("p2pkh", b"\x00" * 20), 5),), 0)
        with pytest.raises(ProtocolError, match="coinbase only via faucet"):
            ledger.broadcast(tx)

    def test_tagged_spend_not_broadcastable(self):
        # a spend with a coinbase tag would be saved as a record the replay rejects
        ledger = Ledger()
        pair, funding = _funded(ledger, Random(69))
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(pair), 100000)])
        tagged = Transaction(tx.inputs, tx.outputs, coinbase_tag=1)
        with pytest.raises(ProtocolError, match="coinbase only via faucet"):
            ledger.broadcast(tagged)
        assert len(ledger) == 1

    def test_pay_to_pubkey_output_spendable(self):
        rng = Random(70)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        recipient = KeyPair.generate(rng)
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(recipient.public, 100000)])
        ledger.broadcast(tx)
        spend = build_transaction(ledger, [(tx.txid, 0, recipient.private)],
                                  [TxOutput(_addr(recipient), 100000)])
        ledger.broadcast(spend)


class TestScriptSpends:
    def test_derived_two_of_two_p2sh_spend(self):
        rng = Random(71)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        k1, k2 = KeyPair.generate(rng), KeyPair.generate(rng)
        base = multisig_script(2, (k1.public, k2.public))
        derived = derive_script(base, b"order-77")
        addr = p2sh_address(derived)
        pay = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                [TxOutput(addr, 100000)])
        ledger.broadcast(pay)
        assert ledger.scan_address(addr) == [(pay.txid, 0, 100000)]

        from paytocontract.wallet import derive_private
        d1 = derive_private(k1.private, b"order-77")
        d2 = derive_private(k2.private, b"order-77")
        sweep = build_script_spend(ledger, [(pay.txid, 0, [d1, d2], derived)],
                                   [TxOutput(_addr(k1), 100000)])
        ledger.broadcast(sweep)
        assert (sweep.txid, 0) in ledger.utxo

    def test_threshold_enforced(self):
        rng = Random(72)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        k1, k2 = KeyPair.generate(rng), KeyPair.generate(rng)
        script = multisig_script(2, (k1.public, k2.public))
        addr = p2sh_address(script)
        pay = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                [TxOutput(addr, 100000)])
        ledger.broadcast(pay)
        # one signature where two are required
        under = build_script_spend(ledger, [(pay.txid, 0, [k1.private], script)],
                                   [TxOutput(_addr(k1), 100000)])
        with pytest.raises(ProtocolError, match="invalid signature"):
            ledger.broadcast(under)
        # two signatures by the same key are not two distinct signers
        inputs = (TxInput(pay.txid, 0, redeem_script=script),)
        outputs = (TxOutput(_addr(k1), 100000),)
        sig = ecdsa_sign(k1.private, sha256(tx_preimage(inputs, outputs)))
        dup = Transaction(
            (TxInput(pay.txid, 0, redeem_script=script, signatures=(sig, sig)),), outputs)
        with pytest.raises(ProtocolError, match="invalid signature"):
            ledger.broadcast(dup)

    def test_wrong_script_rejected(self):
        rng = Random(73)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        k1 = KeyPair.generate(rng)
        script = multisig_script(1, (k1.public,))
        pay = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                [TxOutput(p2sh_address(script), 100000)])
        ledger.broadcast(pay)
        other = multisig_script(1, (pair.public,))
        with pytest.raises(ProtocolError, match="script does not match output"):
            build_script_spend(ledger, [(pay.txid, 0, [pair.private], other)],
                               [TxOutput(_addr(k1), 100000)])

    def test_key_spend_of_p2sh_output_rejected(self):
        rng = Random(79)
        ledger = Ledger()
        owner = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(p2sh_address(multisig_script(1, (owner.public,))), 1000)])
        with pytest.raises(ProtocolError) as exc:
            build_transaction(ledger, [(funding.txid, 0, owner.private)], [TxOutput(_addr(owner), 1000)])
        assert (exc.value.code, str(exc.value)) == (
            "key-does-not-match-output", "key does not match output: p2sh outputs need a script spend")

    def test_script_spend_of_p2pkh_output_rejected(self):
        rng = Random(81)
        ledger = Ledger()
        owner, funding = _funded(ledger, rng, 1000)
        script = multisig_script(1, (owner.public,))
        with pytest.raises(ProtocolError) as exc:
            build_script_spend(ledger, [(funding.txid, 0, [owner.private], script)],
                               [TxOutput(_addr(owner), 1000)])
        assert (exc.value.code, str(exc.value)) == (
            "script-does-not-match-output", "script does not match output: not a p2sh output")


def _hand_signed(prev_txid: bytes, outputs, pub=None, key=None, script=None) -> Transaction:
    """One-input transaction assembled without the builders' checks."""
    unsigned = TxInput(prev_txid, 0, pubkey=pub, redeem_script=script)
    sig = ecdsa_sign(key, sha256(tx_preimage((unsigned,), outputs))) if key is not None else None
    return Transaction(
        (TxInput(prev_txid, 0, pubkey=pub, signature=sig, redeem_script=script),), outputs)


def _rejected(ledger: Ledger, tx: Transaction) -> ProtocolError:
    with pytest.raises(ProtocolError) as exc:
        ledger.broadcast(tx)
    return exc.value


class TestValidator:
    """Hand-assembled spends that only ``Ledger.broadcast`` stands between."""

    def test_p2pk_output_other_key_with_own_signature(self):
        rng = Random(91)
        ledger = Ledger()
        owner, stranger = KeyPair.generate(rng), KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(owner.public, 1000)])
        tx = _hand_signed(funding.txid, (TxOutput(_addr(stranger), 1000),),
                          pub=stranger.public, key=stranger.private)
        exc = _rejected(ledger, tx)
        assert (exc.code, str(exc)) == ("key-does-not-match-output", "key does not match output")

    def test_p2pk_output_right_key_without_signature(self):
        rng = Random(92)
        ledger = Ledger()
        owner = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(owner.public, 1000)])
        tx = _hand_signed(funding.txid, (TxOutput(_addr(owner), 1000),), pub=owner.public)
        exc = _rejected(ledger, tx)
        assert (exc.code, str(exc)) == ("invalid-signature", "invalid signature")

    def test_p2pkh_output_other_key(self):
        rng = Random(93)
        ledger = Ledger()
        owner, funding = _funded(ledger, rng, 1000)
        stranger = KeyPair.generate(rng)
        tx = _hand_signed(funding.txid, (TxOutput(_addr(stranger), 1000),),
                          pub=stranger.public, key=stranger.private)
        exc = _rejected(ledger, tx)
        assert (exc.code, str(exc)) == ("key-does-not-match-output", "key does not match output")

    def test_outputs_above_inputs(self):
        rng = Random(94)
        ledger = Ledger()
        owner, funding = _funded(ledger, rng, 1000)
        tx = _hand_signed(funding.txid, (TxOutput(_addr(owner), 1001),),
                          pub=owner.public, key=owner.private)
        exc = _rejected(ledger, tx)
        assert (exc.code, str(exc)) == ("insufficient-funds", "insufficient funds")

    def test_p2sh_output_spent_with_pubkey(self):
        rng = Random(95)
        ledger = Ledger()
        owner = KeyPair.generate(rng)
        script = multisig_script(1, (owner.public,))
        funding = ledger.faucet([TxOutput(p2sh_address(script), 1000)])
        tx = _hand_signed(funding.txid, (TxOutput(_addr(owner), 1000),),
                          pub=owner.public, key=owner.private)
        exc = _rejected(ledger, tx)
        assert (exc.code, str(exc)) == ("script-does-not-match-output", "script does not match output")

    def test_p2sh_output_spent_with_empty_script(self):
        rng = Random(96)
        ledger = Ledger()
        owner = KeyPair.generate(rng)
        funding = ledger.faucet([TxOutput(p2sh_address(multisig_script(1, (owner.public,))), 1000)])
        tx = _hand_signed(funding.txid, (TxOutput(_addr(owner), 1000),), script=Script(()))
        exc = _rejected(ledger, tx)
        assert (exc.code, str(exc)) == ("script-does-not-match-output", "script does not match output")
        # the same spend as a persisted ledger line carries "script": ""
        line = json.dumps(tx_to_json(tx))
        assert '"script": ""' in line
        with pytest.raises(ProtocolError, match="^script does not match output$"):
            Ledger.from_jsonl(ledger.to_jsonl() + line.encode() + b"\n")

    def test_p2sh_output_of_non_multisig_script(self):
        rng = Random(97)
        ledger = Ledger()
        owner = KeyPair.generate(rng)
        script = Script((Opcode.HASH160, b"\x07" * 20, Opcode.EQUAL))
        funding = ledger.faucet([TxOutput(p2sh_address(script), 1000)])
        tx = _hand_signed(funding.txid, (TxOutput(_addr(owner), 1000),), script=script)
        exc = _rejected(ledger, tx)
        assert (exc.code, str(exc)) == ("unsupported-script", "unsupported script")

    # one script per way ``Script.multisig_params`` can refuse a template
    @pytest.mark.parametrize("shape", ["too-short", "no-checkmultisig", "key-count-not-n",
                                       "threshold-above-n"])
    def test_p2sh_output_of_malformed_multisig(self, shape):
        rng = Random(98)
        ledger = Ledger()
        owner = KeyPair.generate(rng)
        ops = {
            "too-short": (1, owner.public, Opcode.CHECKMULTISIG),
            "no-checkmultisig": (1, owner.public, 1, Opcode.EQUAL),
            "key-count-not-n": (1, owner.public, 2, Opcode.CHECKMULTISIG),
            "threshold-above-n": (2, owner.public, 1, Opcode.CHECKMULTISIG),
        }[shape]
        script = Script(ops)
        assert script.multisig_params() is None
        funding = ledger.faucet([TxOutput(p2sh_address(script), 1000)])
        tx = _hand_signed(funding.txid, (TxOutput(_addr(owner), 1000),), script=script)
        exc = _rejected(ledger, tx)
        assert (exc.code, str(exc)) == ("unsupported-script", "unsupported script")


class TestQueries:
    def test_scan_unknown_address_empty(self):
        assert Ledger().scan_address(Address("p2pkh", b"\x01" * 20)) == []

    def test_scan_two_payments_in_order(self):
        rng = Random(74)
        ledger = Ledger()
        target = Address("p2pkh", b"\x02" * 20)
        a = ledger.faucet([TxOutput(target, 1)])
        b = ledger.faucet([TxOutput(target, 2)])
        assert ledger.scan_address(target) == [(a.txid, 0, 1), (b.txid, 0, 2)]

    def test_list_pubkeys_single_input(self):
        rng = Random(75)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(pair), 100000)])
        ledger.broadcast(tx)
        assert _record_pubkeys(ledger) == [(pair.public, tx.txid)]

    def test_list_pubkeys_counts_reappearance(self):
        rng = Random(76)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        t1 = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(pair), 100000)])
        ledger.broadcast(t1)
        t2 = build_transaction(ledger, [(t1.txid, 0, pair.private)],
                               [TxOutput(_addr(pair), 100000)])
        ledger.broadcast(t2)
        assert [txid for pt, txid in _record_pubkeys(ledger) if pt == pair.public] == [t1.txid, t2.txid]

    def test_p2pkh_outputs_are_not_pubkeys(self):
        rng = Random(77)
        ledger = Ledger()
        _, funding = _funded(ledger, rng)
        assert _record_pubkeys(ledger) == []  # coinbase has no inputs

    def test_index_complete_against_serialized_ledger(self):
        # brute-force walk of the persisted records must find nothing extra
        rng = Random(78)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        k1, k2 = KeyPair.generate(rng), KeyPair.generate(rng)
        script = multisig_script(2, (k1.public, k2.public))
        pay = build_transaction(
            ledger, [(funding.txid, 0, pair.private)],
            [TxOutput(p2sh_address(script), 60000), TxOutput(k2.public, 40000)])
        ledger.broadcast(pay)
        sweep = build_script_spend(ledger, [(pay.txid, 0, [k1.private, k2.private], script)],
                                   [TxOutput(_addr(k1), 60000)])
        ledger.broadcast(sweep)

        walked = set()
        for line in ledger.to_jsonl().splitlines():
            record = json.loads(line)
            for inp in record["inputs"]:
                if "pubkey" in inp:
                    walked.add(inp["pubkey"])
                if "script" in inp:
                    for op in Script.deserialize(bytes.fromhex(inp["script"])).pubkeys():
                        walked.add(op.encode().hex())
            for out in record["outputs"]:
                if out["payto"]["kind"] == "p2pk":
                    walked.add(out["payto"]["pubkey"])
        indexed = {pt.encode().hex() for pt, _ in _record_pubkeys(ledger)}
        assert walked == indexed


def _assert_queries_match_walk(ledger: Ledger, probes):
    """Every index-backed query agrees with a brute-force walk of the record,
    and every txid is the hash of its transaction's preimage."""
    spent = {(inp.prev_txid, inp.index) for tx in ledger.transactions for inp in tx.inputs}
    targets = {out.payto for tx in ledger.transactions for out in tx.outputs} | set(probes)
    for target in targets:
        assert ledger.scan_address(target) == [
            (tx.txid, i, out.amount)
            for tx in ledger.transactions
            for i, out in enumerate(tx.outputs)
            if out.payto == target
        ]
    for tx in ledger.transactions:
        assert tx.txid == sha256(tx_preimage(tx.inputs, tx.outputs, tx.coinbase_tag))
        assert ledger.get_transaction(tx.txid) is tx
        for i in range(len(tx.outputs) + 1):
            assert ledger.is_spent(tx.txid, i) == ((tx.txid, i) in spent)


class TestIndexes:
    def test_queries_match_walk_through_random_operations(self):
        rng = Random(81)
        ledger = Ledger()
        keys = [KeyPair.generate(rng) for _ in range(3)]
        script = multisig_script(2, (keys[0].public, keys[1].public))
        key_for = {_addr(k): k.private for k in keys}
        key_for.update({k.public: k.private for k in keys})
        # few targets, so that most are paid many times, some twice in one tx
        targets = [*key_for, p2sh_address(script)]
        probes = [Address("p2pkh", b"\x09" * 20), Address("p2sh", b"\x09" * 20)]
        kinds = set()
        for _ in range(30):
            spendable = [op for op, out in ledger.utxo.items() if out.amount >= 3]
            if not spendable or rng.random() < 0.2:
                outputs = [TxOutput(rng.choice(targets), rng.randint(3, 10 ** 6))
                           for _ in range(rng.randint(1, 3))]
                tx = ledger.faucet(outputs)
                kinds.add("faucet")
            else:
                txid, index = rng.choice(spendable)
                prev = ledger.utxo[(txid, index)]
                n = rng.randint(1, 3)
                outputs = [TxOutput(rng.choice(targets), prev.amount // n) for _ in range(n)]
                if prev.payto in key_for:
                    tx = build_transaction(ledger, [(txid, index, key_for[prev.payto])], outputs)
                    kinds.add("p2pk" if isinstance(prev.payto, Point) else "p2pkh")
                else:
                    tx = build_script_spend(
                        ledger, [(txid, index, [keys[0].private, keys[1].private], script)], outputs)
                    kinds.add("p2sh")
                ledger.broadcast(tx)
            _assert_queries_match_walk(ledger, probes)
        assert kinds == {"faucet", "p2pkh", "p2pk", "p2sh"}
        again = Ledger.from_jsonl(ledger.to_jsonl())
        _assert_queries_match_walk(again, probes)
        for target in targets + probes:
            assert again.scan_address(target) == ledger.scan_address(target)

    def test_scan_repeat_payments_in_output_order(self):
        ledger = Ledger()
        target, other = Address("p2pkh", b"\x04" * 20), Address("p2pkh", b"\x05" * 20)
        a = ledger.faucet([TxOutput(target, 1), TxOutput(other, 5), TxOutput(target, 2)])
        assert ledger.scan_address(target) == [(a.txid, 0, 1), (a.txid, 2, 2)]
        b = ledger.faucet([TxOutput(target, 3)])
        c = ledger.faucet([TxOutput(target, 4), TxOutput(target, 5)])
        assert ledger.scan_address(target) == [
            (a.txid, 0, 1), (a.txid, 2, 2), (b.txid, 0, 3), (c.txid, 0, 4), (c.txid, 1, 5)]
        assert ledger.scan_address(other) == [(a.txid, 1, 5)]

    def test_lookup_by_txid_and_spent_state(self):
        rng = Random(82)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        unknown = b"\x06" * 32
        assert ledger.get_transaction(funding.txid) is funding
        assert ledger.get_transaction(unknown) is None
        assert not ledger.is_spent(unknown, 0)
        assert not ledger.is_spent(funding.txid, 0)
        # an output index past the end was never created, so never spent
        assert not ledger.is_spent(funding.txid, 1)
        past_end = Transaction(
            (TxInput(funding.txid, 1, pubkey=pair.public),), (TxOutput(_addr(pair), 1),))
        with pytest.raises(ProtocolError, match="missing utxo"):
            ledger.broadcast(past_end)
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(pair), 100000)])
        ledger.broadcast(tx)
        assert ledger.is_spent(funding.txid, 0)
        assert not ledger.is_spent(funding.txid, 1)
        assert not ledger.is_spent(funding.txid, -1)
        assert not ledger.is_spent(tx.txid, 0)
        assert ledger.get_transaction(tx.txid) is tx

    def test_transactions_are_the_record_in_commit_order(self):
        ledger = _churned_ledger(Random(83), 30)
        txs = ledger.transactions
        assert type(txs) is tuple and len(txs) == len(ledger) == 30
        assert [json.loads(line) for line in ledger.to_jsonl().splitlines()] == [tx_to_json(tx) for tx in txs]
        assert [i for i, tx in enumerate(txs) if not tx.inputs] == [tx.coinbase_tag for tx in txs if not tx.inputs]
        # a read is a copy: it neither changes with the ledger nor changes it
        tx = ledger.faucet([TxOutput(Address("p2pkh", b"\x08" * 20), 1)])
        assert ledger.transactions == (*txs, tx) and len(txs) == 30
        with pytest.raises(AttributeError):
            ledger.transactions = ()



def _churned_ledger(rng: Random, steps: int) -> Ledger:
    """Faucets of one to four outputs and spends of one or two outputs at a time,
    so that transactions are left wholly, partly and not at all spent."""
    ledger = Ledger()
    keys = [KeyPair.generate(rng) for _ in range(3)]
    key_for = {_addr(k): k.private for k in keys}
    for _ in range(steps):
        spendable = list(ledger.utxo.items())
        if len(spendable) < 2 or rng.random() < 0.3:
            ledger.faucet([TxOutput(rng.choice(list(key_for)), rng.randint(10, 10 ** 6))
                           for _ in range(rng.randint(1, 4))])
            continue
        chosen = rng.sample(spendable, rng.randint(1, 2))
        total = sum(out.amount for _, out in chosen)
        spends = [(txid, index, key_for[out.payto]) for (txid, index), out in chosen]
        outputs = [TxOutput(rng.choice(list(key_for)), total // 3) for _ in range(rng.randint(1, 3))]
        ledger.broadcast(build_transaction(ledger, spends, outputs))
    return ledger


def _rebuilt_utxo(ledger: Ledger) -> dict:
    """The unspent set as a ``(txid, index)``-keyed dict built by replaying the record."""
    unspent = {}
    for tx in ledger.transactions:
        for inp in tx.inputs:
            del unspent[(inp.prev_txid, inp.index)]
        for i, out in enumerate(tx.outputs):
            unspent[(tx.txid, i)] = out
    return unspent


class TestUnspentView:
    """``Ledger.utxo`` is a read-only ``(txid, index) -> TxOutput`` view of
    per-transaction bit masks of unspent output indexes."""

    @pytest.fixture
    def ledger(self):
        return _churned_ledger(Random(160), 40)

    def test_items_match_a_dict_rebuilt_in_commit_order(self, ledger):
        data = ledger.to_jsonl()
        loaded = [Ledger.from_jsonl(data), Ledger.from_jsonl(data, ledger_checkpoint(_prefix(data, 17)))]
        for each in [ledger, _seeded_ledger(Random(161), 9), *loaded]:
            rebuilt = _rebuilt_utxo(each)
            assert list(each.utxo.items()) == list(rebuilt.items())
            assert len(each.utxo) == len(rebuilt) == sum(m.bit_count() for m in each._unspent.values())
            assert each.utxo == rebuilt
        # some transaction is partly spent
        assert any(mask != (1 << len(ledger.get_transaction(txid).outputs)) - 1
                   for txid, mask in ledger._unspent.items())

    def test_a_wholly_spent_transaction_leaves_the_set(self, ledger):
        spent = {(inp.prev_txid, inp.index) for tx in ledger.transactions for inp in tx.inputs}
        wholly = [tx.txid for tx in ledger.transactions
                  if all((tx.txid, i) in spent for i in range(len(tx.outputs)))]
        assert wholly and not set(wholly) & ledger._unspent.keys()
        assert all(ledger._unspent.values())

    def test_outpoints_outside_the_set_are_key_errors(self, ledger):
        rng = Random(162)
        pair, funding = _funded(ledger, rng)
        three = ledger.faucet([TxOutput(_addr(pair), amount) for amount in (10, 20, 30)])
        ledger.broadcast(build_transaction(ledger, [(three.txid, 1, pair.private)],
                                           [TxOutput(_addr(pair), 20)]))
        missing = [(three.txid, -1), (three.txid, -64), (three.txid, 1), (three.txid, 3), (three.txid, 64),
                   (three.txid, 2 ** 70), (b"\x07" * 32, 0), (b"\x07" * 32, -1), (funding.txid, 1)]
        for txid, index in missing:
            with pytest.raises(KeyError):
                ledger.utxo[(txid, index)]
            assert (txid, index) not in ledger.utxo and ledger.utxo.get((txid, index)) is None
            with pytest.raises(ProtocolError, match="missing utxo"):
                build_transaction(ledger, [(txid, index, pair.private)], [TxOutput(_addr(pair), 1)])
            assert ledger.is_spent(txid, index) == ((txid, index) == (three.txid, 1))
        assert [ledger.utxo[(three.txid, i)].amount for i in (0, 2)] == [10, 30]

    def test_read_only(self, ledger):
        outpoint, out = next(iter(ledger.utxo.items()))
        with pytest.raises(TypeError):
            ledger.utxo[outpoint] = out
        with pytest.raises(TypeError):
            del ledger.utxo[outpoint]
        with pytest.raises(AttributeError):
            ledger.utxo = {}
        assert ledger.utxo[outpoint] is out

class TestRecords:
    def test_ledger_records_have_no_instance_dict(self):
        # slotted records keep a ledger held in memory small
        rng = Random(83)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        script = multisig_script(1, (pair.public,))
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(p2sh_address(script), 100000)])
        records = [tx, tx.inputs[0], tx.outputs[0], tx.outputs[0].payto, tx.inputs[0].signature, script]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_a_transaction_derives_its_own_txid(self):
        outputs = (TxOutput(Address("p2pkh", b"\x01" * 20), 5),)
        tx = Transaction((), outputs, 0)
        assert tx.txid == sha256(tx_preimage((), outputs, 0))
        with pytest.raises(TypeError):
            Transaction((), outputs, 0, b"\x00" * 32)
        with pytest.raises(TypeError):
            Transaction((), outputs, txid=tx.txid)
        with pytest.raises(ValueError):
            dataclasses.replace(tx, txid=b"\x00" * 32)
        with pytest.raises(AttributeError):
            tx.txid = b"\x00" * 32

    def test_replace_recomputes_the_txid(self):
        ledger = Ledger()
        pair, funding = _funded(ledger, Random(86))
        spend = build_transaction(ledger, [(funding.txid, 0, pair.private)], [TxOutput(_addr(pair), 100000)])
        for changes in (dict(coinbase_tag=1), dict(outputs=(TxOutput(_addr(pair), 99999),)),
                        dict(inputs=(dataclasses.replace(spend.inputs[0], index=1),))):
            edited = dataclasses.replace(spend, **changes)
            assert edited.txid == sha256(tx_preimage(edited.inputs, edited.outputs, edited.coinbase_tag))
            assert edited.txid != spend.txid
        # signatures are not part of the preimage, so not of the txid
        unsigned = dataclasses.replace(spend, inputs=(dataclasses.replace(spend.inputs[0], signature=None),))
        assert unsigned.txid == spend.txid and unsigned != spend

    def test_no_output_pays_the_identity_point(self):
        with pytest.raises(ValueError, match="cannot pay to the identity point"):
            TxOutput(Point.identity(), 1)

    @pytest.mark.parametrize("form", [
        "pubkey-signature-and-script", "neither", "pubkey-with-signatures", "script-with-signature"])
    def test_an_input_carries_exactly_one_unlock_form(self, form):
        # broadcast reads the spent output's kind and the record reads the
        # input's form; an input with both could pass one and fail the other
        pair = KeyPair.generate(Random(84))
        script, sig = multisig_script(1, (pair.public,)), ecdsa_sign(pair.private, sha256(b"spend"))
        shape = {"pubkey-signature-and-script": dict(pubkey=pair.public, signature=sig, redeem_script=script),
                 "neither": {},
                 "pubkey-with-signatures": dict(pubkey=pair.public, signatures=(sig,)),
                 "script-with-signature": dict(redeem_script=script, signature=sig)}[form]
        with pytest.raises(ValueError):
            TxInput(b"\x11" * 32, 0, **shape)


class TestConservation:
    def test_randomized_broadcast_sequence(self):
        rng = Random(79)
        ledger = Ledger()
        wallets = [KeyPair.generate(rng) for _ in range(4)]
        owned = {}
        for pair in wallets:
            tx = ledger.faucet([TxOutput(_addr(pair), 50000)])
            owned[(tx.txid, 0)] = pair
        for _ in range(30):
            outpoint = rng.choice(list(owned))
            if outpoint not in ledger.utxo:
                # already spent: replaying it must fail
                pair = owned[outpoint]
                with pytest.raises(ProtocolError):
                    build_transaction(ledger, [(*outpoint, pair.private)], [])
                continue
            pair = owned[outpoint]
            dest = rng.choice(wallets)
            amount = ledger.utxo[outpoint].amount
            fee = rng.randrange(0, 100)
            tx = build_transaction(ledger, [(*outpoint, pair.private)],
                                   [TxOutput(_addr(dest), amount - fee)])
            ledger.broadcast(tx)
            owned[(tx.txid, 0)] = dest
        total_unspent = sum(out.amount for out in ledger.utxo.values())
        assert total_unspent <= ledger.total_issued


class TestPersistence:
    def test_round_trip_replays_identically(self):
        rng = Random(80)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        recipient = KeyPair.generate(rng)
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(recipient), 60000), TxOutput(recipient.public, 40000)])
        ledger.broadcast(tx)
        text = ledger.to_jsonl()
        again = Ledger.from_jsonl(text)
        assert again.to_jsonl() == text
        assert [t.txid for t in again.transactions] == [t.txid for t in ledger.transactions]
        assert again.utxo.keys() == ledger.utxo.keys()
        assert again.total_issued == ledger.total_issued

    def test_corrupt_lines_are_protocol_errors(self):
        rng = Random(83)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                           [TxOutput(pair.public, 100000)]))
        good, spend = ledger.to_jsonl().decode().splitlines()
        record = json.loads(spend)
        no_inputs = {k: v for k, v in record.items() if k != "inputs"}
        bad_hex = dict(record, inputs=[dict(record["inputs"][0], prev_txid="zz")])
        bad_type = dict(record, outputs="zz")
        for line in ['{"bad json', "[]", "7", json.dumps(no_inputs), json.dumps(bad_hex),
                     json.dumps(bad_type)]:
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl((good + "\n\n" + line + "\n").encode())
            assert exc.value.code == "corrupt-record", line
            assert "line 3" in str(exc.value)
        # a well-formed record keeps the code of the check it fails
        off_curve = dict(record, outputs=[
            {"amount": "1", "payto": {"kind": "p2pk", "pubkey": "02" + "ff" * 32}}])
        with pytest.raises(ProtocolError) as exc:
            Ledger.from_jsonl((good + "\n" + json.dumps(off_curve) + "\n").encode())
        assert exc.value.code == "invalid-point"

    def test_out_of_range_values_are_corrupt_records(self):
        rng = Random(84)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        signer = KeyPair.generate(rng)
        script = multisig_script(1, (signer.public,))
        pay = ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                                 [TxOutput(p2sh_address(script), 100000)]))
        ledger.broadcast(build_script_spend(ledger, [(pay.txid, 0, [signer.private], script)],
                                            [TxOutput(_addr(signer), 100000)]))
        lines = ledger.to_jsonl().decode().splitlines()
        key_spend, script_spend = json.loads(lines[1]), json.loads(lines[2])
        key_input, script_input = key_spend["inputs"][0], script_spend["inputs"][0]
        # (line the record replaces, record, what its check says)
        cases = [
            (2, dict(key_spend, outputs=[dict(key_spend["outputs"][0], amount=format(MAX_AMOUNT + 1, "x"))]),
             "amount out of range"),
            (2, dict(key_spend, inputs=[dict(key_input, prev_txid="00" * 31)]), "bad outpoint"),
            (2, dict(key_spend, inputs=[dict(key_input, signature="00" * 63)]), "need 64 bytes, got 63"),
            # a 33-byte pubkey literal with one byte missing
            (3, dict(script_spend, inputs=[dict(script_input, script="21" + "02" * 32)]),
             "truncated script literal"),
            (3, dict(script_spend, inputs=[dict(script_input, script="01")]), "unsupported script byte 0x01"),
        ]
        for number, record, message in cases:
            text = "".join(line + "\n" for line in lines[:number - 1]) + json.dumps(record) + "\n"
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl(text.encode())
            assert exc.value.code == "corrupt-record", record
            assert f"line {number}: " in str(exc.value) and message in str(exc.value)

    def test_bad_signature_before_a_corrupt_line_is_invalid_signature(self):
        # records are checked in order, so the first failing record names the error
        rng = Random(85)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        other = KeyPair.generate(rng)
        first = ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                                   [TxOutput(_addr(other), 100000)]))
        ledger.broadcast(build_transaction(ledger, [(first.txid, 0, other.private)],
                                           [TxOutput(_addr(pair), 100000)]))
        lines = ledger.to_jsonl().decode().splitlines()
        record = json.loads(lines[1])
        forged = ecdsa_sign(other.private, sha256(b"another message")).to_bytes().hex()
        lines[1] = json.dumps(dict(record, inputs=[dict(record["inputs"][0], signature=forged)]))
        for tail in ([], lines[2:], lines[2:] + ['{"bad json'], ['{"bad json']):
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl(("\n".join(lines[:2] + tail) + "\n").encode())
            assert (exc.value.code, str(exc.value)) == ("invalid-signature", "invalid signature"), tail

    def test_two_of_three_spend_signed_out_of_key_order_replays(self):
        rng = Random(86)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        keys = [KeyPair.generate(rng) for _ in range(3)]
        script = multisig_script(2, tuple(k.public for k in keys))
        pay = ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                                 [TxOutput(p2sh_address(script), 100000)]))
        sweep = ledger.broadcast(build_script_spend(
            ledger, [(pay.txid, 0, [keys[2].private, keys[0].private], script)],
            [TxOutput(_addr(pair), 100000)]))
        again = Ledger.from_jsonl(ledger.to_jsonl())
        assert again.to_jsonl() == ledger.to_jsonl()
        assert (sweep.txid, 0) in again.utxo and not again.utxo.keys() & {(pay.txid, 0)}

    def test_distinct_coinbases_have_distinct_txids(self):
        ledger = Ledger()
        target = Address("p2pkh", b"\x03" * 20)
        a = ledger.faucet([TxOutput(target, 7)])
        b = ledger.faucet([TxOutput(target, 7)])
        assert a.txid != b.txid


def _seeded_ledger(rng: Random, spends: int) -> Ledger:
    """A chain of p2pkh, p2pk and 2-of-3 p2sh spends with a coinbase after each,
    every multisig signed in key order so that each signature needs one verify."""
    ledger = Ledger()
    owner, funding = _funded(ledger, rng)
    keys = [KeyPair.generate(rng) for _ in range(3)]
    script = multisig_script(2, tuple(k.public for k in keys))
    targets = (owner.public, p2sh_address(script), _addr(owner))
    prev = funding
    for i in range(spends):
        outputs = [TxOutput(targets[i % 3], 100000)]
        if prev.outputs[0].payto == targets[1]:
            tx = build_script_spend(ledger, [(prev.txid, 0, [keys[0].private, keys[1].private], script)],
                                    outputs)
        else:
            tx = build_transaction(ledger, [(prev.txid, 0, owner.private)], outputs)
        prev = ledger.broadcast(tx)
        ledger.faucet([TxOutput(_addr(KeyPair.generate(rng)), i + 1)])
    return ledger


def _signature_count(ledger: Ledger, start: int = 0) -> int:
    """Signatures on the record from transaction ``start`` on."""
    return sum(len(inp.signatures) or 1 for tx in ledger.transactions[start:] for inp in tx.inputs)


def _prefix(data: bytes, lines: int) -> bytes:
    """The first ``lines`` lines of ``data``."""
    return b"".join(data.splitlines(keepends=True)[:lines])


class TestVerifyCounts:
    """A replay verifies through OpenSSL, a broadcast through the pure engine,
    each once per signature."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import paytocontract.chain as chain

        counted = {"pure": 0, "openssl": 0}
        for name, attr in (("pure", "ecdsa_verify"), ("openssl", "ecdsa_verify_openssl")):
            def counting(*args, _name=name, _verify=getattr(chain, attr)):
                counted[_name] += 1
                return _verify(*args)
            monkeypatch.setattr(chain, attr, counting)
        return counted

    def test_broadcast_verifies_each_signature_once_in_pure_python(self, counts):
        ledger = _seeded_ledger(Random(87), 9)
        assert counts == {"pure": _signature_count(ledger), "openssl": 0}

    def test_replay_verifies_each_signature_once_through_openssl(self, counts):
        ledger = _seeded_ledger(Random(87), 9)
        text = ledger.to_jsonl()
        signatures = _signature_count(ledger)
        counts.update(pure=0, openssl=0)
        again = Ledger.from_jsonl(text)
        assert counts == {"pure": 0, "openssl": signatures}
        assert again.to_jsonl() == text and len(again) == 19 and signatures == 12

    def test_chain_show_replays_through_openssl(self, counts, tmp_path):
        from click.testing import CliRunner

        from paytocontract.cli import cli

        ledger = _seeded_ledger(Random(88), 6)
        (tmp_path / "ledger.jsonl").write_bytes(ledger.to_jsonl())
        counts.update(pure=0, openssl=0)
        result = CliRunner().invoke(cli, ["--state-dir", str(tmp_path), "--format", "json", "chain", "show"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["transactions"] == 13
        assert counts == {"pure": 0, "openssl": _signature_count(ledger)}

    def test_checkpointed_chain_show_verifies_nothing(self, counts, tmp_path):
        from click.testing import CliRunner

        from paytocontract.cli import CliConfig, cli

        ledger = _seeded_ledger(Random(88), 6)
        CliConfig(tmp_path, "json", None).save_ledger(ledger)
        counts.update(pure=0, openssl=0)
        result = CliRunner().invoke(cli, ["--state-dir", str(tmp_path), "--format", "json", "chain", "show"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["transactions"] == 13
        assert counts == {"pure": 0, "openssl": 0}

    @pytest.mark.parametrize("checkpointed", [0, 1, 7, 12, 19])
    def test_records_past_the_checkpoint_verify_once_each_through_openssl(self, counts, checkpointed):
        ledger = _seeded_ledger(Random(87), 9)
        data = ledger.to_jsonl()
        counts.update(pure=0, openssl=0)
        again = Ledger.from_jsonl(data, ledger_checkpoint(_prefix(data, checkpointed)))
        assert counts == {"pure": 0, "openssl": _signature_count(ledger, checkpointed)}
        assert again.to_jsonl() == data

    def test_failed_checkpoint_write_leaves_a_checkpoint_of_the_old_prefix(self, counts, tmp_path, monkeypatch):
        from paytocontract.cli import CliConfig

        rng = Random(89)
        cfg = CliConfig(tmp_path, "json", None)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        cfg.save_ledger(ledger)
        sidecar = (tmp_path / "ledger.ckpt").read_bytes()
        ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                           [TxOutput(pair.public, 100000)]))
        replace = os.replace

        def checkpoint_write_fails(src, dst):
            if str(dst).endswith("ledger.ckpt"):
                raise OSError("interrupted")
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", checkpoint_write_fails)
        with pytest.raises(ProtocolError) as exc:
            cfg.save_ledger(ledger)
        assert exc.value.code == "io-error"
        monkeypatch.setattr(os, "replace", replace)
        assert (tmp_path / "ledger.jsonl").read_bytes() == ledger.to_jsonl()
        assert (tmp_path / "ledger.ckpt").read_bytes() == sidecar
        counts.update(pure=0, openssl=0)
        again = cfg.load_ledger()  # the new spend is past the old checkpoint: verified in full
        assert counts == {"pure": 0, "openssl": 1}
        assert again.to_jsonl() == ledger.to_jsonl()
        cfg.save_ledger(again)
        counts.update(pure=0, openssl=0)
        assert cfg.load_ledger().to_jsonl() == ledger.to_jsonl()
        assert counts == {"pure": 0, "openssl": 0}



class TestPreimageCounts:
    """A spend signs its own txid, so a transaction's preimage is serialized
    once per ``Transaction`` made: twice for a built and broadcast spend (the
    unsigned draft, whose txid the inputs sign, then the signed transaction),
    and once for each record a load reads, checkpointed or replayed."""

    @pytest.fixture
    def preimages(self, monkeypatch):
        import paytocontract.chain as chain

        calls, preimage = [], chain.tx_preimage
        monkeypatch.setattr(chain, "tx_preimage", lambda *args: calls.append(args) or preimage(*args))
        return calls

    def test_a_built_and_broadcast_spend_serializes_twice_and_verifies_its_txid(self, preimages, monkeypatch):
        import paytocontract.chain as chain

        digests, verify = [], chain.ecdsa_verify
        monkeypatch.setattr(chain, "ecdsa_verify", lambda pub, digest, sig: digests.append(digest)
                            or verify(pub, digest, sig))
        ledger = _seeded_ledger(Random(90), 9)  # 10 faucets, 9 spends, 3 of them 2-of-3 scripts
        assert len(preimages) == 10 + 2 * 9
        spends = [tx for tx in ledger.transactions if tx.inputs]
        assert digests == [tx.txid for tx in spends for inp in tx.inputs for _ in inp.signatures or (1,)]
        # two inputs and a change output are still one draft and one transaction
        owner, first = _funded(ledger, Random(91))
        second = ledger.faucet([TxOutput(_addr(owner), 5000)])
        del preimages[:]
        spend = build_transaction(ledger, [(first.txid, 0, owner.private), (second.txid, 0, owner.private)],
                                  [TxOutput(_addr(owner), 1000)], change=owner.public)
        ledger.broadcast(spend)
        assert len(preimages) == 2 and len(spend.outputs) == 2
        assert digests[-2:] == [spend.txid] * 2

    @pytest.mark.parametrize("checkpointed", [None, 7, 19])
    def test_a_load_serializes_each_record_once(self, preimages, checkpointed):
        ledger = _seeded_ledger(Random(87), 9)
        data = ledger.to_jsonl()
        del preimages[:]
        checkpoint = None if checkpointed is None else ledger_checkpoint(_prefix(data, checkpointed))
        again = Ledger.from_jsonl(data, checkpoint)
        assert len(preimages) == len(ledger) == 19 and again.to_jsonl() == data

class TestCheckpoint:
    """A checkpoint binds a validated prefix of the ledger's bytes; a reload
    commits that prefix unverified and must rebuild the same ledger."""

    @pytest.mark.parametrize("checkpointed", [0, 1, 10, 19])
    def test_checkpointed_load_equals_full_replay(self, checkpointed):
        ledger = _seeded_ledger(Random(90), 9)
        data = ledger.to_jsonl()
        full = Ledger.from_jsonl(data)
        fast = Ledger.from_jsonl(data, ledger_checkpoint(_prefix(data, checkpointed)))
        assert fast.to_jsonl() == full.to_jsonl() == data
        assert fast.utxo == full.utxo
        assert fast.total_issued == full.total_issued == ledger.total_issued
        targets = {out.payto for tx in ledger.transactions for out in tx.outputs}
        for target in targets:
            assert fast.scan_address(target) == full.scan_address(target)
        for tx in ledger.transactions:
            assert fast.get_transaction(tx.txid) == full.get_transaction(tx.txid) == tx
        assert fast.get_transaction(b"\x00" * 32) is None

    def test_text_is_a_type_error(self):
        data = _seeded_ledger(Random(90), 3).to_jsonl()
        for checkpoint in (None, ledger_checkpoint(data), ledger_checkpoint(b"")):
            with pytest.raises(TypeError):
                Ledger.from_jsonl(data.decode(), checkpoint)

    def test_checkpoint_is_one_canonical_line(self):
        data = _seeded_ledger(Random(90), 3).to_jsonl()
        assert ledger_checkpoint(data) == (
            '{"length":%d,"sha256":"%s"}\n' % (len(data), sha256(data).hex())).encode()

    @staticmethod
    def _two_records():
        ledger = Ledger()
        pair, funding = _funded(ledger, Random(91))
        ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                           [TxOutput(pair.public, 100000)]))
        data = ledger.to_jsonl()
        return data, ledger_checkpoint(data)

    def test_every_byte_edit_of_the_prefix_is_a_corrupt_record(self):
        data, checkpoint = self._two_records()
        for i in range(len(data)):
            edited = data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl(edited, checkpoint)
            assert exc.value.code == "corrupt-record", i

    def test_every_byte_edit_of_the_checkpoint_is_a_corrupt_record(self):
        data, checkpoint = self._two_records()
        for i in range(len(checkpoint)):
            edited = checkpoint[:i] + bytes([checkpoint[i] ^ 1]) + checkpoint[i + 1:]
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl(data, edited)
            assert exc.value.code == "corrupt-record", i

    def test_malformed_or_mismatched_checkpoints_are_corrupt_records(self):
        data, checkpoint = self._two_records()
        digest = sha256(data).hex()
        first_line = len(data.splitlines(keepends=True)[0])
        bad = [b"", b"\xff\xfe", b"not json", b"[]", b"7", b"{}", b"[" * 100000,
               *(json.dumps({"length": length, "sha256": digest}).encode()
                 for length in ("12", True, 1.0, None, -1, len(data) + 1, first_line - 1, first_line)),
               b'{"length":%d}\n' % len(data),
               b'{"length":%d,"sha256":7}\n' % len(data),
               checkpoint.replace(digest.encode(), digest.upper().encode()),
               checkpoint.rstrip(b"\n"),
               json.dumps({"length": len(data), "sha256": digest}).encode() + b"\n"]  # not canonical
        for sidecar in bad:
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl(data, sidecar)
            assert exc.value.code == "corrupt-record", sidecar[:80]
            assert "checkpoint" in str(exc.value)
        # the checkpoint of a prefix that stops inside a line, even one byte short of its end
        for length in (first_line - 1, first_line + 5):
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl(data, ledger_checkpoint(data[:length]))
            assert exc.value.code == "corrupt-record"
            assert "does not end a ledger line" in str(exc.value)

    def test_edited_unspent_coinbase_amount_replays_but_fails_its_checkpoint(self):
        ledger = _seeded_ledger(Random(92), 3)
        data = ledger.to_jsonl()
        last = json.loads(data.splitlines()[-1])
        assert last["coinbase"] and not ledger.is_spent(ledger.transactions[-1].txid, 0)
        edited = data.replace(b'"amount":"3"', b'"amount":"4"')
        assert edited.count(b'"amount":"4"') == 1
        # without a checkpoint, the edit mints one more unit and reloads silently
        assert Ledger.from_jsonl(edited).total_issued == ledger.total_issued + 1
        with pytest.raises(ProtocolError) as exc:
            Ledger.from_jsonl(edited, ledger_checkpoint(data))
        assert exc.value.code == "corrupt-record"

    @pytest.mark.parametrize("outpoint", ["spent", "past-end", "unknown"])
    def test_checkpointed_spend_of_an_outpoint_outside_the_set_is_corrupt(self, outpoint):
        # a checkpoint binds bytes, not their validity: a prefix rewritten
        # together with its checkpoint must still not spend an output twice
        ledger = Ledger()
        pair = KeyPair.generate(Random(95))
        funding = ledger.faucet([TxOutput(_addr(pair), 10), TxOutput(_addr(pair), 20)])
        # output 1 stays unspent, so the funding transaction keeps its entry
        ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                           [TxOutput(_addr(pair), 1)]))
        prev_txid, index = {"spent": (funding.txid, 0), "past-end": (funding.txid, 2),
                            "unknown": (b"\x07" * 32, 0)}[outpoint]
        again = Transaction((TxInput(prev_txid, index, pubkey=pair.public),), (TxOutput(_addr(pair), 2),))
        data = ledger.to_jsonl() + json.dumps(tx_to_json(again)).encode() + b"\n"
        with pytest.raises(ProtocolError) as exc:
            Ledger.from_jsonl(data, ledger_checkpoint(data))
        assert exc.value.code == "corrupt-record" and "line 3: KeyError" in str(exc.value)
        with pytest.raises(ProtocolError) as exc:
            Ledger.from_jsonl(data)
        assert exc.value.code == ("spent-outpoint" if outpoint == "spent" else "missing-utxo")

    def test_records_past_the_checkpoint_are_validated_with_file_line_numbers(self):
        ledger = Ledger()
        pair, funding = _funded(ledger, Random(93))
        other = KeyPair.generate(Random(94))
        ledger.broadcast(build_transaction(ledger, [(funding.txid, 0, pair.private)],
                                           [TxOutput(_addr(other), 100000)]))
        good, spend = ledger.to_jsonl().splitlines(keepends=True)
        checkpoint = ledger_checkpoint(good)
        for tail, line in ((b'{"bad json\n', 2), (b"\n" + b'{"bad json\n', 3), (spend + b"[]\n", 3)):
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl(good + tail, checkpoint)
            assert exc.value.code == "corrupt-record"
            assert f"line {line}: " in str(exc.value)
        record = json.loads(spend)
        forged = ecdsa_sign(other.private, sha256(b"another message")).to_bytes().hex()
        forged_spend = json.dumps(dict(record, inputs=[dict(record["inputs"][0], signature=forged)]))
        with pytest.raises(ProtocolError) as exc:
            Ledger.from_jsonl(good + forged_spend.encode() + b"\n", checkpoint)
        assert exc.value.code == "invalid-signature"


class TestFileStore:
    @pytest.mark.parametrize("length", [0, 31, 33])
    def test_filename_is_a_32_byte_digest(self, length):
        with pytest.raises(ValueError, match="filename must be a 32-byte digest"):
            FileStore().put(b"\x00" * length, b"")

    def test_put_get_round_trip(self):
        fs = FileStore()
        name = sha256(b"key")
        fs.put(name, b"payload")
        assert fs.get(name) == b"payload"

    def test_collision_rejected(self):
        fs = FileStore()
        name = sha256(b"key")
        fs.put(name, b"one")
        with pytest.raises(ProtocolError, match="filename exists"):
            fs.put(name, b"two")
        assert fs.get(name) == b"one"

    def test_unknown_name_not_found(self):
        assert FileStore().get(sha256(b"nope")) is None

    def test_bad_name_length(self):
        with pytest.raises(ValueError):
            FileStore().put(b"short", b"x")

    def test_corrupt_lines_are_protocol_errors(self):
        good = json.dumps({"data": "00", "name": sha256(b"a").hex()})
        for line in ['{"bad json', "[]", json.dumps({"name": sha256(b"b").hex()}),
                     json.dumps({"data": "zz", "name": sha256(b"b").hex()}),
                     json.dumps({"data": "00", "name": "abcd"})]:
            with pytest.raises(ProtocolError) as exc:
                FileStore.from_jsonl((good + "\n" + line + "\n").encode())
            assert exc.value.code == "corrupt-record", line
            assert "line 2" in str(exc.value)
        with pytest.raises(ProtocolError, match="filename exists"):
            FileStore.from_jsonl((good + "\n" + good + "\n").encode())

    def test_persistence_round_trip(self):
        fs = FileStore()
        fs.put(sha256(b"a"), b"alpha")
        fs.put(sha256(b"b"), b"beta")
        again = FileStore.from_jsonl(fs.to_jsonl())
        assert again.files == fs.files


# separators that ``str.splitlines`` breaks a line at, where JSON Lines breaks only at ``\n``
NOT_LINE_BREAKS = [b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", "\x85".encode(), "\u2028".encode(),
                   "\u2029".encode()]


def _two_files() -> bytes:
    fs = FileStore()
    fs.put(sha256(b"a"), b"alpha")
    fs.put(sha256(b"b"), b"beta")
    return fs.to_jsonl()


class TestLineRule:
    """Only ``\\n`` ends a stored record, as JSON Lines says; a ``\\r`` before it
    is JSON whitespace, so CRLF files load, and a lone ``\\r`` ends nothing."""

    @pytest.mark.parametrize("sep", NOT_LINE_BREAKS + [b"\r"], ids=bytes.hex)
    def test_records_joined_by_another_separator_are_one_corrupt_line(self, sep):
        ledger = Ledger()
        ledger.faucet([TxOutput(Address("p2pkh", b"\x11" * 20), 1)])
        ledger.faucet([TxOutput(Address("p2pkh", b"\x22" * 20), 2)])
        for load, data in ((Ledger.from_jsonl, ledger.to_jsonl()), (FileStore.from_jsonl, _two_files())):
            load(data)
            first, second, _ = data.split(b"\n")
            joined = first + sep + second + b"\n"
            assert len(joined.decode().splitlines()) == 2  # what a text reader would load
            with pytest.raises(ProtocolError) as exc:
                load(joined)
            assert exc.value.code == "corrupt-record" and "line 1: " in str(exc.value)

    @pytest.mark.parametrize("sep", NOT_LINE_BREAKS, ids=bytes.hex)
    def test_a_line_of_a_separator_is_not_blank(self, sep):
        data = _two_files()
        assert len(FileStore.from_jsonl(data + b" \t\r\n\n").files) == 2
        with pytest.raises(ProtocolError) as exc:
            FileStore.from_jsonl(data + sep + b"\n")
        assert exc.value.code == "corrupt-record" and "line 3: " in str(exc.value)

    def test_crlf_ledger_loads_with_the_same_line_numbers(self):
        data = _seeded_ledger(Random(95), 3).to_jsonl()
        crlf = data.replace(b"\n", b"\r\n")
        assert Ledger.from_jsonl(crlf).to_jsonl() == data
        assert Ledger.from_jsonl(crlf, ledger_checkpoint(crlf)).to_jsonl() == data
        lines = data.split(b"\n")[:-1]
        messages = []
        for end in (b"\n", b"\r\n"):
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl(end.join(lines[:2] + [b"", b"[]"] + lines[2:]) + end)
            messages.append(str(exc.value))
        assert "line 4: " in messages[0] and messages[0] == messages[1]
        # past a checkpoint, lines still count from the file's start
        with pytest.raises(ProtocolError) as exc:
            Ledger.from_jsonl(crlf + b"[]\r\n", ledger_checkpoint(crlf))
        assert exc.value.code == "corrupt-record" and "line 8: " in str(exc.value)


def _edits(seed: bytes):
    """One-byte edits, insertions and deletions of ``seed``."""
    at, byte = st.integers(0, len(seed) - 1), st.integers(0, 255).map(lambda b: bytes([b]))
    return st.one_of(
        st.tuples(at, byte).map(lambda e: seed[:e[0]] + e[1] + seed[e[0] + 1:]),
        st.tuples(st.integers(0, len(seed)), byte).map(lambda e: seed[:e[0]] + e[1] + seed[e[0]:]),
        at.map(lambda i: seed[:i] + seed[i + 1:]),
    )


# a fixed example sequence and no example database, so Tier-1 stays deterministic
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)
SEED_LEDGER = _seeded_ledger(Random(98), 1).to_jsonl()  # a faucet, a spend and a faucet
DECODER_INPUTS = st.binary(max_size=400) | _edits(SEED_LEDGER)


class TestDecoderFuzz:
    """Whatever bytes reach a stored-record decoder, it returns a value or
    raises ``ProtocolError``, nothing else."""

    @FUZZ
    @given(DECODER_INPUTS)
    def test_ledger(self, data):
        for checkpoint in (None, ledger_checkpoint(SEED_LEDGER)):
            with suppress(ProtocolError):
                Ledger.from_jsonl(data, checkpoint)

    @FUZZ
    @given(DECODER_INPUTS | _edits(_two_files()))
    def test_filestore(self, data):
        with suppress(ProtocolError):
            FileStore.from_jsonl(data)


class TestRecordRules:
    """``_commit``'s record rules hold on every path, so a checkpointed prefix
    and a full replay load the same ledger or both refuse it."""

    @pytest.mark.parametrize("case", ["repeated", "swapped", "untagged"])
    def test_misplaced_coinbase_records_are_corrupt_with_or_without_a_checkpoint(self, case):
        ledger = Ledger()
        ledger.faucet([TxOutput(Address("p2pkh", b"\x03" * 20), 5)])
        ledger.faucet([TxOutput(Address("p2pkh", b"\x03" * 20), 9)])
        first, second, _ = ledger.to_jsonl().split(b"\n")
        untagged = _dump_line({k: v for k, v in json.loads(second).items() if k != "coinbase"})
        data = {"repeated": [first, first], "swapped": [second, first], "untagged": [first, untagged]}[case]
        data = b"\n".join(data + [b""])
        for checkpoint in (None, ledger_checkpoint(data)):
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl(data, checkpoint)
            assert exc.value.code == "corrupt-record", checkpoint

    @FUZZ
    @given(st.data())
    def test_structural_edits_load_alike_with_or_without_a_checkpoint(self, data):
        lines = RULES_LEDGER.split(b"\n")[:-1]
        for _ in range(data.draw(st.integers(1, 2))):
            edit = data.draw(st.sampled_from(["repeat", "swap", "drop", "retag", "untag"]))
            i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            if edit == "repeat":
                lines.insert(j, lines[i])
            elif edit == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            elif edit == "drop":
                del lines[i]
            elif b'"coinbase"' in lines[i]:
                record = json.loads(lines[i])
                if edit == "retag":
                    record["coinbase"] = format(data.draw(st.integers(0, len(lines))), "x")
                else:
                    del record["coinbase"]
                lines[i] = _dump_line(record)
        edited = b"".join(line + b"\n" for line in lines)
        loads = []
        for checkpoint in (None, ledger_checkpoint(_prefix(edited, data.draw(st.integers(0, len(lines)))))):
            try:
                ledger = Ledger.from_jsonl(edited, checkpoint)
            except ProtocolError:
                loads.append(None)
            else:
                loads.append((ledger.to_jsonl(), len(ledger), ledger.total_issued, dict(ledger.utxo)))
        assert loads[0] == loads[1]


# faucet, spend, faucet, spend, faucet, spend, faucet
RULES_LEDGER = _seeded_ledger(Random(96), 3).to_jsonl()


def _seeded_contract_json() -> dict:
    """A contract file's JSON with both signature maps, an encrypted leaf and a redacted one."""
    rng = Random(99)
    merchant, tracker, reader = (KeyPair.generate(rng) for _ in range(3))
    template = sign_fields(build_template(merchant.public, {"terms": "net 30"}, rng, tracker.public),
                           merchant.private, ["merchant/terms"])
    order = build_contract(template, {"item": "lamp", "price": 4200, "note": "gift"}, rng)
    order = sign_fields(encrypt_leaf(order, "order/item", reader.public, rng), tracker.private, ["order/price"])
    return contract_to_json(redact(order, "order/note"))


def _locations(obj, at=()):
    """Each field of a JSON tree: ``(path, False)`` to replace the value at
    ``path``, ``(path, True)`` to rename the object key there."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield at + (key,), False
        if isinstance(obj, dict):
            yield at + (key,), True
        if isinstance(value, (dict, list)):
            yield from _locations(value, at + (key,))


SEED_CONTRACT = _seeded_contract_json()
LOCATIONS = list(_locations(SEED_CONTRACT))
# half the edits land in a signature map, where a key is a field path to parse
SIGNATURE_LOCATIONS = [(path, rename) for path, rename in LOCATIONS if path[0].endswith("_signatures")]
# "/" and "" make keys that are, or are not, field paths
JSON_KEYS = st.text(alphabet="ab/", max_size=4) | st.text(max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(alphabet="0123456789abcdef/", max_size=66)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_KEYS, inner, max_size=3),
    max_leaves=4)


@st.composite
def _contract_edits(draw):
    """``SEED_CONTRACT`` with one field changed: a value replaced, an object key
    renamed (signature paths among them), or one character of a string edited."""
    obj = copy.deepcopy(SEED_CONTRACT)
    path, rename = draw(st.sampled_from(LOCATIONS) | st.sampled_from(SIGNATURE_LOCATIONS))
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    old = parent[path[-1]]
    if rename:
        parent[draw(JSON_KEYS)] = parent.pop(path[-1])
    elif isinstance(old, str) and old and draw(st.booleans()):
        at = draw(st.integers(0, len(old) - 1))
        parent[path[-1]] = old[:at] + draw(st.sampled_from("0f/g")) + old[at + 1:]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return json.dumps(obj).encode()


class TestContractDecoderFuzz:
    """A contract file is a stored record too: whatever one-field change it
    carries, decoding it and every read of the contract returns a value or
    raises ``ProtocolError``."""

    def test_the_seed_reads_cleanly(self):
        c = decode_contract(json.dumps(SEED_CONTRACT).encode())
        assert verify_contract(c).ok and order_price(c) == 4200

    @settings(FUZZ, max_examples=150)
    @given(_contract_edits())
    def test_contract_file(self, data):
        with suppress(ProtocolError):
            c = decode_contract(data)
            for read in (verify_contract, payment_address, contract_hash, order_price):
                with suppress(ProtocolError):
                    read(c)


@st.composite
def _ledgers(draw) -> Ledger:
    """A faucet paying p2pkh, p2pk and 2-of-2 p2sh, a spend of each of its outputs, then
    drawn steps: faucets of one to three outputs, and spends of an unspent output.  A
    spend pays one or two outputs that split its amount."""
    rng = Random(draw(st.integers(0, 2 ** 32)))
    owner, cosigner = KeyPair.generate(rng), KeyPair.generate(rng)
    script = multisig_script(2, (owner.public, cosigner.public))
    kinds = [_addr(owner), owner.public, p2sh_address(script)]
    targets, amounts = st.sampled_from(kinds), st.integers(0, MAX_AMOUNT)
    ledger = Ledger()

    def spend(txid, index):
        prev = ledger.utxo[(txid, index)]
        first = draw(st.integers(0, prev.amount))
        outputs = [TxOutput(draw(targets), first)]
        if draw(st.booleans()):
            outputs.append(TxOutput(draw(targets), prev.amount - first))
        if prev.payto == kinds[2]:
            tx = build_script_spend(ledger, [(txid, index, [owner.private, cosigner.private], script)], outputs)
        else:
            tx = build_transaction(ledger, [(txid, index, owner.private)], outputs)
        ledger.broadcast(tx)

    funding = ledger.faucet([TxOutput(kind, draw(amounts)) for kind in kinds])
    for index in range(3):
        spend(funding.txid, index)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            ledger.faucet([TxOutput(draw(targets), draw(amounts)) for _ in range(draw(st.integers(1, 3)))])
        else:
            spend(*draw(st.sampled_from(list(ledger.utxo))))
    return ledger


@st.composite
def _respelled(draw, text: str) -> str:
    """A spelling of ``int(text, 16)`` other than ``text`` that ``int(..., 16)``
    still reads: leading zeros dropped or added, capitals, non-ASCII decimal
    digits, an underscore, a ``0x``, a sign, and surrounding whitespace."""
    value = int(text, 16)
    spelled = (text.lstrip("0") or "0") if draw(st.booleans()) else text
    spelled = "0" * draw(st.integers(0, 2)) + spelled
    if draw(st.booleans()):
        spelled = spelled.upper()
    zero = draw(st.sampled_from([None, 0xFF10, 0x0660, 0x0966]))  # fullwidth, Arabic-Indic, Devanagari
    if zero is not None:
        spelled = spelled.translate({ord(d): zero + int(d) for d in "0123456789"})
    if len(spelled) > 1 and draw(st.booleans()):
        at = draw(st.integers(1, len(spelled) - 1))
        spelled = spelled[:at] + "_" + spelled[at:]
    spelled = draw(st.sampled_from(["", "+", "-"] if value == 0 else ["", "+"])) + \
        draw(st.sampled_from(["", "0x", "0X"])) + spelled
    space = st.sampled_from(["", " ", "\t", "\n", "\u00a0", "\u3000"])
    spelled = draw(space) + spelled + draw(space)
    assume(spelled != text)
    assert int(spelled, 16) == value
    return spelled


def _integer_fields(data: bytes):
    """``(line, path)`` of each stored integer of each ledger record in ``data``."""
    fields = []
    for line, text in enumerate(data.splitlines(), 1):
        record = json.loads(text)
        if "coinbase" in record:
            fields.append((line, ("coinbase",)))
        fields += [(line, ("inputs", i, "index")) for i in range(len(record["inputs"]))]
        fields += [(line, ("outputs", i, "amount")) for i in range(len(record["outputs"]))]
    return fields


ROUND_TRIPS = settings(derandomize=True, database=None, deadline=None, max_examples=30)


class TestRoundTrips:
    """Each stored record decodes to the transaction that wrote it and encodes
    back to the same bytes, and a record whose integer is spelled any other way
    is corrupt, with or without a checkpoint over it."""

    @ROUND_TRIPS
    @given(_ledgers())
    def test_each_record_decodes_to_its_transaction_and_encodes_to_its_line(self, ledger):
        data = ledger.to_jsonl()
        lines = data.split(b"\n")
        assert lines.pop() == b""
        for tx, line in zip(ledger.transactions, lines, strict=True):
            back = tx_from_json(json.loads(line))
            assert back == tx and back.txid == tx.txid
            assert _dump_line(tx_to_json(back)) == line
        assert Ledger.from_jsonl(data).to_jsonl() == data

    @settings(ROUND_TRIPS, max_examples=200)
    @given(st.integers(0, 2 ** 256 - 1), st.data())
    def test_each_reader_takes_its_one_spelling_only(self, value, data):
        for read, spec in ((_int_from_hex, "x"), (_scalar_from_hex, "064x")):
            text = format(value, spec)
            assert read(text) == value
            respelled = data.draw(_respelled(text))
            with pytest.raises(ValueError):
                read(respelled)
            for other in (value, None, True, float(value % 10), [text]):
                with pytest.raises(TypeError):
                    read(other)

    @ROUND_TRIPS
    @given(st.sampled_from(_integer_fields(RULES_LEDGER)), st.data())
    def test_a_respelled_integer_is_a_corrupt_record(self, field, data):
        line, path = field
        lines = RULES_LEDGER.splitlines(keepends=True)
        record = json.loads(lines[line - 1])
        parent = record
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = data.draw(_respelled(parent[path[-1]]))
        edited = b"".join(lines[:line - 1] + [_dump_line(record) + b"\n"] + lines[line:])
        # the record past a checkpointed prefix, with no checkpoint, and inside the prefix
        for checkpoint in (None, ledger_checkpoint(_prefix(edited, line - 1)),
                           ledger_checkpoint(_prefix(edited, line))):
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl(edited, checkpoint)
            assert exc.value.code == "corrupt-record" and f"line {line}: ValueError(" in str(exc.value)
