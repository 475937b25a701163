import json
from random import Random

import pytest

from paytocontract.chain import (
    FileStore,
    Ledger,
    Transaction,
    TxInput,
    TxOutput,
    build_script_spend,
    build_transaction,
    transaction_pubkeys,
    tx_preimage,
    tx_to_json,
)
from paytocontract.curve import KeyPair, Point, ecdsa_sign, hash160, sha256
from paytocontract.errors import ProtocolError
from paytocontract.wallet import Address, Opcode, Script, derive_script, multisig_script, p2sh_address


def _addr(pair: KeyPair) -> Address:
    return Address("p2pkh", hash160(pair.public.encode()))


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
        forged = Transaction.assemble(tx.inputs, (TxOutput(_addr(pair), 99999),))
        with pytest.raises(ProtocolError, match="invalid signature"):
            ledger.broadcast(forged)

    def test_stale_txid_rejected(self):
        rng = Random(69)
        ledger = Ledger()
        pair, funding = _funded(ledger, rng)
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(pair), 100000)])
        forged = Transaction(tx.inputs, (TxOutput(_addr(pair), 99999),), tx.txid)
        with pytest.raises(ProtocolError, match="invalid txid"):
            ledger.broadcast(forged)

    def test_coinbase_not_broadcastable(self):
        ledger = Ledger()
        tx = Transaction.assemble((), (TxOutput(Address("p2pkh", b"\x00" * 20), 5),), 0)
        with pytest.raises(ProtocolError, match="coinbase only via faucet"):
            ledger.broadcast(tx)

    def test_tagged_spend_not_broadcastable(self):
        # a spend with a coinbase tag would be saved as a record the replay rejects
        ledger = Ledger()
        pair, funding = _funded(ledger, Random(69))
        tx = build_transaction(ledger, [(funding.txid, 0, pair.private)],
                               [TxOutput(_addr(pair), 100000)])
        tagged = Transaction.assemble(tx.inputs, tx.outputs, coinbase_tag=1)
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
        preimage = tx_preimage(inputs, outputs)
        sig = ecdsa_sign(k1.private, preimage)
        dup = Transaction.assemble(
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


def _hand_signed(prev_txid: bytes, outputs, pub=None, key=None, script=None) -> Transaction:
    """One-input transaction assembled without the builders' checks."""
    unsigned = TxInput(prev_txid, 0, pubkey=pub, redeem_script=script)
    sig = ecdsa_sign(key, tx_preimage((unsigned,), outputs)) if key is not None else None
    return Transaction.assemble(
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
            Ledger.from_jsonl(ledger.to_jsonl() + line + "\n")

    def test_p2sh_output_of_non_multisig_script(self):
        rng = Random(97)
        ledger = Ledger()
        owner = KeyPair.generate(rng)
        script = Script((Opcode.HASH160, b"\x07" * 20, Opcode.EQUAL))
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
        assert list(ledger.list_pubkeys()) == [(pair.public, tx.txid)]

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
        assert [txid for pt, txid in ledger.list_pubkeys() if pt == pair.public] == [t1.txid, t2.txid]

    def test_p2pkh_outputs_are_not_pubkeys(self):
        rng = Random(77)
        ledger = Ledger()
        _, funding = _funded(ledger, rng)
        assert list(ledger.list_pubkeys()) == []  # coinbase has no inputs

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
        indexed = {pt.encode().hex() for pt, _ in ledger.list_pubkeys()}
        assert walked == indexed


def _assert_queries_match_walk(ledger: Ledger, probes):
    """Every index-backed query agrees with a brute-force walk of the record."""
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
        past_end = Transaction.assemble(
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
        good, spend = ledger.to_jsonl().splitlines()
        record = json.loads(spend)
        no_inputs = {k: v for k, v in record.items() if k != "inputs"}
        bad_hex = dict(record, inputs=[dict(record["inputs"][0], prev_txid="zz")])
        bad_type = dict(record, outputs="zz")
        for line in ['{"bad json', "[]", "7", json.dumps(no_inputs), json.dumps(bad_hex),
                     json.dumps(bad_type)]:
            with pytest.raises(ProtocolError) as exc:
                Ledger.from_jsonl(good + "\n\n" + line + "\n")
            assert exc.value.code == "corrupt-record", line
            assert "line 3" in str(exc.value)
        # a well-formed record keeps the code of the check it fails
        off_curve = dict(record, outputs=[
            {"amount": "1", "payto": {"kind": "p2pk", "pubkey": "02" + "ff" * 32}}])
        with pytest.raises(ProtocolError) as exc:
            Ledger.from_jsonl(good + "\n" + json.dumps(off_curve) + "\n")
        assert exc.value.code == "invalid-point"

    def test_distinct_coinbases_have_distinct_txids(self):
        ledger = Ledger()
        target = Address("p2pkh", b"\x03" * 20)
        a = ledger.faucet([TxOutput(target, 7)])
        b = ledger.faucet([TxOutput(target, 7)])
        assert a.txid != b.txid


class TestFileStore:
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
                FileStore.from_jsonl(good + "\n" + line + "\n")
            assert exc.value.code == "corrupt-record", line
            assert "line 2" in str(exc.value)
        with pytest.raises(ProtocolError, match="filename exists"):
            FileStore.from_jsonl(good + "\n" + good + "\n")

    def test_persistence_round_trip(self):
        fs = FileStore()
        fs.put(sha256(b"a"), b"alpha")
        fs.put(sha256(b"b"), b"beta")
        again = FileStore.from_jsonl(fs.to_jsonl())
        assert again.files == fs.files
