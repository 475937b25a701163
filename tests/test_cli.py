import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from paytocontract import scenarios
from paytocontract.chain import Ledger, TxOutput, build_transaction, ledger_checkpoint
import paytocontract.cli as p2c_module
from paytocontract.cli import KEYFILE, PROOF, SCRIPT, Arg, CliConfig, _read, cli, main, scenario
from paytocontract.contract import (
    build_contract, build_template, contract_to_json, decode_contract, encode_contract, encrypt_leaf,
    payment_address, redact, sign_fields, verify_contract)
from paytocontract.curve import G, ORDER, KeyPair, Point, Scalar, hash160
from paytocontract.errors import ProtocolError
from paytocontract.wallet import Opcode, derive_public, p2pkh_address

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, tmp_path, args, seed=None, expect=0):
    prefix = ["--state-dir", str(tmp_path / "state"), "--format", "json"]
    if seed is not None:
        prefix += ["--seed", str(seed)]
    result = runner.invoke(cli, prefix + args, catch_exceptions=False)
    assert result.exit_code == expect, result.output
    return result.output


def _last_json(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


class TestKeyAndAddressCommands:
    def test_keyfile_is_owner_only_other_outputs_keep_default_mode(self, capsys, tmp_path):
        old = os.umask(0o022)
        try:
            key, record = tmp_path / "key.json", tmp_path / "proof.json"
            key.write_bytes(b"stale, world-readable")
            os.chmod(key, 0o644)
            assert _run_main(capsys, ["--seed", "5", "keygen", "--out", str(key)])[0] == 0
            assert _run_main(capsys, ["--seed", "5", "keygen", "--out", str(tmp_path / "new.json")])[0] == 0
            assert _run_main(capsys, ["--state-dir", str(tmp_path / "state"), "--seed", "3", "dh", "prove",
                                      "--key", str(key), "--merchant", TestInputFaults.MERCHANT,
                                      "--out", str(record)])[0] == 0
        finally:
            os.umask(old)
        assert os.stat(key).st_mode & 0o777 == 0o600
        assert os.stat(tmp_path / "new.json").st_mode & 0o777 == 0o600
        assert os.stat(record).st_mode & 0o777 == 0o644
        assert json.loads(key.read_text())["private"]

    def test_keygen_deterministic_under_seed(self, runner, tmp_path):
        a = _last_json(_invoke(runner, tmp_path, ["keygen"], seed=5))
        b = _last_json(_invoke(runner, tmp_path, ["keygen"], seed=5))
        assert a == b
        assert len(bytes.fromhex(a["public"])) == 33

    def test_address_derive(self, runner, tmp_path):
        key = _last_json(_invoke(runner, tmp_path, ["keygen"], seed=5))
        out = _last_json(_invoke(runner, tmp_path, [
            "address", "derive", "--pubbase", key["public"], "--label", "savings1"]))
        assert out["address"].startswith("p2pkh:")
        again = _last_json(_invoke(runner, tmp_path, [
            "address", "derive", "--pubbase", key["public"], "--label", "savings1"]))
        assert out == again
        other = _last_json(_invoke(runner, tmp_path, [
            "address", "derive", "--pubbase", key["public"], "--label", "savings2"]))
        assert other["address"] != out["address"]

    def test_derive_script_and_p2sh(self, runner, tmp_path):
        k1 = _last_json(_invoke(runner, tmp_path, ["keygen"], seed=5))
        k2 = _last_json(_invoke(runner, tmp_path, ["keygen"], seed=6))
        script_file = tmp_path / "base.json"
        script_file.write_text(json.dumps([
            {"push": 2}, {"pubkey": k1["public"]}, {"pubkey": k2["public"]},
            {"push": 2}, {"op": "OP_CHECKMULTISIG"},
        ]))
        derived = _last_json(_invoke(runner, tmp_path, [
            "address", "derive-script", "--script", str(script_file), "--label", "x"]))
        assert derived["address"].startswith("p2sh:")
        assert derived["script"][1]["pubkey"] != k1["public"]
        plain = _last_json(_invoke(runner, tmp_path, [
            "address", "p2sh", "--script", str(script_file)]))
        assert plain["address"] != derived["address"]


class TestContractCommands:
    def _merchant(self, runner, tmp_path):
        keyfile = tmp_path / "merchant.json"
        _invoke(runner, tmp_path, ["keygen", "--out", str(keyfile)], seed=9)
        template = tmp_path / "template.json"
        _invoke(runner, tmp_path, [
            "contract", "template", "--merchant-key", str(keyfile),
            "--static", "terms=ships in 14 days", "--static", "pricelist=widget=90000",
            "--out", str(template)], seed=9)
        return keyfile, template

    def test_full_contract_lifecycle(self, runner, tmp_path):
        keyfile, template = self._merchant(runner, tmp_path)
        contract = tmp_path / "contract.json"
        built = _last_json(_invoke(runner, tmp_path, [
            "contract", "build", "--template", str(template),
            "--field", "item=widget", "--field", "price=90000",
            "--field", "delivery_address=1 Pier Rd",
            "--out", str(contract)], seed=9))

        report = _last_json(_invoke(runner, tmp_path, ["contract", "verify", str(contract)]))
        assert report["ok"] and report["static"]

        shown = _last_json(_invoke(runner, tmp_path, ["contract", "hash", str(contract)]))
        assert shown["contract_hash"] == built["contract_hash"]

        redacted = tmp_path / "redacted.json"
        after = _last_json(_invoke(runner, tmp_path, [
            "contract", "redact", str(contract), "--path", "order/delivery_address",
            "--out", str(redacted)]))
        assert after["contract_hash"] == built["contract_hash"]

        addr1 = _last_json(_invoke(runner, tmp_path, ["contract", "payment-address", str(contract)]))
        addr2 = _last_json(_invoke(runner, tmp_path, ["contract", "payment-address", str(redacted)]))
        assert addr1 == addr2

    def test_redact_the_merchant_branch(self, runner, tmp_path):
        keyfile, template = self._merchant(runner, tmp_path)
        contract, redacted = tmp_path / "contract.json", tmp_path / "redacted.json"
        built = _last_json(_invoke(runner, tmp_path, [
            "contract", "build", "--template", str(template), "--field", "price=90000",
            "--out", str(contract)], seed=9))
        after = _last_json(_invoke(runner, tmp_path, [
            "contract", "redact", str(contract), "--path", "merchant", "--out", str(redacted)]))
        assert after["contract_hash"] == built["contract_hash"]
        report = _last_json(_invoke(runner, tmp_path, ["contract", "verify", str(redacted)]))
        assert report["ok"] and set(report["static"].values()) == {"unverifiable"}

    def test_sign_adds_a_valid_static_signature(self, runner, tmp_path):
        keyfile, template = self._merchant(runner, tmp_path)
        contract = tmp_path / "contract.json"
        _invoke(runner, tmp_path, [
            "contract", "build", "--template", str(template),
            "--field", "price=90000", "--out", str(contract)], seed=9)
        signed = tmp_path / "signed.json"
        out = _last_json(_invoke(runner, tmp_path, [
            "contract", "sign", str(contract), "--key", str(keyfile),
            "--path", "order/price", "--out", str(signed)]))
        assert out == {"written": str(signed), "signed_paths": ["order/price"]}
        report = _last_json(_invoke(runner, tmp_path, ["contract", "verify", str(signed)]))
        assert report["ok"] and report["static"]["order/price"] == "valid"
        before = _last_json(_invoke(runner, tmp_path, ["contract", "hash", str(contract)]))
        after = _last_json(_invoke(runner, tmp_path, ["contract", "hash", str(signed)]))
        assert before == after

    def test_dynamic_key_round_trips_through_the_file(self, runner, tmp_path):
        keyfile, _ = self._merchant(runner, tmp_path)
        tracker = _last_json(_invoke(runner, tmp_path, ["keygen"], seed=10))["public"]
        template, contract = tmp_path / "dynamic-template.json", tmp_path / "dynamic-contract.json"
        _invoke(runner, tmp_path, [
            "contract", "template", "--merchant-key", str(keyfile), "--dynamic-key", tracker,
            "--out", str(template)], seed=9)
        _invoke(runner, tmp_path, [
            "contract", "build", "--template", str(template), "--field", "price=5",
            "--out", str(contract)], seed=9)
        for path in (template, contract):
            data = path.read_bytes()
            assert json.loads(data)["dynamic_signing_key"] == tracker
            assert decode_contract(data).dynamic_signing_key.encode().hex() == tracker
            assert encode_contract(decode_contract(data)) == data

    def test_encrypt_leaf_changes_hash(self, runner, tmp_path):
        keyfile, template = self._merchant(runner, tmp_path)
        contract = tmp_path / "contract.json"
        built = _last_json(_invoke(runner, tmp_path, [
            "contract", "build", "--template", str(template),
            "--field", "price=90000", "--field", "delivery_address=1 Pier Rd",
            "--out", str(contract)], seed=9))
        recipient = _last_json(_invoke(runner, tmp_path, ["keygen"], seed=10))
        sealed = tmp_path / "sealed.json"
        out = _last_json(_invoke(runner, tmp_path, [
            "contract", "encrypt-leaf", str(contract), "--path", "order/delivery_address",
            "--recipient", recipient["public"], "--out", str(sealed)], seed=11))
        assert out["contract_hash"] != built["contract_hash"]

    def test_broken_contract_verify_exits_nonzero(self, runner, tmp_path):
        keyfile, template = self._merchant(runner, tmp_path)
        contract = tmp_path / "contract.json"
        _invoke(runner, tmp_path, [
            "contract", "build", "--template", str(template),
            "--field", "price=1", "--out", str(contract)], seed=9)
        obj = json.loads(contract.read_text())
        obj["root"]["children"]["merchant"]["children"]["terms"]["value"] = b"haha".hex()
        contract.write_text(json.dumps(obj))
        output = _invoke(runner, tmp_path, ["contract", "verify", str(contract)], expect=1)
        assert not _last_json(output)["ok"]


class TestChainCommands:
    def test_faucet_send_scan(self, runner, tmp_path):
        keyfile = tmp_path / "key.json"
        _invoke(runner, tmp_path, ["keygen", "--out", str(keyfile)], seed=12)
        pub = json.loads(keyfile.read_text())["public"]
        from paytocontract.curve import hash160
        own = "p2pkh:" + hash160(bytes.fromhex(pub)).hex()
        minted = _last_json(_invoke(runner, tmp_path, [
            "chain", "faucet", "--to", own, "--amount", "50000"]))
        dest = "p2pkh:" + "11" * 20
        sent = _last_json(_invoke(runner, tmp_path, [
            "chain", "send", "--key", str(keyfile),
            "--outpoint", f"{minted['txid']}:0", "--to", dest, "--amount", "20000",
            "--change", own]))
        scan = _last_json(_invoke(runner, tmp_path, ["chain", "scan", "--address", dest]))
        assert scan["outputs"] == [{"txid": sent["txid"], "index": 0, "amount": 20000}]
        state = _last_json(_invoke(runner, tmp_path, ["chain", "show"]))
        assert state["transactions"] == 2

    def test_domain_error_exit_code_and_shape(self, runner, tmp_path):
        keyfile = tmp_path / "key.json"
        _invoke(runner, tmp_path, ["keygen", "--out", str(keyfile)], seed=13)
        # spending a nonexistent outpoint is a domain error -> exit 1, coded
        import subprocess, sys
        result = subprocess.run(
            [sys.executable, "-m", "paytocontract.cli",
             "--state-dir", str(tmp_path / "state"), "chain", "send",
             "--key", str(keyfile), "--outpoint", "00" * 32 + ":0",
             "--to", "p2pkh:" + "11" * 20, "--amount", "5"],
            capture_output=True, text=True)
        assert result.returncode == 1
        payload = json.loads(result.stdout.strip().splitlines()[-1])
        assert payload["error"] == "missing-utxo"

    def test_text_format_prints_one_sorted_line_per_key(self, runner, tmp_path):
        result = runner.invoke(cli, [
            "--state-dir", str(tmp_path / "state"), "--format", "text",
            "chain", "scan", "--address", "p2pkh:" + "11" * 20], catch_exceptions=False)
        assert result.exit_code == 0
        assert result.output == "address: p2pkh:" + "11" * 20 + "\noutputs: []\n"

    def test_scan_echoes_the_canonical_address(self, runner, tmp_path):
        out = _last_json(_invoke(runner, tmp_path, ["chain", "scan", "--address", "p2pkh:" + "AB" * 20]))
        assert out == {"address": "p2pkh:" + "ab" * 20, "outputs": []}

    def test_usage_error_exit_code(self, runner, tmp_path):
        result = runner.invoke(cli, ["chain", "send"])  # missing required options
        assert result.exit_code == 2


def _run_main(capsys, argv):
    """Run the ``p2c`` entry point in-process; an uncaught exception fails the test."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    return exc.value.code, out.out, out.err


class TestCheckpointFile:
    """``ledger.ckpt`` is a trust boundary too: any mismatch with ``ledger.jsonl``
    is a ``corrupt-record``, and without it every record is replayed."""

    @staticmethod
    def _state(capsys, tmp_path):
        """A state directory from two faucets and a spend, written by ``p2c``."""
        state, key = tmp_path / "state", tmp_path / "key.json"
        assert _run_main(capsys, ["--seed", "21", "keygen", "--out", str(key)])[0] == 0
        own = "p2pkh:" + hash160(bytes.fromhex(json.loads(key.read_text())["public"])).hex()
        base = ["--state-dir", str(state)]
        code, out, _ = _run_main(capsys, base + ["chain", "faucet", "--to", own, "--amount", "700"])
        assert code == 0
        funding = json.loads(out)["txid"]
        assert _run_main(capsys, base + ["chain", "send", "--key", str(key), "--outpoint", f"{funding}:0",
                                         "--to", TestInputFaults.OWN, "--amount", "300", "--change", own])[0] == 0
        assert _run_main(capsys, base + ["chain", "faucet", "--to", TestInputFaults.OWN, "--amount", "5"])[0] == 0
        return state, base, own

    @pytest.mark.parametrize("sidecar", [
        b"", b"\xff\xfe", b"not json", b"[7]", b"{}", b'{"length":"0","sha256":""}\n',
        b'{"length":-1,"sha256":""}\n', b'{"length":1,"sha256":""}\n', b'{"length":99999,"sha256":""}\n',
        b'{"length":0,"sha256":"' + b"00" * 32 + b'"}\n',
    ], ids=["empty", "not-utf8", "not-json", "wrong-shape", "no-length", "length-a-string", "negative-length",
            "length-mid-line", "length-past-the-end", "hash-mismatch"])
    def test_malformed_or_mismatched_checkpoint(self, capsys, tmp_path, sidecar):
        state, base, _ = self._state(capsys, tmp_path)
        (state / "ledger.ckpt").write_bytes(sidecar)
        assert _domain_error(capsys, base + ["chain", "show"]) == "corrupt-record"

    def test_edited_coinbase_amount_in_the_checkpointed_prefix(self, capsys, tmp_path):
        state, base, _ = self._state(capsys, tmp_path)
        ledger = state / "ledger.jsonl"
        edited = ledger.read_bytes().replace(b'"amount":"5"', b'"amount":"6"')
        assert edited != ledger.read_bytes()
        ledger.write_bytes(edited)
        assert _domain_error(capsys, base + ["chain", "show"]) == "corrupt-record"
        # deleting the checkpoint forces a full replay, which cannot see the edit
        (state / "ledger.ckpt").unlink()
        code, out, _ = _run_main(capsys, base + ["chain", "show"])
        assert code == 0 and json.loads(out)["issued"] == 706

    def test_deleting_the_checkpoint_replays_to_the_same_output(self, capsys, tmp_path):
        state, base, own = self._state(capsys, tmp_path)
        reads = [["chain", "show"], ["chain", "scan", "--address", own],
                 ["chain", "scan", "--address", TestInputFaults.OWN]]
        checkpointed = [_run_main(capsys, base + args) for args in reads]
        (state / "ledger.ckpt").unlink()
        assert [_run_main(capsys, base + args) for args in reads] == checkpointed
        assert checkpointed[0][0] == 0 and json.loads(checkpointed[0][1]) == {
            "transactions": 3, "utxos": 3, "issued": 705}
        assert not (state / "ledger.ckpt").exists()  # reads write nothing
        assert _run_main(capsys, base + ["chain", "faucet", "--to", own, "--amount", "1"])[0] == 0
        assert (state / "ledger.ckpt").exists()

    @pytest.mark.parametrize("ledger", [None, b""], ids=["absent", "empty"])
    def test_ledger_gone_beside_its_checkpoint(self, capsys, tmp_path, ledger):
        state, base, own = self._state(capsys, tmp_path)
        sidecar = (state / "ledger.ckpt").read_bytes()
        if ledger is None:
            (state / "ledger.jsonl").unlink()
        else:
            (state / "ledger.jsonl").write_bytes(ledger)
        assert _domain_error(capsys, base + ["chain", "show"]) == "corrupt-record"
        assert _domain_error(capsys, base + ["chain", "faucet", "--to", own, "--amount", "1"]) == "corrupt-record"
        assert (state / "ledger.ckpt").read_bytes() == sidecar
        assert (state / "ledger.jsonl").exists() == (ledger is not None)

    def test_absent_ledger_without_a_checkpoint_is_empty(self, capsys, tmp_path):
        state = tmp_path / "state"
        code, out, _ = _run_main(capsys, ["--state-dir", str(state), "chain", "show"])
        assert (code, json.loads(out)) == (0, {"transactions": 0, "utxos": 0, "issued": 0})
        assert not state.exists()  # a read creates no state directory

    def test_records_past_the_checkpoint_keep_file_line_numbers(self, capsys, tmp_path):
        state, base, _ = self._state(capsys, tmp_path)
        with open(state / "ledger.jsonl", "a") as f:
            f.write('\n{"bad json\n')
        code, out, _ = _run_main(capsys, base + ["chain", "show"])
        payload = json.loads(out.strip().splitlines()[-1])
        assert (code, payload["error"]) == (1, "corrupt-record")
        assert "line 5: " in payload["message"]


class TestInputFaults:
    OWN = "p2pkh:" + "11" * 20
    OUTPOINT = "00" * 32 + ":0"
    MERCHANT = "02" + "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"

    @pytest.mark.parametrize("args", [
        ["chain", "faucet", "--to", OWN, "--amount", "-1"],
        ["chain", "faucet", "--to", OWN, "--amount", str(2 ** 64)],
        ["chain", "send", "--key", "{key}", "--outpoint", OUTPOINT, "--to", OWN, "--amount", "-1"],
        ["signal", "attach", "--key", "{key}", "--merchant", MERCHANT, "--outpoint", OUTPOINT,
         "--amount", "-1"],
        ["signal", "attach", "--key", "{key}", "--merchant", MERCHANT, "--outpoint", OUTPOINT,
         "--payment-amount", "-1"],
    ])
    def test_amount_out_of_range_is_usage_error(self, capsys, tmp_path, args):
        key = tmp_path / "key.json"
        key.write_text("{}")
        state = tmp_path / "fresh"
        argv = ["--state-dir", str(state)] + [str(key) if a == "{key}" else a for a in args]
        code, _, err = _run_main(capsys, argv)
        assert code == 2
        assert "is not in the range 0<=x<=18446744073709551615" in err
        assert not state.exists()

    def test_bad_point_hex_is_usage_error(self, capsys, tmp_path):
        state = tmp_path / "fresh"
        code, _, err = _run_main(capsys, [
            "--state-dir", str(state), "address", "derive", "--pubbase", "zz", "--label", "x"])
        assert code == 2
        assert "bad point 'zz'" in err
        assert not state.exists()

    def test_off_curve_point_is_domain_error(self, capsys, tmp_path):
        state = tmp_path / "fresh"
        code, out, _ = _run_main(capsys, [
            "--state-dir", str(state), "address", "derive", "--pubbase", "02" + "ff" * 32,
            "--label", "x"])
        assert code == 1
        assert json.loads(out.strip().splitlines()[-1])["error"] == "invalid-point"
        assert not state.exists()

    def test_read_only_command_leaves_no_state_dir(self, capsys, tmp_path):
        state = tmp_path / "fresh"
        code, out, _ = _run_main(capsys, ["--state-dir", str(state), "chain", "show"])
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["transactions"] == 0
        assert not state.exists()

    def test_negative_watermark_is_usage_error(self, capsys, tmp_path):
        key = tmp_path / "key.json"
        key.write_text(json.dumps({"private": "01".rjust(64, "0")}))
        state = tmp_path / "fresh"
        code, _, err = _run_main(capsys, [
            "--state-dir", str(state), "signal", "scan", "--key", str(key), "--watermark", "-1"])
        assert code == 2
        assert "x>=0" in err
        assert not state.exists()

    def test_chain_show_one_transaction(self, capsys, tmp_path):
        state = ["--state-dir", str(tmp_path / "state")]
        code, out, _ = _run_main(capsys, state + [
            "chain", "faucet", "--to", self.OWN, "--amount", "7"])
        assert code == 0
        txid = json.loads(out)["txid"]
        code, out, _ = _run_main(capsys, state + ["chain", "show", txid])
        assert code == 0
        shown = json.loads(out)
        assert shown["txid"] == txid
        assert shown["transaction"]["coinbase"] == "0"
        assert shown["transaction"]["outputs"] == [
            {"amount": "7", "payto": {"digest": "11" * 20, "kind": "p2pkh"}}]
        assert _domain_error(capsys, state + ["chain", "show", "00" * 32]) == "no-such-transaction"

    @pytest.mark.parametrize("args, message", [
        (["chain", "show", "zz"], "bad txid 'zz'"),
        (["chain", "send", "--key", "{key}", "--outpoint", "zz:0", "--to", OWN, "--amount", "1"],
         "bad outpoint 'zz:0'"),
        (["chain", "send", "--key", "{key}", "--outpoint", "00" * 32, "--to", OWN, "--amount", "1"],
         "not txid:index"),
        (["chain", "send", "--key", "{key}", "--outpoint", "00" * 32 + ":x", "--to", OWN,
          "--amount", "1"], "not txid:index"),
        (["signal", "attach", "--key", "{key}", "--merchant", MERCHANT, "--outpoint", "00" * 32 + ":-1"],
         "not txid:index"),
        (["address", "derive", "--pubbase", MERCHANT, "--label-hex", "zz"], "bad label 'zz'"),
        (["address", "derive-script", "--script", "{script}", "--label-hex", "zz"], "bad label 'zz'"),
    ])
    def test_bad_hex_argument_is_usage_error(self, capsys, tmp_path, args, message):
        self._assert_usage_error(capsys, tmp_path, args, message)

    @pytest.mark.parametrize("args, message", [
        (["chain", "send", "--key", "{key}", "--outpoint", "00" * 32 + ":" + "1" * 5000, "--to", OWN,
          "--amount", "1"], "not txid:index"),
        (["chain", "send", "--key", "{key}", "--outpoint", "00" * 32 + ":" + "1" * 21, "--to", OWN,
          "--amount", "1"], "not txid:index"),
        # Python hands a non-UTF-8 argument byte (here 0xff) to click as a lone surrogate
        (["address", "derive", "--pubbase", MERCHANT, "--label", "x\udcff"], "bad label 'x\\udcff'"),
        (["contract", "template", "--merchant-key", "{key}", "--static", "terms=\udcff", "--out", "{out}"],
         "bad field 'terms=\\udcff'"),
        (["contract", "build", "--template", "{template}", "--field", "item=\udcff", "--out", "{out}"],
         "bad field 'item=\\udcff'"),
        (["contract", "build", "--template", "{template}", "--field", "a/b=1", "--out", "{out}"],
         "bad field name 'a/b'"),
        (["contract", "build", "--template", "{template}", "--field", "=1", "--out", "{out}"],
         "bad field name ''"),
        (["chain", "scan", "--address", "p2pkh:zz"], "bad address 'p2pkh:zz'"),
    ] + [
        (["contract", command, "{contract}", "--path", path, *extra, "--out", "{out}"], f"bad path {path!r}")
        for command, extra in [("redact", []), ("sign", ["--key", "{key}"]),
                               ("encrypt-leaf", ["--recipient", MERCHANT])]
        for path in ["", "a//b", "/"]
    ] + [
        (["address", "derive", "--pubbase", MERCHANT, "--label", "x", "--label-hex", "00"],
         "give exactly one of --label / --label-hex"),
        (["address", "derive", "--pubbase", MERCHANT], "give exactly one of --label / --label-hex"),
        (["contract", "build", "--template", "{template}", "--field", "x", "--out", "{out}"],
         "bad field 'x': not name=value"),
        (["chain", "scan", "--address", "p2xx:" + "11" * 20],
         f"bad address 'p2xx:{'11' * 20}': unknown address kind 'p2xx'"),
    ])
    def test_malformed_argument_is_usage_error(self, capsys, tmp_path, args, message):
        self._assert_usage_error(capsys, tmp_path, args, message)

    def test_reserved_static_field_is_path_collision(self, capsys, tmp_path):
        key, out = tmp_path / "key.json", tmp_path / "template.json"
        key.write_text(json.dumps({"private": "01".rjust(64, "0")}))
        assert _domain_error(capsys, ["--state-dir", str(tmp_path / "state"), "contract", "template",
                                      "--merchant-key", str(key), "--static", "pubkey=x",
                                      "--out", str(out)]) == "path-collision"
        assert not out.exists()

    def test_retrieve_without_a_signal_from_that_key(self, capsys, tmp_path):
        key = tmp_path / "key.json"
        key.write_text(json.dumps({"private": "01".rjust(64, "0")}))
        code = _domain_error(capsys, ["--state-dir", str(tmp_path / "state"), "redeem", "retrieve",
                                      "--key", str(key), "--signal-pub", self.MERCHANT])
        assert code == "no-signal-from-that-key"

    def _assert_usage_error(self, capsys, tmp_path, args, message):
        key, script = tmp_path / "key.json", tmp_path / "script.json"
        key.write_text(json.dumps({"private": "01".rjust(64, "0")}))
        script.write_text(json.dumps([{"push": 1}, {"pubkey": self.MERCHANT}, {"push": 1},
                                      {"op": "OP_CHECKMULTISIG"}]))
        template = build_template(G ** Scalar(1), {"terms": "net 30"}, Random(1))
        contract = build_contract(template, {"price": 5}, Random(2))
        (tmp_path / "template.json").write_bytes(encode_contract(template))
        (tmp_path / "contract.json").write_bytes(encode_contract(contract))
        state = tmp_path / "fresh"
        files = {"{key}": str(key), "{script}": str(script), "{out}": str(tmp_path / "out.json"),
                 "{template}": str(tmp_path / "template.json"), "{contract}": str(tmp_path / "contract.json")}
        code, _, err = _run_main(capsys, ["--state-dir", str(state)] + [files.get(a, a) for a in args])
        assert code == 2
        assert message in err
        assert not state.exists()
        assert not (tmp_path / "out.json").exists()


def _respellings(text: str) -> dict:
    """Spellings other than ``text`` that ``int(..., 16)`` reads as the same integer, by name."""
    spellings = {"prefix": "0x" + text, "spaces": f" {text} ", "sign": "+" + text, "leading-zero": "0" + text,
                 "capitals": text.upper(), "underscore": text[0] + "_" + text[1:] if len(text) > 1 else text,
                 "fullwidth": text.translate({ord(d): ord(d) + 0xFEE0 for d in "0123456789"})}
    assert all(int(spelling, 16) == int(text, 16) for spelling in spellings.values())
    return {name: spelling for name, spelling in spellings.items() if spelling != text}


def _domain_error(capsys, argv) -> str:
    """Run ``p2c``; it must exit 1 with a JSON error on stdout.  Returns the code."""
    code, out, _ = _run_main(capsys, argv)
    assert code == 1
    return json.loads(out.strip().splitlines()[-1])["error"]


class TestCorruptFiles:
    """Malformed state and input files are domain errors: exit 1, a JSON code."""

    MERCHANT = TestInputFaults.MERCHANT
    GOOD_KEY = {"private": "01".rjust(64, "0")}

    # a coinbase record paying 1 to p2pkh:1111..., tagged with position 0
    COINBASE = ('{"coinbase":"0","inputs":[],"outputs":[{"amount":"1","payto":{"digest":"'
                + "11" * 20 + '","kind":"p2pkh"}}]}\n')

    @pytest.mark.parametrize("text", [
        '{"bad json\n',
        '{"inputs":[]}\n',
        '{"coinbase":"0","inputs":[],"outputs":[{"amount":"zz","payto":{"digest":"' + "11" * 20
        + '","kind":"p2pkh"}}]}\n',
        pytest.param(COINBASE + COINBASE.replace('"coinbase":"0"', '"coinbase":"5"'),
                     id="coinbase-tag-not-its-position"),
        pytest.param(COINBASE + COINBASE.replace(
            '"coinbase":"0","inputs":[]',
            '"coinbase":"1","inputs":[{"index":"0","prev_txid":"' + "22" * 32
            + '","pubkey":"' + TestInputFaults.MERCHANT + '"}]'), id="coinbase-with-inputs"),
    ])
    def test_corrupt_ledger(self, capsys, tmp_path, text):
        state = tmp_path / "state"
        state.mkdir()
        (state / "ledger.jsonl").write_text(text)
        code, out, _ = _run_main(capsys, ["--state-dir", str(state), "chain", "show"])
        assert code == 1
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["error"] == "corrupt-record"
        assert f"line {len(text.splitlines())}: " in payload["message"]

    @pytest.mark.parametrize("text", [
        pytest.param(COINBASE + COINBASE, id="repeated"),
        pytest.param(COINBASE.replace('"coinbase":"0"', '"coinbase":"1"') + COINBASE, id="swapped"),
        pytest.param(COINBASE + COINBASE.replace('"coinbase":"0",', ""), id="untagged"),
    ])
    def test_misplaced_coinbase_is_corrupt_with_or_without_a_checkpoint(self, capsys, tmp_path, text):
        # the checkpoint binds the bytes, not a licence to skip the record rules
        state = tmp_path / "state"
        state.mkdir()
        (state / "ledger.jsonl").write_text(text)
        assert _domain_error(capsys, ["--state-dir", str(state), "chain", "show"]) == "corrupt-record"
        (state / "ledger.ckpt").write_bytes(ledger_checkpoint(text.encode()))
        assert _domain_error(capsys, ["--state-dir", str(state), "chain", "show"]) == "corrupt-record"

    @pytest.mark.parametrize("sep", [b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\r", "\x85".encode(),
                                     "\u2028".encode(), "\u2029".encode()], ids=bytes.hex)
    def test_records_joined_by_another_separator(self, capsys, tmp_path, sep):
        # only "\n" ends a record, so the two coinbases are one corrupt line
        state = tmp_path / "state"
        state.mkdir()
        second = self.COINBASE.replace('"coinbase":"0"', '"coinbase":"1"').encode()
        (state / "ledger.jsonl").write_bytes(self.COINBASE.encode() + second)
        code, out, _ = _run_main(capsys, ["--state-dir", str(state), "chain", "show"])
        assert (code, json.loads(out)["transactions"]) == (0, 2)
        (state / "ledger.jsonl").write_bytes(self.COINBASE.encode().replace(b"\n", sep) + second)
        code, out, _ = _run_main(capsys, ["--state-dir", str(state), "chain", "show"])
        payload = json.loads(out.strip().splitlines()[-1])
        assert (code, payload["error"]) == (1, "corrupt-record") and "line 1: " in payload["message"]

    def test_corrupt_filestore(self, capsys, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "filestore.jsonl").write_text('{"bad json\n')
        key = tmp_path / "key.json"
        key.write_text(json.dumps(self.GOOD_KEY))
        assert _domain_error(capsys, [
            "--state-dir", str(state), "redeem", "retrieve", "--key", str(key),
            "--signal-pub", self.MERCHANT]) == "corrupt-record"

    @pytest.mark.parametrize("text", [
        "", "{}", "[]", '{"private": "zz"}', '{"private": 1}', json.dumps({"private": "00" * 32}),
        # a stored public key that is not the private key's own
        *(json.dumps({"private": "01".rjust(64, "0"), "public": public}) for public in
          [(G ** Scalar(2)).encode().hex(), "03" + G.encode().hex()[2:], "zz", 7, None]),
    ])
    def test_malformed_keyfile(self, capsys, tmp_path, text):
        key = tmp_path / "key.json"
        key.write_text(text)
        assert _domain_error(capsys, [
            "--state-dir", str(tmp_path / "state"), "dh", "prove", "--key", str(key),
            "--merchant", self.MERCHANT]) == "invalid-keyfile"

    def test_reading_a_keyfile_and_keygen_each_raise_g_once(self, capsys, monkeypatch, tmp_path):
        # a stored public key is checked by its encoding, at no extra multiply
        key, expected = tmp_path / "key.json", KeyPair(Scalar(1))
        powers, power = [], Point.__pow__
        monkeypatch.setattr(Point, "__pow__", lambda base, k: powers.append(base) or power(base, k))
        for public in (None, G.encode().hex(), G.encode().hex().upper()):
            record = self.GOOD_KEY if public is None else dict(self.GOOD_KEY, public=public)
            key.write_text(json.dumps(record))
            powers.clear()
            assert _read(key, KEYFILE) == expected
            assert powers == [G]
        powers.clear()
        assert _run_main(capsys, ["--seed", "5", "keygen"])[0] == 0
        assert powers == [G]

    # each file the CLI reads: where it goes, the command that reads it, its error code
    FILES = {
        "keyfile": ("key.json", ["dh", "prove", "--key", "{file}", "--merchant", MERCHANT],
                    "invalid-keyfile"),
        "contract": ("contract.json", ["contract", "hash", "{file}"], "invalid-contract"),
        "template": ("template.json", ["contract", "build", "--template", "{file}",
                                       "--field", "price=1", "--out", "{out}"], "invalid-contract"),
        "script": ("script.json", ["address", "p2sh", "--script", "{file}"], "invalid-script"),
        "proof": ("proof.json", ["dh", "verify", "--proof", "{file}", "--merchant", MERCHANT],
                  "invalid-proof"),
        "ledger": ("state/ledger.jsonl", ["chain", "show"], "corrupt-record"),
        "filestore": ("state/filestore.jsonl", ["redeem", "retrieve", "--key", "{key}",
                                                "--signal-pub", MERCHANT], "corrupt-record"),
    }

    def _file_and_argv(self, tmp_path, kind):
        name, args, code = self.FILES[kind]
        key = tmp_path / "good-key.json"
        key.write_text(json.dumps(self.GOOD_KEY))
        (tmp_path / "state").mkdir()
        files = {"{file}": str(tmp_path / name), "{key}": str(key), "{out}": str(tmp_path / "out.json")}
        argv = ["--state-dir", str(tmp_path / "state")] + [files.get(a, a) for a in args]
        return tmp_path / name, argv, code

    @pytest.mark.parametrize("data", [b"\xff\xfe", b"not json", b"[7]", b"[" * 100000],
                             ids=["not-utf8", "not-json", "wrong-shape", "too-deep"])
    @pytest.mark.parametrize("kind", list(FILES))
    def test_malformed_file(self, capsys, tmp_path, kind, data):
        path, argv, code = self._file_and_argv(tmp_path, kind)
        path.write_bytes(data)
        assert _domain_error(capsys, argv) == code

    @pytest.mark.parametrize("text", ['[{"push": 1}, "zz"]', '[{"pubkey": "zz"}]', "[]", "{}",
                                      '[{"push": 17}]', '[{"push": 1e999}]', '[{"push": true}]',
                                      '[{"push": "1"}]', '[{"push": 1.0}]', '[{"push": 1.9}]'])
    def test_malformed_script_element(self, capsys, tmp_path, text):
        path, argv, _ = self._file_and_argv(tmp_path, "script")
        path.write_text(text)
        assert _domain_error(capsys, argv) == "invalid-script"

    @pytest.mark.parametrize("where, node", [
        ("order/price", {"kind": "redacted", "digest": "00" * 31}),
        ("order/price", {"kind": "twig", "salt": "00" * 16}),
        ("", {"kind": "leaf", "salt": "00" * 16, "value": "", "encrypted": False}),
    ], ids=["31-byte-digest", "unknown-kind", "root-not-a-branch"])
    def test_malformed_contract_tree(self, capsys, tmp_path, where, node):
        template = build_template(G ** Scalar(1), {}, Random(1))
        obj = contract_to_json(build_contract(template, {"price": 5}, Random(2)))
        if where:
            branch, name = where.split("/")
            obj["root"]["children"][branch]["children"][name] = node
        else:
            obj["root"] = node
        path, argv, code = self._file_and_argv(tmp_path, "contract")
        path.write_text(json.dumps(obj))
        assert _domain_error(capsys, argv) == code == "invalid-contract"

    @pytest.mark.parametrize("path", ["", "a//b", "/x"])
    @pytest.mark.parametrize("command", ["verify", "hash"])
    def test_signature_path_that_is_no_field_path(self, capsys, tmp_path, command, path):
        template = sign_fields(build_template(G ** Scalar(1), {}, Random(1)), Scalar(1), ["merchant/pubkey"])
        obj = contract_to_json(build_contract(template, {"price": 5}, Random(2)))
        obj["static_signatures"][path] = obj["static_signatures"]["merchant/pubkey"]
        file = tmp_path / "contract.json"
        file.write_text(json.dumps(obj))
        assert _domain_error(capsys, ["contract", command, str(file)]) == "invalid-contract"

    @pytest.mark.parametrize("kind", list(FILES))
    def test_directory_is_usage_error(self, capsys, tmp_path, kind):
        path, argv, _ = self._file_and_argv(tmp_path, kind)
        path.mkdir()
        code, _, err = _run_main(capsys, argv)
        assert code == 2
        assert "is a directory" in err

    def test_directory_as_output_is_usage_error(self, capsys, tmp_path):
        code, _, err = _run_main(capsys, ["--state-dir", str(tmp_path / "state"),
                                          "keygen", "--out", str(tmp_path)])
        assert code == 2
        assert "is a directory" in err

    def test_failed_save_keeps_previous_ledger(self, capsys, tmp_path, monkeypatch):
        state = tmp_path / "state"
        faucet = ["--state-dir", str(state), "chain", "faucet", "--to", TestInputFaults.OWN,
                  "--amount", "5"]
        assert _run_main(capsys, faucet)[0] == 0
        before = (state / "ledger.jsonl").read_bytes()
        sidecar = (state / "ledger.ckpt").read_bytes()
        assert sorted(os.listdir(state)) == ["ledger.ckpt", "ledger.jsonl"]  # a save leaves no temp file

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        assert _domain_error(capsys, faucet) == "io-error"
        assert (state / "ledger.jsonl").read_bytes() == before
        assert (state / "ledger.ckpt").read_bytes() == sidecar
        assert sorted(os.listdir(state)) == ["ledger.ckpt", "ledger.jsonl"]

    @pytest.mark.parametrize("price", ["abc", "-5", "+90000", "9_0000", " 90000 "])
    def test_non_canonical_price_in_signal_attach(self, capsys, tmp_path, price):
        state = ["--state-dir", str(tmp_path / "state")]
        merchant_key, customer_key = tmp_path / "merchant.json", tmp_path / "customer.json"
        template, contract = tmp_path / "template.json", tmp_path / "contract.json"
        for seed, key in (("14", merchant_key), ("15", customer_key)):
            assert _run_main(capsys, ["--seed", seed, "keygen", "--out", str(key)])[0] == 0
        assert _run_main(capsys, ["--seed", "14", "contract", "template", "--merchant-key", str(merchant_key),
                                  "--static", "terms=t", "--out", str(template)])[0] == 0
        assert _run_main(capsys, ["--seed", "16", "contract", "build", "--template", str(template),
                                  "--field", f"price={price}", "--out", str(contract)])[0] == 0
        customer_pub = json.loads(customer_key.read_text())["public"]
        merchant_pub = json.loads(merchant_key.read_text())["public"]
        code, out, _ = _run_main(capsys, state + [
            "chain", "faucet", "--to", "p2pkh:" + hash160(bytes.fromhex(customer_pub)).hex(),
            "--amount", "100000"])
        assert code == 0
        txid = json.loads(out)["txid"]
        assert _domain_error(capsys, state + [
            "signal", "attach", "--key", str(customer_key), "--merchant", merchant_pub,
            "--outpoint", f"{txid}:0", "--amount", "10000", "--contract", str(contract)]) == "invalid-price"

    def test_output_under_a_file_is_io_error(self, capsys, tmp_path):
        (tmp_path / "afile").write_text("")
        assert _domain_error(capsys, ["keygen", "--out", str(tmp_path / "afile" / "k.json")]) == "io-error"
        assert os.listdir(tmp_path) == ["afile"]

    def test_unreadable_file_is_io_error(self, capsys, tmp_path, monkeypatch):
        key = tmp_path / "key.json"
        key.write_text(json.dumps(self.GOOD_KEY))

        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "read_bytes", denied)
        assert _domain_error(capsys, ["--state-dir", str(tmp_path / "state"), "signal", "scan",
                                      "--key", str(key)]) == "io-error"

    def test_malformed_proof_file(self, capsys, tmp_path):
        key = tmp_path / "key.json"
        key.write_text(json.dumps(self.GOOD_KEY))
        proof = tmp_path / "proof.json"
        code, _, _ = _run_main(capsys, [
            "--state-dir", str(tmp_path / "state"), "--seed", "3", "dh", "prove", "--key", str(key),
            "--merchant", self.MERCHANT, "--out", str(proof)])
        assert code == 0
        good = json.loads(proof.read_text())
        broken = ["", "[]", json.dumps({k: v for k, v in good.items() if k != "commit_g"}),
                  json.dumps(dict(good, shared="zz")), json.dumps(dict(good, response="zz")),
                  json.dumps(dict(good, response=7)), json.dumps(dict(good, signal_pubkey="zz"))]
        for text in broken:
            proof.write_text(text)
            assert _domain_error(capsys, [
                "--state-dir", str(tmp_path / "state"), "dh", "verify", "--proof", str(proof),
                "--merchant", self.MERCHANT]) == "invalid-proof", text
        # a well-formed proof file with an off-curve point keeps its own code
        proof.write_text(json.dumps(dict(good, shared="02" + "ff" * 32)))
        assert _domain_error(capsys, [
            "--state-dir", str(tmp_path / "state"), "dh", "verify", "--proof", str(proof),
            "--merchant", self.MERCHANT]) == "invalid-point"

    # a private key with both hex letters and decimal digits, as ``keygen`` spells it
    PRIVATE = format(ORDER - 2, "064x")

    @pytest.mark.parametrize("private", ["0x1", " 1 ", "1_0", "+1", "AB", "1", *_respellings(PRIVATE).values()],
                             ids=["0x1", "spaced-1", "1_0", "+1", "AB", "1", *_respellings(PRIVATE)])
    def test_a_keyfile_private_key_has_one_spelling(self, capsys, tmp_path, private):
        key = tmp_path / "key.json"
        key.write_text(json.dumps({"private": self.PRIVATE}))
        assert _read(key, KEYFILE) == KeyPair(Scalar(ORDER - 2))
        key.write_text(json.dumps({"private": private}))
        assert _domain_error(capsys, [
            "--state-dir", str(tmp_path / "state"), "dh", "prove", "--key", str(key),
            "--merchant", self.MERCHANT]) == "invalid-keyfile"

    def test_a_proof_response_has_one_spelling(self, capsys, tmp_path):
        key, proof = tmp_path / "key.json", tmp_path / "proof.json"
        key.write_text(json.dumps(self.GOOD_KEY))
        assert _run_main(capsys, ["--seed", "3", "dh", "prove", "--key", str(key), "--merchant", self.MERCHANT,
                                  "--out", str(proof)])[0] == 0
        good = json.loads(proof.read_text())
        verify = ["dh", "verify", "--proof", str(proof), "--merchant", self.MERCHANT]
        assert _run_main(capsys, verify)[0] == 0
        respellings = _respellings(good["response"])
        assert len(respellings) == 7  # the response has letters and digits
        for response in respellings.values():
            proof.write_text(json.dumps(dict(good, response=response)))
            assert _domain_error(capsys, verify) == "invalid-proof", response

    @staticmethod
    def _three_records() -> list:
        """A faucet paying 16 (amount "10"), a second faucet (coinbase "1") and a
        spend of its output 0 (index "0"), each a record line."""
        payer = KeyPair.generate(Random(41))
        ledger = Ledger()
        ledger.faucet([TxOutput(p2pkh_address(payer.public), 16)])
        funded = ledger.faucet([TxOutput(p2pkh_address(payer.public), 7)])
        ledger.broadcast(build_transaction(ledger, [(funded.txid, 0, payer.private)],
                                           [TxOutput(p2pkh_address(payer.public), 7)]))
        return ledger.to_jsonl().splitlines(keepends=True)

    @pytest.mark.parametrize("line, field, canonical", [
        (1, ("outputs", 0, "amount"), "10"), (2, ("coinbase",), "1"), (3, ("inputs", 0, "index"), "0")],
        ids=["amount", "coinbase", "index"])
    def test_a_ledger_integer_has_one_spelling(self, capsys, tmp_path, line, field, canonical):
        # ``to_jsonl`` writes ``format(v, "x")``; any other spelling would load as the
        # same transaction and be written back respelled
        state = tmp_path / "state"
        state.mkdir()
        records = self._three_records()
        show = ["--state-dir", str(state), "chain", "show"]
        (state / "ledger.jsonl").write_bytes(b"".join(records))
        assert _run_main(capsys, show)[0] == 0
        for spelling in _respellings(canonical).values():
            record = json.loads(records[line - 1])
            parent = record
            for step in field[:-1]:
                parent = parent[step]
            assert parent[field[-1]] == canonical
            parent[field[-1]] = spelling
            edited = records[:line - 1] + [json.dumps(record).encode() + b"\n"] + records[line:]
            (state / "ledger.jsonl").write_bytes(b"".join(edited))
            (state / "ledger.ckpt").unlink(missing_ok=True)
            for checkpoint in (None, ledger_checkpoint(b"".join(records[:line - 1]))):
                if checkpoint is not None:  # the record lies past the checkpointed prefix
                    (state / "ledger.ckpt").write_bytes(checkpoint)
                code, out, _ = _run_main(capsys, show)
                payload = json.loads(out)
                assert (code, payload["error"]) == (1, "corrupt-record"), spelling
                assert payload["message"].startswith(f"corrupt record: line {line}: ValueError(")

    def test_a_decoders_own_error_keeps_its_code_and_names_the_file(self, capsys, tmp_path):
        off_curve = "02" + "00" * 31 + "05"
        contract = tmp_path / "contract.json"
        template = build_template(G ** Scalar(1), {}, Random(1))
        obj = contract_to_json(build_contract(template, {"price": 5}, Random(2)))
        cases = [(dict(obj, merchant_pubkey=off_curve), "invalid point: {path}: x not on curve"),
                 (dict(obj, root={"kind": "branch", "salt": "00" * 16, "children": {}}),
                  "invalid contract: {path}: merchant pubkey field missing")]
        for record, message in cases:
            contract.write_text(json.dumps(record))
            code, out, _ = _run_main(capsys, ["--state-dir", str(tmp_path / "state"), "contract", "hash",
                                              str(contract)])
            assert code == 1
            assert json.loads(out)["message"] == message.format(path=contract)
        # a state file's records name their line, not the file
        (tmp_path / "state").mkdir()
        (tmp_path / "state" / "ledger.jsonl").write_text("[]\n")
        code, out, _ = _run_main(capsys, ["--state-dir", str(tmp_path / "state"), "chain", "show"])
        assert (code, json.loads(out)["message"]) == (1, "corrupt record: line 1: TypeError("
                                                         "'list indices must be integers or slices, not str')")


class TestSignalDhRedeemCommands:
    def test_signal_attach_scan_retrieve_flow(self, runner, tmp_path):
        merchant_key = tmp_path / "merchant.json"
        customer_key = tmp_path / "customer.json"
        _invoke(runner, tmp_path, ["keygen", "--out", str(merchant_key)], seed=14)
        _invoke(runner, tmp_path, ["keygen", "--out", str(customer_key)], seed=15)
        merchant_pub = json.loads(merchant_key.read_text())["public"]
        customer_pub = json.loads(customer_key.read_text())["public"]

        template = tmp_path / "template.json"
        _invoke(runner, tmp_path, [
            "contract", "template", "--merchant-key", str(merchant_key),
            "--static", "terms=t", "--out", str(template)], seed=14)
        contract = tmp_path / "contract.json"
        _invoke(runner, tmp_path, [
            "contract", "build", "--template", str(template),
            "--field", "price=90000", "--out", str(contract)], seed=16)

        from paytocontract.curve import hash160
        own = "p2pkh:" + hash160(bytes.fromhex(customer_pub)).hex()
        minted = _last_json(_invoke(runner, tmp_path, [
            "chain", "faucet", "--to", own, "--amount", "100000"]))

        attached = _last_json(_invoke(runner, tmp_path, [
            "signal", "attach", "--key", str(customer_key), "--merchant", merchant_pub,
            "--outpoint", f"{minted['txid']}:0", "--amount", "10000",
            "--contract", str(contract)]))
        assert "txid" in attached and "value" in attached

        posted = _last_json(_invoke(runner, tmp_path, [
            "redeem", "post", "--contract", str(contract), "--key", str(customer_key),
            "--merchant", merchant_pub], seed=17))

        scanned = _last_json(_invoke(runner, tmp_path, [
            "signal", "scan", "--key", str(merchant_key)]))
        assert len(scanned["signals"]) == 1
        assert scanned["signals"][0]["value"] == attached["value"]

        retrieved = _last_json(_invoke(runner, tmp_path, [
            "redeem", "retrieve", "--key", str(merchant_key),
            "--signal-pub", customer_pub]))
        assert retrieved["state"] == "accepted"
        assert retrieved["txid"] == attached["txid"]

    def test_signal_attach_without_contract_is_found_by_scan(self, runner, tmp_path):
        merchant_key, customer_key = tmp_path / "merchant.json", tmp_path / "customer.json"
        _invoke(runner, tmp_path, ["keygen", "--out", str(merchant_key)], seed=14)
        _invoke(runner, tmp_path, ["keygen", "--out", str(customer_key)], seed=15)
        merchant_pub = json.loads(merchant_key.read_text())["public"]
        customer_pub = json.loads(customer_key.read_text())["public"]
        minted = _last_json(_invoke(runner, tmp_path, [
            "chain", "faucet", "--to", "p2pkh:" + hash160(bytes.fromhex(customer_pub)).hex(),
            "--amount", "1000"]))
        attached = _last_json(_invoke(runner, tmp_path, [
            "signal", "attach", "--key", str(customer_key), "--merchant", merchant_pub,
            "--outpoint", f"{minted['txid']}:0", "--amount", "10"]))
        scanned = _last_json(_invoke(runner, tmp_path, ["signal", "scan", "--key", str(merchant_key)]))
        assert scanned["signals"] == [
            {"signal_pubkey": customer_pub, "value": attached["value"], "txid": attached["txid"]}]

    @pytest.mark.parametrize("payment, change", [(None, 990), ("200", 790)])
    def test_signal_attach_pays_change(self, runner, tmp_path, payment, change):
        merchant_key, customer_key = tmp_path / "merchant.json", tmp_path / "customer.json"
        _invoke(runner, tmp_path, ["keygen", "--out", str(merchant_key)], seed=14)
        _invoke(runner, tmp_path, ["keygen", "--out", str(customer_key)], seed=15)
        merchant_pub = json.loads(merchant_key.read_text())["public"]
        customer_pub = json.loads(customer_key.read_text())["public"]
        minted = _last_json(_invoke(runner, tmp_path, [
            "chain", "faucet", "--to", "p2pkh:" + hash160(bytes.fromhex(customer_pub)).hex(),
            "--amount", "1000"]))
        with_contract = []
        if payment is not None:
            template, contract = tmp_path / "template.json", tmp_path / "contract.json"
            _invoke(runner, tmp_path, ["contract", "template", "--merchant-key", str(merchant_key),
                                       "--static", "terms=t", "--out", str(template)], seed=14)
            _invoke(runner, tmp_path, ["contract", "build", "--template", str(template),
                                       "--field", "price=90000", "--out", str(contract)], seed=16)
            with_contract = ["--contract", str(contract), "--payment-amount", payment]
        rest = "p2pkh:" + "11" * 20
        attached = _last_json(_invoke(runner, tmp_path, [
            "signal", "attach", "--key", str(customer_key), "--merchant", merchant_pub,
            "--outpoint", f"{minted['txid']}:0", "--amount", "10", "--change", rest, *with_contract]))
        scanned = _last_json(_invoke(runner, tmp_path, ["chain", "scan", "--address", rest]))
        assert scanned["outputs"] == [{"txid": attached["txid"], "index": 2 if payment else 1,
                                       "amount": change}]
        shown = _last_json(_invoke(runner, tmp_path, ["chain", "show"]))
        assert shown == {"transactions": 2, "utxos": 3 if payment else 2, "issued": 1000}

    def test_dh_prove_verify(self, runner, tmp_path):
        merchant_key = tmp_path / "merchant.json"
        signer_key = tmp_path / "signer.json"
        _invoke(runner, tmp_path, ["keygen", "--out", str(merchant_key)], seed=18)
        _invoke(runner, tmp_path, ["keygen", "--out", str(signer_key)], seed=19)
        merchant_pub = json.loads(merchant_key.read_text())["public"]
        proof_file = tmp_path / "proof.json"
        _invoke(runner, tmp_path, [
            "dh", "prove", "--key", str(signer_key), "--merchant", merchant_pub,
            "--out", str(proof_file)], seed=20)
        out = _last_json(_invoke(runner, tmp_path, [
            "dh", "verify", "--proof", str(proof_file), "--merchant", merchant_pub]))
        assert out["valid"] is True
        # verifying against the wrong signal key fails with exit 1
        other_pub = json.loads(merchant_key.read_text())["public"]
        result = runner.invoke(cli, [
            "--state-dir", str(tmp_path / "state"),
            "dh", "verify", "--proof", str(proof_file),
            "--signal-pub", other_pub, "--merchant", merchant_pub])
        assert result.exit_code == 1
        assert json.loads(result.output.strip().splitlines()[-1])["valid"] is False


class TestScenarios:
    @pytest.mark.parametrize("name", ["basic", "offline", "anonymous", "tamper"])
    def test_runs_match_golden_transcripts(self, runner, name):
        result = runner.invoke(cli, ["--seed", "42", "scenario", name, "--yes"])
        assert result.exit_code == 0, result.output
        golden = (GOLDEN / f"scenario_{name}.jsonl").read_text()
        assert result.stdout == golden

    @pytest.mark.parametrize("name", ["basic", "offline", "anonymous", "tamper"])
    def test_reproducible_across_runs(self, runner, name):
        a = runner.invoke(cli, ["--seed", "7", "scenario", name, "--yes"]).stdout
        b = runner.invoke(cli, ["--seed", "7", "scenario", name, "--yes"]).stdout
        assert a == b
        for line in a.strip().splitlines():
            json.loads(line)  # every event is one JSON object per line

    def test_cli_offers_exactly_the_names_run_scenario_accepts(self):
        offered = list(scenario.params[0].type.choices)
        walkthroughs = {name[len("run_"):] for name in vars(scenarios)
                        if name.startswith("run_") and name != "run_scenario"}
        assert set(offered) == walkthroughs and len(offered) == len(walkthroughs)
        for name in offered:
            assert scenarios.run_scenario(name, 3)[-1]["action"]
        for name in ("Basic", "nope", "", "scenario"):
            with pytest.raises(ValueError, match="unknown scenario"):
                scenarios.run_scenario(name, 3)

    def test_interactive_decline_ends_gracefully(self, runner):
        result = runner.invoke(cli, ["--seed", "7", "scenario", "basic"], input="n\n")
        assert result.exit_code == 0
        lines = [json.loads(l) for l in result.stdout.strip().splitlines()]
        assert lines[-1]["action"] == "payment-declined"

    def test_interactive_approve_prompts_with_contract(self, runner):
        result = runner.invoke(cli, ["--seed", "7", "scenario", "basic"], input="y\n")
        assert result.exit_code == 0
        # the approval prompt renders the whole contract plus the alias
        assert "merchant alias" in result.stderr
        assert '"merchant_pubkey"' in result.stderr
        lines = [json.loads(l) for l in result.stdout.strip().splitlines()]
        assert lines[-1]["action"] == "receipt-checked"


# A fresh interpreter runs one command through ``cli.main``, then names every
# module it loaded on stderr.
COLD_PROGRAM = (
    "import json, sys\n"
    "from paytocontract.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "finally:\n"
    "    print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
)
NO_LEDGER_SKIPS = {"paytocontract.chain", "paytocontract.protocol", "paytocontract.scenarios", "cryptography"}


class TestColdImports:
    """Each command imports only the modules it runs, and prints what it always did."""

    @staticmethod
    def _cold(argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        result = subprocess.run([sys.executable, "-c", COLD_PROGRAM, *argv], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout), set(json.loads(result.stderr.strip().splitlines()[-1]))

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("cold")
        rng = Random(31)
        merchant, payer, reader = (KeyPair.generate(rng) for _ in range(3))
        template = sign_fields(build_template(merchant.public, {"terms": "net 30"}, rng),
                               merchant.private, ["merchant/pubkey", "merchant/terms"])
        order = build_contract(template, {"item": "lamp", "price": 4200, "delivery_address": "9 Elm St"}, rng)
        sealed = encrypt_leaf(order, "order/delivery_address", reader.public, rng)
        (work / "sealed.json").write_bytes(encode_contract(sealed))
        redacted = redact(order, "order/delivery_address")
        (work / "redacted.json").write_bytes(encode_contract(redacted))
        ledger = Ledger()
        funded = ledger.faucet([TxOutput(p2pkh_address(payer.public), 9000)])
        ledger.broadcast(build_transaction(ledger, [(funded.txid, 0, payer.private)],
                                           [TxOutput(payment_address(order), 4200)], p2pkh_address(payer.public)))
        CliConfig(work / "state", "json", None).save_ledger(ledger)
        return work, merchant, sealed, redacted, ledger

    def test_address_derive_loads_neither_contracts_nor_ledger_nor_openssl(self, files):
        work, merchant, *_ = files
        out, loaded = self._cold(["--state-dir", str(work / "state"), "address", "derive",
                                  "--pubbase", merchant.public.encode().hex(), "--label", "order-7"])
        pub = derive_public(merchant.public, b"order-7")
        assert out == {"pubkey": pub.encode().hex(), "address": p2pkh_address(pub).render()}
        skipped = NO_LEDGER_SKIPS | {"paytocontract.contract", "paytocontract.sealing"}
        try:
            hashlib.new("ripemd160")
            skipped.add("paytocontract.ripemd160")  # the pure fallback is for builds without it
        except ValueError:
            pass
        assert loaded & skipped == set()

    def test_contract_verify_loads_no_ledger_and_no_openssl(self, files):
        work, _, sealed, *_ = files
        out, loaded = self._cold(["--state-dir", str(work / "state"), "contract", "verify",
                                  str(work / "sealed.json")])
        report = verify_contract(sealed)
        assert out == {"ok": True, "static": dict(report.static), "dynamic": dict(report.dynamic),
                       "redacted": [], "encrypted": ["order/delivery_address"], "warnings": list(report.warnings)}
        assert "paytocontract.contract" in loaded and loaded & NO_LEDGER_SKIPS == set()

    def test_contract_payment_address_loads_no_ledger_and_no_openssl(self, files):
        work, _, _, redacted, _ = files
        out, loaded = self._cold(["--state-dir", str(work / "state"), "contract", "payment-address",
                                  str(work / "redacted.json")])
        assert out == {"address": payment_address(redacted).render()}
        assert loaded & NO_LEDGER_SKIPS == set()

    LEDGER_SKIPS = {"paytocontract.contract", "paytocontract.sealing", "paytocontract.protocol",
                    "paytocontract.scenarios"}

    def test_checkpointed_chain_show_loads_the_ledger_but_no_openssl_or_contracts(self, files):
        work, *_, ledger = files
        assert (work / "state" / "ledger.ckpt").exists()
        out, loaded = self._cold(["--state-dir", str(work / "state"), "chain", "show"])
        assert out == {"transactions": 2, "utxos": len(ledger.utxo), "issued": 9000}
        assert "paytocontract.chain" in loaded  # the checkpointed prefix verifies no signature
        assert loaded & (self.LEDGER_SKIPS | {"cryptography"}) == set()

    def test_chain_show_without_a_checkpoint_replays_through_openssl(self, files):
        work, *_, ledger = files
        state = work / "hand-written"
        state.mkdir()
        (state / "ledger.jsonl").write_bytes(ledger.to_jsonl())
        out, loaded = self._cold(["--state-dir", str(state), "chain", "show"])
        assert out == {"transactions": 2, "utxos": len(ledger.utxo), "issued": 9000}
        assert {"paytocontract.chain", "cryptography"} <= loaded  # the replay verifies through OpenSSL
        assert loaded & self.LEDGER_SKIPS == set()


# A fresh interpreter runs one command through ``cli.main``, then prints each
# fixed-base registry entry, (base, powers, tabled), on stderr.
TABLES_PROGRAM = (
    "import json, sys\n"
    "from paytocontract.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "finally:\n"
    "    curve = sys.modules['paytocontract.curve']\n"
    "    print(json.dumps([[b.encode().hex(), e.powers, e.rows is not None]\n"
    "                      for b, e in curve._fixed_bases.items()]), file=sys.stderr)\n"
)


class TestColdTables:
    """A cold ``p2c`` command raises the merchant key too few times to pay for its table, and builds none."""

    @staticmethod
    def _cold(argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        result = subprocess.run([sys.executable, "-c", TABLES_PROGRAM, *argv], env=env,
                                capture_output=True, text=True)
        return result.returncode, json.loads(result.stderr.strip().splitlines()[-1])

    def test_dispute_and_redeem_commands_build_no_table(self, tmp_path):
        rng = Random(32)
        merchant, signer = KeyPair.generate(rng), KeyPair.generate(rng)
        key = tmp_path / "signer.json"
        key.write_text(json.dumps({"private": signer.private.to_bytes().hex(),
                                   "public": signer.public.encode().hex()}))
        order = build_contract(build_template(merchant.public, {"terms": "net 30"}, rng),
                               {"item": "lamp", "price": 4200}, rng)
        (tmp_path / "order.json").write_bytes(encode_contract(order))
        state, m = str(tmp_path / "state"), merchant.public.encode().hex()
        proof = str(tmp_path / "proof.json")
        commands = [
            (["--seed", "3", "dh", "prove", "--key", str(key), "--merchant", m, "--out", proof], 2),
            (["dh", "verify", "--proof", proof, "--merchant", m], 1),
            (["--seed", "4", "redeem", "post", "--contract", str(tmp_path / "order.json"), "--key", str(key),
              "--merchant", m], 1),
        ]
        g = G.encode().hex()
        for argv, merchant_powers in commands:
            code, entries = self._cold(["--state-dir", state, *argv])
            assert code == 0, argv
            assert [base for base, _, _ in entries] == [g, m]
            assert entries[1][1:] == [merchant_powers, False]
            assert not any(tabled for _, _, tabled in entries), argv


# a fixed example sequence and no example database, so Tier-1 stays deterministic
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# hex that decodes and hex that does not, points on and off the curve, keys in and out of range
HEXISH = st.one_of(
    st.text("0123456789abcdefABCDEF", max_size=70),
    st.text("0123456789abcdef xzX-+_:", max_size=70),
    st.sampled_from([G.encode().hex(), (G ** 3).encode().hex(), "04" + G.encode().hex()[2:],
                     "02" + "00" * 31 + "05", "01".rjust(64, "0"), "00" * 32, format(ORDER, "x"),
                     "0x1", "1_0", "f" * 65]))
JSON_KEYS = ["private", "public", "shared", "commit_g", "commit_p", "response", "signal_pubkey",
             "push", "pubkey", "op", "digest"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | HEXISH | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(JSON_KEYS) | st.text(max_size=6),
                                                                inner, max_size=5),
    max_leaves=10)
PROOF_FIELDS = {key: HEXISH | JSON for key in ("shared", "commit_g", "commit_p", "response", "signal_pubkey")}
SCRIPT_ITEM = st.one_of(
    # JSON reads 1e999 as an infinite float
    st.fixed_dictionaries({"push": st.integers(-2, 20) | st.floats() | st.sampled_from([1e999, -1e999])
                           | HEXISH}),
    st.fixed_dictionaries({"pubkey": HEXISH}),
    st.fixed_dictionaries({"op": st.sampled_from([o.value for o in Opcode]) | st.text(max_size=12)}),
    st.fixed_dictionaries({"digest": HEXISH}),
    JSON)
FILE_CONTENTS = {
    "keyfile": (KEYFILE, st.fixed_dictionaries({"private": HEXISH | JSON}, optional={"public": HEXISH | JSON})),
    "script": (SCRIPT, st.lists(SCRIPT_ITEM, max_size=5)),
    "proof": (PROOF, st.fixed_dictionaries({}, optional=PROOF_FIELDS)),
}


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


class TestTrustBoundaryFuzz:
    """Whatever a keyfile, script or proof file holds, ``cli._read`` returns its
    value or raises ``ProtocolError`` or ``click.UsageError``, nothing else; so
    does each ``cli.Arg`` on any argument text."""

    @staticmethod
    def _holds(call):
        try:
            call()
        except (ProtocolError, click.UsageError):
            pass

    @pytest.mark.parametrize("kind", list(FILE_CONTENTS))
    def test_read_a_file_of_any_bytes_or_json(self, fuzz_file, kind):
        fmt, near_valid = FILE_CONTENTS[kind]

        @FUZZ
        @given(st.binary(max_size=200) | (near_valid | JSON).map(lambda obj: json.dumps(obj).encode()))
        def check(data):
            fuzz_file.write_bytes(data)
            self._holds(lambda: _read(fuzz_file, fmt))

        check()

    @pytest.mark.parametrize("name", [name for name, value in vars(p2c_module).items() if isinstance(value, Arg)])
    def test_an_argument_of_any_text(self, name):
        arg = getattr(p2c_module, name)
        # argv bytes that are not UTF-8 reach click as lone surrogates
        any_text = st.text(st.characters(exclude_categories=()), max_size=80)
        pieces = any_text | HEXISH

        @FUZZ
        @given(st.one_of(
            pieces,
            st.builds(lambda a, b: f"{a}:{b}", pieces | st.sampled_from(["p2pkh", "p2sh", "p2pk"]),
                      pieces | st.text("0123456789", max_size=25)),
            st.builds(lambda a, b: f"{a}={b}", pieces, pieces),
            st.lists(st.text("ab/", max_size=3), max_size=4).map("/".join)))
        def check(text):
            self._holds(lambda: arg.convert(text, None, None))

        check()
