import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from paytocontract.cli import cli, main

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
         "bad outpoint 'zz'"),
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
        key, script = tmp_path / "key.json", tmp_path / "script.json"
        key.write_text(json.dumps({"private": "01".rjust(64, "0")}))
        script.write_text(json.dumps([{"push": 1}, {"pubkey": self.MERCHANT}, {"push": 1},
                                      {"op": "OP_CHECKMULTISIG"}]))
        state = tmp_path / "fresh"
        files = {"{key}": str(key), "{script}": str(script)}
        code, _, err = _run_main(capsys, ["--state-dir", str(state)] + [files.get(a, a) for a in args])
        assert code == 2
        assert message in err
        assert not state.exists()


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
    ])
    def test_malformed_keyfile(self, capsys, tmp_path, text):
        key = tmp_path / "key.json"
        key.write_text(text)
        assert _domain_error(capsys, [
            "--state-dir", str(tmp_path / "state"), "dh", "prove", "--key", str(key),
            "--merchant", self.MERCHANT]) == "invalid-keyfile"

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

    @pytest.mark.parametrize("text", ['[{"push": 1}, "zz"]', '[{"pubkey": "zz"}]', "[]", "{}"])
    def test_malformed_script_element(self, capsys, tmp_path, text):
        path, argv, _ = self._file_and_argv(tmp_path, "script")
        path.write_text(text)
        assert _domain_error(capsys, argv) == "invalid-script"

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
        assert os.listdir(state) == ["ledger.jsonl"]  # a save leaves no temp file

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            main(faucet)
        assert (state / "ledger.jsonl").read_bytes() == before
        assert os.listdir(state) == ["ledger.jsonl"]

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
