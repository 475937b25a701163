"""The golden ``p2c`` session: one seeded run of every leaf command of ``p2c``
(``scenario`` aside, which the scenario goldens cover), of the exit-1 and
exit-2 errors and of every ``--help``, each line holding a command's argv,
exit code, stdout, stderr and the SHA-256 of every file in its state
directory and of its ``--out`` file after it.  The test runs the session in-process and compares it with
``golden/cli_session.jsonl`` line by line.

A changed line needs a ``CHANGES.md`` entry that says why; a new command
appends its own lines.  To rewrite the file, run
``PYTHONPATH=src python tests/test_cli_session.py``.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from paytocontract.cli import cli, main
from paytocontract.curve import Point
from paytocontract.wallet import p2pkh_address

GOLDEN = Path(__file__).parent / "golden" / "cli_session.jsonl"

# the files the session reads that no command writes
INPUTS = {
    # a 1-of-2 multisig over 2G and 3G
    "script.json": b'[{"push":1},'
                   b'{"pubkey":"02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"},'
                   b'{"pubkey":"02f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"},'
                   b'{"push":2},{"op":"OP_CHECKMULTISIG"}]\n',
    "bad/ledger.jsonl": b'{"bad json\n',
    # private key 1 beside the public key 2G
    "mismatched-key.json": b'{"private":"0000000000000000000000000000000000000000000000000000000000000001",'
                           b'"public":"02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"}\n',
    "malformed-contract.json": b'[7]\n',
    # a well-formed contract whose merchant key has x = 5, which no point on the curve has
    "off-curve-contract.json": b'{"merchant_pubkey":"020000000000000000000000000000000000000000000000000000000000000005",'
                               b'"root":{"children":{},"kind":"branch","salt":"00000000000000000000000000000000"},'
                               b'"static_signatures":{}}\n',
    "malformed-script.json": b'[{"push":1},"zz"]\n',
    "malformed-proof.json": b'{"shared":"zz"}\n',
    # a contract for the merchant key 2G, its merchant branch redacted
    "foreign-contract.json": b'{"merchant_pubkey":"02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",'
                             b'"root":{"children":{"merchant":{"digest":"' + b"00" * 32 + b'","kind":"redacted"}},'
                             b'"kind":"branch","salt":"00000000000000000000000000000000"},"static_signatures":{}}\n',
}

# frozen at first implementation: SHA-256 of each file the session's first nine
# commands write (keys, template, order, redaction, encryption, faucet, payment)
SEEDED_P2C_FILES = {
    "contract.json": "f2c17653d8c009e1e30a23d076df6de44d1ab21f2ebfd8ae5b133487afc89541",
    "merchant.json": "c6885a0af86af5843131fd8de60f07742855a3bc8eaeef79ea0a9d09ae4914b7",
    "payer.json": "1cf5de29d464fe2ea9da6b448829f1ff754590503937cb75f18dd7497ce58f4a",
    "redacted.json": "ad21062f0eb70bf4bc5f3aac3b55b8249321fa4e236c2f77738819b3ca0d35de",
    "sealed.json": "7a377c2330d8c0d8bd39bf9477e9649fb18bcb8f598ba147708327882f69b98d",
    "template.json": "17ca19e7ecdcbc7b96bcf33383f034373fc3f131884327b8c9a5ced0fe62a634",
    "ledger.ckpt": "077758bfd1ccbce67326cf0f367c6b5d66a990c173f6bf2a2defd8fc1496a574",
    "ledger.jsonl": "08cc8506dd7e25156857303c6bbc383b7a5ccddbdfd8351373023f3ded31635d",
}

EXIT_1_CODES = {"missing-utxo", "spent-outpoint", "insufficient-funds", "key-does-not-match-output",
                "no-such-transaction", "corrupt-record", "invalid-keyfile", "invalid-contract", "invalid-point",
                "invalid-script", "invalid-proof", "no-signal-from-that-key", "bad-ciphertext",
                "foreign-contract"}


class _Entry:
    """``p2c``'s entry point in the shape ``CliRunner`` invokes: ``main`` prints
    a library error's code and exits 1."""

    name = "p2c"

    @staticmethod
    def main(args, prog_name, **_):
        main(list(args))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(runner: CliRunner, argv: list) -> dict:
    """One command in the current directory, as its golden line."""
    result = runner.invoke(_Entry, argv, env={"COLUMNS": "80"})  # help text wraps at the terminal width
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    state = Path(argv[argv.index("--state-dir") + 1])
    written = list(state.iterdir()) if state.is_dir() else []
    if "--out" in argv:
        written.append(Path(argv[argv.index("--out") + 1]))
    return {"argv": argv, "exit": result.exit_code, "stdout": result.stdout, "stderr": result.stderr,
            "files": {p.as_posix(): _sha256(p) for p in sorted(written) if p.is_file()}}


def _session(runner: CliRunner) -> list:
    """Run the session in the current directory and return its lines."""
    for name, data in INPUTS.items():
        Path(name).parent.mkdir(exist_ok=True)
        Path(name).write_bytes(data)
    lines = []

    def p2c(*args, seed=None, state="state", fmt="json"):
        argv = ["--state-dir", state, "--format", fmt] + (["--seed", str(seed)] if seed is not None else [])
        lines.append(_run(runner, argv + list(args)))
        return json.loads(lines[-1]["stdout"]) if fmt == "json" and lines[-1]["exit"] == 0 else None

    merchant = p2c("keygen", "--out", "merchant.json", seed=21)["public"]
    payer = p2c("keygen", "--out", "payer.json", seed=22)["public"]
    p2c("contract", "template", "--merchant-key", "merchant.json", "--static", "terms=net 30",
        "--static", "pricelist=lamp=4200", "--out", "template.json", seed=23)
    p2c("contract", "build", "--template", "template.json", "--field", "item=lamp", "--field", "price=4200",
        "--field", "delivery_address=9 Elm St", "--out", "contract.json", seed=24)
    p2c("contract", "redact", "contract.json", "--path", "order/delivery_address", "--out", "redacted.json")
    p2c("contract", "encrypt-leaf", "contract.json", "--path", "order/delivery_address",
        "--recipient", payer, "--out", "sealed.json", seed=25)
    pay_to = p2c("contract", "payment-address", "redacted.json")["address"]
    payer_address = p2pkh_address(Point.decode(bytes.fromhex(payer))).render()
    funded = p2c("chain", "faucet", "--to", payer_address, "--amount", "9000")["txid"]
    paid = p2c("chain", "send", "--key", "payer.json", "--outpoint", f"{funded}:0", "--to", pay_to,
               "--amount", "4200", "--change", payer_address)["txid"]

    p2c("contract", "sign", "contract.json", "--key", "merchant.json", "--path", "order", "--out", "signed.json")
    p2c("contract", "verify", "signed.json")
    p2c("contract", "hash", "redacted.json")
    p2c("address", "derive", "--pubbase", merchant, "--label", "savings1")
    p2c("address", "p2sh", "--script", "script.json")
    p2c("address", "derive-script", "--script", "script.json", "--label", "savings1")
    p2c("chain", "scan", "--address", pay_to)
    p2c("chain", "show", paid)
    p2c("signal", "attach", "--key", "payer.json", "--merchant", merchant, "--outpoint", f"{paid}:1",
        "--amount", "10", "--contract", "contract.json", "--payment-amount", "4200",
        "--change", payer_address, seed=26)
    p2c("signal", "scan", "--key", "merchant.json")
    p2c("dh", "prove", "--key", "payer.json", "--merchant", merchant, "--out", "proof.json", seed=27)
    p2c("dh", "verify", "--proof", "proof.json", "--merchant", merchant)
    filename = p2c("redeem", "post", "--contract", "contract.json", "--key", "payer.json", "--merchant", merchant,
                   seed=28)["filename"]
    p2c("redeem", "retrieve", "--key", "merchant.json", "--signal-pub", payer)
    p2c("chain", "show", fmt="text")

    # library errors exit 1 with their code
    spare = p2c("chain", "faucet", "--to", payer_address, "--amount", "500")["txid"]
    send = ["chain", "send", "--key", "payer.json", "--to", pay_to, "--amount", "100"]
    p2c(*send, "--outpoint", f"{'00' * 32}:0")
    p2c(*send, "--outpoint", f"{spare}:0", "--outpoint", f"{spare}:0")
    p2c(*send[:-1], "501", "--outpoint", f"{spare}:0")
    p2c(*send[:3], "merchant.json", *send[4:], "--outpoint", f"{spare}:0")
    p2c("chain", "show", "00" * 32)
    p2c("chain", "show", state="bad")
    # argument kinds exit 2 with a usage error
    p2c("chain", "show", "zz")
    p2c(*send, "--outpoint", "zz:0")
    # files that are not what they claim: each exits 1 with its code
    p2c("dh", "prove", "--key", "mismatched-key.json", "--merchant", merchant)
    p2c("contract", "hash", "malformed-contract.json")
    p2c("contract", "hash", "off-curve-contract.json")
    p2c("address", "p2sh", "--script", "malformed-script.json")
    p2c("dh", "verify", "--proof", "malformed-proof.json", "--merchant", merchant)
    p2c("redeem", "retrieve", "--key", "merchant.json", "--signal-pub", merchant)
    # the same ledger beside a filestore whose record under the signalled name
    # is not the sealed contract: hand-written, then posted for another merchant
    for state in ("forged", "foreign"):
        Path(state).mkdir()
        for name in ("ledger.jsonl", "ledger.ckpt"):
            shutil.copyfile(Path("state", name), Path(state, name))
    Path("forged", "filestore.jsonl").write_text(json.dumps({"data": "00" * 40, "name": filename}) + "\n")
    p2c("redeem", "retrieve", "--key", "merchant.json", "--signal-pub", payer, state="forged")
    p2c("redeem", "post", "--contract", "foreign-contract.json", "--key", "payer.json", "--merchant", merchant,
        state="foreign", seed=29)
    p2c("redeem", "retrieve", "--key", "merchant.json", "--signal-pub", payer, state="foreign")
    # the help of p2c, of each group and of each command
    for path, _ in _commands(cli):
        lines.append(_run(runner, ["--state-dir", "state", "--format", "json", *path, "--help"]))
    return lines


def _commands(group, prefix=()):
    """(path, command) of ``group`` and of each group and command below it, in preorder."""
    yield prefix, group
    for name, command in group.commands.items():
        if hasattr(command, "commands"):
            yield from _commands(command, prefix + (name,))
        else:
            yield prefix + (name,), command


def _command_of(argv: list) -> tuple:
    """The command words of an argv: the group names after the global options, and the leaf's."""
    command, path = cli, ()
    for word in argv[6:] if argv[4] == "--seed" else argv[4:]:
        if not hasattr(command, "commands"):
            break
        command, path = command.commands[word], path + (word,)
    return path


def test_session_matches_its_golden(tmp_path, monkeypatch):
    golden = [json.loads(line) for line in GOLDEN.read_bytes().splitlines()]
    monkeypatch.chdir(tmp_path)
    lines = _session(CliRunner())
    assert len(lines) == len(golden)
    for number, (line, expected) in enumerate(zip(lines, golden), 1):
        assert line == expected, f"line {number}: {' '.join(expected['argv'])}"

    # every leaf command succeeds once, and every listed error code and usage error shows
    helps = [line for line in golden if line["argv"][-1] == "--help"]
    runs = [line for line in golden if line not in helps]
    leaves = {path for path, command in _commands(cli) if not hasattr(command, "commands")} - {("scenario",)}
    covered = {_command_of(line["argv"]) for line in runs if line["exit"] == 0}
    assert leaves <= covered, leaves - covered
    codes = {json.loads(line["stdout"])["error"] for line in golden if line["exit"] == 1}
    assert codes == EXIT_1_CODES
    usage = [line for line in golden if line["exit"] == 2]
    assert len(usage) == 2 and all("Error: Invalid value" in line["stderr"] for line in usage)
    # and every group and command shows its help, once
    assert [tuple(line["argv"][4:-1]) for line in helps] == [path for path, _ in _commands(cli)]
    assert all(line["exit"] == 0 and line["stdout"].startswith("Usage: p2c ") for line in helps)

    # the first nine commands write the files frozen when the session was a byte check of its own
    seeded = {}
    for line in golden[:9]:
        seeded.update({Path(name).name: digest for name, digest in line["files"].items()})
    assert seeded == SEEDED_P2C_FILES


def _cold(state: Path, *args) -> subprocess.CompletedProcess:
    """One ``p2c`` command in a fresh interpreter, started as a user starts it."""
    return subprocess.run([sys.executable, "-m", "paytocontract.cli", "--state-dir", str(state), *args],
                          capture_output=True, text=True)


def test_cold_commands_exit_with_the_code_of_their_outcome(tmp_path):
    # the session runs in-process; three children check the process boundary itself:
    # a success, a library error and a usage error, none with a traceback
    state = tmp_path / "state"
    keygen = _cold(state, "keygen")
    assert (keygen.returncode, keygen.stderr) == (0, "")
    assert set(json.loads(keygen.stdout)) == {"private", "public"}
    missing = _cold(state, "chain", "show", "ffff")
    assert (missing.returncode, missing.stderr) == (1, "")
    assert json.loads(missing.stdout) == {"error": "no-such-transaction", "message": "no such transaction: ffff"}
    usage = _cold(state, "chain", "show", "zz")
    assert (usage.returncode, usage.stdout) == (2, "")
    assert usage.stderr.startswith("Usage: p2c chain show [OPTIONS] [TXID]\n")
    assert "Error: Invalid value for '[TXID]': bad txid 'zz'" in usage.stderr
    assert not any("Traceback" in child.stderr for child in (keygen, missing, usage))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            session = _session(CliRunner())
        finally:
            os.chdir(here)
    GOLDEN.write_bytes(b"".join(json.dumps(line, sort_keys=True).encode() + b"\n" for line in session))
