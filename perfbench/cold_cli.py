"""cold_cli: fresh ``p2c`` processes against a state directory, one at a time.

Set-up writes a fixture state directory holding a ledger of a few hundred
transactions (half of them signed spends), a wallet keyfile and some
contract files, and computes in-process, with the library, the output
every command of the schedule must print.  Each run restores the state
directory from the fixture, runs one discarded warm-up command so that
the bytecode cache is filled, then runs command cycles, closed loop, one
client, one child process at a time.  A cycle holds three ledger reads,
two ledger writes and three commands that load no ledger.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import List, Optional

import paytocontract as pc
from paytocontract.chain import tx_to_json

from common import Outcome, keep_going, p2pkh

# what the installed ``p2c`` console script runs
ENTRY = "import sys; from paytocontract.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import paytocontract.cli; "
                "print((time.perf_counter() - t) * 1000)")
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 120
CLASSES = ("read", "write", "noledger")


@dataclass(frozen=True)
class Sizes:
    signed_txs: int = 120  # background keys, each funded by a faucet and spent once
    contracts: int = 4  # contract files for the commands that load no ledger
    max_cycles: int = 40  # command cycles the expected outputs are computed for


TINY = Sizes(signed_txs=4, contracts=1, max_cycles=2)


@dataclass
class Command:
    kind: str  # one of CLASSES
    args: List[str]  # after ``--state-dir DIR``
    expected: dict  # parsed stdout the command must print


@dataclass
class Inputs:
    work: Path
    fixture: Path
    cycles: List[List[Command]]
    warmup: List[str]
    shape: dict


def _keyfile(path: Path, key: pc.KeyPair):
    path.write_text(json.dumps({"private": format(key.private.value, "064x"),
                                "public": key.public.encode().hex()}, sort_keys=True, indent=2) + "\n")


def _outputs(ledger: pc.Ledger, addr: pc.Address) -> list:
    return [{"txid": t.hex(), "index": i, "amount": a} for t, i, a in ledger.scan_address(addr)]


def generate(seed: int, work: Path, sizes: Sizes = Sizes()) -> Inputs:
    from paytocontract.cli import CliConfig

    rng = Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    ledger = pc.Ledger()
    wallet = pc.KeyPair.generate(rng)
    wallet_addr = p2pkh(wallet)
    _keyfile(work / "wallet.json", wallet)
    funding = ledger.faucet([pc.TxOutput(wallet_addr, 10 ** 12)])
    shop = pc.Address("p2pkh", rng.randbytes(20))  # receives a quarter of the background spends
    for _ in range(sizes.signed_txs):
        key = pc.KeyPair.generate(rng)
        paid = ledger.faucet([pc.TxOutput(p2pkh(key), 50000)])
        dest = shop if rng.random() < 0.25 else pc.Address("p2pkh", rng.randbytes(20))
        tx = pc.build_transaction(ledger, [(paid.txid, 0, key.private)], [pc.TxOutput(dest, 50000)])
        ledger.broadcast(tx)
    fixture = work / "fixture"
    shutil.rmtree(fixture, ignore_errors=True)
    CliConfig(fixture, "json", None).save_ledger(ledger)
    fixture_txids = [tx.txid.hex() for tx in ledger.transactions]

    merchant = pc.KeyPair.generate(rng)
    template = pc.sign_fields(
        pc.build_template(merchant.public, {"terms": "cash on delivery"}, rng),
        merchant.private, ["merchant/pubkey", "merchant/terms"])
    noledger = []
    for c in range(sizes.contracts):
        fields = {f"line{j:02d}": f"sku-{rng.randrange(10 ** 6):06d}" for j in range(rng.randint(4, 40))}
        fields.update(price=rng.randint(1000, 90000), delivery_address=f"{rng.randint(1, 999)} Mill Road")
        contract = pc.build_contract(template, fields, rng)
        if c % 2:
            contract = pc.redact(contract, "order/delivery_address")
        path = work / f"contract{c}.json"
        path.write_bytes(pc.encode_contract(contract))
        report = pc.verify_contract(contract)
        label = f"order-{rng.randrange(10 ** 6)}"
        noledger.append([
            Command("noledger", ["contract", "payment-address", str(path)],
                    {"address": pc.payment_address(contract).render()}),
            Command("noledger", ["contract", "verify", str(path)],
                    {"ok": report.ok, "static": dict(report.static), "dynamic": dict(report.dynamic),
                     "redacted": list(report.redacted_paths), "encrypted": list(report.encrypted_paths),
                     "warnings": list(report.warnings)}),
            Command("noledger", ["address", "derive", "--pubbase", merchant.public.encode().hex(),
                                 "--label", label],
                    {"pubkey": pc.derive_public(merchant.public, label.encode()).encode().hex(),
                     "address": pc.derive_address(merchant.public, label.encode()).render()}),
        ])

    # the schedule, replayed on the in-memory ledger to get each expected output
    outpoint = (funding.txid, 0)
    cycles = []
    for n in range(sizes.max_cycles):
        pay_to, amount = pc.Address("p2pkh", rng.randbytes(20)), rng.randint(1000, 50000)
        total = ledger.utxo[outpoint].amount
        send = pc.build_transaction(ledger, [(*outpoint, wallet.private)],
                                    [pc.TxOutput(pay_to, amount), pc.TxOutput(wallet_addr, total - amount)])
        scan = Command("read", ["chain", "scan", "--address", shop.render()],
                       {"address": shop.render(), "outputs": _outputs(ledger, shop)})
        ledger.broadcast(send)
        send_cmd = Command("write", ["chain", "send", "--key", str(work / "wallet.json"),
                                     "--outpoint", f"{outpoint[0].hex()}:{outpoint[1]}",
                                     "--to", pay_to.render(), "--amount", str(amount),
                                     "--change", wallet_addr.render()],
                           {"txid": send.txid.hex(), "outputs": 2})
        outpoint = (send.txid, 1)
        show = Command("read", ["chain", "show"], {"transactions": len(ledger), "utxos": len(ledger.utxo),
                                                   "issued": ledger.total_issued})
        minted_to, minted = pc.Address("p2pkh", rng.randbytes(20)), rng.randint(1, 10 ** 6)
        coinbase = ledger.faucet([pc.TxOutput(minted_to, minted)])
        faucet = Command("write", ["chain", "faucet", "--to", minted_to.render(), "--amount", str(minted)],
                         {"txid": coinbase.txid.hex(), "index": 0, "amount": minted})
        txid = rng.choice(fixture_txids)
        show_tx = Command("read", ["chain", "show", txid],
                          {"txid": txid, "transaction": tx_to_json(ledger.get_transaction(bytes.fromhex(txid)))})
        pay_addr, verify, derive = noledger[n % len(noledger)]
        cycles.append([scan, send_cmd, pay_addr, show, faucet, verify, show_tx, derive])

    shape = {
        "loop": "closed, 1 client, 1 child process at a time",
        "fixture_txs": len(fixture_txids),
        "fixture_signed_txs": sizes.signed_txs,
        "cycle": "read: chain scan, chain show, chain show <txid>; write: chain send, chain faucet; "
                 "noledger: contract payment-address, contract verify, address derive",
        "contract_files": sizes.contracts,
        "ledger_growth_per_cycle": 2,
    }
    warmup = noledger[0][2].args
    return Inputs(work, fixture, cycles, warmup, shape)


def _restore(inputs: Inputs, name: str) -> Path:
    state = inputs.work / name
    shutil.rmtree(state, ignore_errors=True)
    shutil.copytree(inputs.fixture, state)
    return state


def _child_env() -> dict:
    src = str(Path(pc.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src)


def _child(args: List[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", ENTRY, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def _parsed(stdout: str):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def _in_process(args: List[str]):
    """Run one command through ``paytocontract.cli.main``; return (exit code, stdout)."""
    from paytocontract import cli

    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, buf.getvalue()


def _check(out: Outcome, cmd: Command, code: int, stdout: str, where: str):
    out.record(code == 0 and _parsed(stdout) == cmd.expected,
               f"{where} {' '.join(cmd.args[:2])}: exit {code}, stdout {stdout.strip()[:200]!r}")


def run(inputs: Inputs, seconds: float, items: Optional[int] = None) -> Outcome:
    """Command cycles in fresh processes until ``seconds`` pass (or ``items`` cycles are done)."""
    out = Outcome()
    env = _child_env()
    state = _restore(inputs, "state")
    _child(["--state-dir", str(state), *inputs.warmup], env, inputs.work)
    start = time.perf_counter()
    while keep_going(start, seconds, out.items, items) and out.items < len(inputs.cycles):
        for cmd in inputs.cycles[out.items]:
            t0 = time.perf_counter()
            proc = _child(["--state-dir", str(state), *cmd.args], env, inputs.work)
            t1 = time.perf_counter()
            out.add(f"cli_{cmd.kind}_ms", t1 - t0)
            out.work += 1
            out.busy_s += t1 - t0
            _check(out, cmd, proc.returncode, proc.stdout, "child")
        out.items += 1
    return out


def run_traced(inputs: Inputs, seconds: float, tracer) -> tuple:
    """The traced mode: each command as a child, then in-process untraced, then traced.

    Returns (outcome, untraced in-process seconds, traced in-process
    seconds).  The three runs of a command follow each other, on three
    copies of the state, so that the host's speed drift cancels out of the
    overhead ratio and of ``cli.process_ms``.
    """
    out = Outcome()
    env = _child_env()
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=inputs.work, env=env,
                               capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        out.record(probe.returncode == 0, f"import probe exit {probe.returncode}")
        if probe.returncode == 0:
            tracer.notes["cli.import_ms"].append(float(probe.stdout.strip()))
    child_state, plain_state, traced_state = (_restore(inputs, n) for n in ("state", "plain", "traced"))
    _child(["--state-dir", str(child_state), *inputs.warmup], env, inputs.work)
    _in_process(["--state-dir", str(plain_state), *inputs.warmup])
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    while keep_going(start, seconds, out.items, None) and out.items < len(inputs.cycles):
        for cmd in inputs.cycles[out.items]:
            t0 = time.perf_counter()
            proc = _child(["--state-dir", str(child_state), *cmd.args], env, inputs.work)
            t1 = time.perf_counter()
            code, stdout = _in_process(["--state-dir", str(plain_state), *cmd.args])
            t2 = time.perf_counter()
            with tracer.installed():
                tracer.begin_op()
                t3 = time.perf_counter()
                traced_code, traced_stdout = tracer.call(
                    "cli.command", _in_process, ["--state-dir", str(traced_state), *cmd.args])
                t4 = time.perf_counter()
            plain_s += t2 - t1
            traced_s += t4 - t3
            tracer.notes["cli.process_ms"].append((t1 - t0 - (t2 - t1)) * 1000.0)
            _check(out, cmd, proc.returncode, proc.stdout, "child")
            _check(out, cmd, code, stdout, "in-process")
            _check(out, cmd, traced_code, traced_stdout, "traced")
        out.items += 1
    return out, plain_s, traced_s
