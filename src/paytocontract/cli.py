"""Command-line surface: one subcommand per library operation.

State (ledger, filestore) persists as JSONL under ``--state-dir`` so
sessions can resume; scenario subcommands always run against fresh
in-memory state and print an event transcript.  All digests, scalars, and
points are lowercase hex on this surface; addresses render as
``kind:hexdigest``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Optional, Tuple

import click

from . import contract as contract_mod
from .chain import MAX_AMOUNT, FileStore, Ledger, TxOutput, build_transaction, tx_to_json
from .curve import KeyPair, Point, Scalar, random_scalar
from .errors import MALFORMED, ProtocolError
from .protocol import (
    MerchantIdentity,
    DlegProof,
    SignalVariant,
    attach_signal,
    combined_pay_and_signal,
    merchant_retrieve,
    merchant_scan_signals,
    prove_dh,
    redeem_post,
    signal_value,
    verify_dh,
)
from .scenarios import SCENARIOS, run_scenario
from .wallet import (
    Address,
    DerivationScheme,
    derive_public,
    derive_script,
    p2pkh_address,
    p2sh_address,
    script_from_json,
    script_to_json,
)


# -- file I/O: every file p2c reads or writes goes through these two --------

def _read(path, fmt: tuple):
    """The one reader.  ``fmt`` is a file format: an error code and a decoder
    from bytes.  A file it cannot decode is a ``ProtocolError`` with that code,
    as the file, not the command line, is at fault; a directory is a usage error."""
    code, decode = fmt
    try:
        data = Path(path).read_bytes()
    except IsADirectoryError:
        raise click.UsageError(f"{path} is a directory") from None
    try:
        return decode(data)
    except MALFORMED as exc:
        raise ProtocolError(code, f"{path}: {exc!r}") from None


def _write(path: Path, data: bytes):
    """The one writer: the bytes go to a temporary file beside ``path``, which
    then replaces it in one rename, so the old file survives a failed save."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _json(data: bytes):
    return json.loads(data.decode())


def _proof(data: bytes) -> Tuple[DlegProof, Point]:
    """A ``dh prove --out`` record: the proof and its signal pubkey."""
    obj = _json(data)
    shared, commit_g, commit_p, signal = (Point.decode(bytes.fromhex(obj[k])) for k in
                                          ("shared", "commit_g", "commit_p", "signal_pubkey"))
    return DlegProof(shared, commit_g, commit_p, Scalar(int(obj["response"], 16))), signal


KEYFILE = ("invalid keyfile", lambda data: KeyPair.from_private(Scalar(int(_json(data)["private"], 16))))
CONTRACT = ("invalid contract", contract_mod.decode_contract)
SCRIPT = ("invalid script", lambda data: script_from_json(_json(data)))
PROOF = ("invalid proof", _proof)


@dataclass
class CliConfig:
    state_dir: Path
    fmt: str
    seed: Optional[int]

    def rng(self) -> Optional[Random]:
        return Random(self.seed) if self.seed is not None else None

    def _load(self, store, name: str):
        path = self.state_dir / name
        return _read(path, ("corrupt record", store.from_jsonl)) if path.exists() else store()

    def load_ledger(self) -> Ledger:
        return self._load(Ledger, "ledger.jsonl")

    def save_ledger(self, ledger: Ledger):
        _write(self.state_dir / "ledger.jsonl", ledger.to_jsonl().encode())

    def load_filestore(self) -> FileStore:
        return self._load(FileStore, "filestore.jsonl")

    def save_filestore(self, fs: FileStore):
        _write(self.state_dir / "filestore.jsonl", fs.to_jsonl().encode())

    def emit(self, obj: dict):
        if self.fmt == "json":
            click.echo(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        else:
            for key in sorted(obj):
                value = obj[key]
                if isinstance(value, (dict, list)):
                    value = json.dumps(value, sort_keys=True)
                click.echo(f"{key}: {value}")


pass_config = click.make_pass_decorator(CliConfig)

AMOUNT = click.IntRange(0, MAX_AMOUNT)
IN_FILE = click.Path(exists=True, dir_okay=False)
OUT_FILE = click.Path(dir_okay=False, path_type=Path)


@click.group()
@click.option("--state-dir", type=click.Path(file_okay=False, path_type=Path),
              default=Path("./p2c-state"), show_default=True,
              help="Directory for ledger/filestore persistence.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json",
              show_default=True, help="Output format.")
@click.option("--seed", type=int, default=None,
              help="Deterministic randomness for reproducible runs.")
@click.pass_context
def cli(ctx, state_dir: Path, fmt: str, seed: Optional[int]):
    """Pay-to-contract payments against a simulated ledger and filestore."""
    ctx.obj = CliConfig(state_dir, fmt, seed)


# -- helpers ----------------------------------------------------------------

def _arg(text: str, what: str, parse=bytes.fromhex):
    """A command-line value that ``parse`` rejects is a usage error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise click.UsageError(f"bad {what} {text!r}: {exc}")


def _point(text: str) -> Point:
    return Point.decode(_arg(text, "point"))


def _outpoints(ctx, param, values):
    """Click callback: each ``txid:index`` as (txid bytes, index)."""
    parsed = []
    for text in values:
        txid, sep, index = text.rpartition(":")
        if not sep or not (index.isascii() and index.isdigit()):
            raise click.UsageError(f"bad outpoint {text!r}: not txid:index")
        parsed.append((_arg(txid, "outpoint"), int(index)))
    return parsed


def _label(label: Optional[str], label_hex: Optional[str]) -> bytes:
    if (label is None) == (label_hex is None):
        raise click.UsageError("give exactly one of --label / --label-hex")
    return label.encode() if label is not None else _arg(label_hex, "label")


def _save_contract(cfg: CliConfig, c, out: Path, **summary):
    _write(out, contract_mod.encode_contract(c))
    cfg.emit({"written": str(out), **summary})


def _save_record(cfg: CliConfig, record: dict, out: Optional[Path], summary: str):
    """Print ``record``, or write it to ``out`` and print its ``summary`` field."""
    if out is None:
        cfg.emit(record)
    else:
        _write(out, (json.dumps(record, sort_keys=True, indent=2) + "\n").encode())
        cfg.emit({summary: record[summary], "written": str(out)})


def _fields(pairs) -> dict:
    fields = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise click.UsageError(f"field {pair!r} is not name=value")
        fields[name] = value
    return fields


# -- keys and addresses -------------------------------------------------------

@cli.command()
@click.option("--out", type=OUT_FILE, default=None, help="Write the keypair to this file.")
@pass_config
def keygen(cfg: CliConfig, out: Optional[Path]):
    """Generate a keypair (reproducible with --seed)."""
    pair = KeyPair.from_private(random_scalar(cfg.rng()))
    record = {"private": format(pair.private.value, "064x"),
              "public": pair.public.encode().hex()}
    _save_record(cfg, record, out, "public")


@cli.group()
def address():
    """Derive addresses and scripts from a public base."""


@address.command("derive")
@click.option("--pubbase", required=True, help="Compressed pubkey hex.")
@click.option("--label", default=None, help="Label text (UTF-8).")
@click.option("--label-hex", default=None, help="Label as raw hex bytes.")
@click.option("--scheme", type=click.Choice([s.value for s in DerivationScheme]),
              default=DerivationScheme.ADDITIVE.value, show_default=True)
@pass_config
def address_derive(cfg: CliConfig, pubbase: str, label: Optional[str],
                   label_hex: Optional[str], scheme: str):
    """Derived pubkey and pay-to-pubkey-hash address for a label."""
    raw = _label(label, label_hex)
    pub = derive_public(_point(pubbase), raw, DerivationScheme(scheme))
    cfg.emit({"pubkey": pub.encode().hex(), "address": p2pkh_address(pub).render()})


@address.command("derive-script")
@click.option("--script", "script_path", required=True, type=IN_FILE)
@click.option("--label", default=None)
@click.option("--label-hex", default=None)
@pass_config
def address_derive_script(cfg: CliConfig, script_path: str, label: Optional[str],
                          label_hex: Optional[str]):
    """Derive every pubkey in a base script; prints script JSON and p2sh address."""
    raw = _label(label, label_hex)
    derived = derive_script(_read(script_path, SCRIPT), raw)
    cfg.emit({"script": script_to_json(derived),
              "address": p2sh_address(derived).render()})


@address.command("p2sh")
@click.option("--script", "script_path", required=True, type=IN_FILE)
@pass_config
def address_p2sh(cfg: CliConfig, script_path: str):
    """Pay-to-script-hash address of a script file."""
    cfg.emit({"address": p2sh_address(_read(script_path, SCRIPT)).render()})


# -- contracts ----------------------------------------------------------------

@cli.group()
def contract():
    """Build, sign, verify, and transform contracts."""


@contract.command("template")
@click.option("--merchant-key", required=True, type=IN_FILE)
@click.option("--static", "static_pairs", multiple=True, help="name=value static field.")
@click.option("--dynamic-key", default=None, help="Tracking pubkey hex for dynamic fields.")
@click.option("--out", required=True, type=OUT_FILE)
@pass_config
def contract_template(cfg: CliConfig, merchant_key: str, static_pairs, dynamic_key, out: Path):
    """Create a signed contract template (static fields under merchant/)."""
    pair = _read(merchant_key, KEYFILE)
    template = contract_mod.build_template(
        pair.public, _fields(static_pairs), cfg.rng(),
        dynamic_signing_key=_point(dynamic_key) if dynamic_key else None,
    )
    paths = ["merchant/pubkey"] + [f"merchant/{n}" for n in _fields(static_pairs)]
    _save_contract(cfg, contract_mod.sign_fields(template, pair.private, paths), out,
                   signed_paths=paths)


@contract.command("build")
@click.option("--template", "template_path", required=True, type=IN_FILE)
@click.option("--field", "field_pairs", multiple=True, help="name=value order field.")
@click.option("--out", required=True, type=OUT_FILE)
@pass_config
def contract_build(cfg: CliConfig, template_path: str, field_pairs, out: Path):
    """Fill order fields into a template."""
    built = contract_mod.build_contract(_read(template_path, CONTRACT),
                                        _fields(field_pairs), cfg.rng())
    _save_contract(cfg, built, out, contract_hash=contract_mod.contract_hash(built).hex())


@contract.command("sign")
@click.argument("contract_path", type=IN_FILE)
@click.option("--key", "key_path", required=True, type=IN_FILE)
@click.option("--path", "paths", multiple=True, required=True)
@click.option("--out", required=True, type=OUT_FILE)
@pass_config
def contract_sign(cfg: CliConfig, contract_path: str, key_path: str, paths, out: Path):
    """Sign subtree digests at the given field paths."""
    signed = contract_mod.sign_fields(_read(contract_path, CONTRACT),
                                      _read(key_path, KEYFILE).private, list(paths))
    _save_contract(cfg, signed, out, signed_paths=list(paths))


@contract.command("verify")
@click.argument("contract_path", type=IN_FILE)
@pass_config
def contract_verify(cfg: CliConfig, contract_path: str):
    """Check every signature; nonzero exit when any is invalid."""
    report = contract_mod.verify_contract(_read(contract_path, CONTRACT))
    cfg.emit({
        "ok": report.ok,
        "static": dict(report.static),
        "dynamic": dict(report.dynamic),
        "redacted": list(report.redacted_paths),
        "encrypted": list(report.encrypted_paths),
        "warnings": list(report.warnings),
    })
    if not report.ok:
        sys.exit(1)


@contract.command("redact")
@click.argument("contract_path", type=IN_FILE)
@click.option("--path", "paths", multiple=True, required=True)
@click.option("--out", required=True, type=OUT_FILE)
@pass_config
def contract_redact(cfg: CliConfig, contract_path: str, paths, out: Path):
    """Replace subtrees by their digests; the contract hash is unchanged."""
    c = _read(contract_path, CONTRACT)
    for p in paths:
        c = contract_mod.redact(c, p)
    _save_contract(cfg, c, out, redacted=list(paths),
                   contract_hash=contract_mod.contract_hash(c).hex())


@contract.command("encrypt-leaf")
@click.argument("contract_path", type=IN_FILE)
@click.option("--path", "path", required=True)
@click.option("--recipient", required=True, help="Recipient pubkey hex.")
@click.option("--out", required=True, type=OUT_FILE)
@pass_config
def contract_encrypt_leaf(cfg: CliConfig, contract_path: str, path: str, recipient: str, out: Path):
    """Encrypt one leaf to a pubkey (do this before signing/paying)."""
    c = contract_mod.encrypt_leaf(_read(contract_path, CONTRACT), path,
                                  _point(recipient), cfg.rng())
    _save_contract(cfg, c, out, encrypted=path,
                   contract_hash=contract_mod.contract_hash(c).hex())


@contract.command("hash")
@click.argument("contract_path", type=IN_FILE)
@pass_config
def contract_hash_cmd(cfg: CliConfig, contract_path: str):
    """Root digest (stable under redaction)."""
    cfg.emit({"contract_hash": contract_mod.contract_hash(_read(contract_path, CONTRACT)).hex()})


@contract.command("payment-address")
@click.argument("contract_path", type=IN_FILE)
@pass_config
def contract_payment_address(cfg: CliConfig, contract_path: str):
    """The address the contract determines."""
    cfg.emit({"address": contract_mod.payment_address(_read(contract_path, CONTRACT)).render()})


# -- chain ----------------------------------------------------------------------

@cli.group()
def chain():
    """Operate the simulated ledger."""


@chain.command("faucet")
@click.option("--to", required=True, help="Address kind:hexdigest.")
@click.option("--amount", required=True, type=AMOUNT)
@pass_config
def chain_faucet(cfg: CliConfig, to: str, amount: int):
    """Mint a coinbase output (test setup)."""
    ledger = cfg.load_ledger()
    tx = ledger.faucet([TxOutput(_arg(to, "address", Address.parse), amount)])
    cfg.save_ledger(ledger)
    cfg.emit({"txid": tx.txid.hex(), "index": 0, "amount": amount})


@chain.command("send")
@click.option("--key", "key_path", required=True, type=IN_FILE)
@click.option("--outpoint", "outpoints", multiple=True, required=True, callback=_outpoints,
              help="txid:index.")
@click.option("--to", required=True)
@click.option("--amount", required=True, type=AMOUNT)
@click.option("--change", default=None, help="Change address kind:hexdigest.")
@pass_config
def chain_send(cfg: CliConfig, key_path: str, outpoints, to: str, amount: int, change):
    """Spend outputs owned by --key."""
    ledger = cfg.load_ledger()
    key = _read(key_path, KEYFILE).private
    spends = [(txid, idx, key) for txid, idx in outpoints]
    outputs = [TxOutput(_arg(to, "address", Address.parse), amount)]
    if change is not None:
        total = sum(ledger.utxo[(t, i)].amount for t, i, _ in spends if (t, i) in ledger.utxo)
        if total > amount:
            outputs.append(TxOutput(_arg(change, "address", Address.parse), total - amount))
    tx = ledger.broadcast(build_transaction(ledger, spends, outputs))
    cfg.save_ledger(ledger)
    cfg.emit({"txid": tx.txid.hex(), "outputs": len(tx.outputs)})


@chain.command("scan")
@click.option("--address", "addr_text", required=True)
@pass_config
def chain_scan(cfg: CliConfig, addr_text: str):
    """All outputs ever paid to an address."""
    ledger = cfg.load_ledger()
    hits = [{"txid": t.hex(), "index": i, "amount": a}
            for t, i, a in ledger.scan_address(_arg(addr_text, "address", Address.parse))]
    cfg.emit({"address": addr_text, "outputs": hits})


@chain.command("show")
@click.argument("txid", required=False)
@pass_config
def chain_show(cfg: CliConfig, txid: Optional[str]):
    """Dump the ledger, or one transaction."""
    ledger = cfg.load_ledger()
    if txid is not None:
        tx = ledger.get_transaction(_arg(txid, "txid"))
        if tx is None:
            raise ProtocolError("no such transaction", txid)
        cfg.emit({"txid": txid, "transaction": tx_to_json(tx)})
    else:
        cfg.emit({"transactions": len(ledger), "utxos": len(ledger.utxo),
                  "issued": ledger.total_issued})


# -- signaling, proofs, redemption ---------------------------------------------

@cli.group()
def signal():
    """Blockchain signaling between customer keys and a merchant key."""


@signal.command("attach")
@click.option("--key", "key_path", required=True, type=IN_FILE,
              help="Signal key; must also own the spent outputs.")
@click.option("--merchant", required=True, help="Merchant pubkey hex.")
@click.option("--outpoint", "outpoints", multiple=True, required=True, callback=_outpoints)
@click.option("--amount", type=AMOUNT, default=0, show_default=True, help="Signal output amount.")
@click.option("--contract", "contract_path", type=IN_FILE, default=None,
              help="Also pay this contract in the same transaction.")
@click.option("--payment-amount", type=AMOUNT, default=None)
@click.option("--variant", type=click.Choice(["merchant_controlled", "customer_controlled"]),
              default="merchant_controlled", show_default=True)
@pass_config
def signal_attach(cfg: CliConfig, key_path: str, merchant: str, outpoints, amount: int,
                  contract_path, payment_amount, variant: str):
    """Broadcast a transaction carrying a signal output (optionally plus payment)."""
    ledger = cfg.load_ledger()
    pair = _read(key_path, KEYFILE)
    merchant_pub = _point(merchant)
    spends = [(txid, idx, pair.private) for txid, idx in outpoints]
    if contract_path is not None:
        txid, value = combined_pay_and_signal(_read(contract_path, CONTRACT), pair, merchant_pub,
                                              spends, ledger, payment_amount, amount,
                                              SignalVariant(variant))
    else:
        outputs, value = attach_signal([], pair, merchant_pub, amount, SignalVariant(variant))
        txid = ledger.broadcast(build_transaction(ledger, spends, outputs)).txid
    cfg.save_ledger(ledger)
    cfg.emit({"txid": txid.hex(), "value": format(value.value, "064x")})


@signal.command("scan")
@click.option("--key", "key_path", required=True, type=IN_FILE,
              help="Merchant key file.")
@click.option("--watermark", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--include-customer-controlled", is_flag=True, default=False)
@pass_config
def signal_scan(cfg: CliConfig, key_path: str, watermark: int, include_customer_controlled: bool):
    """Detect signals addressed to the merchant key."""
    ledger = cfg.load_ledger()
    identity = MerchantIdentity(_read(key_path, KEYFILE))
    records = merchant_scan_signals(identity, ledger, watermark, include_customer_controlled)
    cfg.emit({"signals": [
        {"signal_pubkey": r.signal_pubkey.encode().hex(),
         "value": format(r.value.value, "064x"),
         "txid": r.txid.hex()} for r in records
    ]})


@cli.group()
def dh():
    """Discrete-log-equality proofs for disputed signals."""


@dh.command("prove")
@click.option("--key", "key_path", required=True, type=IN_FILE)
@click.option("--merchant", required=True)
@click.option("--out", type=OUT_FILE, default=None)
@pass_config
def dh_prove(cfg: CliConfig, key_path: str, merchant: str, out: Optional[Path]):
    """Prove the shared point for (signal key, merchant) without revealing the key."""
    pair = _read(key_path, KEYFILE)
    proof = prove_dh(pair.private, _point(merchant), cfg.rng())
    record = {
        "shared": proof.shared.encode().hex(),
        "commit_g": proof.commit_g.encode().hex(),
        "commit_p": proof.commit_p.encode().hex(),
        "response": format(proof.response.value, "064x"),
        "signal_pubkey": pair.public.encode().hex(),
    }
    _save_record(cfg, record, out, "shared")


@dh.command("verify")
@click.option("--proof", "proof_path", required=True, type=IN_FILE)
@click.option("--signal-pub", default=None, help="Override the proof file's signal pubkey.")
@click.option("--merchant", required=True)
@pass_config
def dh_verify(cfg: CliConfig, proof_path: str, signal_pub: Optional[str], merchant: str):
    """Check a proof; exit 0 when valid, 1 when not."""
    signal_point = _point(signal_pub) if signal_pub else None
    merchant_pub = _point(merchant)
    proof, recorded = _read(proof_path, PROOF)
    ok = verify_dh(proof, recorded if signal_point is None else signal_point, merchant_pub)
    cfg.emit({"valid": ok})
    if not ok:
        sys.exit(1)


@cli.group()
def redeem():
    """Contract redemption over the simulated filestore."""


@redeem.command("post")
@click.option("--contract", "contract_path", required=True, type=IN_FILE)
@click.option("--key", "key_path", required=True, type=IN_FILE,
              help="Signal key used in the paying transaction.")
@click.option("--merchant", required=True)
@pass_config
def redeem_post_cmd(cfg: CliConfig, contract_path: str, key_path: str, merchant: str):
    """Encrypt the contract under the signalled value and post it."""
    fs = cfg.load_filestore()
    pair = _read(key_path, KEYFILE)
    value = signal_value(pair.private, _point(merchant))
    filename = redeem_post(_read(contract_path, CONTRACT), value, fs, cfg.rng())
    cfg.save_filestore(fs)
    cfg.emit({"filename": filename.hex()})


@redeem.command("retrieve")
@click.option("--key", "key_path", required=True, type=IN_FILE,
              help="Merchant key file.")
@click.option("--signal-pub", required=True, help="Signal pubkey from a scan.")
@pass_config
def redeem_retrieve(cfg: CliConfig, key_path: str, signal_pub: str):
    """Fetch and decrypt the contract behind a detected signal."""
    ledger = cfg.load_ledger()
    fs = cfg.load_filestore()
    identity = MerchantIdentity(_read(key_path, KEYFILE))
    point = _point(signal_pub)
    matches = [r for r in merchant_scan_signals(identity, ledger)
               if r.signal_pubkey == point]
    if not matches:
        raise ProtocolError("no signal from that key")
    retrieved, status = merchant_retrieve(identity, matches[0], fs, ledger)
    result = {"state": status.state.value}
    if retrieved is not None:
        result["contract_hash"] = contract_mod.contract_hash(retrieved).hex()
    if status.paying_txid is not None:
        result["txid"] = status.paying_txid.hex()
    cfg.emit(result)


# -- scenarios -------------------------------------------------------------------

@cli.command()
@click.argument("name", type=click.Choice(SCENARIOS))
@click.option("--yes", is_flag=True, default=False,
              help="Skip the interactive approval prompt.")
@pass_config
def scenario(cfg: CliConfig, name: str, yes: bool):
    """Run a full multi-actor walkthrough against fresh state."""
    approve = None
    if name == "basic" and not yes:
        def approve(c, alias):
            click.echo("--- contract for approval ---", err=True)
            click.echo(json.dumps(contract_mod.contract_to_json(c), indent=2, sort_keys=True), err=True)
            click.echo(f"--- merchant alias: {alias} ---", err=True)
            return click.confirm("approve this contract?", err=True)

    for event in run_scenario(name, cfg.seed, approve):
        cfg.emit(event)


def main(argv=None):
    try:
        cli.main(args=argv, prog_name="p2c")
    except ProtocolError as exc:
        click.echo(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True))
        sys.exit(1)


if __name__ == "__main__":
    main()
