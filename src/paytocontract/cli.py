"""Command-line surface: one subcommand per library operation.

State (ledger, filestore) persists as JSONL under ``--state-dir`` so
sessions can resume; scenario subcommands always run against fresh
in-memory state and print an event transcript.  All digests, scalars, and
points are lowercase hex on this surface; addresses render as
``kind:hexdigest``.

At import this module loads only ``curve``, ``wallet`` and ``errors``, which
every argument kind needs.  Every other library name is read as ``pc.<name>``
through the package's export table, which imports the defining submodule on
the first read, so a command that loads no ledger does not pay for the rest.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Optional, Tuple

import click

import paytocontract as pc

from . import SCENARIOS
from .curve import KeyPair, Point, Scalar
from .errors import MALFORMED, MAX_AMOUNT, ProtocolError, _bytes_from_hex, _load_json
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
    as the file, not the command line, is at fault, and a decoder's own
    ``ProtocolError`` keeps its code; either names the file.  A directory is a
    usage error, and any other failure to read is an ``io error``."""
    code, decode = fmt
    try:
        data = Path(path).read_bytes()
    except IsADirectoryError:
        raise click.UsageError(f"{path} is a directory") from None
    except OSError as exc:
        raise ProtocolError("io error", f"{path}: {exc}") from None
    try:
        return decode(data)
    except MALFORMED as exc:
        raise ProtocolError(code, f"{path}: {exc!r}") from None
    except ProtocolError as exc:
        message, _, detail = str(exc).partition(": ")
        raise ProtocolError(message, f"{path}: {detail}" if detail else str(path)) from None


def _write(path: Path, data: bytes, private: bool = False):
    """The one writer: the bytes go to a temporary file beside ``path``, which
    then replaces it in one rename, so the old file survives a failed save.
    A ``private`` file is created owner-only (mode 600) before any byte is
    written.  Any failure to write is an ``io error``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb", opener=functools.partial(os.open, mode=0o600 if private else 0o666)) as f:
                if private:
                    os.fchmod(f.fileno(), 0o600)  # also when the umask or a stale temp file allows more
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise ProtocolError("io error", f"{path}: {exc}") from None


def _proof(data: bytes) -> Tuple[pc.DlegProof, Point]:
    """A ``dh prove --out`` record: the proof and its signal pubkey."""
    obj = _load_json(data)
    shared, commit_g, commit_p, signal = (Point.decode(_bytes_from_hex(obj[k])) for k in
                                          ("shared", "commit_g", "commit_p", "signal_pubkey"))
    return pc.DlegProof(shared, commit_g, commit_p, Scalar.from_bytes(_bytes_from_hex(obj["response"]))), signal


def _keypair(data: bytes) -> KeyPair:
    """A ``keygen --out`` record.  The keypair derives its public key from the
    private one; a stored ``public`` other than that key's encoding makes the
    file invalid, as it then names two keys."""
    obj = _load_json(data)
    pair = KeyPair(Scalar.from_bytes(_bytes_from_hex(obj["private"])))
    if "public" in obj and obj["public"] != pair.public.encode().hex():
        raise ValueError("public does not match private")
    return pair


# a decoder reads its ``pc`` name when it runs: ``pc.decode_contract`` read here
# would load ``contract`` for every command
KEYFILE = ("invalid keyfile", _keypair)
CONTRACT = ("invalid contract", lambda data: pc.decode_contract(data))
SCRIPT = ("invalid script", lambda data: script_from_json(_load_json(data)))
PROOF = ("invalid proof", _proof)


@dataclass
class CliConfig:
    state_dir: Path
    fmt: str
    seed: Optional[int]

    def rng(self) -> Optional[Random]:
        return Random(self.seed) if self.seed is not None else None

    def _load(self, store, name: str, **options):
        """A state file's records name their own line, so ``from_jsonl`` runs
        past ``_read`` and its errors stay as it raises them."""
        path = self.state_dir / name
        return store.from_jsonl(_read(path, ("corrupt record", bytes)) if path.exists() else b"", **options)

    def load_ledger(self) -> pc.Ledger:
        """The saved ledger.  The prefix its ``ledger.ckpt`` sidecar binds was
        validated when it was saved and is not verified again; without the
        sidecar every record is replayed.  An absent ledger decodes as no
        bytes, so beside a sidecar it is a ``corrupt record``."""
        sidecar = self.state_dir / "ledger.ckpt"
        checkpoint = _read(sidecar, ("corrupt record", bytes)) if sidecar.exists() else None
        return self._load(pc.Ledger, "ledger.jsonl", checkpoint=checkpoint)

    def save_ledger(self, ledger: pc.Ledger):
        """Write the ledger, then its checkpoint.  A failure between the two
        leaves the old checkpoint, which still binds a prefix of the new file."""
        data = ledger.to_jsonl()
        _write(self.state_dir / "ledger.jsonl", data)
        _write(self.state_dir / "ledger.ckpt", pc.ledger_checkpoint(data))

    def load_filestore(self) -> pc.FileStore:
        return self._load(pc.FileStore, "filestore.jsonl")

    def save_filestore(self, fs: pc.FileStore):
        _write(self.state_dir / "filestore.jsonl", fs.to_jsonl())

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


class Arg(click.ParamType):
    """One kind of argument value, parsed from its text by ``parse``.  A ``ValueError``
    is a usage error (exit 2); a ``ProtocolError``, such as an off-curve point, exits 1."""

    def __init__(self, name: str, parse):
        self.name = name
        self.parse = parse

    def convert(self, value, param, ctx):
        try:
            return self.parse(value)
        except ValueError as exc:
            self.fail(f"bad {self.name} {value!r}: {exc}", param, ctx)


def _outpoint(text: str) -> Tuple[bytes, int]:
    """``txid:index`` as (txid bytes, index); at most 20 index digits keep ``int`` in its limit."""
    txid, sep, index = text.rpartition(":")
    if not sep or not (index.isascii() and index.isdigit() and len(index) <= 20):
        raise ValueError("not txid:index")
    return bytes.fromhex(txid), int(index)


def _field(text: str) -> Tuple[str, bytes]:
    name, sep, value = text.partition("=")
    if not sep:
        raise ValueError("not name=value")
    pc.check_name(name)
    return name, value.encode()


def _path(text: str) -> str:
    return pc.path_str(pc.parse_path(text))


TXID = Arg("txid", bytes.fromhex)
LABEL = Arg("label", str.encode)
LABEL_HEX = Arg("label", bytes.fromhex)
POINT = Arg("point", lambda text: Point.decode(bytes.fromhex(text)))
ADDRESS = Arg("address", Address.parse)
OUTPOINT = Arg("outpoint", _outpoint)
FIELD = Arg("field", _field)
PATH = Arg("path", _path)


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

def _label(label: Optional[bytes], label_hex: Optional[bytes]) -> bytes:
    if (label is None) == (label_hex is None):
        raise click.UsageError("give exactly one of --label / --label-hex")
    return label if label_hex is None else label_hex


def _save_contract(cfg: CliConfig, c, out: Path, **summary):
    _write(out, pc.encode_contract(c))
    cfg.emit({"written": str(out), **summary})


def _save_record(cfg: CliConfig, record: dict, out: Optional[Path], summary: str, private: bool = False):
    """Print ``record``, or write it to ``out`` and print its ``summary`` field."""
    if out is None:
        cfg.emit(record)
    else:
        _write(out, (json.dumps(record, sort_keys=True, indent=2) + "\n").encode(), private)
        cfg.emit({summary: record[summary], "written": str(out)})


# -- keys and addresses -------------------------------------------------------

@cli.command()
@click.option("--out", type=OUT_FILE, default=None, help="Write the keypair to this file.")
@pass_config
def keygen(cfg: CliConfig, out: Optional[Path]):
    """Generate a keypair (reproducible with --seed)."""
    pair = KeyPair.generate(cfg.rng())
    record = {"private": pair.private.to_bytes().hex(),
              "public": pair.public.encode().hex()}
    _save_record(cfg, record, out, "public", private=True)


@cli.group()
def address():
    """Derive addresses and scripts from a public base."""


@address.command("derive")
@click.option("--pubbase", required=True, type=POINT, help="Compressed pubkey hex.")
@click.option("--label", type=LABEL, default=None, help="Label text (UTF-8).")
@click.option("--label-hex", type=LABEL_HEX, default=None, help="Label as raw hex bytes.")
@click.option("--scheme", type=click.Choice([s.value for s in DerivationScheme]),
              default=DerivationScheme.ADDITIVE.value, show_default=True)
@pass_config
def address_derive(cfg: CliConfig, pubbase: Point, label: Optional[bytes],
                   label_hex: Optional[bytes], scheme: str):
    """Derived pubkey and pay-to-pubkey-hash address for a label."""
    pub = derive_public(pubbase, _label(label, label_hex), DerivationScheme(scheme))
    cfg.emit({"pubkey": pub.encode().hex(), "address": p2pkh_address(pub).render()})


@address.command("derive-script")
@click.option("--script", "script_path", required=True, type=IN_FILE)
@click.option("--label", type=LABEL, default=None)
@click.option("--label-hex", type=LABEL_HEX, default=None)
@pass_config
def address_derive_script(cfg: CliConfig, script_path: str, label: Optional[bytes],
                          label_hex: Optional[bytes]):
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
@click.option("--static", "static_pairs", type=FIELD, multiple=True, help="name=value static field.")
@click.option("--dynamic-key", type=POINT, default=None, help="Tracking pubkey hex for dynamic fields.")
@click.option("--out", required=True, type=OUT_FILE)
@pass_config
def contract_template(cfg: CliConfig, merchant_key: str, static_pairs, dynamic_key, out: Path):
    """Create a signed contract template (static fields under merchant/)."""
    pair = _read(merchant_key, KEYFILE)
    static = dict(static_pairs)
    template = pc.build_template(pair.public, static, cfg.rng(), dynamic_signing_key=dynamic_key)
    paths = ["merchant/pubkey"] + [f"merchant/{n}" for n in static]
    _save_contract(cfg, pc.sign_fields(template, pair.private, paths), out, signed_paths=paths)


@contract.command("build")
@click.option("--template", "template_path", required=True, type=IN_FILE)
@click.option("--field", "field_pairs", type=FIELD, multiple=True, help="name=value order field.")
@click.option("--out", required=True, type=OUT_FILE)
@pass_config
def contract_build(cfg: CliConfig, template_path: str, field_pairs, out: Path):
    """Fill order fields into a template."""
    built = pc.build_contract(_read(template_path, CONTRACT), dict(field_pairs), cfg.rng())
    _save_contract(cfg, built, out, contract_hash=pc.contract_hash(built).hex())


@contract.command("sign")
@click.argument("contract_path", type=IN_FILE)
@click.option("--key", "key_path", required=True, type=IN_FILE)
@click.option("--path", "paths", type=PATH, multiple=True, required=True)
@click.option("--out", required=True, type=OUT_FILE)
@pass_config
def contract_sign(cfg: CliConfig, contract_path: str, key_path: str, paths, out: Path):
    """Sign subtree digests at the given field paths."""
    signed = pc.sign_fields(_read(contract_path, CONTRACT), _read(key_path, KEYFILE).private, list(paths))
    _save_contract(cfg, signed, out, signed_paths=list(paths))


@contract.command("verify")
@click.argument("contract_path", type=IN_FILE)
@pass_config
def contract_verify(cfg: CliConfig, contract_path: str):
    """Check every signature; nonzero exit when any is invalid."""
    report = pc.verify_contract(_read(contract_path, CONTRACT))
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
@click.option("--path", "paths", type=PATH, multiple=True, required=True)
@click.option("--out", required=True, type=OUT_FILE)
@pass_config
def contract_redact(cfg: CliConfig, contract_path: str, paths, out: Path):
    """Replace subtrees by their digests; the contract hash is unchanged."""
    c = _read(contract_path, CONTRACT)
    for p in paths:
        c = pc.redact(c, p)
    _save_contract(cfg, c, out, redacted=list(paths), contract_hash=pc.contract_hash(c).hex())


@contract.command("encrypt-leaf")
@click.argument("contract_path", type=IN_FILE)
@click.option("--path", "path", type=PATH, required=True)
@click.option("--recipient", type=POINT, required=True, help="Recipient pubkey hex.")
@click.option("--out", required=True, type=OUT_FILE)
@pass_config
def contract_encrypt_leaf(cfg: CliConfig, contract_path: str, path: str, recipient: Point, out: Path):
    """Encrypt one leaf to a pubkey (do this before signing/paying)."""
    c = pc.encrypt_leaf(_read(contract_path, CONTRACT), path, recipient, cfg.rng())
    _save_contract(cfg, c, out, encrypted=path, contract_hash=pc.contract_hash(c).hex())


@contract.command("hash")
@click.argument("contract_path", type=IN_FILE)
@pass_config
def contract_hash_cmd(cfg: CliConfig, contract_path: str):
    """Root digest (stable under redaction)."""
    cfg.emit({"contract_hash": pc.contract_hash(_read(contract_path, CONTRACT)).hex()})


@contract.command("payment-address")
@click.argument("contract_path", type=IN_FILE)
@pass_config
def contract_payment_address(cfg: CliConfig, contract_path: str):
    """The address the contract determines."""
    cfg.emit({"address": pc.payment_address(_read(contract_path, CONTRACT)).render()})


# -- chain ----------------------------------------------------------------------

@cli.group()
def chain():
    """Operate the simulated ledger."""


@chain.command("faucet")
@click.option("--to", required=True, type=ADDRESS, help="Address kind:hexdigest.")
@click.option("--amount", required=True, type=AMOUNT)
@pass_config
def chain_faucet(cfg: CliConfig, to: Address, amount: int):
    """Mint a coinbase output (test setup)."""
    ledger = cfg.load_ledger()
    tx = ledger.faucet([pc.TxOutput(to, amount)])
    cfg.save_ledger(ledger)
    cfg.emit({"txid": tx.txid.hex(), "index": 0, "amount": amount})


@chain.command("send")
@click.option("--key", "key_path", required=True, type=IN_FILE)
@click.option("--outpoint", "outpoints", type=OUTPOINT, multiple=True, required=True,
              help="txid:index.")
@click.option("--to", required=True, type=ADDRESS)
@click.option("--amount", required=True, type=AMOUNT)
@click.option("--change", type=ADDRESS, default=None, help="Change address kind:hexdigest.")
@pass_config
def chain_send(cfg: CliConfig, key_path: str, outpoints, to: Address, amount: int, change):
    """Spend outputs owned by --key."""
    ledger = cfg.load_ledger()
    key = _read(key_path, KEYFILE).private
    spends = [(txid, idx, key) for txid, idx in outpoints]
    tx = ledger.broadcast(pc.build_transaction(ledger, spends, [pc.TxOutput(to, amount)], change))
    cfg.save_ledger(ledger)
    cfg.emit({"txid": tx.txid.hex(), "outputs": len(tx.outputs)})


@chain.command("scan")
@click.option("--address", "addr", required=True, type=ADDRESS)
@pass_config
def chain_scan(cfg: CliConfig, addr: Address):
    """All outputs ever paid to an address."""
    ledger = cfg.load_ledger()
    hits = [{"txid": t.hex(), "index": i, "amount": a} for t, i, a in ledger.scan_address(addr)]
    cfg.emit({"address": addr.render(), "outputs": hits})


@chain.command("show")
@click.argument("txid", type=TXID, required=False)
@pass_config
def chain_show(cfg: CliConfig, txid: Optional[bytes]):
    """Dump the ledger, or one transaction."""
    ledger = cfg.load_ledger()
    if txid is not None:
        tx = ledger.get_transaction(txid)
        if tx is None:
            raise ProtocolError("no such transaction", txid.hex())
        cfg.emit({"txid": txid.hex(), "transaction": pc.tx_to_json(tx)})
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
@click.option("--merchant", "merchant_pub", required=True, type=POINT, help="Merchant pubkey hex.")
@click.option("--outpoint", "outpoints", type=OUTPOINT, multiple=True, required=True)
@click.option("--amount", type=AMOUNT, default=0, show_default=True, help="Signal output amount.")
@click.option("--contract", "contract_path", type=IN_FILE, default=None,
              help="Also pay this contract in the same transaction.")
@click.option("--payment-amount", type=AMOUNT, default=None)
@click.option("--variant", type=click.Choice(["merchant_controlled", "customer_controlled"]),
              default="merchant_controlled", show_default=True)
@click.option("--change", type=ADDRESS, default=None, help="Change address kind:hexdigest.")
@pass_config
def signal_attach(cfg: CliConfig, key_path: str, merchant_pub: Point, outpoints, amount: int,
                  contract_path, payment_amount, variant: str, change):
    """Broadcast a transaction carrying a signal output (optionally plus payment)."""
    ledger = cfg.load_ledger()
    pair = _read(key_path, KEYFILE)
    spends = [(txid, idx, pair.private) for txid, idx in outpoints]
    if contract_path is not None:
        txid, value = pc.combined_pay_and_signal(_read(contract_path, CONTRACT), pair, merchant_pub,
                                                 spends, ledger, payment_amount, amount,
                                                 pc.SignalVariant(variant), change=change)
    else:
        outputs, value = pc.attach_signal([], pair, merchant_pub, amount, pc.SignalVariant(variant))
        txid = ledger.broadcast(pc.build_transaction(ledger, spends, outputs, change)).txid
    cfg.save_ledger(ledger)
    cfg.emit({"txid": txid.hex(), "value": value.to_bytes().hex()})


@signal.command("scan")
@click.option("--key", "key_path", required=True, type=IN_FILE,
              help="Merchant key file.")
@click.option("--watermark", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--include-customer-controlled", is_flag=True, default=False)
@pass_config
def signal_scan(cfg: CliConfig, key_path: str, watermark: int, include_customer_controlled: bool):
    """Detect signals addressed to the merchant key."""
    ledger = cfg.load_ledger()
    identity = pc.MerchantIdentity(_read(key_path, KEYFILE))
    records = pc.merchant_scan_signals(identity, ledger, watermark, include_customer_controlled)
    cfg.emit({"signals": [
        {"signal_pubkey": r.signal_pubkey.encode().hex(),
         "value": r.value.to_bytes().hex(),
         "txid": r.txid.hex()} for r in records
    ]})


@cli.group()
def dh():
    """Discrete-log-equality proofs for disputed signals."""


@dh.command("prove")
@click.option("--key", "key_path", required=True, type=IN_FILE)
@click.option("--merchant", required=True, type=POINT)
@click.option("--out", type=OUT_FILE, default=None)
@pass_config
def dh_prove(cfg: CliConfig, key_path: str, merchant: Point, out: Optional[Path]):
    """Prove the shared point for (signal key, merchant) without revealing the key."""
    pair = _read(key_path, KEYFILE)
    proof = pc.prove_dh(pair.private, merchant, cfg.rng())
    record = {
        "shared": proof.shared.encode().hex(),
        "commit_g": proof.commit_g.encode().hex(),
        "commit_p": proof.commit_p.encode().hex(),
        "response": proof.response.to_bytes().hex(),
        "signal_pubkey": pair.public.encode().hex(),
    }
    _save_record(cfg, record, out, "shared")


@dh.command("verify")
@click.option("--proof", "proof_path", required=True, type=IN_FILE)
@click.option("--signal-pub", type=POINT, default=None, help="Override the proof file's signal pubkey.")
@click.option("--merchant", required=True, type=POINT)
@pass_config
def dh_verify(cfg: CliConfig, proof_path: str, signal_pub: Optional[Point], merchant: Point):
    """Check a proof; exit 0 when valid, 1 when not."""
    proof, recorded = _read(proof_path, PROOF)
    ok = pc.verify_dh(proof, recorded if signal_pub is None else signal_pub, merchant)
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
@click.option("--merchant", required=True, type=POINT)
@pass_config
def redeem_post_cmd(cfg: CliConfig, contract_path: str, key_path: str, merchant: Point):
    """Encrypt the contract under the signalled value and post it."""
    fs = cfg.load_filestore()
    pair = _read(key_path, KEYFILE)
    value = pc.signal_value(pair.private, merchant)
    filename = pc.redeem_post(_read(contract_path, CONTRACT), value, fs, cfg.rng())
    cfg.save_filestore(fs)
    cfg.emit({"filename": filename.hex()})


@redeem.command("retrieve")
@click.option("--key", "key_path", required=True, type=IN_FILE,
              help="Merchant key file.")
@click.option("--signal-pub", required=True, type=POINT, help="Signal pubkey from a scan.")
@pass_config
def redeem_retrieve(cfg: CliConfig, key_path: str, signal_pub: Point):
    """Fetch and decrypt the contract behind a detected signal."""
    ledger = cfg.load_ledger()
    fs = cfg.load_filestore()
    identity = pc.MerchantIdentity(_read(key_path, KEYFILE))
    matches = [r for r in pc.merchant_scan_signals(identity, ledger)
               if r.signal_pubkey == signal_pub]
    if not matches:
        raise ProtocolError("no signal from that key")
    retrieved, status = pc.merchant_retrieve(identity, matches[0], fs, ledger)
    result = {"state": status.state.value}
    if retrieved is not None:
        result["contract_hash"] = pc.contract_hash(retrieved).hex()
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
            click.echo(json.dumps(pc.contract_to_json(c), indent=2, sort_keys=True), err=True)
            click.echo(f"--- merchant alias: {alias} ---", err=True)
            return click.confirm("approve this contract?", err=True)

    for event in pc.run_scenario(name, cfg.seed, approve):
        cfg.emit(event)


def main(argv=None):
    try:
        cli.main(args=argv, prog_name="p2c")
    except ProtocolError as exc:
        click.echo(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True))
        sys.exit(1)


if __name__ == "__main__":
    main()
