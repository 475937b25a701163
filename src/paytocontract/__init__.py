"""Pay-to-contract payments: the customer alone derives where to pay.

A merchant's long-lived keypair doubles as a labeled wallet base.  Hashing
a contract document yields a wallet label, so the payment address is a
deterministic function of (merchant pubkey, contract) that the customer
computes locally -- no signed payment descriptor, no secure channel -- while
only the merchant can derive the matching private key.  The paid
transaction then serves as the customer's receipt.

Submodules: ``curve`` (group arithmetic, hashing, ECDSA), ``wallet``
(labeled derivation of keys, addresses, scripts), ``contract`` (salted
Merkle-tree documents with redaction and leaf encryption), ``chain``
(simulated UTXO ledger and filestore), ``protocol`` (actor flows,
signaling, equality proofs, redemption), ``scenarios`` (scripted
walkthroughs), ``cli`` (command-line surface).

The names below resolve on first use: importing the package loads no
submodule, so a ``p2c`` command imports only the modules it runs.  Each
name is a descriptor on the package's module type that reads the
submodule's current binding on every access; nothing is cached here.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# the walkthroughs ``scenarios.run_scenario`` runs, and ``p2c scenario`` offers
SCENARIOS = ("basic", "offline", "anonymous", "tamper")

_SUBMODULE_EXPORTS = {
    "curve": ("G", "KeyPair", "Point", "Scalar", "Signature", "ecdsa_sign", "ecdsa_verify", "hash160",
              "hash_to_scalar", "random_scalar"),
    "errors": ("ProtocolError",),
    "wallet": ("Address", "DerivationScheme", "Script", "derive_address", "derive_addresses",
               "derive_private", "derive_public", "derive_script", "multisig_script", "p2pkh_address",
               "p2sh_address"),
    "contract": ("Branch", "Contract", "Leaf", "Redacted", "build_contract", "build_template",
                 "check_name", "contract_hash", "contract_to_json", "decode_contract", "encode_contract",
                 "encrypt_leaf", "decrypt_leaf", "parse_path", "path_str", "payment_address",
                 "payment_private_key", "redact", "sign_fields", "verify_contract"),
    "chain": ("FileStore", "Ledger", "Transaction", "TxInput", "TxOutput", "build_script_spend",
              "build_transaction", "ledger_checkpoint", "tx_to_json"),
    "protocol": ("CustomerTrustStore", "DlegProof", "MerchantIdentity", "OrderState", "OrderStatus",
                 "SignalKeyRegistry", "SignalRecord", "SignalVariant", "attach_signal", "combined_pay_and_signal",
                 "customer_approve_and_pay", "merchant_detect_payment", "merchant_retrieve",
                 "merchant_scan_signals", "prove_dh", "redeem_post", "signal_value", "verify_dh",
                 "verify_payment"),
    "scenarios": ("run_scenario",),
}

# exported name -> the full name of the submodule that defines it
_EXPORTS = {name: f"{__name__}.{module}" for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = ["SCENARIOS", *_EXPORTS]


class _Export:
    """One exported name: a read imports its submodule if need be and returns
    the submodule's binding as it is now, so a rebinding there (a test's patch,
    a tracer's wrapper) shows here and nothing goes stale.

    A class attribute of the module type, not a module ``__getattr__``
    (PEP 562): on CPython 3.11 each read through that hook first raises and
    clears an ``AttributeError``, about 0.9 us against 0.15 us here, and
    callers read names such as ``TxOutput`` in loops of thousands.
    """

    __slots__ = ("module", "name")

    def __init__(self, module: str, name: str):
        self.module = module
        self.name = name

    def __get__(self, package, owner=None):
        return getattr(sys.modules.get(self.module) or importlib.import_module(self.module), self.name)


class _Package(types.ModuleType):
    def __dir__(self):
        return sorted({*vars(self), *_EXPORTS})


for _name, _module in _EXPORTS.items():
    setattr(_Package, _name, _Export(_module, _name))
del _name, _module
sys.modules[__name__].__class__ = _Package
