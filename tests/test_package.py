"""The package's lazy exports: each name resolves on use to its submodule's binding."""

import importlib
import os
import subprocess
import sys

import pytest

import paytocontract

# every name the package exported back when it imported each submodule eagerly, less those
# since deleted from the library
EXPORTS = {
    "curve": "G KeyPair Point Scalar Signature ecdsa_sign ecdsa_verify hash160 hash_to_scalar random_scalar",
    "errors": "ProtocolError",
    "wallet": "Address DerivationScheme Script derive_address derive_addresses derive_private "
              "derive_public derive_script multisig_script p2pkh_address p2sh_address",
    "contract": "Branch Contract Leaf Redacted build_contract build_template contract_hash decode_contract "
                "encode_contract encrypt_leaf decrypt_leaf payment_address payment_private_key redact "
                "sign_fields verify_contract",
    "chain": "FileStore Ledger Transaction TxInput TxOutput build_script_spend build_transaction",
    "protocol": "CustomerTrustStore DlegProof MerchantIdentity OrderState OrderStatus SignalKeyRegistry "
                "SignalRecord SignalVariant attach_signal combined_pay_and_signal customer_approve_and_pay "
                "merchant_detect_payment merchant_retrieve merchant_scan_signals prove_dh redeem_post "
                "signal_value verify_dh verify_payment",
    "scenarios": "run_scenario",
}
# names exported since ``cli`` reads every library name through the package
CLI_EXPORTS = {
    "contract": "check_name contract_to_json parse_path path_str",
    "chain": "ledger_checkpoint tx_to_json",
}
NAMES = [(module, name) for exports in (EXPORTS, CLI_EXPORTS) for module, names in exports.items()
         for name in names.split()]


@pytest.mark.parametrize("module, name", NAMES)
def test_each_name_is_its_submodules_object(module, name):
    submodule = importlib.import_module(f"paytocontract.{module}")
    assert getattr(paytocontract, name) is getattr(submodule, name)


def test_dir_lists_every_name_and_the_namespace_caches_none():
    listed = dir(paytocontract)
    for _, name in NAMES:
        getattr(paytocontract, name)
        assert name in listed
    assert {name for _, name in NAMES}.isdisjoint(vars(paytocontract))
    assert listed == sorted(listed) and "__version__" in listed


def test_star_import_binds_every_name():
    namespace = {}
    exec("from paytocontract import *", namespace)
    assert {name for _, name in NAMES} | {"SCENARIOS"} <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        paytocontract.missing
    assert not hasattr(paytocontract, "order_price")  # defined in contract, never exported


def test_a_rebound_submodule_name_is_seen_then_released(monkeypatch):
    # a tracer swaps a function's bindings by identity; the package must
    # follow the swap and hold no wrapper once it is undone
    from paytocontract import contract

    original = contract.redact

    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(contract, "redact", wrapped)
    assert paytocontract.redact is wrapped
    monkeypatch.undo()
    assert paytocontract.redact is original
    assert "redact" not in vars(paytocontract)


def test_import_loads_no_submodule_until_a_name_is_used():
    program = (
        "import sys\n"
        "import paytocontract\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('paytocontract.'))\n"
        "assert loaded() == [], loaded()\n"
        "paytocontract.Ledger\n"
        "assert [m for m in loaded() if m != 'paytocontract.ripemd160'] == [\n"
        "    'paytocontract.chain', 'paytocontract.curve', 'paytocontract.errors', 'paytocontract.wallet'], loaded()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    result = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
