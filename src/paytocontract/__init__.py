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
"""

from .curve import (
    G,
    KeyPair,
    Point,
    Scalar,
    Signature,
    ecdsa_sign,
    ecdsa_verify,
    hash160,
    hash_to_scalar,
    random_scalar,
)
from .errors import ProtocolError
from .wallet import (
    Address,
    DerivationScheme,
    Script,
    WalletBase,
    derive_address,
    derive_private,
    derive_public,
    derive_script,
    multisig_script,
    p2pkh_address,
    p2sh_address,
)
from .contract import (
    Branch,
    Contract,
    Leaf,
    Redacted,
    build_contract,
    build_template,
    canonical_encode,
    contract_hash,
    decode_contract,
    encode_contract,
    encrypt_leaf,
    decrypt_leaf,
    node_digest,
    payment_address,
    payment_private_key,
    redact,
    sign_fields,
    verify_contract,
)
from .chain import (
    FileStore,
    Ledger,
    Transaction,
    TxInput,
    TxOutput,
    build_script_spend,
    build_transaction,
)
from .protocol import (
    CustomerTrustStore,
    DlegProof,
    MerchantIdentity,
    OrderState,
    OrderStatus,
    SignalKeyRegistry,
    SignalRecord,
    SignalVariant,
    attach_signal,
    combined_pay_and_signal,
    customer_approve_and_pay,
    merchant_detect_payment,
    merchant_retrieve,
    merchant_scan_signals,
    prove_dh,
    redeem_post,
    signal_value,
    verify_dh,
    verify_payment,
)
from .scenarios import run_scenario

__version__ = "0.1.0"
