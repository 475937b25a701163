"""Spans around the program's public functions, for the traced benchmark mode.

The tracer wraps functions of ``paytocontract`` from outside the program:
it replaces every binding of each function that any ``paytocontract``
module holds (``chain.ecdsa_verify`` is a binding of ``curve.ecdsa_verify``,
and calls inside ``chain`` go through it), plus methods on ``Point``,
``Ledger`` and ``CliConfig``.  Without the extra bindings, nested calls
would escape the trace.  Nothing in ``src/`` changes.

A span carries a name, start, end, parent span id and operation id (the
order, scan round or command it belongs to).  Spans stay in memory until
:meth:`Tracer.dump` writes them once.  A layer's self time is the sum over
its spans of duration minus the time covered by child spans; one thread
runs everything, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


LAYERS = ("curve", "wallet", "contract", "chain", "protocol", "cli")

# operations reported as ``<op>.n`` (calls) and ``<op>.us`` (median us per call)
OPS = (
    "curve.base_mul",
    "curve.var_mul",
    "curve.point_add",
    "curve.point_decode",
    "curve.hash160",
    "curve.ecdsa_sign",
    "curve.ecdsa_verify",
    "wallet.derive_public",
    "wallet.derive_address",
    "contract.build_contract",
    "contract.contract_hash",
    "contract.redact",
    "contract.verify_contract",
    "contract.decode_contract",
    "contract.payment_address",
    "contract.payment_private_key",
    "chain.build_transaction",
    "chain.broadcast",
    "chain.scan_address",
    "protocol.customer_approve_and_pay",
    "protocol.merchant_detect_payment",
    "protocol.verify_payment",
    "protocol.merchant_retrieve",
    "protocol.prove_dh",
    "protocol.verify_dh",
)

# operations whose cost scales with their input: ``<op>.n`` and median us per unit
PER_UNIT_OPS = (
    ("chain.from_jsonl", "us_per_tx"),
    ("chain.to_jsonl", "us_per_tx"),
    ("protocol.merchant_scan_signals", "us_per_pubkey"),
)

# spans reported as ``<span>_ms``, the median ms per call
MS_SPANS = ("cli.load_ledger", "cli.save_ledger", "cli.command")

# values the workloads record beside the spans: name -> (unit, better)
NOTES = {
    "chain.ledger_txs": ("count", "lower"),
    "contract.fields.p50": ("count", "lower"),
    "protocol.scan.pubkeys": ("count", "lower"),
    "protocol.scan.distinct_ratio": ("ratio", "lower"),
    "protocol.scan.hits": ("count", "higher"),
    "cli.import_ms": ("ms", "lower"),
    "cli.process_ms": ("ms", "lower"),
}

OVERHEAD = "trace.overhead_ratio"


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    metrics = []
    for op in OPS:
        metrics += [(f"{op}.n", "count", "lower"), (f"{op}.us", "us", "lower")]
    for op, unit in PER_UNIT_OPS:
        metrics += [(f"{op}.n", "count", "lower"), (f"{op}.{unit}", "us", "lower")]
    metrics += [(f"{span}_ms", "ms", "lower") for span in MS_SPANS]
    metrics += [(name, unit, better) for name, (unit, better) in NOTES.items()]
    metrics += [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    metrics.append((OVERHEAD, "ratio", "lower"))
    return metrics


# Which end-to-end metric each layer metric should move, on which workload,
# and where it is predicted flat.  Keys are metric-name prefixes; the
# longest matching prefix applies.  End-to-end names are the workloads' own;
# the shared slots they are reported under are listed in README.md.
TAGS = {
    "curve.base_mul": ("order_ms.*, orders_per_s", "storefront",
                       "trade-off shows in cli_noledger_ms.p50 and peak_rss_mb (table build)"),
    "curve.var_mul": ("scan_pubkeys_per_s, dispute_ms.p50", "signal_scan", "storefront (only inside verify)"),
    "curve.point_add": ("order_ms.*, receipt_ms.p50; cli_read_ms.p50, cli_write_ms.p50",
                        "storefront; cold_cli", "timed part of signal_scan"),
    "curve.ecdsa_verify": ("order_ms.*, receipt_ms.p50; cli_read_ms.p50, cli_write_ms.p50",
                           "storefront; cold_cli", "timed part of signal_scan"),
    "curve.ecdsa_sign": ("orders_per_s; cli_write_ms.p50", "storefront; cold_cli", "signal_scan"),
    "curve.hash160": ("scan_pubkeys_per_s; cli_read_ms.p50", "signal_scan; cold_cli", "-"),
    "curve.point_decode": ("cli_read_ms.p50, redeem_ms.p50", "cold_cli; signal_scan", "storefront"),
    "wallet": ("order_ms.p50; scan_pubkeys_per_s", "storefront; signal_scan", "cold_cli"),
    "contract": ("order_ms.p90, receipt_ms.p50; redeem_ms.p50", "storefront (large contracts); signal_scan",
                 "cold_cli"),
    "chain.build_transaction": ("orders_per_s; cli_write_ms.p50", "storefront; cold_cli", "signal_scan"),
    "chain.broadcast": ("orders_per_s, setup_s", "storefront", "timed part of signal_scan"),
    "chain.scan_address": ("order_ms.*, receipt_ms.p50; redeem_ms.p50", "storefront; signal_scan", "-"),
    "chain.ledger_txs": ("order_ms.*, receipt_ms.p50; redeem_ms.p50", "storefront; signal_scan", "-"),
    "chain.from_jsonl": ("cli_read_ms.p50, cli_write_ms.p50", "cold_cli", "storefront, signal_scan"),
    "chain.to_jsonl": ("cli_read_ms.p50, cli_write_ms.p50", "cold_cli", "storefront, signal_scan"),
    "protocol": ("order_ms.*, receipt_ms.p50", "storefront", "cold_cli"),
    "protocol.merchant_scan_signals": ("scan_pubkeys_per_s", "signal_scan", "storefront, cold_cli"),
    "protocol.scan": ("scan_pubkeys_per_s", "signal_scan", "storefront, cold_cli"),
    "protocol.merchant_retrieve": ("redeem_ms.p50, dispute_ms.p50", "signal_scan", "-"),
    "protocol.prove_dh": ("redeem_ms.p50, dispute_ms.p50", "signal_scan", "-"),
    "protocol.verify_dh": ("redeem_ms.p50, dispute_ms.p50", "signal_scan", "-"),
    "cli": ("cli_read_ms.p50, cli_write_ms.p50", "cold_cli", "-"),
    "cli.import_ms": ("all cli_* metrics, most visibly cli_noledger_ms.p50", "cold_cli", "in-process workloads"),
    OVERHEAD: ("-", "each", "-"),
}
for _layer in LAYERS:
    TAGS[f"{_layer}.self_share"] = (f"share of wall time spent in {_layer} itself", "each", "-")


def tag_for(metric: str) -> Tuple[str, str, str]:
    best = ""
    for prefix in TAGS:
        if (metric == prefix or metric.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return TAGS[best]


# -- what gets wrapped ---------------------------------------------------------

def _note_fields(tracer: "Tracer", args, result, seconds: float):
    tracer.notes["contract.fields.p50"].append(len(args[1]))


def _note_ledger_txs(tracer: "Tracer", args, result, seconds: float):
    tracer.notes["chain.ledger_txs"].append(len(args[0]))


def _note_loaded(tracer: "Tracer", args, result, seconds: float):
    tracer.per_unit["chain.from_jsonl"].append(seconds / max(len(result), 1))


def _note_saved(tracer: "Tracer", args, result, seconds: float):
    tracer.per_unit["chain.to_jsonl"].append(seconds / max(len(args[0]), 1))


def _note_scanned(tracer: "Tracer", args, result, seconds: float):
    # pubkeys the scan examined; the workload sets it from its generated record
    tracer.per_unit["protocol.merchant_scan_signals"].append(seconds / tracer.scan_pubkeys)


def _pow_name(args) -> str:
    base, generator = args[0], sys.modules["paytocontract.curve"].G
    return "curve.base_mul" if base.x == generator.x and base.y == generator.y else "curve.var_mul"


# (span name, module, attribute, note); every binding of the function is wrapped
FUNCTION_SPANS = (
    ("curve.hash160", "paytocontract.curve", "hash160", None),
    ("curve.ecdsa_sign", "paytocontract.curve", "ecdsa_sign", None),
    ("curve.ecdsa_verify", "paytocontract.curve", "ecdsa_verify", None),
    ("wallet.derive_public", "paytocontract.wallet", "derive_public", None),
    ("wallet.derive_address", "paytocontract.wallet", "derive_address", None),
    ("contract.build_contract", "paytocontract.contract", "build_contract", _note_fields),
    ("contract.contract_hash", "paytocontract.contract", "contract_hash", None),
    ("contract.redact", "paytocontract.contract", "redact", None),
    ("contract.verify_contract", "paytocontract.contract", "verify_contract", None),
    ("contract.decode_contract", "paytocontract.contract", "decode_contract", None),
    ("contract.payment_address", "paytocontract.contract", "payment_address", None),
    ("contract.payment_private_key", "paytocontract.contract", "payment_private_key", None),
    ("chain.build_transaction", "paytocontract.chain", "build_transaction", None),
    ("protocol.customer_approve_and_pay", "paytocontract.protocol", "customer_approve_and_pay", None),
    ("protocol.merchant_detect_payment", "paytocontract.protocol", "merchant_detect_payment", None),
    ("protocol.verify_payment", "paytocontract.protocol", "verify_payment", None),
    ("protocol.merchant_scan_signals", "paytocontract.protocol", "merchant_scan_signals", _note_scanned),
    ("protocol.merchant_retrieve", "paytocontract.protocol", "merchant_retrieve", None),
    ("protocol.prove_dh", "paytocontract.protocol", "prove_dh", None),
    ("protocol.verify_dh", "paytocontract.protocol", "verify_dh", None),
)

# (span name or namer, module, class, attribute, note)
METHOD_SPANS = (
    (_pow_name, "paytocontract.curve", "Point", "__pow__", None),
    ("curve.point_add", "paytocontract.curve", "Point", "__mul__", None),
    ("curve.point_decode", "paytocontract.curve", "Point", "decode", None),
    ("chain.broadcast", "paytocontract.chain", "Ledger", "broadcast", None),
    ("chain.scan_address", "paytocontract.chain", "Ledger", "scan_address", _note_ledger_txs),
    ("chain.from_jsonl", "paytocontract.chain", "Ledger", "from_jsonl", _note_loaded),
    ("chain.to_jsonl", "paytocontract.chain", "Ledger", "to_jsonl", _note_saved),
    ("cli.load_ledger", "paytocontract.cli", "CliConfig", "load_ledger", None),
    ("cli.save_ledger", "paytocontract.cli", "CliConfig", "save_ledger", None),
)

Note = Optional[Callable[["Tracer", tuple, object, float], None]]


class Tracer:
    """In-memory span recorder that patches itself onto the program's functions."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: List[tuple] = []  # (id, name, start, end, parent id, op id)
        self.notes: Dict[str, List[float]] = defaultdict(list)
        self.per_unit: Dict[str, List[float]] = defaultdict(list)
        self.scan_pubkeys = 1
        self.op = 0
        self.paused = False
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def wrap(self, name, fn, note: Note = None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(spans) + len(stack)
            span_name = name(args) if callable(name) else name
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, span_name, start, end, parent, self.op))
            if note is not None:
                note(self, args, result, end - start)
            return result

        return traced

    @contextlib.contextmanager
    def pause(self):
        """Record no spans inside the block: the harness's own output checks run there."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span recorded by the benchmark itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the program's functions for the duration of the block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def begin_op(self):
        """Start the next operation (order, scan round, command); spans carry its id."""
        self.op += 1

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "paytocontract" or n.startswith("paytocontract."))]
        for name, module_name, attr, note in FUNCTION_SPANS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._undo.append((module, key, original))
        for name, module_name, class_name, attr, note in METHOD_SPANS:
            cls = getattr(sys.modules.get(module_name), class_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                traced = classmethod(self.wrap(name, raw.__func__, note))
            else:
                traced = self.wrap(name, raw, note)
            setattr(cls, attr, traced)
            self._undo.append((cls, attr, raw))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def metrics(self, wall_s: float, overhead_ratio: float) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric, zero where the workload never calls the operation."""
        durations: Dict[str, List[float]] = defaultdict(list)
        child_time: Dict[int, float] = defaultdict(float)
        for sid, name, start, end, parent, _ in self.spans:
            durations[name].append(end - start)
            if parent is not None:
                child_time[parent] += end - start
        self_time: Dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            self_time[name.split(".")[0]] += end - start - child_time[sid]

        values: Dict[str, float] = {}
        for op in OPS:
            values[f"{op}.n"] = len(durations[op])
            values[f"{op}.us"] = statistics.median(durations[op]) * 1e6 if durations[op] else 0.0
        for op, unit in PER_UNIT_OPS:
            values[f"{op}.n"] = len(durations[op])
            values[f"{op}.{unit}"] = statistics.median(self.per_unit[op]) * 1e6 if self.per_unit[op] else 0.0
        for span in MS_SPANS:
            values[f"{span}_ms"] = statistics.median(durations[span]) * 1e3 if durations[span] else 0.0
        for name in NOTES:
            values[name] = statistics.median(self.notes[name]) if self.notes[name] else 0.0
        for layer in LAYERS:
            values[f"{layer}.self_share"] = self_time[layer] / wall_s
        values[OVERHEAD] = overhead_ratio
        return {name: (values[name], unit) for name, unit, _ in per_layer_metrics()}

    def dump(self, path):
        """Write every span as one JSON line; times are seconds since the tracer started."""
        with open(path, "w") as out:
            for sid, name, start, end, parent, op in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": round(start - self.origin, 9),
                                      "end": round(end - self.origin, 9), "parent": parent, "op": op}) + "\n")
