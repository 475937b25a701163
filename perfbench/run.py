"""Benchmark harness for paytocontract.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload storefront --seed 1 --seconds 30 --trace 0

Workloads: ``storefront``, ``signal_scan``, ``cold_cli`` (see README.md).
With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation; with ``--trace 1`` it measures the same work untraced and
traced and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output checked out.  Spans and a results file with the
host record go to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOADS = ("storefront", "signal_scan", "cold_cli")

# BENCHMARK.json gates the same end-to-end metrics on every workload, so each
# workload reports its own series under four shared slots; the workload's
# own names for them are printed beside the values.
# slot -> (per-workload name, series, percentile)
SLOTS = {
    "storefront": {
        "a_ms.p50": ("order_ms.p50", "order_ms", 50),
        "b_ms.p50": ("receipt_ms.p50", "receipt_ms", 50),
        "c_ms.p50": ("sweep_ms.p50", "sweep_ms", 50),
    },
    "signal_scan": {
        "a_ms.p50": ("redeem_ms.p50", "redeem_ms", 50),
        "b_ms.p50": ("dispute_ms.p50", "dispute_ms", 50),
        "c_ms.p50": ("scan_ms.p50", "scan_ms", 50),
    },
    "cold_cli": {
        "a_ms.p50": ("cli_read_ms.p50", "cli_read_ms", 50),
        "b_ms.p50": ("cli_write_ms.p50", "cli_write_ms", 50),
        "c_ms.p50": ("cli_noledger_ms.p50", "cli_noledger_ms", 50),
    },
}
THROUGHPUT = {"storefront": "orders_per_s", "signal_scan": "scan_pubkeys_per_s", "cold_cli": "commands_per_s"}
# printed, not gated: a storefront run has more than 100 orders, so at least 10 lie beyond p90
EXTRA = {"storefront": [("order_ms.p90", "order_ms", 90)], "signal_scan": [], "cold_cli": []}
TRACE_BLOCKS = 8  # untraced blocks of seconds / TRACE_BLOCKS, each followed by a traced replay


def _host() -> dict:
    import hashlib
    import ssl
    from importlib.metadata import version

    from cryptography.hazmat.backends.openssl import backend

    try:
        hashlib.new("ripemd160", b"")
        ripemd160 = True
    except ValueError:
        ripemd160 = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "machine": platform.machine(),
        "cryptography": version("cryptography"),
        "cryptography_openssl": backend.openssl_version_text(),
        "python_openssl": ssl.OPENSSL_VERSION,
        "hashlib_ripemd160": ripemd160,
    }


def _load_program():
    """Import paytocontract from this checkout's ``src/``, or exit without a result."""
    if not (SRC / "paytocontract" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'paytocontract'}")
    sys.path.insert(0, str(SRC))
    import paytocontract

    if Path(paytocontract.__file__).resolve().parent != (SRC / "paytocontract").resolve():
        sys.exit(f"perfbench: imported paytocontract from {paytocontract.__file__}, not {SRC}")
    import paytocontract.cli  # noqa: F401  (bound before the tracer wraps anything)


def end_to_end(workload: str, module, inputs, setup_s: list, seconds: float, lines: list):
    from common import peak_rss_mb, percentile

    out = module.run(inputs, seconds)
    rss = peak_rss_mb(children=workload == "cold_cli")
    metrics = {"setup_s": (statistics.median(setup_s), "s", "setup_s", len(setup_s)),
               "peak_rss_mb": (rss, "MB", "peak_rss_mb", 1),
               "work_per_s": (out.work / out.busy_s if out.busy_s else 0.0, "1/s", THROUGHPUT[workload], out.work)}
    for slot, (name, series, q) in SLOTS[workload].items():
        values = out.samples.get(series, [])
        metrics[slot] = (percentile(values, q) if values else 0.0, "ms", name, len(values))
    for slot, (value, unit, name, n) in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {unit} (n={n}) [{slot}]")
    for name, series, q in EXTRA[workload]:
        values = out.samples.get(series, [])
        lines.append(f"metric {name} = {percentile(values, q) if values else 0.0:.6g} ms (n={len(values)}) [not gated]")
    lines.append(f"metric error_rate = {out.failed / max(out.attempted, 1):.6g} ratio (n={out.attempted})")
    return out, {slot: (v[0], v[1]) for slot, v in metrics.items()}


def traced(workload: str, module, inputs, seconds: float, lines: list, spans_path: Path):
    """Alternate untraced and traced blocks of the same work on the same inputs.

    The host's speed drifts by tens of percent over seconds, so the two
    sides of the overhead ratio are measured in alternation, not one after
    the other.
    """
    from common import Outcome
    from tracing import Tracer, tag_for

    tracer = Tracer()
    if workload == "cold_cli":
        out, plain_s, traced_s = module.run_traced(inputs, seconds, tracer)
    else:
        out, plain_s, traced_s = Outcome(), 0.0, 0.0
        start = time.perf_counter()
        while out.items == 0 or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            plain = module.run(inputs, seconds / TRACE_BLOCKS)
            t1 = time.perf_counter()
            with tracer.installed():
                t2 = time.perf_counter()
                traced_part = module.run(inputs, float("inf"), items=plain.items, tracer=tracer)
                t3 = time.perf_counter()
            plain_s += t1 - t0
            traced_s += t3 - t2
            for part in (plain, traced_part):
                out.items += part.items
                out.attempted += part.attempted
                out.failures += part.failures
    metrics = tracer.metrics(traced_s, traced_s / plain_s)
    for name, (value, unit) in metrics.items():
        moves, on, flat = tag_for(name)
        lines.append(f"layer {name} = {value:.6g} {unit} | moves: {moves} | on: {on} | flat on: {flat}")
    tracer.dump(spans_path)
    lines.append(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return out, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paytocontract benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()

    import importlib

    from common import timed_setup

    module = importlib.import_module(args.workload)
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = WORK / f"{args.workload}-{os.getpid()}"
    if args.workload == "cold_cli":
        def make():
            return module.generate(args.seed, scratch)
    else:
        def make():
            return module.generate(args.seed)

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    host = _host()
    lines.append("host " + json.dumps(host, sort_keys=True))
    try:
        if args.trace:
            inputs = make()
            lines.append("shape " + json.dumps(inputs.shape, sort_keys=True))
            out, metrics = traced(args.workload, module, inputs, args.seconds, lines,
                                  WORK / f"spans-{args.workload}.jsonl")
        else:
            inputs, setup_s = timed_setup(make)
            lines.append("shape " + json.dumps(inputs.shape, sort_keys=True))
            out, metrics = end_to_end(args.workload, module, inputs, setup_s, args.seconds, lines)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in out.failures[:20]:
        lines.append(f"FAILED {failure}")

    result = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
              "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"host": host, "shape": inputs.shape, "report": lines, "failures": out.failures, **result},
        indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
