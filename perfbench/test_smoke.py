"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of the repository::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every workload runs and passes its own output checks, that
the checks are live (a deliberately wrong expected value is reported as a
failure), that the traced mode reports every per-layer metric named in
BENCHMARK.json, and that the harness refuses to report when the program
source is missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cold_cli  # noqa: E402
import run  # noqa: E402
import signal_scan  # noqa: E402
import storefront  # noqa: E402
import tracing  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_storefront_orders_check_out():
    out = storefront.run(storefront.generate(7, storefront.TINY), 0, items=4)
    assert out.attempted == 4 and out.failures == []
    assert len(out.samples["order_ms"]) == 4


def test_signal_scan_finds_exactly_the_planted_set():
    inputs = signal_scan.generate(7, signal_scan.TINY)
    out = signal_scan.run(inputs, 0, items=1)
    # one scan, then a retrieval check and a proof check per planted hit
    assert out.failures == [] and out.attempted == 1 + 2 * signal_scan.TINY.planted


def test_signal_scan_reports_a_wrong_expected_contract():
    inputs = signal_scan.generate(7, signal_scan.TINY)
    key = next(iter(inputs.planted))
    inputs.planted[key] = dataclasses.replace(inputs.planted[key], contract_hash=b"\x00" * 32)
    out = signal_scan.run(inputs, 0, items=1)
    assert out.failed == 1 and "wrong contract" in out.failures[0]


def test_cold_cli_commands_check_out(tmp_path):
    out = cold_cli.run(cold_cli.generate(7, tmp_path, cold_cli.TINY), 0, items=1)
    assert out.attempted == 8 and out.failures == []
    assert {len(out.samples[f"cli_{kind}_ms"]) for kind in cold_cli.CLASSES} == {2, 3}


def test_cold_cli_reports_a_wrong_expected_output(tmp_path):
    inputs = cold_cli.generate(7, tmp_path, cold_cli.TINY)
    show = inputs.cycles[0][3]
    assert show.args == ["chain", "show"]
    show.expected = dict(show.expected, transactions=show.expected["transactions"] + 1)
    out = cold_cli.run(inputs, 0, items=1)
    assert out.failed == 1 and "chain show" in out.failures[0]


def test_traced_mode_reports_every_per_layer_metric(tmp_path):
    declared = [m["name"] for m in _benchmark_json()["per_layer"]]
    assert declared == [name for name, _, _ in tracing.per_layer_metrics()]

    tracer = tracing.Tracer()
    inputs = storefront.generate(7, storefront.TINY)
    tracer.install()
    try:
        out = storefront.run(inputs, 0, items=2, tracer=tracer)
    finally:
        tracer.uninstall()
    assert out.failures == []
    metrics = tracer.metrics(1.0, 1.0)
    assert list(metrics) == declared
    assert metrics["curve.base_mul.n"][0] > 0 and metrics["protocol.customer_approve_and_pay.n"][0] == 2
    # ecdsa_verify is reached through chain's and contract's own bindings
    assert metrics["curve.ecdsa_verify.n"][0] > 0
    assert all(tracing.tag_for(name) for name in declared)
    # uninstall restores the program's own functions
    import paytocontract.chain

    assert not hasattr(paytocontract.chain.ecdsa_verify, "__wrapped__")

    tracer = tracing.Tracer()
    out, plain_s, traced_s = cold_cli.run_traced(cold_cli.generate(7, tmp_path, cold_cli.TINY), 0, tracer)
    assert out.failures == [] and plain_s > 0 and traced_s > 0
    metrics = tracer.metrics(traced_s, traced_s / plain_s)
    assert metrics["chain.from_jsonl.n"][0] > 0 and metrics["cli.import_ms"][0] > 0


def test_end_to_end_metrics_match_benchmark_json():
    declared = [m["name"] for m in _benchmark_json()["end_to_end"]]
    for workload in run.WORKLOADS:
        assert declared == ["setup_s", "peak_rss_mb", "work_per_s", *run.SLOTS[workload]]


def test_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "storefront", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
