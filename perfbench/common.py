"""Pieces the three workloads share: statistics, the outcome record, set-up timing."""

from __future__ import annotations

import contextlib
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, TypeVar

import paytocontract as pc

T = TypeVar("T")

# set-up is repeated and its median reported, so that one slow repetition
# (a page-cache miss, a neighbour's burst) does not read as a regression
SETUP_REPEATS = 3


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_setup(make: Callable[[], T]) -> Tuple[T, List[float]]:
    """Run ``make`` SETUP_REPEATS times; return the last result and every duration."""
    durations = []
    for _ in range(SETUP_REPEATS):
        result = None  # let the previous repetition's objects go before the next starts
        start = time.perf_counter()
        result = make()
        durations.append(time.perf_counter() - start)
    return result, durations


def p2pkh(key: pc.KeyPair) -> pc.Address:
    """The pay-to-pubkey-hash address a key spends from."""
    return pc.Address("p2pkh", pc.hash160(key.public.encode()))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest waited-for child, in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


@dataclass
class Outcome:
    """What one timed pass measured and whether every output checked out.

    ``samples`` holds per-operation wall times in ms, keyed by the
    workload's series names (``order_ms``, ``redeem_ms``, ...).  ``work`` units done in
    ``busy_s`` seconds of timed calls give the throughput.  Every operation
    the pass attempts is recorded once through :meth:`record`.
    """

    samples: Dict[str, List[float]] = field(default_factory=dict)
    work: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    items: int = 0  # loop iterations (orders, scan rounds, command cycles) completed

    def add(self, series: str, seconds: float):
        self.samples.setdefault(series, []).append(seconds * 1000.0)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def keep_going(start: float, seconds: float, items_done: int, items: int | None) -> bool:
    """Loop condition for a timed pass: a fixed item count, else a time budget.

    A time-budgeted pass always completes at least one item.
    """
    if items is not None:
        return items_done < items
    return items_done == 0 or time.perf_counter() - start < seconds


def untraced(tracer):
    """Context for the harness's output checks: no spans, when a tracer is running."""
    return tracer.pause() if tracer is not None else contextlib.nullcontext()
