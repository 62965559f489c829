"""Pure measurement helpers: percentiles, the open-loop schedule, latency
attribution, host speed and process memory.

Nothing here imports the system under test, so the helpers are tested
on fake clocks and fake engines (``perfbench/tests``).
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it, so p99 needs 1,000 samples, p90 needs 100 and p50 needs 20.
SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def min_samples(q: float) -> int:
    """Smallest sample count that leaves ``SAMPLES_BEYOND`` beyond ``q``."""
    if not 0.0 <= q < 100.0:
        raise ValueError(f"percentile must be in [0, 100), got {q}")
    return math.ceil(SAMPLES_BEYOND * 100.0 / (100.0 - q) - 1e-9)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile; refuses thin samples."""
    need = min_samples(q)
    if len(samples) < need:
        raise TooFewSamples(
            f"p{q:g} needs at least {need} samples, got {len(samples)}"
        )
    ordered = sorted(samples)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def binned_percentile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """``q``-th percentile of a log histogram; refuses thin samples."""
    from repro.common.percentile import percentile_from_buckets

    total = int(sum(counts))
    need = min_samples(q)
    if total < need:
        raise TooFewSamples(
            f"p{q:g} needs at least {need} samples, got {total}"
        )
    return percentile_from_buckets(bounds, counts, q)


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# ----------------------------------------------------------------------
# open-loop load generation
# ----------------------------------------------------------------------
def chunk_bounds(n_items: int, chunk_items: int) -> List[Tuple[int, int]]:
    """``(start, end)`` of every chunk of an ``n_items`` stream."""
    return [
        (start, min(start + chunk_items, n_items))
        for start in range(0, n_items, chunk_items)
    ]


def spin(seconds: float) -> None:
    """Busy-wait ``seconds``: keeps the core awake, unlike ``time.sleep``."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def run_open_loop(
    feed: Callable[[int], None],
    bounds: Sequence[Tuple[int, int]],
    items_per_s: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[List[float], List[float]]:
    """Feed chunk ``k`` once its last item is due, whatever the engine does.

    Item ``i`` is due ``(i + 1) / items_per_s`` seconds after the start,
    so a chunk is due when its last item is.  The schedule never waits
    for the engine: after a stall, the chunks that fell due meanwhile
    are fed back to back.  Returns ``(due, lag)``: each chunk's due
    time and how late the generator started feeding it.
    """
    start = clock()
    due: List[float] = []
    lag: List[float] = []
    for k, (_, end) in enumerate(bounds):
        due_at = start + end / items_per_s
        now = clock()
        if due_at > now:
            sleep(due_at - now)
            now = clock()
        due.append(due_at)
        lag.append(now - due_at)
        feed(k)
    return due, lag


def key_latencies(
    deliveries: Iterable[Tuple[float, int, Sequence]],
    due: Sequence[float],
) -> List[float]:
    """One latency per newly reported key, timed from its chunk's due time.

    ``deliveries`` holds ``(visible_at, chunk_id, keys)`` in delivery
    order.  A batch that names no chunk (``chunk_id == -1``: keys the
    threads engine claims while stopping) is timed from the last
    chunk.  A key delivered twice counts once, at its first delivery.
    A chunk whose due time is ``None`` (fed before the schedule began)
    gives no samples, but its keys count as delivered.
    """
    seen = set()
    out: List[float] = []
    for visible_at, chunk_id, keys in deliveries:
        base = due[-1] if chunk_id == -1 else due[chunk_id]
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            if base is not None:
                out.append(visible_at - base)
    return out


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
class _Counter:
    def __init__(self):
        self.total = 0

    def add(self, value):
        self.total += value
        return self.total


_PROBE_KEYS = np.random.default_rng(0).integers(0, 1 << 40, 8192)
#: Scratch that ``_probe_scalar`` writes to; its contents are never read.
_PROBE_TABLE = np.zeros(4096)


def _probe_loop() -> None:
    total = 0
    for i in range(10_000):
        total += i


def _probe_calls() -> None:
    counter = _Counter()
    for i in range(2_000):
        counter.add(i)


def _probe_scalar() -> None:
    table, seen = _PROBE_TABLE, {}
    for i in range(500):
        slot = int(_PROBE_KEYS[i]) & 4095
        table[slot] += 1.0
        seen[slot] = seen.get(slot, 0) + 1


def _probe_vector() -> None:
    mixed = (_PROBE_KEYS * 0x9E3779B1) ^ (_PROBE_KEYS >> 17)
    order = np.argsort(mixed & 0xFFFF, kind="stable")
    np.bincount((mixed[order] & 4095).astype(np.intp), minlength=4096)


#: Fixed work of the kinds the engines mix, about 0.5 ms each: an
#: interpreter loop, method calls, numpy scalar access with dict
#: updates, and a vectorised hash, sort and count.  Their times follow
#: the host's current speed, each with its own sensitivity.
PROBES: Dict[str, Callable[[], None]] = {
    "loop": _probe_loop,
    "calls": _probe_calls,
    "scalar": _probe_scalar,
    "vector": _probe_vector,
}


def probe(clock: Callable[[], float] = time.perf_counter) -> Dict[str, float]:
    """Seconds each of :data:`PROBES` takes on the host right now."""
    times = {}
    for name, work in PROBES.items():
        start = clock()
        work()
        times[name] = clock() - start
    return times


def host_slowdown(
    probes: Sequence[Dict[str, float]], reference_s: Dict[str, float]
) -> float:
    """How much slower than its reference speed the host ran.

    ``probes`` are :func:`probe` results taken during one pass, and
    ``reference_s`` holds each probe's time at the reference speed.  The
    slowdown is the geometric mean, over the probes, of their mean time
    over their reference time.  A time divided by the slowdown (a rate
    multiplied by it) reads as it would at the reference speed.
    """
    ratios = [
        statistics.fmean(p[name] for p in probes) / reference_s[name]
        for name in PROBES
    ]
    return math.exp(statistics.fmean(math.log(r) for r in ratios))


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def peak_rss_bytes(pid: int = 0) -> int:
    """Peak resident set (``VmHWM``) of a live process; 0 if unreadable."""
    path = f"/proc/{pid or os.getpid()}/status"
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def f1_score(reported: set, truth: set) -> float:
    """F1 of a reported key set against the oracle's."""
    if not reported and not truth:
        return 1.0
    hits = len(reported & truth)
    return 2.0 * hits / (len(reported) + len(truth))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))

