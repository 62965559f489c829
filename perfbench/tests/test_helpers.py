"""Tests for the benchmark's own measurement helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

import pytest

from perfbench.measure import (
    PROBES,
    TooFewSamples,
    binned_percentile,
    chunk_bounds,
    host_slowdown,
    key_latencies,
    min_samples,
    percentile,
    probe,
    run_open_loop,
)
from perfbench.spans import SpanRecorder, layer_totals, self_times
from repro.observability.tracing import Tracer


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_percentiles_refuse_thin_samples():
    assert min_samples(99) == 1000
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    with pytest.raises(TooFewSamples, match="p99 needs at least 1000"):
        percentile([1.0] * 999, 99)
    assert percentile(list(range(1000)), 99) == pytest.approx(989.01)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(TooFewSamples):
        binned_percentile([1.0, 2.0], [500, 499], 99)
    assert 1.0 < binned_percentile([1.0, 2.0], [500, 500], 99) <= 2.0


def test_open_loop_times_latency_from_due_time_through_a_stall():
    clock = FakeClock()
    bounds = chunk_bounds(50, 10)  # five chunks, one due every 0.1 s
    deliveries = []

    def feed(k):
        clock.sleep(1.0 if k == 1 else 0.01)  # the engine stalls on chunk 1
        deliveries.append((clock(), k, [f"key{k}"]))

    due, lag = run_open_loop(feed, bounds, 100.0, clock=clock, sleep=clock.sleep)
    assert due == pytest.approx([100.1, 100.2, 100.3, 100.4, 100.5])
    # The schedule does not wait for the stalled engine: chunks 2-4 fell
    # due during the stall and are fed late, back to back.
    assert lag[:2] == pytest.approx([0.0, 0.0])
    assert lag[2] == pytest.approx(0.90)
    assert lag[3] == pytest.approx(0.81)
    latencies = key_latencies(deliveries, due)
    assert latencies[1] == pytest.approx(1.0)
    # Timed from when chunk 2 was due, not from when it was sent.
    assert latencies[2] == pytest.approx(0.91)
    assert latencies[4] == pytest.approx(0.73)


def test_chunkless_batches_are_timed_from_the_last_chunk():
    due = [1.0, 2.0, 3.0]
    deliveries = [
        (2.5, 1, ["a"]),
        (4.0, -1, ["b", "a"]),  # "a" was already delivered
    ]
    assert key_latencies(deliveries, due) == pytest.approx([0.5, 1.0])


def test_warmup_chunks_give_no_samples_but_count_as_delivered():
    due = [None, 2.0]
    deliveries = [
        (1.5, 0, ["a"]),
        (2.5, 1, ["a", "b"]),  # "a" was delivered during the warm-up
    ]
    assert key_latencies(deliveries, due) == pytest.approx([0.5])


def test_host_slowdown_is_the_geometric_mean_over_probes():
    ticks = iter(range(100))
    times = probe(clock=lambda: float(next(ticks)))
    assert times == {name: 1.0 for name in PROBES}
    reference = {name: 0.001 for name in PROBES}
    # One probe kind ran at a quarter of its reference speed, the others
    # at it: the slowdown is the fourth root of 4 with four kinds.
    first = dict(reference, loop=0.003)
    second = dict(reference, loop=0.005)
    slowdown = host_slowdown([first, second], reference)
    assert slowdown == pytest.approx(4.0 ** (1 / len(PROBES)))


def _event(span_id, parent, start_ms, end_ms, name="x"):
    return {
        "name": name, "ph": "X", "cat": "perfbench",
        "ts": start_ms * 1e3, "dur": (end_ms - start_ms) * 1e3,
        "args": {"id": span_id, "parent": parent, "chunk": 0},
    }


def test_self_time_subtracts_children_once():
    events = [
        _event(1, 0, 0, 10, "root"),
        _event(2, 1, 1, 3, "child"),
        _event(3, 1, 2, 4, "child"),   # overlaps its sibling
        _event(4, 1, 9, 12, "child"),  # runs past its parent
        _event(5, 2, 1, 2, "grandchild"),
    ]
    by_id = {args["id"]: s for _, s, args in self_times(events)}
    assert by_id[1] == pytest.approx(0.010 - 0.003 - 0.001)
    assert by_id[2] == pytest.approx(0.001)
    assert by_id[5] == pytest.approx(0.001)
    totals = layer_totals(events)
    assert totals["child"]["calls"] == 3


def test_recorder_links_nested_calls_and_names_the_chunk():
    class Layer:
        def outer(self, items):
            return self.inner(items) + 1

        def inner(self, items):
            return len(items)

    tracer = Tracer()
    recorder = SpanRecorder(tracer)
    layer = Layer()
    recorder.wrap(layer, "inner", "inner", items=lambda a, k: len(a[0]))
    recorder.wrap(layer, "outer", "outer")
    recorder.set_chunk(7)
    assert layer.outer([1, 2, 3]) == 4
    inner, outer = tracer.chrome_events()
    assert inner["args"]["parent"] == outer["args"]["id"]
    assert outer["args"]["parent"] == 0
    assert inner["args"]["chunk"] == outer["args"]["chunk"] == 7
    assert inner["args"]["items"] == 3
    assert Layer().outer([1]) == 2  # only the wrapped instance is traced
    assert len(tracer.chrome_events()) == 2
