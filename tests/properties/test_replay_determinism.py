"""Property: incident-bundle replay is bit-identical, both engines.

The flight recorder's whole value rests on one claim — ``base snapshot
+ retained chunks`` deterministically reproduces the live filter:
reports, counters, state fingerprint and structural health verdict.
Hypothesis picks the structure dimensions, criteria, stream, chunking,
ring size, engine AND a warm-up prefix (so the base snapshot is taken
mid-stream, not at construction).  Every bundle also round-trips
through JSON text first, so the serialised form — float repr and all —
is what's proven deterministic, exactly what a bundle read back from
disk replays.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter
from repro.observability.recorder import FlightRecorder, replay_bundle


@st.composite
def scenarios(draw):
    engine = draw(st.sampled_from(["scalar", "batch"]))
    num_buckets = draw(st.integers(min_value=1, max_value=32))
    bucket_size = draw(st.integers(min_value=1, max_value=8))
    vague_width = draw(st.integers(min_value=1, max_value=128))
    depth = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=1_000))
    criteria = Criteria(
        delta=draw(st.sampled_from([0.5, 0.8, 0.9, 0.95])),
        threshold=draw(st.sampled_from([50.0, 200.0])),
        epsilon=draw(st.sampled_from([0.0, 2.0, 10.0])),
    )
    warmup = draw(st.integers(min_value=0, max_value=200))
    n = draw(st.integers(min_value=1, max_value=500))
    chunk = draw(st.sampled_from([1, 7, 64, 256]))
    max_chunks = draw(st.integers(min_value=1, max_value=6))
    stream_seed = draw(st.integers(min_value=0, max_value=1_000))
    return (engine, num_buckets, bucket_size, vague_width, depth, seed,
            criteria, warmup, n, chunk, max_chunks, stream_seed)


def make_stream(n, threshold, stream_seed):
    rng = np.random.default_rng(stream_seed)
    keys = rng.integers(0, 60, size=n).astype(np.int64)
    values = np.where(
        rng.random(n) < 0.2, threshold * 5.0,
        rng.uniform(0, threshold, n),
    )
    return keys, values


@given(scenario=scenarios())
@settings(max_examples=60, deadline=None)
def test_replay_reproduces_capture_bit_identically(scenario):
    (engine, num_buckets, bucket_size, vague_width, depth, seed,
     criteria, warmup, n, chunk, max_chunks, stream_seed) = scenario
    geometry = dict(
        num_buckets=num_buckets, bucket_size=bucket_size,
        vague_width=vague_width, depth=depth, seed=seed,
    )
    if engine == "scalar":
        filt = QuantileFilter(criteria, counter_kind="float", **geometry)
    else:
        filt = BatchQuantileFilter(criteria, chunk_size=max(chunk, 1),
                                   **geometry)
    warm_keys, warm_values = make_stream(
        warmup, criteria.threshold, stream_seed + 10_000
    )
    if warmup:
        if engine == "scalar":
            filt.insert_many(warm_keys.tolist(), warm_values.tolist())
        else:
            filt.process(warm_keys, warm_values)

    # Attach mid-stream: the base snapshot captures the warmed state.
    rec = FlightRecorder(filt, max_chunks=max_chunks, chunk_items=chunk)
    keys, values = make_stream(n, criteria.threshold, stream_seed)
    for begin in range(0, n, chunk):
        rec.feed(keys[begin:begin + chunk].tolist(),
                 values[begin:begin + chunk].tolist())

    bundle = json.loads(json.dumps(rec.bundle("property")))
    result = replay_bundle(bundle)
    assert result.ok, result.mismatches
    assert result.engine == engine
    assert result.fingerprint_ok
    assert result.verdict_ok
    assert result.reports_replayed == result.reports_expected


@given(scenario=scenarios())
@settings(max_examples=20, deadline=None)
def test_scalar_per_item_tap_replays(scenario):
    (_, num_buckets, bucket_size, vague_width, depth, seed,
     criteria, _, n, chunk, max_chunks, stream_seed) = scenario
    filt = QuantileFilter(
        criteria, num_buckets=num_buckets, bucket_size=bucket_size,
        vague_width=vague_width, depth=depth, counter_kind="float",
        seed=seed,
    )
    rec = FlightRecorder(filt, max_chunks=max_chunks, chunk_items=chunk)
    keys, values = make_stream(n, criteria.threshold, stream_seed)
    for key, value in zip(keys.tolist(), values.tolist()):
        rec.insert(key, value)
    result = replay_bundle(json.loads(json.dumps(rec.bundle("property"))))
    assert result.ok, result.mismatches


# The same properties on the no-compiler fallback: the exact tier runs
# the Python reference loop instead of the compiled kernel.


def test_replay_capture_python_kernel(python_kernel):
    test_replay_reproduces_capture_bit_identically()
