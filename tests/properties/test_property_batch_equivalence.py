"""Property: batch engine == scalar filter, over random configurations.

The equivalence unit tests check a few fixed dimension pairs; this
property test lets hypothesis pick the structure dimensions, stream,
criteria AND chunk size — any divergence between the two engines is a
real bug in one of them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter


@st.composite
def scenarios(draw):
    num_buckets = draw(st.integers(min_value=1, max_value=32))
    bucket_size = draw(st.integers(min_value=1, max_value=8))
    vague_width = draw(st.integers(min_value=1, max_value=128))
    depth = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=1_000))
    chunk = draw(st.sampled_from([1, 7, 64, 10_000]))
    criteria = Criteria(
        delta=draw(st.sampled_from([0.5, 0.8, 0.9, 0.95])),
        threshold=draw(st.sampled_from([50.0, 200.0])),
        epsilon=draw(st.sampled_from([0.0, 2.0, 10.0])),
    )
    n = draw(st.integers(min_value=1, max_value=400))
    stream_seed = draw(st.integers(min_value=0, max_value=1_000))
    return (num_buckets, bucket_size, vague_width, depth, seed, chunk,
            criteria, n, stream_seed)


@given(scenario=scenarios())
@settings(max_examples=80, deadline=None)
def test_batch_equals_scalar_everywhere(scenario):
    (num_buckets, bucket_size, vague_width, depth, seed, chunk,
     criteria, n, stream_seed) = scenario
    rng = np.random.default_rng(stream_seed)
    keys = rng.integers(0, 60, size=n).astype(np.int64)
    values = np.where(
        rng.random(n) < 0.2, 500.0, rng.uniform(0, criteria.threshold, n)
    )

    scalar = QuantileFilter(
        criteria, num_buckets=num_buckets, bucket_size=bucket_size,
        vague_width=vague_width, depth=depth, counter_kind="float",
        seed=seed,
    )
    for key, value in zip(keys.tolist(), values.tolist()):
        scalar.insert(key, value)

    batch = BatchQuantileFilter(
        criteria, num_buckets=num_buckets, bucket_size=bucket_size,
        vague_width=vague_width, depth=depth, seed=seed, chunk_size=chunk,
    )
    batch.process(keys, values)

    assert batch.reported_keys == scalar.reported_keys
    assert batch.report_count == scalar.report_count
    assert batch.items_processed == scalar.items_processed


# The same properties on the no-compiler fallback: the exact tier runs
# the Python reference loop instead of the compiled kernel.


def test_batch_equals_scalar_python_kernel(python_kernel):
    test_batch_equals_scalar_everywhere()
