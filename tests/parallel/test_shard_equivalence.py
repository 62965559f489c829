"""Property: sharded filter == single filter while no bucket overflows.

The sharding rule is bucket-affine (``shard = bucket % num_shards``
with every shard sharing the single filter's geometry and seed), so as
long as the reference single filter never touches its vague part every
report decision is a function of the key's own ``(bucket, fingerprint)``
state — state the owning shard reproduces exactly.  Hypothesis drives
random geometries, criteria and streams; the test keeps only runs in
that no-overflow regime (``vague_inserts == 0``) and demands the exact
same report set from every shard count, on both engines.

Under contention the exact guarantee intentionally degrades to "same
per-shard semantics, less collision noise"; the fixed-seed tests at the
bottom pin the contention behaviour where it *is* exact (one shard, and
batch-vs-scalar sharding agreement).
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.parallel.sharded import ShardRouter, ShardedQuantileFilter

SHARD_COUNTS = (1, 2, 4, 7)


@st.composite
def scenarios(draw):
    # Generous geometry relative to the key universe so that the
    # no-overflow regime (the assume() below) is the common case, not a
    # needle hypothesis has to hunt for.
    num_buckets = draw(st.integers(min_value=32, max_value=128))
    bucket_size = draw(st.integers(min_value=3, max_value=8))
    vague_width = draw(st.sampled_from([64, 256]))
    depth = draw(st.sampled_from([1, 3]))
    seed = draw(st.integers(min_value=0, max_value=1_000))
    criteria = Criteria(
        delta=draw(st.sampled_from([0.5, 0.8, 0.9, 0.95])),
        threshold=draw(st.sampled_from([50.0, 200.0])),
        epsilon=draw(st.sampled_from([0.0, 2.0, 10.0])),
    )
    n = draw(st.integers(min_value=1, max_value=500))
    key_universe = draw(st.integers(min_value=1, max_value=48))
    stream_seed = draw(st.integers(min_value=0, max_value=1_000))
    return (num_buckets, bucket_size, vague_width, depth, seed, criteria,
            n, key_universe, stream_seed)


def _make_stream(n, key_universe, threshold, stream_seed):
    rng = np.random.default_rng(stream_seed)
    keys = rng.integers(0, key_universe, size=n).astype(np.int64)
    values = np.where(
        rng.random(n) < 0.2, 500.0, rng.uniform(0, threshold, n)
    )
    return keys, values


@given(scenario=scenarios())
@settings(max_examples=60, deadline=None)
def test_sharded_equals_single_without_overflow(scenario):
    (num_buckets, bucket_size, vague_width, depth, seed, criteria,
     n, key_universe, stream_seed) = scenario
    keys, values = _make_stream(n, key_universe, criteria.threshold,
                                stream_seed)

    single = QuantileFilter(
        criteria, num_buckets=num_buckets, bucket_size=bucket_size,
        vague_width=vague_width, depth=depth, counter_kind="float",
        seed=seed,
    )
    for key, value in zip(keys.tolist(), values.tolist()):
        single.insert(key, value)
    assume(single.vague_inserts == 0)

    geometry = dict(
        num_buckets=num_buckets, bucket_size=bucket_size,
        vague_width=vague_width, depth=depth, seed=seed,
    )
    for shards in SHARD_COUNTS:
        scalar_sharded = ShardedQuantileFilter(
            criteria, shards, engine="scalar", counter_kind="float",
            **geometry,
        )
        for key, value in zip(keys.tolist(), values.tolist()):
            scalar_sharded.insert(key, value)
        assert scalar_sharded.reported_keys == single.reported_keys, shards
        assert scalar_sharded.report_count == single.report_count, shards

        batch_sharded = ShardedQuantileFilter(
            criteria, shards, engine="batch", **geometry,
        )
        batch_sharded.process(keys, values)
        assert batch_sharded.reported_keys == single.reported_keys, shards
        assert batch_sharded.report_count == single.report_count, shards


@given(scenario=scenarios())
@settings(max_examples=30, deadline=None)
def test_merged_view_matches_single_without_overflow(scenario):
    (num_buckets, bucket_size, vague_width, depth, seed, criteria,
     n, key_universe, stream_seed) = scenario
    keys, values = _make_stream(n, key_universe, criteria.threshold,
                                stream_seed)

    single = QuantileFilter(
        criteria, num_buckets=num_buckets, bucket_size=bucket_size,
        vague_width=vague_width, depth=depth, counter_kind="float",
        seed=seed,
    )
    for key, value in zip(keys.tolist(), values.tolist()):
        single.insert(key, value)
    assume(single.vague_inserts == 0)

    sharded = ShardedQuantileFilter(
        criteria, 4, engine="batch", num_buckets=num_buckets,
        bucket_size=bucket_size, vague_width=vague_width, depth=depth,
        seed=seed,
    )
    sharded.process(keys, values)
    merged = sharded.merged()
    assert merged.items_processed == single.items_processed
    assert merged.reported_keys == single.reported_keys
    # The merged view answers point queries like the single filter.
    for key in sorted(set(keys.tolist()))[:10]:
        assert merged.query(key) == single.query(key)


def test_one_shard_is_exactly_the_single_filter_under_contention():
    """shards=1 routes everything to one full filter — always exact."""
    criteria = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
    # Tiny geometry + many keys: heavy bucket overflow by construction.
    keys, values = _make_stream(5_000, 400, criteria.threshold, 7)
    single = QuantileFilter(
        criteria, num_buckets=8, bucket_size=2, vague_width=32, depth=3,
        counter_kind="float", seed=11,
    )
    for key, value in zip(keys.tolist(), values.tolist()):
        single.insert(key, value)
    assert single.vague_inserts > 0  # the regime this test is about

    sharded = ShardedQuantileFilter(
        criteria, 1, engine="scalar", counter_kind="float",
        num_buckets=8, bucket_size=2, vague_width=32, depth=3, seed=11,
    )
    for key, value in zip(keys.tolist(), values.tolist()):
        sharded.insert(key, value)
    assert sharded.reported_keys == single.reported_keys
    assert sharded.report_count == single.report_count


def test_batch_and_scalar_sharding_agree_under_contention():
    """The two engines stay interchangeable even when shards overflow."""
    criteria = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
    keys, values = _make_stream(5_000, 400, criteria.threshold, 13)
    geometry = dict(num_buckets=8, bucket_size=2, vague_width=32,
                    depth=3, seed=5)
    for shards in SHARD_COUNTS:
        scalar = ShardedQuantileFilter(
            criteria, shards, engine="scalar", counter_kind="float",
            **geometry,
        )
        for key, value in zip(keys.tolist(), values.tolist()):
            scalar.insert(key, value)
        batch = ShardedQuantileFilter(
            criteria, shards, engine="batch", **geometry,
        )
        batch.process(keys, values)
        assert batch.reported_keys == scalar.reported_keys, shards
        assert batch.report_count == scalar.report_count, shards


def test_router_is_bucket_affine():
    """Every key in a bucket maps to the same shard, for any count."""
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 40, size=2_000).astype(np.int64)
    for shards in SHARD_COUNTS:
        router = ShardRouter(shards, num_buckets=64, seed=3)
        bucket_to_shard = {}
        for key in keys.tolist():
            bucket = router.bucket_of(key)
            shard = router.shard_of(key)
            assert shard == bucket % shards
            assert bucket_to_shard.setdefault(bucket, shard) == shard
        # Vectorised routing matches the scalar path element-wise.
        expected = [router.shard_of(key) for key in keys.tolist()]
        assert router.shard_ids_batch(keys).tolist() == expected


def test_scalar_twin_does_not_share_the_batch_vague_plane():
    from repro.core.vectorized import BatchQuantileFilter
    from repro.parallel.sharded import batch_filter_to_scalar

    criteria = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
    batch = BatchQuantileFilter(criteria, num_buckets=2, vague_width=16)
    rng = np.random.default_rng(0)
    batch.process(rng.integers(0, 200, 2_000), rng.uniform(0, 300, 2_000))
    before = batch._rows.copy()
    twin = batch_filter_to_scalar(batch)
    for key in range(200):
        twin.insert(key, 500.0)
    assert np.array_equal(batch._rows, before)
