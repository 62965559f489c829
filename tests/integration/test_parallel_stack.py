"""Soak the full parallel stack on a 200k-item CAIDA-like trace.

These tests exercise the process-backed :class:`ParallelPipeline`
end-to-end: agreement with the deterministic in-process sharded filter,
ordered-mode determinism, periodic merged views, and — the part unit
tests cannot cover — the failure model.  A worker killed mid-stream
must surface as a :class:`WorkerCrashError` within the stall budget, a
wedged (stopped) worker as a :class:`PipelineStallError`, and neither
may leave live child processes behind; a hang here is a bug.
"""

import os
import signal
import time

import pytest

from repro.core.criteria import Criteria
from repro.parallel.pipeline import (
    ParallelPipeline,
    PipelineStallError,
    WorkerCrashError,
)
from repro.parallel.sharded import ShardedQuantileFilter
from repro.streams.caida_like import CaidaLikeConfig, generate_caida_like_trace

CRITERIA = Criteria(delta=0.95, threshold=200.0, epsilon=30.0)
GEOMETRY = dict(num_buckets=4_096, vague_width=2_048, seed=0)


@pytest.fixture(scope="module")
def trace():
    return generate_caida_like_trace(
        CaidaLikeConfig(num_items=200_000, num_keys=5_000, seed=0)
    )


def _assert_no_live_workers(pipe):
    for worker in pipe.workers:
        assert not worker.is_alive(), f"worker {worker.name} still alive"


def test_pipeline_matches_inprocess_sharding(trace):
    # The scalar engine's agreement is pinned in test_shm_transport.py.
    sharded = ShardedQuantileFilter(CRITERIA, 4, engine="batch", **GEOMETRY)
    expected = sharded.process(trace.keys, trace.values)

    pipe = ParallelPipeline(CRITERIA, 4, engine="batch", **GEOMETRY)
    result = pipe.run(trace.keys, trace.values)

    assert result.items == len(trace)
    assert result.per_shard_items == sharded.shard_items()
    assert result.reported_keys == expected
    assert result.reported_keys == sharded.reported_keys
    assert result.per_shard_reports == [
        shard.report_count for shard in sharded.shards
    ]
    assert sum(result.per_shard_reports) == sharded.report_count
    _assert_no_live_workers(pipe)


def test_ordered_mode_is_deterministic(trace):
    def run_once():
        sequence = []
        pipe = ParallelPipeline(
            CRITERIA, 3, engine="batch", mode="ordered",
            chunk_items=16_384,
            on_reports=lambda batch: sequence.append(
                (batch.chunk_id, batch.shard_id, tuple(batch.keys))
            ),
            **GEOMETRY,
        )
        result = pipe.run(trace.keys, trace.values)
        _assert_no_live_workers(pipe)
        return sequence, result.reported_keys

    first_sequence, first_reports = run_once()
    second_sequence, second_reports = run_once()
    assert first_sequence == second_sequence
    assert first_reports == second_reports
    # Ordered mode releases whole chunks in stream order.
    chunk_ids = [chunk_id for chunk_id, _, _ in first_sequence]
    assert chunk_ids == sorted(chunk_ids)


def test_periodic_merged_views(trace):
    views = []
    pipe = ParallelPipeline(
        CRITERIA, 2, engine="batch", merge_every=4, collect_merged=True,
        chunk_items=16_384,
        on_merge=lambda merged, chunk_id: views.append(
            (chunk_id, merged.items_processed)
        ),
        **GEOMETRY,
    )
    result = pipe.run(trace.keys, trace.values)
    _assert_no_live_workers(pipe)

    assert views, "merge_every produced no intermediate views"
    counts = [items for _, items in views]
    assert counts == sorted(counts)
    assert all(0 < items <= len(trace) for items in counts)
    assert result.merged is not None
    assert result.merged.items_processed == len(trace)
    assert result.merged.reported_keys == result.reported_keys


def test_worker_crash_surfaces_error_not_hang(trace):
    pipe = ParallelPipeline(
        CRITERIA, 3, engine="batch", chunk_items=8_192, stall_timeout=20.0,
        **GEOMETRY,
    )
    pipe.start()
    start = time.perf_counter()
    try:
        with pytest.raises(WorkerCrashError) as excinfo:
            first = True
            for begin in range(0, len(trace), pipe.chunk_items):
                end = begin + pipe.chunk_items
                pipe.feed(trace.keys[begin:end], trace.values[begin:end])
                if first:
                    os.kill(pipe.workers[1].pid, signal.SIGKILL)
                    first = False
            pipe.finish()
        elapsed = time.perf_counter() - start
        # Surfaced well before anything resembling a hang.
        assert elapsed < pipe.stall_timeout + 10.0
        message = str(excinfo.value)
        assert "shard 1" in message
        assert "died" in message
    finally:
        pipe.close()
    _assert_no_live_workers(pipe)


def test_wedged_worker_surfaces_stall_not_hang(trace):
    pipe = ParallelPipeline(
        CRITERIA, 2, engine="batch", chunk_items=8_192, stall_timeout=2.0,
        collect_stats=True, **GEOMETRY,
    )
    pipe.start()
    pipe.feed(trace.keys[:16_384], trace.values[:16_384])
    # One stats round trip: both workers are up and idle on their
    # input queues (not holding a queue lock) before one is stopped.
    pipe.collect_stats_view()
    wedged = pipe.workers[1].pid
    os.kill(wedged, signal.SIGSTOP)
    try:
        start = time.perf_counter()
        with pytest.raises(PipelineStallError) as excinfo:
            pipe.collect_stats_view()
        elapsed = time.perf_counter() - start
        # Alive but silent: no crash, the stall budget decides.  The
        # slack covers close(): a stopped process ignores SIGTERM, so
        # it is reaped by the SIGKILL after the 5 s join.
        assert pipe.stall_timeout <= elapsed < pipe.stall_timeout + 10.0
        assert "stats sync" in str(excinfo.value)
    finally:
        try:
            os.kill(wedged, signal.SIGCONT)
        except ProcessLookupError:
            pass
        pipe.close()
    _assert_no_live_workers(pipe)
