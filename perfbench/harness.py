"""The engines under test, fed through their own entry points.

A harness owns one engine for one pass: :meth:`setup` builds it and
waits until it is ready, :meth:`feed` hands it one chunk, and
:meth:`finish` returns the reported key set once every report has
reached the caller.  Reports become visible through
``harness.deliveries``: ``(visible_at, chunk_id, keys)`` in delivery
order.

Given a :class:`~perfbench.spans.SpanRecorder`, a harness wraps the
calls into each layer on the engine's own objects before any traffic
(:meth:`BatchHarness.setup`, :meth:`PipelineHarness._trace`).  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.vectorized import BatchQuantileFilter
from repro.experiments.config import PAPER
from repro.observability.alerts import AlertEngine, default_rules
from repro.observability.histogram import buckets_from_snapshot
from repro.observability.timeseries import MetricStore
from repro.parallel.pipeline import ParallelPipeline
from repro.parallel.sharded import ShardRouter

#: Paper Section V-A geometry, as every committed benchmark uses it.
PAPER_DIMS = dict(
    bucket_size=PAPER.bucket_size,
    depth=PAPER.depth,
    candidate_fraction=PAPER.candidate_fraction,
    fp_bits=PAPER.fp_bits,
    seed=0,
)

#: Bytes one item occupies in the shm slot ring (int64 key + float64 value).
ITEM_BYTES = 16


def _trace_tiers(recorder, core) -> None:
    """Wrap the batch engine's tier entry points on one instance.

    These are the four calls :mod:`repro.parallel.concurrent` already
    makes across modules, so their signatures are the engine's own
    inter-layer contract.
    """
    recorder.wrap(core, "_chunk_parts", "core.vectorized.hash")
    recorder.wrap(core, "_classify_chunk", "core.vectorized.classify")
    recorder.wrap(
        core, "_fast_candidate_pass", "core.vectorized.fast",
        items=lambda args, kwargs: len(args[4]),
    )
    recorder.wrap(
        core, "_scalar_pass", "core.vectorized.exact",
        items=lambda args, kwargs: len(args[4]),
    )


class _Forward:
    """Stand-in for an object whose class forbids instance attributes.

    ``ShardRouter`` declares ``__slots__``, so its ``split`` cannot be
    wrapped on the instance; the pipeline gets this forwarder instead.
    """

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class BatchHarness:
    """Bare :class:`BatchQuantileFilter`, fed in the generator's thread."""

    #: The engine runs inside the generator's ``feed`` call.
    inline = True

    def __init__(self, spec: dict, criteria, recorder=None):
        self.spec = spec
        self.criteria = criteria
        self.recorder = recorder
        self.filt: Optional[BatchQuantileFilter] = None
        self.deliveries: List[Tuple[float, int, list]] = []

    def structures(self, keys: np.ndarray) -> List[Tuple[int, int]]:
        """``(distinct keys, candidate slots)`` of the one filter."""
        filt = BatchQuantileFilter(
            self.criteria, self.spec["memory_bytes"], **PAPER_DIMS
        )
        return [(np.unique(keys).shape[0], filt.num_buckets * filt.bucket_size)]

    def setup(self) -> None:
        self.filt = BatchQuantileFilter(
            self.criteria, self.spec["memory_bytes"], **PAPER_DIMS
        )
        self._known: set = set()
        self._seen_reports = 0
        self.deliveries = []
        if self.recorder is not None:
            self.filt.stats_tallies = True
            self.recorder.wrap(self.filt, "process", "core.vectorized.process")
            _trace_tiers(self.recorder, self.filt)

    def feed(self, chunk_id: int, keys: np.ndarray, values: np.ndarray) -> None:
        filt = self.filt
        filt.process(keys, values)
        if filt.report_count != self._seen_reports:
            self._seen_reports = filt.report_count
            fresh = filt.reported_keys - self._known
            self._known |= fresh
            self.deliveries.append((time.perf_counter(), chunk_id, list(fresh)))

    def worker_pids(self) -> List[int]:
        return []

    def finish(self) -> set:
        return set(self.filt.reported_keys)

    def close(self) -> None:
        self.filt = None

    def layer_counts(self) -> Dict[str, float]:
        filt = self.filt
        return {
            "core.vectorized.vague_inserts": filt.vague_inserts,
            "core.vectorized.swaps": filt.swaps,
            "core.vectorized.reports": filt.report_count,
        }

    def histograms(self) -> Dict[str, Tuple[list, list]]:
        return {}


class PipelineHarness:
    """:class:`ParallelPipeline` with stats and alerting switched on.

    ``engine="threads"`` shares one filter of ``memory_bytes`` between
    the updater threads.  The process engine splits ``memory_bytes``
    evenly over its shard workers, so both hold the same total number
    of candidate slots.  Every ``tick_every`` chunks the generator
    runs the alerting tick a deployment runs: ``collect_stats_view()``,
    then ``MetricStore.collect``, then ``AlertEngine.evaluate``.
    """

    #: The engine works in its own threads or processes.
    inline = False

    def __init__(
        self, spec: dict, criteria, chunk_items: int, tick_every: int,
        recorder=None, stream_keys: Optional[np.ndarray] = None,
    ):
        self.spec = spec
        self.criteria = criteria
        self.chunk_items = chunk_items
        self.tick_every = tick_every
        self.recorder = recorder
        self.stream_keys = stream_keys
        self.threads = spec["engine"] == "threads"
        self.pipe: Optional[ParallelPipeline] = None
        self.result = None
        self.deliveries: List[Tuple[float, int, list]] = []

    def _shard_bytes(self) -> int:
        if self.threads:
            return self.spec["memory_bytes"]
        return self.spec["memory_bytes"] // self.spec["workers"]

    def structures(self, keys: np.ndarray) -> List[Tuple[int, int]]:
        """``(distinct keys, candidate slots)`` of each filter.

        Shard workers own disjoint key sets, assigned by the same
        :class:`ShardRouter` the pipeline builds.
        """
        filt = BatchQuantileFilter(
            self.criteria, self._shard_bytes(), **PAPER_DIMS
        )
        slots = filt.num_buckets * filt.bucket_size
        if self.threads:
            return [(np.unique(keys).shape[0], slots)]
        router = ShardRouter(self.spec["workers"], filt.num_buckets, seed=0)
        shard_ids = router.shard_ids_batch(keys)
        return [
            (np.unique(keys[shard_ids == shard]).shape[0], slots)
            for shard in range(self.spec["workers"])
        ]

    def setup(self) -> None:
        self.deliveries = []
        self.result = None
        # The pipeline always splits memory 4:1, the paper's split.
        dims = {k: v for k, v in PAPER_DIMS.items() if k != "candidate_fraction"}
        self.pipe = ParallelPipeline(
            self.criteria,
            self.spec["workers"],
            engine="threads" if self.threads else "batch",
            memory_bytes=self._shard_bytes(),
            collect_stats=True,
            chunk_items=self.chunk_items,
            on_reports=self._on_reports,
            **({} if self.threads else {"transport": "shm"}),
            **dims,
        )
        self.store = MetricStore()
        self.alerts = AlertEngine(self.store, default_rules())
        self.pipe.start()
        self.pipe_filter = self.pipe.filter
        # Ready once every worker has answered a stats round trip.
        self.pipe.collect_stats_view()
        if self.recorder is not None:
            self._trace()

    def _on_reports(self, batch) -> None:
        if batch.keys:
            self.deliveries.append(
                (time.perf_counter(), batch.chunk_id, list(batch.keys))
            )

    def _chunk_of(self, keys: np.ndarray) -> int:
        """Stream chunk a (zero-copy) chunk array starts in."""
        base = self.stream_keys.__array_interface__["data"][0]
        offset = keys.__array_interface__["data"][0] - base
        return offset // (self.stream_keys.itemsize * self.chunk_items)

    def _trace(self) -> None:
        recorder = self.recorder
        pipe = self.pipe
        recorder.wrap(pipe, "feed", "parallel.pipeline.feed")
        recorder.wrap(pipe, "finish", "parallel.pipeline.finish")
        recorder.wrap(pipe, "collect_stats_view", "parallel.pipeline.stats_view")
        recorder.wrap(self.store, "collect", "observability.store_collect")
        recorder.wrap(self.alerts, "evaluate", "observability.alert_eval")
        if self.threads:
            filt = pipe.filter
            recorder.wrap(
                filt, "_flush", "parallel.concurrent.flush",
                items=lambda args, kwargs: len(args[0]),
                chunk=lambda args, kwargs: self._chunk_of(args[0]),
            )
            _trace_tiers(recorder, filt._core)
            return
        pipe.router = _Forward(pipe.router)
        recorder.wrap(
            pipe.router, "split", "parallel.sharded.route",
            items=lambda args, kwargs: len(args[0]),
        )
        for ring in pipe._rings:
            recorder.wrap(
                ring, "write", "parallel.transport.copy",
                items=lambda args, kwargs: len(args[1]),
            )

    def feed(self, chunk_id: int, keys: np.ndarray, values: np.ndarray) -> None:
        self.pipe.feed(keys, values)
        if (chunk_id + 1) % self.tick_every == 0:
            view = self.pipe.collect_stats_view()
            self.store.collect(view)
            self.alerts.evaluate()

    def worker_pids(self) -> List[int]:
        if self.threads:
            return []
        return [worker.pid for worker in self.pipe.workers]

    def finish(self) -> set:
        self.result = self.pipe.finish()
        return set(self.result.reported_keys)

    def close(self) -> None:
        if self.pipe is not None:
            self.pipe.close()
            self.pipe = None

    def layer_counts(self) -> Dict[str, float]:
        result = self.result
        stats = result.stats
        items = result.per_shard_items
        counts: Dict[str, float] = {
            "parallel.pipeline.report_batches":
                stats["pipeline_report_batches_total"],
            "parallel.pipeline.shard_skew": max(items) / (sum(items) / len(items)),
            "parallel.pipeline.worker_insert_s":
                stats.get("worker_insert_seconds_sum", 0.0),
        }
        if self.threads:
            filt = self.pipe_filter
            counts.update({
                "core.vectorized.vague_inserts": filt.vague_inserts,
                "core.vectorized.swaps": filt.swaps,
                "core.vectorized.reports": filt.report_count,
                "parallel.concurrent.lock_wait_s": filt.lock_wait.total,
            })
        else:
            counts.update({
                "core.vectorized.vague_inserts": stats["qf_vague_inserts_total"],
                "core.vectorized.swaps": stats["qf_candidate_swaps_total"],
                "core.vectorized.reports": sum(
                    value for name, value in stats.items()
                    if name.startswith("qf_reports_total")
                ),
            })
        return counts

    def histograms(self) -> Dict[str, Tuple[list, list]]:
        """Bucket bounds and counts of the pass's wait histograms.

        Threads wait on stripe locks; process workers' report batches
        wait in the result queue.  (The threads engine posts only
        non-empty batches, about one per chunk, too few for a p99.)
        """
        if self.threads:
            hist = self.pipe_filter.lock_wait
            return {
                "parallel.concurrent.lock_wait_p99_ms":
                    (list(hist.bounds), list(hist.counts)),
            }
        return {
            "parallel.pipeline.report_queue_delay_p99_ms": buckets_from_snapshot(
                self.result.stats, "pipeline_report_queue_delay_seconds"
            ),
        }
