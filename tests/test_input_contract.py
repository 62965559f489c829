"""One input contract across the engines' bulk entry points.

Every integer-keyed bulk path rejects float keys with the
``ParameterError`` the hashing of a float key raises in the scalar and
batch engines, instead of truncating them to int64; key and value
arrays of different lengths raise instead of silently processing the
shorter prefix.
"""

import numpy as np
import pytest

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter
from repro.core.windowed import WindowedQuantileFilter
from repro.parallel.concurrent import ConcurrentQuantileFilter
from repro.parallel.pipeline import ParallelPipeline

CRITERIA = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=64, vague_width=128, seed=0)


def _pipeline_feed(engine):
    def feed(keys, values):
        pipe = ParallelPipeline(CRITERIA, 2, engine=engine, **GEOMETRY)
        try:
            pipe.feed(keys, values)
        finally:
            pipe.close()
    return feed


#: name -> factory of a fresh ``bulk(keys, values)`` entry point.
BULK_ENTRY_POINTS = {
    "scalar": lambda: QuantileFilter(CRITERIA, **GEOMETRY).insert_many,
    "windowed": lambda: WindowedQuantileFilter(
        CRITERIA, 16_384, window_items=1_000
    ).insert_many,
    "batch": lambda: BatchQuantileFilter(CRITERIA, **GEOMETRY).process,
    "concurrent": lambda: ConcurrentQuantileFilter(
        CRITERIA, **GEOMETRY
    ).process,
    "concurrent-ingest": lambda: ConcurrentQuantileFilter(
        CRITERIA, **GEOMETRY
    ).ingest().insert_many,
    "pipeline-batch": lambda: _pipeline_feed("batch"),
    "pipeline-threads": lambda: _pipeline_feed("threads"),
}


@pytest.mark.parametrize("entry", sorted(BULK_ENTRY_POINTS))
def test_float_keys_rejected(entry):
    bulk = BULK_ENTRY_POINTS[entry]()
    with pytest.raises(ParameterError, match="unsupported key type float"):
        bulk(np.array([1.5, 2.5]), np.array([400.0, 400.0]))


@pytest.mark.parametrize(
    "entry", ["scalar", "windowed", "batch", "pipeline-batch"]
)
def test_length_mismatch_rejected(entry):
    bulk = BULK_ENTRY_POINTS[entry]()
    with pytest.raises(
        ParameterError, match="keys and values length mismatch: 3 vs 1"
    ):
        bulk(np.array([1, 2, 3]), np.array([400.0]))
