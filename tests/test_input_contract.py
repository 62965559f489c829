"""One input contract across the engines' bulk entry points.

Every bulk path checks its chunk with
:func:`repro.common.hashing.validate_chunk`: float keys raise the
``ParameterError`` the hashing of a float key raises in the scalar and
batch engines, instead of being truncated to int64; key and value
arrays of different lengths raise instead of silently processing the
shorter prefix; NaN values, whose Qweight is undefined, raise instead
of being weighed as ``<= T``.
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
    "entry",
    ["scalar", "windowed", "batch", "pipeline-batch", "concurrent",
     "concurrent-ingest", "pipeline-threads"],
)
def test_length_mismatch_rejected(entry):
    bulk = BULK_ENTRY_POINTS[entry]()
    with pytest.raises(
        ParameterError, match="keys and values length mismatch: 3 vs 1"
    ):
        bulk(np.array([1, 2, 3]), np.array([400.0]))


@pytest.mark.parametrize("entry", sorted(BULK_ENTRY_POINTS))
@pytest.mark.parametrize("where", [0, 2])
def test_nan_values_rejected(entry, where):
    bulk = BULK_ENTRY_POINTS[entry]()
    values = np.array([400.0, 50.0, 400.0])
    values[where] = np.nan
    with pytest.raises(ParameterError, match="values contain NaN"):
        bulk(np.array([1, 2, 3]), values)


@pytest.mark.parametrize("entry", sorted(BULK_ENTRY_POINTS))
def test_infinite_values_accepted(entry):
    # +-inf have a well-defined side of T, so they are valid values.
    bulk = BULK_ENTRY_POINTS[entry]()
    bulk(np.array([1, 2]), np.array([np.inf, -np.inf]))


def test_nan_rejected_before_any_state_changes():
    filt = BatchQuantileFilter(CRITERIA, **GEOMETRY)
    with pytest.raises(ParameterError, match="values contain NaN"):
        filt.process(np.arange(10), np.r_[np.full(9, 400.0), np.nan])
    assert filt.items_processed == 0
    assert not filt._cand_fps.any()
