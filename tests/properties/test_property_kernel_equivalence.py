"""Property: the compiled exact tier is bit-exact vs the Python loop.

``BatchQuantileFilter(vectorize=True)`` runs Algorithm 2's exact tier
and the fast tier's risky-slot replay in compiled C
(:mod:`repro.core.kernel`); ``vectorize=False`` runs every item through
the Python reference loop.  Hypothesis hunts for a stream where the two
differ in anything: reports, any of the six tallies, a single bit of
the three planes, or the probabilistic strategy's RNG state.

The scenarios target what the C port could get wrong:

* tiny geometries, with even depths for the two-middle median;
* more distinct keys than candidate slots, so buckets overflow into
  the vague part and every election branch runs;
* all three replacement strategies (probabilistic draws from a ported
  MT19937 and must leave ``random.Random`` in the same state);
* a retarget between chunks;
* int64 extreme keys.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.vectorized as vectorized
from repro.core.criteria import Criteria
from repro.core.persistence import engine_state, restore_engine
from repro.core.strategies import strategy_names
from repro.core.vectorized import BatchQuantileFilter

pytestmark = pytest.mark.skipif(
    vectorized._KERNEL is None, reason="no C compiler: kernel not built"
)

EXTREME_KEYS = np.array(
    [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1],
    dtype=np.int64,
)

TALLIES = (
    "report_count", "candidate_reports", "vague_reports",
    "candidate_hits", "vague_inserts", "swaps",
)


@st.composite
def scenarios(draw):
    num_buckets = draw(st.integers(min_value=1, max_value=8))
    bucket_size = draw(st.integers(min_value=1, max_value=6))
    slots = num_buckets * bucket_size
    return dict(
        dims=dict(
            num_buckets=num_buckets,
            bucket_size=bucket_size,
            depth=draw(st.integers(min_value=1, max_value=4)),
            vague_width=draw(st.integers(min_value=1, max_value=64)),
            seed=draw(st.integers(min_value=0, max_value=500)),
            strategy=draw(st.sampled_from(strategy_names())),
            chunk_size=draw(st.sampled_from([1, 5, 64, 4_096])),
        ),
        criteria=Criteria(
            delta=draw(st.sampled_from([0.5, 0.9, 0.95])),
            threshold=100.0,
            epsilon=draw(st.sampled_from([0.0, 1.0, 5.0])),
        ),
        # More distinct keys than slots: the saturated regime.
        num_keys=slots + draw(st.integers(min_value=1, max_value=3 * slots)),
        n=draw(st.integers(min_value=1, max_value=800)),
        split=draw(st.floats(min_value=0.0, max_value=1.0)),
        new_threshold=draw(st.sampled_from([60.0, 100.0, 150.0])),
        hot_fraction=draw(st.sampled_from([0.1, 0.4, 0.8])),
        extremes=draw(st.booleans()),
        stream_seed=draw(st.integers(min_value=0, max_value=1_000)),
    )


def _stream(scenario):
    rng = np.random.default_rng(scenario["stream_seed"])
    n = scenario["n"]
    keys = rng.integers(0, scenario["num_keys"], size=n).astype(np.int64)
    if scenario["extremes"]:
        pick = rng.random(n) < 0.3
        keys[pick] = rng.choice(EXTREME_KEYS, size=int(pick.sum()))
    threshold = scenario["criteria"].threshold
    values = np.where(
        rng.random(n) < scenario["hot_fraction"],
        threshold * rng.uniform(1.01, 4.0, n),
        rng.uniform(0.0, threshold, n),
    )
    return keys, values


def _run(scenario, vectorize):
    filt = BatchQuantileFilter(
        scenario["criteria"], vectorize=vectorize, **scenario["dims"]
    )
    filt.stats_tallies = True
    keys, values = _stream(scenario)
    cut = int(scenario["split"] * keys.shape[0])
    filt.process(keys[:cut], values[:cut])
    filt.retarget(scenario["new_threshold"])
    filt.process(keys[cut:], values[cut:])
    return filt


def _assert_identical(compiled, reference):
    assert compiled.reported_keys == reference.reported_keys
    for name in TALLIES:
        assert getattr(compiled, name) == getattr(reference, name), name
    for plane in ("_cand_fps", "_cand_qws", "_rows"):
        got, want = getattr(compiled, plane), getattr(reference, plane)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), plane
    rng = getattr(compiled.strategy, "_rng", None)
    if rng is not None:
        assert rng.getstate() == reference.strategy._rng.getstate()


@given(scenario=scenarios())
@settings(max_examples=150, deadline=None)
def test_compiled_tier_bit_exact_vs_python_loop(scenario):
    compiled = _run(scenario, vectorize=True)
    reference = _run(scenario, vectorize=False)
    assert compiled.kernel == "c" and reference.kernel == "python"
    _assert_identical(compiled, reference)


@given(scenario=scenarios())
@settings(max_examples=40, deadline=None)
def test_restored_filter_continues_bit_exactly(scenario):
    """A checkpoint taken mid-stream restores into planes the kernel can
    keep writing in place, and both kernels continue identically."""
    keys, values = _stream(scenario)
    cut = int(scenario["split"] * keys.shape[0])
    finished = []
    for vectorize in (True, False):
        filt = BatchQuantileFilter(
            scenario["criteria"], vectorize=vectorize, **scenario["dims"]
        )
        filt.process(keys[:cut], values[:cut])
        restored = restore_engine(engine_state(filt))
        restored.strategy = filt.strategy  # the RNG is not checkpointed
        restored.process(keys[cut:], values[cut:])
        finished.append(restored)
    _assert_identical(*finished)
