"""The compiled exact tier: build, fallback, plane guard and visibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.vectorized as vectorized
from repro.core.criteria import Criteria
from repro.core.inspect import describe, structural_probe
from repro.core.quantile_filter import QuantileFilter
from repro.core.vague import vague_key
from repro.core.vectorized import BatchQuantileFilter
from repro.observability.instrument import observe_filter
from repro.parallel.concurrent import ConcurrentQuantileFilter

SRC = Path(vectorized.__file__).resolve().parents[2]
CRITERIA = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=64, vague_width=128, seed=0)

needs_kernel = pytest.mark.skipif(
    vectorized._KERNEL is None, reason="no C compiler: kernel not built"
)

_IMPORT_WITHOUT_COMPILER = """
import json, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import repro
    from repro.core.vectorized import BatchQuantileFilter
from repro.core.criteria import Criteria
import numpy as np
filt = BatchQuantileFilter(
    Criteria(delta=0.9, threshold=100.0, epsilon=5.0),
    num_buckets=8, vague_width=16,
)
filt.process(np.arange(200) % 97, np.full(200, 400.0))
print(json.dumps({
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
    "kernel": filt.kernel,
    "reports": filt.report_count,
}))
"""


def test_failed_build_warns_once_and_falls_back(tmp_path):
    env = dict(os.environ)
    env.update(
        CC=str(tmp_path / "no-such-compiler"),
        XDG_CACHE_HOME=str(tmp_path / "empty-cache"),
        PYTHONPATH=str(SRC),
    )
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_WITHOUT_COMPILER],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert len(result["warnings"]) == 1
    assert "could not build the C exact tier" in result["warnings"][0]
    assert result["kernel"] == "python"
    assert result["reports"] > 0


@needs_kernel
def test_kernel_attribute_names_the_exact_tier():
    assert BatchQuantileFilter(CRITERIA, **GEOMETRY).kernel == "c"
    legacy = BatchQuantileFilter(CRITERIA, vectorize=False, **GEOMETRY)
    assert legacy.kernel == "python"
    assert ConcurrentQuantileFilter(CRITERIA, **GEOMETRY).kernel == "c"


def test_python_kernel_fixture_selects_the_fallback(python_kernel):
    assert BatchQuantileFilter(CRITERIA, **GEOMETRY).kernel == "python"


def test_kernel_is_visible_in_probe_describe_and_metrics():
    filt = BatchQuantileFilter(CRITERIA, **GEOMETRY)
    assert structural_probe(filt)["kernel"] == filt.kernel
    snapshot = observe_filter(filt).snapshot()
    assert snapshot[f'qf_build_info{{kernel="{filt.kernel}"}}'] == 1.0
    scalar = QuantileFilter(CRITERIA, **GEOMETRY)
    assert "exact tier: python kernel" in describe(scalar)
    assert 'qf_build_info{kernel="python"}' in observe_filter(scalar).snapshot()


@needs_kernel
def test_rebound_plane_is_rejected_not_copied():
    filt = BatchQuantileFilter(CRITERIA, vectorize=True, **GEOMETRY)
    filt._rows = filt._rows.tolist()
    with pytest.raises(TypeError, match="_rows must be a C-contiguous"):
        filt.process(np.arange(5_000) % 4_000, np.full(5_000, 50.0))
    filt = BatchQuantileFilter(CRITERIA, vectorize=True, **GEOMETRY)
    filt._cand_qws = np.asfortranarray(
        np.zeros((GEOMETRY["num_buckets"], filt.bucket_size))
    )
    with pytest.raises(TypeError, match="_cand_qws must be a C-contiguous"):
        filt.process(np.arange(5_000) % 4_000, np.full(5_000, 50.0))


@needs_kernel
def test_out_of_range_indices_are_rejected_before_the_call():
    kernel = vectorized._KERNEL
    filt = BatchQuantileFilter(CRITERIA, **GEOMETRY)
    fps, buckets, weights = filt._chunk_parts(np.arange(4), np.full(4, 50.0))
    with pytest.raises(IndexError, match="idx out of range"):
        kernel.scalar_pass(filt, fps, buckets, weights, np.array([4]), 1.0)
    with pytest.raises(IndexError, match="buckets out of range"):
        kernel.scalar_pass(
            filt, fps, buckets + filt.num_buckets, weights, np.arange(4), 1.0
        )
    with pytest.raises(IndexError, match="slots out of range"):
        kernel.replay_slots(filt, np.array([-1]), np.array([1.0]), 1.0)


@needs_kernel
def test_signed_zero_median_matches_python_sort():
    """Rows whose signed estimates are +0.0 and -0.0 tie in the median.

    Python's stable sort keeps them in row order, so the median, and
    the Qweight elected into the candidate slot, carries the sign of
    the earlier row; the kernel's sort must keep the same order.
    """
    dims = dict(num_buckets=1, bucket_size=1, depth=3, vague_width=1)
    criteria = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
    probe = BatchQuantileFilter(criteria, **dims)
    for key in range(1_000):
        fps, buckets, _ = probe._chunk_parts(
            np.array([key]), np.array([0.0])
        )
        fp, bucket = int(fps[0]), int(buckets[0])
        vkey = vague_key(fp, bucket)
        signs = probe._signs.signs(vkey)
        if len(set(signs)) == 2:
            break
    weight = -1.0  # a value below T
    rows = np.empty(3)
    plus = signs.index(1)
    minus = signs.index(-1)
    (other,) = {0, 1, 2} - {plus, minus}
    rows[plus] = -signs[plus] * weight  # signed estimate +0.0
    rows[minus] = -signs[minus] * weight  # signed estimate -0.0
    rows[other] = -3.0 * signs[other] - signs[other] * weight  # -3.0

    results = []
    for vectorize in (True, False):
        filt = BatchQuantileFilter(criteria, vectorize=vectorize, **dims)
        filt._cand_fps[0, 0] = fp ^ 1 or 2  # a different resident key
        filt._cand_qws[0, 0] = -5.0  # loses the election to a zero
        filt._rows[:, 0] = rows
        filt.process(np.array([key]), np.array([0.0]))
        results.append(filt)
    compiled, reference = results
    assert reference._cand_fps[0, 0] == fp
    expected = 0.0 if plus < minus else -0.0
    assert np.signbit(reference._cand_qws[0, 0]) == np.signbit(expected)
    assert compiled._cand_qws.tobytes() == reference._cand_qws.tobytes()
    assert compiled._rows.tobytes() == reference._rows.tobytes()
