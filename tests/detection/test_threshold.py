"""Tests for repro.detection.threshold.

Estimator accuracy against numpy's exact quantiles, the controller's
guard chain (warmup / dwell / deadband / horizon), and the control
loop's binding to every retargetable engine.
"""

import numpy as np
import pytest

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter
from repro.detection.threshold import (
    ESTIMATOR_BACKENDS,
    KLLQuantileEstimator,
    P2QuantileEstimator,
    ThresholdControlLoop,
    ThresholdController,
    make_estimator,
)

CRIT = Criteria(delta=0.5, threshold=100.0, epsilon=2.0)


class TestP2Estimator:
    def test_empty_is_nan(self):
        est = P2QuantileEstimator(0.95)
        assert est.quantile() != est.quantile()  # NaN
        assert est.count == 0

    def test_small_samples_exact(self):
        est = P2QuantileEstimator(0.5)
        for v in [10.0, 30.0, 20.0]:
            est.update(v)
        assert est.quantile() == 20.0

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
    def test_tracks_uniform(self, q):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 1000.0, size=20_000)
        est = P2QuantileEstimator(q)
        for v in values.tolist():
            est.update(v)
        exact = float(np.quantile(values, q))
        assert est.quantile() == pytest.approx(exact, rel=0.05)

    def test_tracks_lognormal(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(3.0, 1.0, size=20_000)
        est = P2QuantileEstimator(0.95)
        for v in values.tolist():
            est.update(v)
        exact = float(np.quantile(values, 0.95))
        assert est.quantile() == pytest.approx(exact, rel=0.15)

    def test_clear(self):
        est = P2QuantileEstimator(0.5)
        for v in range(100):
            est.update(float(v))
        est.clear()
        assert est.count == 0
        assert est.quantile() != est.quantile()

    def test_constant_space(self):
        est = P2QuantileEstimator(0.9)
        before = est.nbytes
        for v in range(10_000):
            est.update(float(v % 97))
        assert est.nbytes == before

    def test_invalid_quantile(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                P2QuantileEstimator(q)


class TestKLLEstimator:
    def test_empty_is_nan(self):
        est = KLLQuantileEstimator(0.95)
        assert est.quantile() != est.quantile()

    def test_tracks_uniform(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 1000.0, size=20_000)
        est = KLLQuantileEstimator(0.95, seed=1)
        for v in values.tolist():
            est.update(v)
        exact = float(np.quantile(values, 0.95))
        assert est.quantile() == pytest.approx(exact, rel=0.05)

    def test_clear_and_merge(self):
        a = KLLQuantileEstimator(0.5, seed=0)
        b = KLLQuantileEstimator(0.5, seed=0)
        for v in range(1_000):
            a.update(float(v))
            b.update(float(v))
        a.merge(b)
        assert a.count == 2_000
        a.clear()
        assert a.count == 0


class TestFactory:
    @pytest.mark.parametrize("backend", ESTIMATOR_BACKENDS)
    def test_builds_each_backend(self, backend):
        est = make_estimator(backend, 0.9, seed=2)
        est.update(1.0)
        assert est.count == 1

    def test_unknown_backend(self):
        with pytest.raises(ParameterError):
            make_estimator("reservoir", 0.9)


class TestControllerGuards:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ThresholdController(100.0, 1.5)
        with pytest.raises(ParameterError):
            ThresholdController(100.0, 0.9, deadband=-0.1)
        with pytest.raises(ParameterError):
            ThresholdController(100.0, 0.9, min_dwell_items=0)
        with pytest.raises(ParameterError):
            ThresholdController(100.0, 0.9, warmup_items=0)
        with pytest.raises(ParameterError):
            ThresholdController(100.0, 0.9, warmup_items=100,
                                horizon_items=50)

    def test_warmup_holds_threshold(self):
        controller = ThresholdController(
            100.0, 0.5, warmup_items=50, min_dwell_items=1
        )
        for v in range(49):
            decision = controller.observe(float(v))
            assert not decision.retargeted
            assert decision.reason in ("warmup", "empty")
        assert controller.threshold == 100.0

    def test_retargets_after_warmup(self):
        controller = ThresholdController(
            100.0, 0.5, warmup_items=10, min_dwell_items=1, deadband=0.01
        )
        decision = None
        for v in range(50):
            decision = controller.observe(float(v))
        assert controller.retargets >= 1
        assert controller.threshold != 100.0
        # Median of 0..49 is ~24.5; P2 should land near it.
        assert 15.0 <= controller.threshold <= 35.0
        assert decision.items_seen == 50

    def test_kll_backend_holds_target_fraction(self):
        # ~5 % of a U(0, 100) stream sits above ~95.
        controller = ThresholdController(
            1.0, 0.95, backend="kll", deadband=0.0, warmup_items=1_000,
            min_dwell_items=1_000, seed=2,
        )
        rng = np.random.default_rng(1)
        for v in rng.uniform(0.0, 100.0, size=20_000).tolist():
            controller.observe(v)
        assert controller.retargets >= 1
        assert controller.threshold == pytest.approx(95.0, abs=3.0)

    def test_dwell_bounds_retarget_rate(self):
        controller = ThresholdController(
            1000.0, 0.5, warmup_items=10, min_dwell_items=100, deadband=0.0
        )
        for v in range(1_000):
            controller.observe(float(v % 50))
        # 1000 observations / dwell 100 => at most 10 moves.
        assert controller.retargets <= 10
        dwell_reasons = [
            controller.observe(float(v % 50)).reason for v in range(50)
        ]
        assert "dwell" in dwell_reasons

    def test_deadband_suppresses_jitter(self):
        controller = ThresholdController(
            50.0, 0.5, warmup_items=10, min_dwell_items=1, deadband=0.10
        )
        # Stationary stream with median ~50: every estimate stays
        # within 10 % of the standing threshold, so T never moves.
        rng = np.random.default_rng(5)
        for v in rng.uniform(49.0, 51.0, size=500).tolist():
            decision = controller.observe(v)
        assert controller.retargets == 0
        assert decision.reason == "deadband"

    def test_zero_deadband_chases_estimate(self):
        controller = ThresholdController(
            50.0, 0.5, warmup_items=10, min_dwell_items=1, deadband=0.0
        )
        for v in [49.0, 51.0] * 50:
            controller.observe(v)
        assert controller.retargets >= 1

    def test_horizon_restarts_estimator(self):
        controller = ThresholdController(
            100.0, 0.5, warmup_items=10, min_dwell_items=1,
            horizon_items=100,
        )
        for v in range(1_000):
            controller.observe(float(v))
        assert controller.restarts == 9
        # After restarts the estimate reflects recent values only.
        assert controller.threshold > 700.0

    def test_horizon_tracks_regime_change(self):
        bounded = ThresholdController(
            10.0, 0.5, warmup_items=20, min_dwell_items=1,
            horizon_items=200, deadband=0.01,
        )
        cumulative = ThresholdController(
            10.0, 0.5, warmup_items=20, min_dwell_items=1, deadband=0.01,
        )
        stream = [10.0] * 1_000 + [1_000.0] * 1_000
        for v in stream:
            bounded.observe(v)
            cumulative.observe(v)
        # The bounded controller converges to the new regime's median;
        # the cumulative one is stuck between the regimes.
        assert bounded.threshold == pytest.approx(1_000.0, rel=0.05)
        assert cumulative.threshold < 900.0

    def test_observe_many_matches_observe_loop(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.0, 100.0, size=2_000)
        one = ThresholdController(50.0, 0.9, warmup_items=100,
                                  min_dwell_items=100)
        many = ThresholdController(50.0, 0.9, warmup_items=100,
                                   min_dwell_items=100)
        for v in values.tolist():
            one.observe(v)
        for chunk in np.split(values, 20):
            many.observe_many(chunk)
        # Same estimator state => same final estimate; decision cadence
        # differs (one per chunk), so only the end state must agree.
        assert many.estimator.quantile() == one.estimator.quantile()
        assert many.items_seen == one.items_seen

    def test_custom_estimator(self):
        est = P2QuantileEstimator(0.75)
        controller = ThresholdController(
            10.0, 0.75, estimator=est, warmup_items=10, min_dwell_items=1
        )
        assert controller.backend == "custom"
        for v in range(100):
            controller.observe(float(v))
        assert controller.estimator is est

    def test_target_rate(self):
        controller = ThresholdController(10.0, 0.95)
        assert controller.target_rate == pytest.approx(0.05)


class TestControlLoop:
    def make_filter(self, threshold=1_000.0):
        return QuantileFilter(
            Criteria(delta=0.5, threshold=threshold, epsilon=2.0),
            num_buckets=8, vague_width=16,
        )

    def test_rejects_target_without_retarget(self):
        with pytest.raises(ParameterError):
            ThresholdControlLoop(ThresholdController(10.0, 0.5), object())

    def test_rejects_bad_stride(self):
        with pytest.raises(ParameterError):
            ThresholdControlLoop(
                ThresholdController(10.0, 0.5), self.make_filter(),
                sample_every=0,
            )

    def test_applies_retargets_to_filter(self):
        qf = self.make_filter()
        loop = ThresholdControlLoop(
            ThresholdController(1_000.0, 0.5, warmup_items=16,
                                min_dwell_items=16),
            qf,
        )
        for i in range(200):
            qf.insert("k", float(i % 10))
            loop.observe(float(i % 10))
        assert qf.retargets >= 1
        assert qf.criteria.threshold < 1_000.0
        assert qf.criteria.threshold == loop.threshold
        assert loop.trajectory
        items_seen, old, new = loop.trajectory[0]
        assert old == 1_000.0 and new == loop.trajectory[0][2]

    def test_batch_engine_retargets_at_chunk_boundary(self):
        batch = BatchQuantileFilter(
            Criteria(delta=0.5, threshold=1_000.0, epsilon=2.0),
            num_buckets=8, vague_width=16,
        )
        loop = ThresholdControlLoop(
            ThresholdController(1_000.0, 0.5, warmup_items=32,
                                min_dwell_items=32),
            batch,
        )
        keys = np.zeros(64, dtype=np.int64)
        values = np.full(64, 5.0)
        for _ in range(4):
            batch.process(keys, values)
            loop.observe_many(values)
        assert batch.retargets >= 1
        assert batch.criteria.threshold == pytest.approx(5.0)

    def test_stride_subsampling_consumes_every_nth(self):
        controller = ThresholdController(10.0, 0.5, warmup_items=1,
                                         min_dwell_items=10_000)
        loop = ThresholdControlLoop(controller, self.make_filter(),
                                    sample_every=4)
        for i in range(100):
            loop.observe(float(i))
        assert controller.items_seen == 25

    def test_stride_batches_match_stride_singles(self):
        values = np.arange(1_000, dtype=np.float64)
        single = ThresholdControlLoop(
            ThresholdController(10.0, 0.5, warmup_items=1,
                                min_dwell_items=10_000),
            self.make_filter(), sample_every=7,
        )
        batched = ThresholdControlLoop(
            ThresholdController(10.0, 0.5, warmup_items=1,
                                min_dwell_items=10_000),
            self.make_filter(), sample_every=7,
        )
        for v in values.tolist():
            single.observe(v)
        # Ragged chunking exercises the stride-phase carry.
        at = 0
        for size in (13, 1, 256, 64, 666):
            batched.observe_many(values[at:at + size])
            at += size
        assert at == len(values)
        assert (batched.controller.items_seen
                == single.controller.items_seen)
        assert (batched.controller.estimator.quantile()
                == single.controller.estimator.quantile())

    def test_observe_many_empty_stride_returns_none(self):
        loop = ThresholdControlLoop(
            ThresholdController(10.0, 0.5), self.make_filter(),
            sample_every=64,
        )
        assert loop.observe_many(np.arange(3, dtype=np.float64)) is None
