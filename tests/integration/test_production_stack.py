"""Composition test: the full operations stack working together.

Sizing -> adaptive threshold control -> windowing -> report log +
alert policy -> checkpoint/restore, all on one drifting workload.  Each
piece has its own unit tests; this verifies they compose without
stepping on each other's state.
"""

import random

import pytest

from repro.analysis.sizing import recommend
from repro.core.criteria import Criteria
from repro.core.inspect import describe, health_warnings
from repro.core.persistence import load_filter, save_filter
from repro.core.windowed import WindowedQuantileFilter
from repro.core.quantile_filter import QuantileFilter
from repro.detection.reports import AlertPolicy, ReportLog
from repro.detection.threshold import ThresholdControlLoop, ThresholdController
from repro.streams.drift import DriftConfig, generate_drift_trace
from repro.streams.trace_io import load_trace, save_trace


class TestFullStack:
    def test_sized_windowed_monitor_with_alert_hygiene(self):
        trace = generate_drift_trace(
            DriftConfig(num_items=30_000, num_keys=600, num_phases=2,
                        anomalous_per_phase=10, seed=1)
        )
        criteria = Criteria(delta=0.95, threshold=300.0, epsilon=10.0)
        rec = recommend(expected_keys=600, expected_outstanding=10,
                        criteria=criteria, expected_items_per_key=50.0)

        log = ReportLog()
        policy = AlertPolicy(cooldown_items=5_000)
        # Rotating mode splits the budget across two panes, so a sized
        # deployment doubles the recommendation (cf. docs/operations.md).
        window = WindowedQuantileFilter(
            criteria, rec.total_bytes * 2, window_items=15_000,
            mode="rotating", seed=2,
        )
        pages = 0
        for key, value in trace.items():
            report = window.insert(key, value)
            if report is not None:
                log.record(report)
                if policy.should_alert(report):
                    pages += 1

        anomalous = set()
        for members in trace.metadata["phase_anomalous_keys"]:
            anomalous |= set(members)
        flagged = set(log.keys())
        # Most injected anomalies flagged, with at most a sliver of
        # false positives (the sized budget is deliberately tight).
        assert len(flagged & anomalous) >= 0.8 * len(anomalous)
        assert len(flagged - anomalous) <= max(2, len(anomalous) // 5)
        # Alert hygiene really suppressed something.
        assert 0 < pages <= log.total_reports

    def test_auto_threshold_inside_report_pipeline(self):
        rng = random.Random(3)
        base = Criteria(delta=0.9, threshold=1.0, epsilon=5.0)
        log = ReportLog()
        filt = QuantileFilter(base, memory_bytes=32 * 1024, seed=4)
        # Hold ~5 % of the traffic above T (q* = 0.95), moving T at most
        # every 2k values once 1k have been seen.
        loop = ThresholdControlLoop(
            ThresholdController(
                base.threshold, 0.95, backend="kll", deadband=0.0,
                warmup_items=1_000, min_dwell_items=2_000,
            ),
            filt,
        )
        for _ in range(25_000):
            key = rng.randrange(150)
            value = 400.0 if key < 4 else rng.uniform(0, 100)
            loop.observe(value)
            report = filt.insert(key, value)
            if report is not None:
                log.record(report)
        # The controlled monitor's noisiest keys are the injected ones.
        noisiest = {summary.key for summary in log.top(4)}
        assert noisiest <= {0, 1, 2, 3}
        assert 90.0 < filt.criteria.threshold < 400.0

    def test_checkpoint_mid_stack_and_inspect(self, tmp_path):
        """Checkpoint the inner filter of a running monitor, restore it,
        and verify the inspection report reads coherently on both."""
        criteria = Criteria(delta=0.95, threshold=200.0, epsilon=10.0)
        window = WindowedQuantileFilter(
            criteria, 32 * 1024, window_items=50_000, mode="tumbling",
            seed=5,
        )
        rng = random.Random(6)
        for _ in range(8_000):
            key = rng.randrange(100)
            value = 500.0 if key < 5 else rng.uniform(0, 150)
            window.insert(key, value)

        inner = window._filter
        path = tmp_path / "inner.npz"
        save_filter(inner, path)
        restored = load_filter(path)

        original_report = describe(inner)
        restored_report = describe(restored)
        assert "health: ok" in original_report
        assert health_warnings(restored) == health_warnings(inner)
        for key in range(100):
            assert restored.query(key) == pytest.approx(inner.query(key))

    def test_trace_io_round_trips_drift_metadata(self, tmp_path):
        trace = generate_drift_trace(
            DriftConfig(num_items=3_000, num_keys=100, num_phases=3,
                        anomalous_per_phase=5, seed=7)
        )
        path = tmp_path / "drift.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.metadata["phase_anomalous_keys"] == (
            trace.metadata["phase_anomalous_keys"]
        )
        assert loaded.metadata["phase_boundaries"] == (
            trace.metadata["phase_boundaries"]
        )
        assert (loaded.values == trace.values).all()
