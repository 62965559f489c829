"""The public API surface: everything advertised must import and work.

Guards against export drift: names documented in docs/api.md and the
README must stay importable from the advertised locations, and
``__all__`` lists must match reality.
"""

import importlib

import pytest

import repro

PUBLIC_MODULES = [
    "repro.common", "repro.common.hashing", "repro.common.counters",
    "repro.common.memory", "repro.common.rng", "repro.common.validation",
    "repro.sketches", "repro.sketches.count_sketch",
    "repro.sketches.count_min", "repro.sketches.count_mean_min",
    "repro.sketches.space_saving", "repro.sketches.sampling",
    "repro.quantiles", "repro.quantiles.gk", "repro.quantiles.kll",
    "repro.quantiles.tdigest", "repro.quantiles.ddsketch",
    "repro.quantiles.qdigest", "repro.quantiles.exact",
    "repro.core", "repro.core.criteria", "repro.core.qweight",
    "repro.core.vague", "repro.core.candidate", "repro.core.strategies",
    "repro.core.quantile_filter", "repro.core.naive",
    "repro.core.vectorized", "repro.core.multi_criteria",
    "repro.core.windowed", "repro.core.persistence", "repro.core.inspect",
    "repro.core.kernel",
    "repro.baselines", "repro.baselines.squad",
    "repro.baselines.sketchpolymer", "repro.baselines.histsketch",
    "repro.baselines.perkey",
    "repro.detection", "repro.detection.base",
    "repro.detection.ground_truth", "repro.detection.adapters",
    "repro.detection.reports",
    "repro.detection.shadow",
    "repro.observability", "repro.observability.registry",
    "repro.observability.health", "repro.observability.server",
    "repro.observability.timeseries", "repro.observability.alerts",
    "repro.observability.term", "repro.observability.dashboard",
    "repro.streams", "repro.streams.model", "repro.streams.zipf",
    "repro.streams.caida_like", "repro.streams.cloud_like",
    "repro.streams.drift", "repro.streams.bursty",
    "repro.streams.trace_io", "repro.streams.live",
    "repro.metrics", "repro.metrics.accuracy", "repro.metrics.throughput",
    "repro.metrics.latency",
    "repro.analysis", "repro.analysis.theory", "repro.analysis.sizing",
    "repro.experiments", "repro.experiments.config",
    "repro.experiments.harness", "repro.experiments.figures",
    "repro.experiments.scaling", "repro.experiments.report",
    "repro.experiments.cli", "repro.experiments.matrix",
    "repro.experiments.runstore", "repro.experiments.trend",
    "repro.parallel", "repro.parallel.sharded", "repro.parallel.pipeline",
    "repro.parallel.concurrent",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} is missing a module docstring"


@pytest.mark.parametrize(
    "package_name",
    ["repro", "repro.common", "repro.sketches", "repro.quantiles",
     "repro.core", "repro.baselines", "repro.detection", "repro.streams",
     "repro.metrics", "repro.analysis", "repro.parallel",
     "repro.observability"],
)
def test_all_lists_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_top_level_quickstart_names():
    # The README quickstart imports, verbatim.
    from repro import Criteria, QuantileFilter  # noqa: F401
    from repro import BatchQuantileFilter, MultiCriteriaFilter  # noqa: F401
    from repro import WindowedQuantileFilter  # noqa: F401
    from repro import save_filter, load_filter  # noqa: F401
    from repro import compute_ground_truth, score_sets  # noqa: F401
    from repro import ShardedQuantileFilter, ParallelPipeline  # noqa: F401
    from repro import HealthMonitor, HealthServer  # noqa: F401
    from repro import ShadowAccuracyEstimator, serve_pipeline  # noqa: F401
    from repro.analysis.sizing import recommend  # noqa: F401
    from repro.detection.reports import AlertPolicy, ReportLog  # noqa: F401


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_minimal_detection_loop():
    """The README quickstart snippet, executed."""
    from repro import Criteria, QuantileFilter

    qf = QuantileFilter(
        Criteria(delta=0.95, threshold=200.0, epsilon=2.0),
        memory_bytes=64 * 1024,
    )
    stream = [("svc", 500.0)] * 10
    reports = [r for k, v in stream if (r := qf.insert(k, v))]
    assert reports and reports[0].key == "svc"
