"""Stdlib HTTP endpoint serving live metrics and health verdicts.

Five routes, one tiny threaded server:

* ``GET /metrics`` — the current snapshot in the Prometheus text
  exposition format (telemetry families plus the derived ``qf_health_*``
  samples, process gauges, metric-store accounting and ``qf_alert_*``
  states), ready for a scraper.
* ``GET /healthz`` — the aggregated :class:`~repro.observability.health.
  HealthReport` as JSON; status 200 for ok/degraded, 503 for critical,
  so a load balancer can act on the status code alone.  Firing alert
  rules fold in as ``alert:<rule>`` signals, so the verdict's
  ``reasons`` name the rule.
* ``GET /health/shards`` — the per-shard report breakdown (pipelines;
  a standalone filter serves a single-entry list).
* ``GET /incidents`` — manifests of the flight recorder's recent
  incident bundles, newest first (empty list when no recorder or
  incident directory is attached; see
  :mod:`repro.observability.recorder`).
* ``GET /alerts`` — the alert engine's full rule/state payload as
  JSON (a stub with zero rules when the source has no alert engine).

The server never touches the monitored structure's hot path: a
*serve source* adapts each deployment shape to the routes.
:class:`FilterServeSource` snapshots the filter's registry (pull-model
reads of plain attributes) and probes its structure;
:class:`PipelineServeSource` only reads the pipeline's **cached**
``last_stats`` / ``last_per_shard_stats`` — worker stats syncs ride the
input queues and must stay on the feeding thread, so the feeder calls
``pipeline.collect_stats_view()`` at its own cadence and the HTTP
threads serve whatever view is current.

The same split governs alerting: the feeder drives :meth:`tick` —
collect into the :class:`~repro.observability.timeseries.MetricStore`,
evaluate the :class:`~repro.observability.alerts.AlertEngine`, and run
any alert-triggered incident dumps (which, for pipelines, ride the
worker queues and therefore must never run on an HTTP thread) — while
the HTTP threads only *read* the engine's cached state.

>>> from repro.core.criteria import Criteria
>>> from repro.core.quantile_filter import QuantileFilter
>>> filt = QuantileFilter(Criteria(delta=0.9, threshold=50.0,
...                                epsilon=5.0), num_buckets=8,
...                       vague_width=64)
>>> source = FilterServeSource(filt)
>>> for i in range(100):
...     _ = filt.insert(i % 7, 10.0)
>>> lines = source.metrics_text().splitlines()
>>> print(next(line for line in lines if "qf_candidate_entries" in line))
# HELP qf_candidate_entries Occupied candidate slots.
>>> source.refresh().verdict
'ok'
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import urlsplit

from repro.observability.exporters import render_prometheus
from repro.observability.health import (
    HealthMonitor,
    HealthReport,
    aggregate_reports,
    verdict_rank,
)
from repro.observability.instrument import observe_filter, observe_process
from repro.observability.registry import StatsRegistry

#: The /alerts payload served when a source carries no alert engine.
_NO_ALERTS = {"evaluated_at": None, "rules": 0, "firing": [], "alerts": []}


class _AlertingSource:
    """Shared store/alert-engine plumbing for both serve sources.

    Subclasses call :meth:`_init_alerting` at the end of construction
    and implement ``_tick_snapshot()`` (what to collect) and
    ``_dump_on_alerts(transitions)`` (how a critical firing rule turns
    into incident bundles).  The thread contract mirrors the stats one:
    :meth:`tick` belongs to the feeding thread; every other method is
    safe from HTTP threads because it only reads cached/locked state.
    """

    def _init_alerting(self, rules, store, step_seconds: float) -> None:
        from repro.observability.timeseries import MetricStore

        # Process gauges live on their own registry so they never skew
        # per-shard aggregation invariants on the filter registries.
        self.process_registry = observe_process()
        if store is None and rules is None:
            self.store = None
            self.alerts = None
            return
        self.store = store if store is not None else MetricStore(
            step_seconds=step_seconds
        )
        if rules:
            from repro.observability.alerts import AlertEngine

            self.alerts = AlertEngine(self.store, list(rules))
        else:
            self.alerts = None

    # -- feeder-thread side -------------------------------------------
    def tick(self, now: Optional[float] = None) -> list:
        """Collect + evaluate one alerting tick (feeding thread only).

        Refreshes the health report, collects the full metrics
        snapshot into the store (subject to its ``step_seconds``
        throttle), evaluates every rule, and routes critical firing
        transitions to the deployment's incident-dump mechanism.
        Returns the state transitions taken (empty without an engine).
        """
        self.refresh()
        if self.store is None:
            return []
        if now is None:
            now = self.store.clock()
        collected = self.store.collect(self._tick_snapshot(), now=now)
        if self.alerts is None:
            return []
        if not collected:
            # Throttled: the engine would re-evaluate unchanged data.
            return []
        transitions = self.alerts.evaluate(now=now)
        firing_critical = [
            t for t in transitions
            if t.new_state == "firing" and t.rule.severity == "critical"
        ]
        if firing_critical:
            self._dump_on_alerts(firing_critical)
        return transitions

    def _tick_snapshot(self) -> Dict[str, float]:
        raise NotImplementedError

    def _dump_on_alerts(self, transitions: list) -> None:
        raise NotImplementedError

    # -- HTTP-thread side ---------------------------------------------
    def alerts_payload(self) -> dict:
        """The ``/alerts`` JSON body (stub when no engine)."""
        if self.alerts is None:
            return dict(_NO_ALERTS)
        return self.alerts.as_dict()

    def _fold_alerts(self, report: HealthReport) -> HealthReport:
        """Aggregate firing-rule signals into the health report."""
        if self.alerts is None:
            return report
        folded = aggregate_reports(
            [report, self.alerts.report()], source=report.source
        )
        self.monitor.last_report = folded
        return folded

    def _observability_samples(self) -> Dict[str, float]:
        """Process gauges + store accounting + alert states."""
        samples = self.process_registry.snapshot()
        if self.store is not None:
            samples.update(self.store.samples())
        if self.alerts is not None:
            samples.update(self.alerts.samples())
        return samples


class FilterServeSource(_AlertingSource):
    """Serve source for a standalone filter (any engine).

    Instruments the filter on construction when it is not already
    observed; the monitor defaults to the standard
    :meth:`~repro.observability.health.HealthMonitor.for_filter` build.
    Feed the monitor (``source.monitor.observe_batch(keys, values)``)
    alongside the filter's inserts to enable the drift and shadow
    signals — without it the structural and telemetry signals still
    work.

    Pass ``rules`` (a list of
    :class:`~repro.observability.alerts.AlertRule`) to attach an alert
    engine; drive :meth:`tick` from the feeding loop.  A critical rule
    entering the firing state dumps an incident bundle through the
    attached recorder (when there is one), subject to its
    ``TriggerPolicy.on_alert``.
    """

    def __init__(
        self,
        filt,
        monitor: Optional[HealthMonitor] = None,
        registry: Optional[StatsRegistry] = None,
        recorder=None,
        rules=None,
        store=None,
        step_seconds: float = 0.0,
    ):
        self.filt = filt
        self.registry = (
            registry
            if registry is not None
            else observe_filter(filt)
        )
        self.monitor = (
            monitor
            if monitor is not None
            else HealthMonitor.for_filter(filt, recorder=recorder)
        )
        self.recorder = (
            recorder if recorder is not None else self.monitor.recorder
        )
        if self.recorder is not None:
            from repro.observability.recorder import observe_recorder

            observe_recorder(self.recorder, self.registry)
        self._lock = threading.Lock()
        self._init_alerting(rules, store, step_seconds)

    def refresh(self) -> HealthReport:
        """Recompute the health report from a fresh snapshot."""
        # Deferred: core.quantile_filter imports the observability
        # package for provenance, so inspect cannot load at import time.
        from repro.core.inspect import structural_probe

        with self._lock:
            report = self.monitor.report(
                self.registry.snapshot(),
                probe=structural_probe(self.filt),
                reported_keys=set(self.filt.reported_keys),
            )
            return self._fold_alerts(report)

    def metrics_snapshot(self) -> Dict[str, float]:
        """Registry snapshot overlaid with the derived health samples."""
        self.refresh()
        snapshot = self.registry.snapshot()
        snapshot.update(self.monitor.health_samples())
        snapshot.update(self._observability_samples())
        return snapshot

    def metrics_text(self) -> str:
        return render_prometheus(self.metrics_snapshot())

    def shard_reports(self) -> List[HealthReport]:
        return [self.refresh()]

    def incidents(self) -> List[dict]:
        """Recent incident-bundle manifests (no recorder → empty)."""
        if self.recorder is None:
            return []
        return self.recorder.list_incidents()

    # -- alerting hooks ------------------------------------------------
    def _tick_snapshot(self) -> Dict[str, float]:
        snapshot = self.registry.snapshot()
        snapshot.update(self.monitor.health_samples())
        snapshot.update(self.process_registry.snapshot())
        return snapshot

    def _dump_on_alerts(self, transitions: list) -> None:
        if self.recorder is not None:
            self.recorder.observe_alerts(transitions)


class PipelineServeSource(_AlertingSource):
    """Serve source for a running :class:`~repro.parallel.pipeline.
    ParallelPipeline`.

    Reads only the pipeline's cached cross-shard views — the feeding
    thread refreshes them with ``pipeline.collect_stats_view()``; HTTP
    threads must never ride the worker queues themselves.  Per-shard
    verdicts come from evaluating each cached worker view separately;
    the aggregate is worst-wins across the global report and every
    shard report.

    With ``rules`` attached, drive :meth:`tick` from the feeding loop
    (never an HTTP thread: a critical rule firing broadcasts
    ``pipeline.request_incident_dump``, which rides the worker queues).
    """

    def __init__(
        self,
        pipeline,
        monitor: Optional[HealthMonitor] = None,
        rules=None,
        store=None,
        step_seconds: float = 0.0,
    ):
        self.pipeline = pipeline
        self.monitor = (
            monitor
            if monitor is not None
            else HealthMonitor.for_criteria(pipeline.criteria)
        )
        self._lock = threading.Lock()
        self._shard_reports: List[HealthReport] = []
        # Workers dump into per-shard subdirectories of this root when
        # the pipeline was built with record=True.
        self.incident_dir = getattr(pipeline, "incident_dir", None)
        self._init_alerting(rules, store, step_seconds)

    def _global_snapshot(self) -> Dict[str, float]:
        if self.pipeline.last_stats is not None:
            return dict(self.pipeline.last_stats)
        # No worker view collected yet: the master-side registry alone
        # (pull gauges over plain attributes — safe from any thread).
        return self.pipeline.stats.snapshot()

    def refresh(self) -> HealthReport:
        with self._lock:
            expected = (
                self.pipeline.num_shards if self.pipeline.running else None
            )
            report = self.monitor.report(
                self._global_snapshot(),
                reported_keys=self.pipeline.reported_keys,
                expected_workers=expected,
                source="aggregate",
            )
            per_shard = self.pipeline.last_per_shard_stats or []
            shard_reports = [
                self.monitor.model.evaluate(view, source=f"shard-{shard}")
                for shard, view in enumerate(per_shard)
            ]
            self._shard_reports = shard_reports
            if shard_reports:
                report = aggregate_reports(
                    [report] + shard_reports, source="aggregate"
                )
                self.monitor.last_report = report
            return self._fold_alerts(report)

    def metrics_snapshot(self) -> Dict[str, float]:
        self.refresh()
        snapshot = self._global_snapshot()
        snapshot.update(self.monitor.health_samples())
        snapshot.update(self._observability_samples())
        return snapshot

    def metrics_text(self) -> str:
        return render_prometheus(self.metrics_snapshot())

    def shard_reports(self) -> List[HealthReport]:
        self.refresh()
        return list(self._shard_reports)

    def incidents(self) -> List[dict]:
        """Manifests across every worker's incident subdirectory."""
        if self.incident_dir is None:
            return []
        from repro.observability.recorder import list_incidents

        return list_incidents(self.incident_dir)

    # -- alerting hooks ------------------------------------------------
    def _tick_snapshot(self) -> Dict[str, float]:
        snapshot = self._global_snapshot()
        snapshot.update(self.monitor.health_samples())
        snapshot.update(self.process_registry.snapshot())
        return snapshot

    def _dump_on_alerts(self, transitions: list) -> None:
        if not self.pipeline.running:
            return
        for transition in transitions:
            self.pipeline.request_incident_dump(
                f"alert:{transition.rule.name}"
            )


class _HealthRequestHandler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz, /health/shards, /incidents."""

    server_version = "QuantileFilterHealth/1.0"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path
        try:
            if path == "/metrics":
                body = self.server.source.metrics_text() + "\n"
                self._respond(
                    200, body, "text/plain; version=0.0.4; charset=utf-8"
                )
            elif path == "/healthz":
                report = self.server.source.refresh()
                status = 503 if report.verdict == "critical" else 200
                self._respond_json(status, report.as_dict())
            elif path == "/alerts":
                payload = getattr(
                    self.server.source, "alerts_payload", None
                )
                self._respond_json(
                    200,
                    payload() if payload is not None else dict(_NO_ALERTS),
                )
            elif path == "/incidents":
                incidents = getattr(self.server.source, "incidents", None)
                manifests = incidents() if incidents is not None else []
                self._respond_json(
                    200,
                    {"count": len(manifests), "incidents": manifests},
                )
            elif path == "/health/shards":
                reports = self.server.source.shard_reports()
                verdict = "ok"
                for report in reports:
                    if verdict_rank(report.verdict) > verdict_rank(verdict):
                        verdict = report.verdict
                self._respond_json(
                    200,
                    {
                        "verdict": verdict,
                        "shards": [r.as_dict() for r in reports],
                    },
                )
            else:
                self._respond_json(
                    404,
                    {
                        "error": f"unknown path {path!r}",
                        "routes": [
                            "/metrics", "/healthz", "/health/shards",
                            "/incidents", "/alerts",
                        ],
                    },
                )
        except Exception as exc:  # pragma: no cover - defensive
            self._respond_json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )

    def _respond(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _respond_json(self, status: int, obj: dict) -> None:
        self._respond(
            status, json.dumps(obj, indent=2) + "\n", "application/json"
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging (scrapes are frequent)."""


class HealthServer:
    """Threaded HTTP server bound to a serve source.

    ``port=0`` (the default) binds an ephemeral port; read
    :attr:`port` / :attr:`url` after :meth:`start`.  The accept loop
    and every request run on daemon threads, and :meth:`stop` joins the
    accept thread after ``shutdown()`` — no threads outlive it.
    Usable as a context manager.
    """

    def __init__(self, source, host: str = "127.0.0.1", port: int = 0):
        self.source = source
        self.host = host
        self.port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "HealthServer":
        if self._server is not None:
            return self
        server = ThreadingHTTPServer(
            (self.host, self.port), _HealthRequestHandler
        )
        server.daemon_threads = True
        server.source = self.source
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="quantilefilter-health-server",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        """Base URL (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._server is not None

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "HealthServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_filter(
    filt, host: str = "127.0.0.1", port: int = 0, rules=None
) -> HealthServer:
    """Start a health server for a standalone filter; returns it running."""
    return HealthServer(
        FilterServeSource(filt, rules=rules), host=host, port=port
    ).start()


def serve_pipeline(
    pipeline, host: str = "127.0.0.1", port: int = 0, rules=None
) -> HealthServer:
    """Start a health server for a pipeline; returns it running."""
    return HealthServer(
        PipelineServeSource(pipeline, rules=rules), host=host, port=port
    ).start()
