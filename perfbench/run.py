"""QuantileFilter benchmark: throughput and report latency in the paper's regime.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload saturated --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24 --trace 0

Every workload replays ``build_trace("internet", scale, n)`` for the
run's traces (``n = seed * traces_per_run + j``), one trace per pass,
in 16,384-item chunks from one generator thread.  Each pass feeds its
first chunks untimed, then runs as one of two kinds:

* closed loop: the next chunk goes in as soon as the engine accepts
  the last one; gives ``items_per_s``;
* open loop: chunk ``k`` goes in when its last item is due at the
  workload's fixed rate (``perfbench/config.json``), whatever the
  engine does; gives report latency.

Throughput, and the batch engine's latency, are scaled by each pass's
measured host slowdown (``measure.host_slowdown``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced closed-loop passes and prints the per-layer
metrics; the spans go to ``.perfbench/traces/`` as Chrome trace
events.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The metric catalogue and the reasons for each
workload are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The system under test is imported from this checkout's source tree;
# without one the imports below fail and the run prints no result.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import ITEM_BYTES, BatchHarness, PipelineHarness  # noqa: E402
from perfbench.inputs import load_inputs  # noqa: E402
from perfbench.measure import (  # noqa: E402
    binned_percentile,
    chunk_bounds,
    f1_score,
    host_slowdown,
    key_latencies,
    median,
    peak_rss_bytes,
    percentile,
    probe,
    run_open_loop,
    spin,
)
from perfbench.spans import SpanRecorder, layer_totals  # noqa: E402
from repro.experiments.config import default_criteria_for  # noqa: E402
from repro.observability.tracing import Tracer  # noqa: E402

CONFIG = json.loads((ROOT / "perfbench" / "config.json").read_text())
WORKLOADS = tuple(CONFIG["workloads"])

#: Set-ups timed per run on top of the one every pass performs.
EXTRA_SETUPS = 20
#: Least closed-loop passes per run, untraced and traced alike, whatever
#: ``--seconds`` says.
MIN_PASSES = 2
#: Least open-loop passes per run; latency percentiles are per pass.
MIN_OPEN_PASSES = 3
#: No new pass starts after this many seconds, so a run ends within 180 s.
HARD_STOP_S = 120.0
#: Report-quality floor; below it the run is not correct.
MIN_F1 = 0.99
#: Exact-tier share each batch workload must show in the traced run.
EXACT_SHARE_LIMITS = {"warm": (0.0, 0.05), "saturated": (0.15, 1.0)}
#: Histogram p99s in the traced run need this many samples (see measure).
P99_SAMPLES = 1000
#: Chunks each pass feeds, closed loop, before its timing starts.  They
#: fill the candidate slots, as the first chunks of a user's stream do
#: once: on ``warm`` the first chunk costs about 3x a later one, and the
#: first four made the whole p99 of its report latency.
WARMUP_CHUNKS = 4
#: A probe of the host's speed (about 2.5 ms) follows every
#: ``PROBE_EVERY``-th timed chunk of a pass of the in-thread batch
#: engine.  The pipelines' workers would compete with a probe during
#: the pass, so they get ``EDGE_PROBES`` probes before the first chunk
#: and as many after ``finish()``, while the workers are idle.
PROBE_EVERY = 4
EDGE_PROBES = 4

E2E_UNITS = {
    "items_per_s": "1/s",
    "report_latency_p50_ms": "ms",
    "report_latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "report_f1": "ratio",
}

#: Span name -> the per-layer metric holding its self time.
SELF_TIME_METRICS = {
    "core.vectorized.hash": "core.vectorized.hash_s",
    "core.vectorized.classify": "core.vectorized.classify_s",
    "core.vectorized.fast": "core.vectorized.fast_s",
    "core.vectorized.exact": "core.vectorized.exact_s",
    "core.vectorized.process": "core.vectorized.other_s",
    "parallel.concurrent.flush": "parallel.concurrent.flush_s",
    "parallel.pipeline.feed": "parallel.pipeline.put_s",
    "parallel.pipeline.finish": "parallel.pipeline.finish_s",
    "parallel.pipeline.stats_view": "parallel.pipeline.stats_view_s",
    "parallel.sharded.route": "parallel.sharded.route_s",
    "parallel.transport.copy": "parallel.transport.copy_s",
    "observability.store_collect": "observability.store_collect_s",
    "observability.alert_eval": "observability.alert_eval_s",
}

PER_LAYER_UNITS = {
    "core.vectorized.hash_s": "s",
    "core.vectorized.classify_s": "s",
    "core.vectorized.fast_s": "s",
    "core.vectorized.fast_items": "count",
    "core.vectorized.exact_s": "s",
    "core.vectorized.exact_items": "count",
    "core.vectorized.exact_share": "ratio",
    "core.vectorized.vague_inserts": "count",
    "core.vectorized.swaps": "count",
    "core.vectorized.reports": "count",
    "core.vectorized.process_calls": "count",
    "core.vectorized.other_s": "s",
    "parallel.concurrent.flush_s": "s",
    "parallel.concurrent.flushes": "count",
    "parallel.concurrent.lock_wait_s": "s",
    "parallel.concurrent.lock_wait_p99_ms": "ms",
    "parallel.pipeline.put_s": "s",
    "parallel.pipeline.finish_s": "s",
    "parallel.pipeline.stats_view_s": "s",
    "parallel.pipeline.worker_insert_s": "s",
    "parallel.pipeline.report_queue_delay_p99_ms": "ms",
    "parallel.pipeline.shard_skew": "ratio",
    "parallel.pipeline.report_batches": "count",
    "parallel.sharded.route_s": "s",
    "parallel.transport.copy_s": "s",
    "parallel.transport.copy_bytes": "bytes",
    "observability.store_collect_s": "s",
    "observability.alert_eval_s": "s",
    "observability.ticks": "count",
    "regime.keys_per_slot": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.spec = CONFIG["workloads"][name]
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.criteria = default_criteria_for(CONFIG["dataset"])
        # Each run replays several traces and cycles its passes through
        # them; trace ``j`` of seed ``n`` is built with seed
        # ``n * traces_per_run + j``, so no two runs share a trace.
        per_run = CONFIG["traces_per_run"]
        self.traces = [
            load_inputs(CONFIG["dataset"], CONFIG["scale"], seed * per_run + j)
            for j in range(per_run)
        ]
        self.n_items = len(self.traces[0].keys)
        self.bounds = chunk_bounds(self.n_items, CONFIG["chunk_items"])
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.setup_samples: list = []
        self.peak_rss = 0
        if any(len(trace.keys) != self.n_items for trace in self.traces):
            self.problems.append("the run's traces differ in length")

    def harness(self, trace=0, recorder=None):
        if self.spec["engine"] == "batch":
            return BatchHarness(self.spec, self.criteria, recorder=recorder)
        return PipelineHarness(
            self.spec, self.criteria, CONFIG["chunk_items"],
            CONFIG["tick_every_chunks"], recorder=recorder,
            stream_keys=self.traces[trace].keys,
        )

    def passes(self, **kwargs):
        """A pass of one kind per call, cycling through the run's traces."""
        turns = itertools.cycle(range(len(self.traces)))
        return lambda: self.one_pass(next(turns), **kwargs)

    def check_regime(self) -> float:
        """Distinct keys per candidate slot; fails the run off-regime.

        Every trace is judged by its structure with the fewest keys per
        slot (a sharded engine's shards each own their own slots) and
        fails the run off-regime; ``warm`` is judged by its most loaded.
        """
        regime = self.spec["regime"]
        ratios = []
        for j, trace in enumerate(self.traces):
            structures = self.harness(j).structures(trace.keys)
            loads = [keys / slots for keys, slots in structures]
            ratios.append(min(loads))
            if regime == "slots_at_least_4x_keys" and max(loads) > 0.25:
                self.problems.append(f"regime: {max(loads):.3f} keys per slot > 0.25")
            if regime == "keys_above_slots" and min(loads) <= 1.0:
                self.problems.append(f"regime: {min(loads):.3f} keys per slot <= 1")
            print(
                f"# regime {self.name} trace {j}: (distinct keys, slots) per "
                f"structure {structures}, {min(loads):.4f} keys per slot ({regime})"
            )
        return min(ratios)

    def alternate(self, first, second, second_done):
        """Passes of two kinds in turn while ``--seconds`` lasts.

        Alternating spreads both kinds over the whole run, so a slow
        spell of the host weighs on both alike.  A pass that would end
        past the budget (judged by the last pass of its kind) runs only
        if it is owed: ``MIN_PASSES`` of the first kind, and the second
        kind until ``second_done(records)``.
        """
        records = ([], [])
        run_pass = (first, second)
        took = [0.0, 0.0]
        start = time.perf_counter()
        while time.perf_counter() - self.started < HARD_STOP_S:
            owed = (len(records[0]) < MIN_PASSES, not second_done(records[1]))
            elapsed = time.perf_counter() - start
            order = (0, 1) if len(records[0]) <= len(records[1]) else (1, 0)
            fitting = [
                kind for kind in order
                if owed[kind] or elapsed + took[kind] <= self.seconds
            ]
            if not fitting:
                break
            kind = fitting[0]
            pass_start = time.perf_counter()
            record = run_pass[kind]()
            if record is None:
                break
            took[kind] = time.perf_counter() - pass_start
            records[kind].append(record)
        return records

    def one_pass(self, trace, open_loop_rate=None, recorder=None):
        """Set up, feed one whole trace, finish; returns the pass record."""
        harness = self.harness(trace, recorder)
        keys, values = self.traces[trace].keys, self.traces[trace].values
        bounds = self.bounds
        record = {"trace": trace, "due": None, "lag": None}
        self.attempted += len(bounds)
        probes: list = []

        def feed(k):
            if recorder is not None:
                recorder.set_chunk(k)
            start, end = bounds[k]
            harness.feed(k, keys[start:end], values[start:end])
            if harness.inline and (k - WARMUP_CHUNKS) % PROBE_EVERY == PROBE_EVERY - 1:
                probes.append(probe())

        def edge_probes():
            if not harness.inline:
                probes.extend(probe() for _ in range(EDGE_PROBES))

        try:
            gc.collect()
            t0 = time.perf_counter()
            harness.setup()
            self.setup_samples.append(time.perf_counter() - t0)
            edge_probes()
            warmup_start = time.perf_counter()
            for k in range(WARMUP_CHUNKS):
                feed(k)
            start = time.perf_counter()
            record["warmup"] = start - warmup_start
            origin = bounds[WARMUP_CHUNKS][0]
            record["items"] = self.n_items - origin
            if open_loop_rate is None:
                for k in range(WARMUP_CHUNKS, len(bounds)):
                    feed(k)
            else:
                # An engine that runs in the generator's thread gets a
                # spinning generator: on a shared host a core left idle
                # between chunks wakes slower, which added up to 20 ms
                # of run-to-run noise to the batch engine's p99.  The
                # pipelines need the cores for their own workers.
                # The schedule starts with the first timed chunk; warm-up
                # chunks have no due time, so their keys give no samples.
                due, record["lag"] = run_open_loop(
                    lambda k: feed(WARMUP_CHUNKS + k),
                    [(a - origin, b - origin) for a, b in bounds[WARMUP_CHUNKS:]],
                    open_loop_rate,
                    sleep=spin if harness.inline else time.sleep,
                )
                record["due"] = [None] * WARMUP_CHUNKS + due
            workers_rss = sum(peak_rss_bytes(pid) for pid in harness.worker_pids())
            if recorder is not None:
                recorder.set_chunk(-1)
            record["reported"] = harness.finish()
            record["wall"] = time.perf_counter() - start
            if harness.inline:
                # The probes ran between chunks, beside no engine work.
                record["wall"] -= sum(sum(p.values()) for p in probes)
            edge_probes()
            record["slowdown"] = host_slowdown(
                probes, CONFIG["reference_probe_s"]
            )
            record["deliveries"] = harness.deliveries
            record["counts"] = harness.layer_counts()
            record["histograms"] = harness.histograms()
        except Exception as error:  # a failed pass is counted, not fatal
            self.failed += len(bounds)
            self.problems.append(f"pass raised {type(error).__name__}: {error}")
            return None
        finally:
            harness.close()
        self.peak_rss = max(self.peak_rss, peak_rss_bytes() + workers_rss)
        return record

    def extra_setups(self) -> None:
        for _ in range(EXTRA_SETUPS):
            harness = self.harness()
            gc.collect()
            t0 = time.perf_counter()
            harness.setup()
            self.setup_samples.append(time.perf_counter() - t0)
            harness.close()

    def check_reports(self, records) -> list:
        """F1 per pass; deterministic engines must agree across passes."""
        scores = [
            f1_score(r["reported"], self.traces[r["trace"]].truth)
            for r in records
        ]
        first: dict = {}
        differ = [
            r for r in records
            if first.setdefault(r["trace"], r["reported"]) != r["reported"]
        ]
        if self.spec["engine"] != "threads" and differ:
            self.problems.append("report sets differ between passes of a trace")
            self.failed += len(self.bounds) * len(records)
        if min(scores) < MIN_F1:
            self.problems.append(f"report F1 {min(scores):.4f} < {MIN_F1}")
        return scores

    def end_to_end(self) -> dict:
        self.check_regime()
        self.extra_setups()
        rate = self.spec["open_loop_items_per_s"]
        closed, opened = self.alternate(
            self.passes(),
            self.passes(open_loop_rate=rate),
            lambda records: len(records) >= MIN_OPEN_PASSES,
        )
        if not closed or not opened:
            return {}
        scores = self.check_reports(closed + opened)
        # Scaled to the reference host speed (README, "Host speed"): the
        # throughput of every engine, and the latency of the bare batch
        # engine, which is its own compute time.  The pipelines' latency
        # is set by the feed schedule, so it stays as measured.
        scaled = self.spec["engine"] == "batch"
        latencies = [
            [
                latency / (record["slowdown"] if scaled else 1.0)
                for latency in key_latencies(record["deliveries"], record["due"])
            ]
            for record in opened
        ]
        pooled = [latency for samples in latencies for latency in samples]

        # Percentiles are taken per open-loop pass and their median
        # reported, so one pass caught in a stall of the host does not
        # decide the run.  A pass has about 440 samples: p95 is the
        # highest percentile they support (see measure.min_samples).
        def latency_ms(q):
            return median([percentile(p, q) for p in latencies]) * 1e3

        keys_basis = (
            f"median of {len(opened)} open-loop passes, "
            f"{min(map(len, latencies))}-{max(map(len, latencies))} keys each"
            + (", scaled" if scaled else "")
        )
        if len(pooled) >= P99_SAMPLES:
            print(
                f"# {self.name} report_latency_p99_ms = "
                f"{percentile(pooled, 99) * 1e3:.4g} ({len(pooled)} keys pooled "
                "over the open-loop passes; diagnostic, not gated)"
            )
        lags = [lag for record in opened for lag in record["lag"]]
        # Generator lag is printed but not gated: at this load it is
        # timer overshoot plus the odd stall, so its tail moves by more
        # than any bound between runs of the same code.
        print(
            f"# {self.name} feed_lag_p50_ms = {percentile(lags, 50) * 1e3:.4g}"
            f", feed_lag_max_ms = {max(lags) * 1e3:.4g}"
            f" ({len(lags)} open-loop chunks; diagnostic, not gated)"
        )
        print(
            f"# {self.name} host slowdown per pass: closed "
            f"{[round(r['slowdown'], 3) for r in closed]}, open "
            f"{[round(r['slowdown'], 3) for r in opened]}; unscaled "
            f"items_per_s = {median([r['items'] / r['wall'] for r in closed]):.6g}"
        )
        return {
            "items_per_s": (
                median([r["items"] * r["slowdown"] / r["wall"] for r in closed]),
                f"{len(closed)} closed-loop passes, scaled",
            ),
            "report_latency_p50_ms": (latency_ms(50), keys_basis),
            "report_latency_p95_ms": (latency_ms(95), keys_basis),
            "setup_s": (median(self.setup_samples),
                        f"{len(self.setup_samples)} set-ups"),
            "peak_rss_mb": (self.peak_rss / 1e6, "process plus workers"),
            "report_f1": (median(scores), f"{len(scores)} passes"),
        }

    def per_layer(self) -> dict:
        ratio = self.check_regime()
        tracer = Tracer(capacity=1 << 22)
        recorder = SpanRecorder(tracer)
        histograms: dict = {}

        next_traced = self.passes(recorder=recorder)

        def traced_pass():
            record = next_traced()
            if record is not None:
                for name, (bounds, counts) in record["histograms"].items():
                    if name in histograms:
                        pooled = histograms[name][1]
                        counts = [a + b for a, b in zip(pooled, counts)]
                    histograms[name] = (bounds, counts)
            return record

        def traced_done(records):
            return len(records) >= MIN_PASSES and all(
                sum(counts) >= P99_SAMPLES for _, counts in histograms.values()
            )

        untraced, traced = self.alternate(
            self.passes(), traced_pass, traced_done
        )
        if not untraced or not traced:
            return {}
        self.check_reports(untraced + traced)
        if tracer.dropped:
            self.problems.append(f"tracer dropped {tracer.dropped} spans")
        out_dir = ROOT / ".perfbench" / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(
            out_dir / f"{self.name}-seed{self.seed}.trace.json",
            workload=self.name, seed=self.seed, passes=len(traced),
        )

        passes = len(traced)
        totals = layer_totals(tracer.chrome_events())

        def per_pass(span, field):
            return totals.get(span, {}).get(field, 0) / passes

        metrics = {name: 0.0 for name in PER_LAYER_UNITS}
        for span, metric in SELF_TIME_METRICS.items():
            metrics[metric] = per_pass(span, "self_s")
        fast = per_pass("core.vectorized.fast", "items")
        exact = per_pass("core.vectorized.exact", "items")
        metrics.update({
            "core.vectorized.fast_items": fast,
            "core.vectorized.exact_items": exact,
            "core.vectorized.exact_share":
                exact / (fast + exact) if fast + exact else 0.0,
            "core.vectorized.process_calls":
                per_pass("core.vectorized.process", "calls"),
            "parallel.concurrent.flushes":
                per_pass("parallel.concurrent.flush", "calls"),
            "parallel.transport.copy_bytes":
                per_pass("parallel.transport.copy", "items") * ITEM_BYTES,
            "observability.ticks": per_pass("observability.store_collect", "calls"),
            "regime.keys_per_slot": ratio,
        })
        for record in traced:
            for name, value in record["counts"].items():
                metrics[name] += value / passes
        for name, (bounds, counts) in histograms.items():
            metrics[name] = binned_percentile(bounds, counts, 99) * 1e3

        untraced_ips = median([r["items"] * r["slowdown"] / r["wall"] for r in untraced])
        traced_ips = median([r["items"] * r["slowdown"] / r["wall"] for r in traced])
        print(
            "# closed-loop pass seconds: untraced "
            f"{[round(r['wall'], 3) for r in untraced]}, traced "
            f"{[round(r['wall'], 3) for r in traced]}"
        )
        metrics["trace.coverage"] = sum(
            t["self_s"] for t in totals.values()
        ) / sum(r["warmup"] + r["wall"] for r in traced)
        metrics["trace.overhead_pct"] = (1.0 - traced_ips / untraced_ips) * 100.0
        limits = EXACT_SHARE_LIMITS.get(self.name)
        share = metrics["core.vectorized.exact_share"]
        if limits and not limits[0] <= share <= limits[1]:
            self.problems.append(f"exact_share {share:.4f} outside {limits}")
        return {
            name: (value, f"{passes} traced passes")
            for name, value in metrics.items()
        }


def run_one(args) -> int:
    workers = CONFIG["workloads"][args.workload]["workers"]
    cores = os.cpu_count() or 1
    if workers > cores:
        print(
            f"perfbench: workload {args.workload!r} needs {workers} workers but "
            f"this host has {cores} cores; no comparison may use more workers "
            "than cores",
            file=sys.stderr,
        )
        return 2
    if cores != CONFIG["cpu_count"]:
        print(f"# note: {cores} cores here, rates were set on {CONFIG['cpu_count']}")
    run = Run(args.workload, args.seed, float(args.seconds))
    try:
        samples = run.per_layer() if args.trace else run.end_to_end()
    finally:
        # The shm transport starts multiprocessing's resource tracker;
        # stop and reap it so no process of the run outlives the run.
        resource_tracker._resource_tracker._stop()
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    correct = not run.problems and set(samples) == set(units)
    for problem in run.problems:
        print(f"# FAILED: {problem}")
    metrics = {}
    for name, unit in units.items():
        if name not in samples:
            continue
        value, basis = samples[name]
        print(f"{args.workload} {name} = {value:.6g} {unit} ({basis})")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own interpreter, then one summary line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: workload {name} printed no result", file=sys.stderr)
            return 2
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}/{metric}"] = entry
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
