"""Structure introspection: state dumps and structural probes.

When a deployment misbehaves — recall dropping, counters saturating,
election churn — the first question is "what does the structure look
like right now?".  :func:`describe` renders a QuantileFilter's state as
a text report: part sizes, occupancy, hit rates, counter statistics,
the top candidate entries, and health warnings derived from the
monitoring thresholds documented in ``docs/operations.md``.

:func:`structural_probe` is the machine-readable counterpart: one flat
dict of geometry and derived accuracy estimators (fingerprint-collision
probability, vague-part noise standard deviation) that the health model
in :mod:`repro.observability.health` consumes.  It accepts any filter
engine — scalar, batch, or windowed — and degrades gracefully by
omitting fields the engine does not track.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.core.quantile_filter import QuantileFilter


def health_warnings(qf: QuantileFilter) -> List[str]:
    """Heuristic warnings about a filter's current state.

    Empty list = nothing suspicious.  Thresholds follow the operations
    guide: low candidate hit rate, high counter saturation, explosive
    election churn, or a candidate part packed solid.
    """
    warnings: List[str] = []
    if qf.items_processed >= 1_000:
        hit_rate = qf.candidate_hit_rate()
        if hit_rate < 0.2:
            warnings.append(
                f"candidate hit rate {hit_rate:.1%} is low — the hot-key "
                "population exceeds the candidate capacity; grow "
                "num_buckets or the memory budget"
            )
        saturation = qf.vague.sketch.counters.saturation_fraction()
        if saturation > 0.2:
            warnings.append(
                f"{saturation:.1%} of vague counters are saturated — widen "
                "counters (counter_kind) or shorten the reset window"
            )
        swap_rate = qf.swaps / qf.items_processed
        if swap_rate > 0.2:
            warnings.append(
                f"election churn {swap_rate:.1%} per item — bucket "
                "minimums keep losing; more buckets would stabilise the "
                "candidate set"
            )
    if qf.candidate.occupancy() > 0.98 and qf.candidate.entry_count() > 10:
        warnings.append(
            "candidate part is packed solid — new keys can only enter by "
            "eviction"
        )
    return warnings


def _vague_noise_std(counters: np.ndarray, width: int) -> float:
    """Count-Sketch noise scale from the live counter planes.

    A point query's error is (up to constants) a zero-mean variable
    with variance ``F2 / width`` per row, where ``F2`` is the row's sum
    of squared counters — estimating ``F2`` by the row's own squared
    mass gives a live, assumption-free noise scale in Qweight units.
    """
    if counters.size == 0 or width < 1:
        return 0.0
    rows = np.asarray(counters, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    row_f2 = np.sum(rows * rows, axis=1)
    return float(math.sqrt(float(row_f2.mean()) / width))


def structural_probe(filt) -> dict:
    """One flat dict of structural facts and derived accuracy estimators.

    Works on the scalar :class:`QuantileFilter`, the numpy
    :class:`~repro.core.vectorized.BatchQuantileFilter`, and the
    :class:`~repro.core.windowed.WindowedQuantileFilter` (which probes
    its active inner filter and adds the window fields).  Fields an
    engine does not track are simply absent, so consumers must use
    ``.get()``.

    Derived estimators:

    * ``fingerprint_collision_probability`` — chance a fresh key's
      fingerprint collides with an already-occupied slot in its bucket
      (mean occupied slots per bucket times ``2^-fp_bits``).
    * ``vague_noise_std`` — Count-Sketch noise scale in Qweight units
      (see :func:`_vague_noise_std`); compare against
      ``report_threshold`` to judge whether vague-part estimates are
      trustworthy.
    """
    # Windowed wrapper: probe the active inner filter, keep window facts.
    inner = getattr(filt, "_filter", None)
    if inner is None and getattr(filt, "_panes", None) is not None:
        inner = filt._panes[filt._elder]  # sliding mode: the elder pane
    if inner is not None and hasattr(filt, "window_items"):
        probe = structural_probe(inner)
        probe.update(
            engine="windowed",
            window_items=filt.window_items,
            window_mode=filt.mode,
            window_fill=float(filt.window_fill),
            window_resets=int(filt.resets),
            items_processed=int(filt.items_processed),
            report_count=int(filt.report_count),
        )
        return probe

    probe: dict = {
        "items_processed": int(filt.items_processed),
        "report_count": int(filt.report_count),
        "nbytes": int(filt.nbytes),
        "threshold": float(filt.criteria.threshold),
        "report_threshold": float(filt.criteria.report_threshold),
    }

    candidate = getattr(filt, "candidate", None)
    if candidate is not None:
        # Scalar engine: parts are real objects.
        probe.update(
            engine="scalar",
            num_buckets=int(candidate.num_buckets),
            bucket_size=int(candidate.bucket_size),
            fp_bits=int(candidate.fp_bits),
            candidate_entries=int(candidate.entry_count()),
            candidate_occupancy=float(candidate.occupancy()),
        )
        counters = filt.vague.sketch.counters
        probe.update(
            vague_width=int(filt.vague.width),
            vague_depth=int(filt.vague.depth),
            vague_saturation=float(counters.saturation_fraction()),
            vague_noise_std=_vague_noise_std(
                np.asarray(counters.data, dtype=np.float64),
                filt.vague.width,
            ),
        )
    elif hasattr(filt, "entry_count"):
        # Batch engine: flat numpy planes, float counters (no clamp).
        probe.update(
            engine="batch",
            kernel=filt.kernel,
            num_buckets=int(filt.num_buckets),
            bucket_size=int(filt.bucket_size),
            fp_bits=int(filt.fp_bits),
            candidate_entries=int(filt.entry_count()),
            candidate_occupancy=float(filt.occupancy()),
            vague_width=int(filt.width),
            vague_depth=int(filt.depth),
            vague_saturation=0.0,
        )
        rows = getattr(filt, "_rows", None)
        if rows is not None:
            probe["vague_noise_std"] = _vague_noise_std(
                np.asarray(rows, dtype=np.float64), filt.width
            )

    if "candidate_entries" in probe and probe.get("num_buckets"):
        mean_occupied = probe["candidate_entries"] / probe["num_buckets"]
        probe["fingerprint_collision_probability"] = (
            mean_occupied / float(2 ** probe["fp_bits"])
        )
    return probe


def describe(qf: QuantileFilter, top_k: int = 5) -> str:
    """Render a filter's current state as a multi-line text report."""
    lines: List[str] = []
    lines.append(
        f"QuantileFilter — {qf.nbytes:,} modelled bytes "
        f"({qf.candidate.nbytes:,} candidate + {qf.vague.nbytes:,} vague)"
    )
    lines.append(
        f"criteria: delta={qf.criteria.delta} T={qf.criteria.threshold} "
        f"epsilon={qf.criteria.epsilon} "
        f"(report at Qweight >= {qf.criteria.report_threshold:g})"
    )
    # The batch engines say whether their exact tier runs compiled C;
    # the scalar filter always runs Python.
    lines.append(f"exact tier: {getattr(qf, 'kernel', 'python')} kernel")
    lines.append(
        f"candidate: {qf.candidate.num_buckets} buckets x "
        f"{qf.candidate.bucket_size} entries, "
        f"{qf.candidate.fp_bits}-bit fingerprints, "
        f"occupancy {qf.candidate.occupancy():.1%} "
        f"({qf.candidate.entry_count()} entries)"
    )
    counters = qf.vague.sketch.counters
    data = counters.data
    lines.append(
        f"vague [{qf.vague.backend}]: {qf.vague.depth} x {qf.vague.width} "
        f"{counters.kind} counters, "
        f"saturation {counters.saturation_fraction():.2%}, "
        f"|counter| mean {float(np.abs(data).mean()):.2f} "
        f"max {float(np.abs(data).max()):.0f}"
    )
    lines.append(
        f"traffic: {qf.items_processed:,} items, "
        f"{qf.report_count} reports ({len(qf.reported_keys)} distinct keys), "
        f"hit rate {qf.candidate_hit_rate():.1%}, "
        f"{qf.vague_inserts:,} vague inserts, {qf.swaps:,} swaps"
    )
    top = qf.top_candidates(k=top_k)
    if top:
        lines.append(f"top {len(top)} candidate Qweights:")
        for fp, bucket, qweight in top:
            lines.append(
                f"  fp=0x{fp:04x} bucket={bucket} Qweight={qweight:.1f}"
            )
    warnings = health_warnings(qf)
    if warnings:
        lines.append("warnings:")
        lines.extend(f"  ! {w}" for w in warnings)
    else:
        lines.append("health: ok")
    return "\n".join(lines)
