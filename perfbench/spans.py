"""Spans around the calls into each layer, recorded from the benchmark.

:class:`SpanRecorder` replaces a method on one object with a wrapper
that records a span per call into a
:class:`repro.observability.tracing.Tracer`.  Each span carries an id,
the id of the span that caused it (the innermost open span on the same
thread, 0 at the root), the chunk being processed and an optional item
count.  The spans stay in the tracer's memory until the run writes
them out as Chrome trace events.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Category of every span this module records.
CATEGORY = "perfbench"


class SpanRecorder:
    """Records one span per call of every method it wraps."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_chunk(self, chunk_id: int) -> None:
        """Name the chunk this thread works on from now on."""
        self._local.chunk = chunk_id

    def wrap(
        self,
        target,
        attr: str,
        name: str,
        items: Optional[Callable[[tuple, dict], int]] = None,
        chunk: Optional[Callable[[tuple, dict], int]] = None,
    ) -> None:
        """Record a ``name`` span around every ``target.attr(...)`` call.

        The wrapper is set on ``target`` itself, so only calls made
        through this object are traced.  ``items(args, kwargs)``, when
        given, counts the items the call handles; ``chunk(args,
        kwargs)``, when given, names the chunk the call (and everything
        it calls on this thread) works on.
        """
        original = getattr(target, attr)
        tracer = self.tracer
        ids = self._ids
        local = self._local
        stack_of = self._stack

        def traced(*args, **kwargs):
            if chunk is not None:
                local.chunk = chunk(args, kwargs)
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span_args = {
                    "id": span_id,
                    "parent": parent,
                    "chunk": getattr(local, "chunk", -1),
                }
                if items is not None:
                    span_args["items"] = int(items(args, kwargs))
                tracer.add_span(name, start, end, cat=CATEGORY, args=span_args)

        setattr(target, attr, traced)


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(events: Iterable[dict]) -> List[Tuple[str, float, dict]]:
    """``(name, self_seconds, args)`` per span, children subtracted.

    ``events`` are Chrome ``X`` events as :class:`SpanRecorder` writes
    them (``ts``/``dur`` in microseconds, ``args.id``/``args.parent``).
    Only the part of a child that lies inside its parent is subtracted.
    """
    spans = [
        e for e in events
        if e.get("ph") == "X" and e.get("cat") == CATEGORY
    ]
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for event in spans:
        parent = event["args"]["parent"]
        if parent:
            children[parent].append(
                (event["ts"], event["ts"] + event["dur"])
            )
    out = []
    for event in spans:
        start, end = event["ts"], event["ts"] + event["dur"]
        inside = [
            (max(start, c_start), min(end, c_end))
            for c_start, c_end in children.get(event["args"]["id"], ())
            if c_end > start and c_start < end
        ]
        out.append(
            (event["name"], (event["dur"] - _covered(inside)) / 1e6,
             event["args"])
        )
    return out


def layer_totals(events: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self seconds, call count and items."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "items": 0}
    )
    for name, self_s, args in self_times(events):
        entry = totals[name]
        entry["self_s"] += self_s
        entry["calls"] += 1
        entry["items"] += args.get("items", 0)
    return dict(totals)
