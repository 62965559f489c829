"""Windowed operation: the paper's periodic reset, productionised.

Sec. III-B: "a fixed-size QuantileFilter needs to be periodically
cleared ... outdated data should not be included ... it cannot maintain
precision with an unlimited number of insertions."  This module wraps a
filter with that clearing policy:

* **tumbling** — one filter, fully cleared every ``window_items`` items.
  Simple, but a key straddling a boundary loses its partial Qweight.
* **rotating** — two half-budget panes.  Every item goes into both; the
  *elder* pane (the one holding more history) answers and reports.
  Every ``window_items / 2`` items the elder clears and the roles swap,
  so the reporting pane always covers between W/2 and W of the most
  recent items — a standard smooth approximation of a sliding window
  that never serves reports from an empty structure.
"""

from __future__ import annotations

from typing import Hashable, Optional, Set

from repro.common.errors import ParameterError
from repro.common.hashing import validate_chunk
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter, Report

MODES = ("tumbling", "rotating")


class WindowedQuantileFilter:
    """A QuantileFilter with automatic periodic clearing.

    Parameters
    ----------
    criteria, memory_bytes:
        As for :class:`~repro.core.quantile_filter.QuantileFilter`.
        ``rotating`` mode splits the byte budget across its two panes.
    window_items:
        The clearing period, counted in processed items.
    mode:
        ``"tumbling"`` (default) or ``"rotating"``; see module docstring.
    filter_kwargs:
        Forwarded to the underlying filter(s).
    """

    def __init__(
        self,
        criteria: Criteria,
        memory_bytes: int,
        window_items: int,
        mode: str = "tumbling",
        **filter_kwargs,
    ):
        if window_items < 1:
            raise ParameterError(f"window_items must be >= 1, got {window_items}")
        if mode not in MODES:
            raise ParameterError(f"unknown mode {mode!r}; choose from {MODES}")
        self.criteria = criteria
        self.window_items = window_items
        self.mode = mode
        self.items_processed = 0
        self.resets = 0
        self.report_count = 0
        self.reported_keys: Set[Hashable] = set()
        seed = filter_kwargs.pop("seed", 0)
        if mode == "tumbling":
            self._filter = QuantileFilter(
                criteria, memory_bytes, seed=seed, **filter_kwargs
            )
            self._panes = None
        else:
            pane_bytes = max(2, memory_bytes // 2)
            self._panes = [
                QuantileFilter(criteria, pane_bytes, seed=seed, **filter_kwargs),
                QuantileFilter(criteria, pane_bytes, seed=seed + 1,
                               **filter_kwargs),
            ]
            self._elder = 0
            self._filter = None
        self._since_reset = 0

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def insert(self, key: Hashable, value: float,
               criteria: Optional[Criteria] = None) -> Optional[Report]:
        """Process one item, applying the clearing policy first."""
        self._maybe_rotate()
        self.items_processed += 1
        self._since_reset += 1
        if self.mode == "tumbling":
            report = self._filter.insert(key, value, criteria=criteria)
        else:
            elder = self._panes[self._elder]
            younger = self._panes[1 - self._elder]
            report = elder.insert(key, value, criteria=criteria)
            if report is not None:
                # Keep the panes consistent: the younger pane's partial
                # Qweight for this key also resets, mirroring
                # Definition 4's value-set reset.
                younger.insert(key, value, criteria=criteria)
                younger.delete(key)
            else:
                younger.insert(key, value, criteria=criteria)
        if report is not None:
            self.reported_keys.add(report.key)
            self.report_count += 1
        return report

    def insert_many(self, keys, values) -> list:
        """Insert a batch of items; returns the emitted reports in order.

        Semantically identical to calling :meth:`insert` per item — the
        clearing policy still fires at exactly the same item positions,
        including mid-batch.  Numpy inputs are unboxed to plain Python
        scalars once via ``tolist`` instead of once per item, matching
        :meth:`QuantileFilter.insert_many
        <repro.core.quantile_filter.QuantileFilter.insert_many>`.
        """
        keys, values = validate_chunk(keys, values)
        if hasattr(keys, "tolist"):
            keys = keys.tolist()
        values = values.tolist()
        insert = self.insert
        return [
            report
            for report in map(insert, keys, values)
            if report is not None
        ]

    def _maybe_rotate(self) -> None:
        if self.mode == "tumbling":
            if self._since_reset >= self.window_items:
                self._filter.reset()
                self.resets += 1
                self._since_reset = 0
            return
        if self._since_reset >= self.window_items // 2 + 1:
            self._panes[self._elder].reset()
            self._elder = 1 - self._elder
            self.resets += 1
            self._since_reset = 0

    def retarget(self, threshold: float) -> Criteria:
        """Move the value threshold ``T`` on every pane, state intact.

        Same semantics as
        :meth:`~repro.core.quantile_filter.QuantileFilter.retarget`;
        the clearing policy additionally bounds how long pre-retarget
        Qweight evidence can linger (one window).  Returns the new
        criteria.
        """
        self.criteria = self.criteria.with_updates(threshold=float(threshold))
        if self.mode == "tumbling":
            self._filter.retarget(threshold)
        else:
            for pane in self._panes:
                pane.retarget(threshold)
        return self.criteria

    @property
    def retargets(self) -> int:
        """Retargets applied (panes always move together)."""
        inner = self._filter if self.mode == "tumbling" else self._panes[0]
        return inner.retargets

    # ------------------------------------------------------------------
    # queries and accounting
    # ------------------------------------------------------------------
    def query(self, key: Hashable) -> float:
        """Qweight estimate over the current window."""
        if self.mode == "tumbling":
            return self._filter.query(key)
        return self._panes[self._elder].query(key)

    @property
    def window_fill(self) -> float:
        """How far into the current clearing period the stream is."""
        period = (
            self.window_items if self.mode == "tumbling"
            else self.window_items // 2 + 1
        )
        return self._since_reset / period

    @property
    def nbytes(self) -> int:
        """Modelled memory footprint in bytes (all panes)."""
        if self.mode == "tumbling":
            return self._filter.nbytes
        return sum(pane.nbytes for pane in self._panes)
