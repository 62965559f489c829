"""Numpy-accelerated batch engine for QuantileFilter.

The scalar :class:`~repro.core.quantile_filter.QuantileFilter` spends
most of its Python time computing hashes and walking Algorithm 2's
branches one item at a time.  This engine processes the stream in
chunks and splits every chunk into two tiers:

* **Vectorised tier** — fingerprints, candidate buckets and item
  weights are computed for the whole chunk at once; items that resolve
  as *pure candidate hits* (their fingerprint already occupies a slot,
  and accumulating the chunk's weights cannot cross the report
  threshold) are folded into the per-slot Qweight array with
  bucket-segmented numpy sums.  This is the steady-state majority of a
  heavy-hitter stream.
* **Scalar tier** — items whose bucket sees a report crossing, a
  vacancy fill, a replacement decision or a vague-part touch within
  the chunk fall back to the exact per-item branch of Algorithm 2
  (the pre-vectorisation hot loop), applied in stream order.

The split is *exact*, not approximate: a bucket is handed to the
scalar tier from the first item that misses its candidate slots, and a
slot whose segment might cross the report threshold is replayed
item-by-item, so the engine reports the same keys item-for-item as the
scalar filter configured with ``counter_kind="float"`` and the same
seed (``tests/core/test_vectorized.py`` and
``tests/properties/test_property_batch_equivalence.py`` check exactly
that).  Numpy accumulation uses sequential ``cumsum``/ordered adds so
even the floating-point state stays bit-identical.

Semantics match the scalar filter configured with ``counter_kind=
"float"`` and the same seed: identical hash families are constructed
from identical seed derivations, so the two implementations report the
same keys item-for-item.  The throughput experiments (Fig. 8/10) use
this engine; ``vectorize=False`` pins the legacy all-scalar chunk loop
(kept as the benchmark baseline and as a debugging aid).

The scalar tier and the fast tier's risky-slot replay run compiled C
(:mod:`repro.core.kernel`, built once at import of this module) on the
same planes; the Python loop below is the reference it is tested
against bit for bit, and the fallback when no C compiler is present.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.common.errors import ParameterError
from repro.common.hashing import (
    FingerprintHasher,
    HashFamily,
    SignHashFamily,
    _mix64_array,
    canonical_keys,
    mix64,
    validate_chunk,
)
from repro.common.memory import bits_to_bytes, sizeof_counter, split_budget
from repro.core.candidate import QWEIGHT_COUNTER_BYTES
from repro.core.criteria import Criteria
from repro.core.quantile_filter import DEFAULT_CANDIDATE_FRACTION
from repro.core.kernel import load as _load_kernel
from repro.core.strategies import make_strategy
from repro.core.vague import vague_key
from repro.quantiles.base import RANK_EPS

#: Shift combining (bucket, fingerprint) into one vague-part key; must
#: match :func:`repro.core.vague.vague_key`.
_VKEY_SHIFT = np.uint64(20)

#: Default items per internal processing chunk.  Smaller than the old
#: 64 Ki default on purpose: the vectorised tier classifies buckets
#: against chunk-start state, so shorter chunks quarantine new-key
#: arrivals faster and keep the steady-state fast path hot.
DEFAULT_CHUNK_SIZE = 8_192

#: First chunk length of the geometric ramp used by :meth:`process` —
#: cold-start chunks are mostly candidate misses (scalar tier), so the
#: ramp keeps them short until the buckets are populated.
_RAMP_FIRST_CHUNK = 512

#: The compiled exact tier, built (or found in the cache) here at import
#: so no constructor pays for it; ``None`` when no compiler works.
_KERNEL = _load_kernel()


class BatchQuantileFilter:
    """Chunked, numpy-assisted QuantileFilter over integer-keyed streams.

    Keys must be integers (the experiment streams use integer flow ids);
    the scalar filter remains the general-purpose implementation for
    arbitrary hashable keys.

    Parameters mirror :class:`~repro.core.quantile_filter.QuantileFilter`
    where applicable; counters are plain Python floats (no saturation),
    matching the scalar filter's ``counter_kind="float"`` mode.

    ``vectorize=False`` disables the bucket-segmented fast tier and runs
    every item through the scalar branch's Python loop — the
    pre-optimisation behaviour, kept for benchmarking, for bisecting
    equivalence failures and as the compiled tier's reference.

    :attr:`kernel` names the code running the exact tier: ``"c"`` (the
    compiled :mod:`repro.core.kernel`) or ``"python"`` (the reference
    loop: ``vectorize=False``, or no C compiler at import).
    """

    def __init__(
        self,
        criteria: Criteria,
        memory_bytes: Optional[int] = None,
        *,
        num_buckets: Optional[int] = None,
        vague_width: Optional[int] = None,
        bucket_size: int = 6,
        depth: int = 3,
        candidate_fraction: float = DEFAULT_CANDIDATE_FRACTION,
        fp_bits: int = 16,
        strategy: str = "comparative",
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        vectorize: bool = True,
    ):
        if chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        self.criteria = criteria
        self.chunk_size = chunk_size
        self.vectorize = vectorize
        self._kernel = _KERNEL if vectorize else None

        self.bucket_size = bucket_size
        self.depth = depth
        self.fp_bits = fp_bits
        if memory_bytes is not None:
            candidate_bytes, vague_bytes = split_budget(
                memory_bytes, candidate_fraction
            )
            per_slot = bits_to_bytes(fp_bits) + QWEIGHT_COUNTER_BYTES
            slots = max(bucket_size, candidate_bytes // per_slot)
            self.num_buckets = max(1, slots // bucket_size)
            per_counter = sizeof_counter("int32")
            self.width = max(1, vague_bytes // (depth * per_counter))
        else:
            if num_buckets is None or vague_width is None:
                raise ParameterError(
                    "pass either memory_bytes or both num_buckets and vague_width"
                )
            self.num_buckets = num_buckets
            self.width = vague_width

        # Hash families constructed with the SAME seed derivations as the
        # scalar filter, so both address identical cells.  The seed is
        # kept because sharded deployments rebuild a scalar twin from it
        # (repro.parallel.sharded.batch_filter_to_scalar).
        self.seed = seed
        self._hashes = HashFamily(depth, self.width, seed=seed)
        self._signs = SignHashFamily(depth, seed=seed + 1)
        self._fp_hasher = FingerprintHasher(bits=fp_bits, seed=seed + 7)
        self._bucket_seed = np.uint64(mix64(seed ^ 0x1234_5678_9ABC_DEF0))
        self._num_buckets_u64 = np.uint64(self.num_buckets)
        self.strategy = make_strategy(strategy, seed=seed + 13)

        # Candidate part as dense numpy planes: the vectorised tier
        # gathers whole buckets per chunk; the scalar tier extracts the
        # few touched buckets into Python lists and writes them back.
        self._cand_fps = np.zeros(
            (self.num_buckets, bucket_size), dtype=np.uint64
        )
        self._cand_qws = np.zeros(
            (self.num_buckets, bucket_size), dtype=np.float64
        )
        # Per-slot scratch for the fast tier's crossing screen; zeroed
        # after every use so allocation happens once, not per chunk.
        self._scratch_pos = np.zeros(
            self.num_buckets * bucket_size, dtype=np.float64
        )
        # Vague part counters, one C-contiguous (depth, width) plane
        # (scalar-tier-only state: the vectorised tier never touches
        # it).  Always mutated in place: the compiled tier writes
        # through its buffer.
        self._rows = np.zeros((depth, self.width), dtype=np.float64)

        self.reported_keys: Set[int] = set()
        self.items_processed = 0
        self.report_count = 0
        #: When True, the hot loop maintains the per-event tallies below
        #: (candidate hits, vague inserts, swaps).  Off by default so an
        #: uninstrumented run pays only one local-bool branch per item;
        #: ``repro.observability.observe_filter`` switches it on.
        self.stats_tallies = False
        self.candidate_hits = 0
        self.vague_inserts = 0
        self.swaps = 0
        # Reports are rare, so the by-source split is always maintained.
        self.candidate_reports = 0
        self.vague_reports = 0
        self.retargets = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def process(self, keys: np.ndarray, values: np.ndarray) -> Set[int]:
        """Run the whole stream; returns the deduplicated reported keys."""
        keys, values = validate_chunk(keys, values)
        n = keys.shape[0]
        # Ramp the chunk size up geometrically from a small first chunk:
        # at cold start every key misses the candidate part, sending the
        # whole first chunk to the scalar tier, so short early chunks
        # populate the buckets cheaply before full-width chunks arrive.
        # Chunk boundaries never change semantics (each chunk is exact),
        # only how much work lands in which tier.
        start = 0
        size = min(_RAMP_FIRST_CHUNK, self.chunk_size) if self.vectorize else self.chunk_size
        while start < n:
            self._process_chunk(
                keys[start:start + size], values[start:start + size]
            )
            start += size
            size = min(size * 2, self.chunk_size)
        return self.reported_keys

    def retarget(self, threshold: float) -> Criteria:
        """Move the value threshold ``T``, preserving all sketch state.

        Same semantics as
        :meth:`~repro.core.quantile_filter.QuantileFilter.retarget`.
        Every chunk reads ``self.criteria`` once at its start
        (:meth:`_process_chunk`), so a retarget between :meth:`process`
        calls — the adaptive-controller cadence — takes effect exactly
        at the next chunk boundary, never mid-chunk.
        """
        self.criteria = self.criteria.with_updates(threshold=float(threshold))
        self.retargets += 1
        return self.criteria

    @property
    def kernel(self) -> str:
        """``"c"`` when the exact tier runs compiled, else ``"python"``."""
        return "python" if self._kernel is None else "c"

    @property
    def _report_threshold_eff(self) -> float:
        # Same boundary tolerance as the scalar filter and the oracle.
        crit = self.criteria
        return crit.report_threshold - RANK_EPS * (1 + crit.report_threshold)

    # ------------------------------------------------------------------
    # chunk machinery
    # ------------------------------------------------------------------
    def _chunk_parts(self, keys: np.ndarray, values: np.ndarray):
        """Lock-free per-chunk precompute: fingerprints, buckets, weights.

        Pure functions of the inputs and the (immutable) hash families —
        no filter state is read or written, so concurrent callers (the
        thread-parallel engine in :mod:`repro.parallel.concurrent`) may
        run this outside any lock.
        """
        crit = self.criteria
        canon = canonical_keys(keys)
        fps = self._fp_hasher.fingerprints_batch(canon)
        buckets = (
            _mix64_array(canon ^ self._bucket_seed) % self._num_buckets_u64
        ).astype(np.int64)
        weights = np.where(
            values > crit.threshold, crit.positive_weight, -1.0
        )
        return fps, buckets, weights

    def _classify_chunk(self, fps: np.ndarray, buckets: np.ndarray):
        """Split a (sub)chunk into the fast and scalar tiers.

        Classifies against chunk-start candidate state.  A "hit" is a
        fingerprint already resident in its bucket; the first miss in
        a bucket can mutate that bucket's slots (vacancy fill or
        replacement), so only the hit-prefix of each bucket — items
        strictly before the bucket's first miss — is provably pure.
        Reads the candidate planes: callers that share the planes across
        threads must hold the owning bucket-stripe lock.

        Returns ``(hit, fast_idx, slow_idx)``: the per-slot hit matrix
        and the index arrays of the two tiers (both in ascending, i.e.
        stream, order).
        """
        n = int(fps.shape[0])
        bucket_rows = self._cand_fps[buckets]
        hit = bucket_rows == fps[:, None]
        hit_any = hit.any(axis=1)
        miss_idx = np.flatnonzero(~hit_any)
        if miss_idx.size:
            first_miss = np.full(self.num_buckets, n, dtype=np.int64)
            np.minimum.at(first_miss, buckets[miss_idx], miss_idx)
            fast_mask = hit_any & (np.arange(n) < first_miss[buckets])
        else:
            fast_mask = hit_any
        return hit, np.flatnonzero(fast_mask), np.flatnonzero(~fast_mask)

    def _process_chunk(self, keys: np.ndarray, values: np.ndarray) -> None:
        n = int(keys.shape[0])
        fps, buckets, weights = self._chunk_parts(keys, values)

        if not self.vectorize:
            self._scalar_pass(keys, fps, buckets, weights, np.arange(n))
            self.items_processed += n
            return

        hit, fast_idx, slow_idx = self._classify_chunk(fps, buckets)

        # The two tiers commute: fast items touch only candidate slots
        # of buckets whose chunk prefix is hit-pure, and the scalar tier
        # begins exactly where those prefixes end, so committing the
        # whole vectorised tier first preserves stream-order semantics.
        if fast_idx.size:
            self._fast_candidate_pass(keys, buckets, weights, hit, fast_idx)
        if slow_idx.size:
            self._scalar_pass(keys, fps, buckets, weights, slow_idx)
        self.items_processed += n

    def _fast_candidate_pass(
        self,
        keys: np.ndarray,
        buckets: np.ndarray,
        weights: np.ndarray,
        hit: np.ndarray,
        fast_idx: np.ndarray,
        sink=None,
    ) -> None:
        """Grouped per-slot Qweight accumulation for pure candidate hits.

        ``sink`` receives the event tallies and reported keys; it
        defaults to the filter itself and exists so the thread-parallel
        engine can direct each bucket stripe's tallies at a
        lock-protected per-stripe accumulator.

        A slot is *clean* when its starting Qweight plus the sum of the
        chunk's positive weights provably stays below the report
        threshold (with a safety margin dominating float summation
        error) — then no prefix of the slot's updates can cross, and
        the whole segment commits through one ordered ``np.add.at``.
        ``ufunc.at`` is unbuffered and applies the adds in index order,
        i.e. stream order, so the committed Qweights are bit-identical
        to the scalar filter's left-to-right additions.  Slots that
        might cross (hot keys about to report) are replayed
        item-by-item in stream order — slot-local state, so replay
        order relative to other slots is irrelevant.
        """
        if sink is None:
            sink = self
        report_threshold = self._report_threshold_eff
        qws_flat = self._cand_qws.reshape(-1)

        slots = np.argmax(hit[fast_idx], axis=1)
        gslot = buckets[fast_idx] * self.bucket_size + slots
        fast_weights = weights[fast_idx]

        # Conservative crossing screen: per-slot positive-weight mass.
        scratch = self._scratch_pos
        np.add.at(scratch, gslot, np.maximum(fast_weights, 0.0))
        bound = qws_flat[gslot] + scratch[gslot]
        scratch[gslot] = 0.0
        risky = bound >= report_threshold - 1e-7 * (np.abs(bound) + 1.0)

        if not risky.any():
            np.add.at(qws_flat, gslot, fast_weights)
        else:
            clean = ~risky
            np.add.at(qws_flat, gslot[clean], fast_weights[clean])
            # Replay risky slots exactly, grouped by slot, preserving
            # stream order within each slot (stable sort).
            risky_pos = np.flatnonzero(risky)
            order = risky_pos[np.argsort(gslot[risky_pos], kind="stable")]
            replay = (
                self._replay_slots if self._kernel is None
                else self._kernel.replay_slots
            )
            positions = replay(
                self, gslot[order], fast_weights[order], report_threshold
            )
            self._credit(
                sink, keys[fast_idx[order[positions]]], len(positions), 0
            )

        if sink.stats_tallies:
            sink.candidate_hits += int(fast_idx.size)

    @staticmethod
    def _replay_slots(filt, slots, weights, report_threshold) -> List[int]:
        """Python reference of the compiled risky-slot replay.

        ``slots``/``weights`` are the risky items grouped by flat slot,
        in stream order within each slot.  Returns the positions of
        the items that reported.
        """
        qws_flat = filt._cand_qws.reshape(-1)
        replay_slots = slots.tolist()
        replay_weights = weights.tolist()
        positions: List[int] = []
        current_slot = -1
        qweight = 0.0
        for pos in range(len(replay_slots)):
            slot = replay_slots[pos]
            if slot != current_slot:
                if current_slot >= 0:
                    qws_flat[current_slot] = qweight
                current_slot = slot
                qweight = qws_flat[slot]
            new_qw = qweight + replay_weights[pos]
            if new_qw >= report_threshold:
                qweight = 0.0
                positions.append(pos)
            else:
                qweight = new_qw
        if current_slot >= 0:
            qws_flat[current_slot] = qweight
        return positions

    @staticmethod
    def _credit(
        sink, keys, candidate_reports, vague_reports, hits=0, vague=0,
        swaps=0,
    ) -> None:
        """Add a pass's reported ``keys`` and event counts to ``sink``."""
        if candidate_reports or vague_reports:
            sink.reported_keys.update(keys.tolist())
            sink.report_count += candidate_reports + vague_reports
            sink.candidate_reports += candidate_reports
            sink.vague_reports += vague_reports
        if sink.stats_tallies:
            sink.candidate_hits += hits
            sink.vague_inserts += vague
            sink.swaps += swaps

    def _scalar_pass(
        self,
        keys: np.ndarray,
        fps: np.ndarray,
        buckets: np.ndarray,
        weights: np.ndarray,
        idx: np.ndarray,
        sink=None,
    ) -> None:
        """Algorithm 2's exact per-item branch over the ``idx`` subset.

        Handles report crossings, vacancy fills, replacement decisions
        and every vague-part touch, in stream order: through the
        compiled kernel when one is loaded, else through the Python
        reference loop (:meth:`_scalar_loop`).

        ``sink`` plays the same role as in :meth:`_fast_candidate_pass`:
        tallies and reported keys go to it instead of ``self`` when the
        thread-parallel engine supplies a per-stripe accumulator.
        """
        if idx.size == 0:
            return
        if sink is None:
            sink = self
        exact = (
            self._scalar_loop if self._kernel is None
            else self._kernel.scalar_pass
        )
        positions, (hits, vague, swaps, cand_reports, vague_reports) = exact(
            self, fps, buckets, weights, idx, self._report_threshold_eff
        )
        self._credit(
            sink, keys[idx[positions]], cand_reports, vague_reports,
            hits, vague, swaps,
        )

    @staticmethod
    def _scalar_loop(filt, fps, buckets, weights, idx, report_threshold):
        """The pre-vectorisation hot loop: Python reference of the kernel.

        Touched buckets and, from the first vague touch on, the vague
        rows are staged into Python lists (fast scalar indexing) and
        written back afterwards; vague addressing is computed
        vectorised for just the subset.  Returns the positions (into
        ``idx``) of reported items and the tallies: candidate hits,
        vague inserts, swaps, candidate reports, vague reports.
        """
        fp_list = fps[idx].tolist()
        bucket_list = buckets[idx].tolist()
        weight_list = weights[idx].tolist()
        # Vague addressing depends only on (fp, bucket); computed for
        # the scalar subset only — the vectorised tier never needs it.
        vkeys = _mix64_array(
            (buckets[idx].astype(np.uint64) << _VKEY_SHIFT) ^ fps[idx]
        )
        cols = filt._hashes.indices_batch(vkeys)
        signs = filt._signs.signs_batch(vkeys)
        col_rows = cols.tolist()
        sign_rows = signs.tolist()

        # Stage touched buckets as plain lists for the loop below — one
        # fancy-indexed gather + tolist per plane, not one per bucket.
        touched = np.unique(buckets[idx])
        touched_list = touched.tolist()
        cand_fps: Dict[int, List[int]] = dict(
            zip(touched_list, filt._cand_fps[touched].tolist())
        )
        cand_qws: Dict[int, List[float]] = dict(
            zip(touched_list, filt._cand_qws[touched].tolist())
        )

        rows = None
        depth = filt.depth
        bucket_size = filt.bucket_size
        should_replace = filt.strategy.should_replace
        positions: List[int] = []
        n_hits = n_vague = n_swaps = n_cand_reports = n_vague_reports = 0

        for i in range(len(fp_list)):
            fp = fp_list[i]
            bucket = bucket_list[i]
            weight = weight_list[i]
            bucket_fps = cand_fps[bucket]
            bucket_qws = cand_qws[bucket]

            # Case 1: candidate hit.
            matched = False
            free = -1
            for slot in range(bucket_size):
                slot_fp = bucket_fps[slot]
                if slot_fp == fp:
                    n_hits += 1
                    new_qw = bucket_qws[slot] + weight
                    if new_qw >= report_threshold:
                        bucket_qws[slot] = 0.0
                        positions.append(i)
                        n_cand_reports += 1
                    else:
                        bucket_qws[slot] = new_qw
                    matched = True
                    break
                if slot_fp == 0 and free < 0:
                    free = slot
            if matched:
                continue

            # Case 2: vacancy.
            if free >= 0:
                bucket_fps[free] = fp
                if weight >= report_threshold:
                    bucket_qws[free] = 0.0
                    positions.append(i)
                    n_cand_reports += 1
                else:
                    bucket_qws[free] = weight
                continue

            # Case 3: vague part (fused insert + median estimate).
            n_vague += 1
            if rows is None:
                rows = filt._rows.tolist()
            ests = []
            for r in range(depth):
                col = col_rows[r][i]
                sign = sign_rows[r][i]
                rows[r][col] += sign * weight
                ests.append(sign * rows[r][col])
            ests.sort()
            estimate = ests[len(ests) // 2] if depth % 2 else (
                0.5 * (ests[depth // 2 - 1] + ests[depth // 2])
            )

            if estimate >= report_threshold:
                for r in range(depth):
                    rows[r][col_rows[r][i]] -= sign_rows[r][i] * estimate
                positions.append(i)
                n_vague_reports += 1
                estimate = 0.0

            # Candidate election against the bucket minimum.
            min_slot = 0
            min_qw = bucket_qws[0]
            for slot in range(1, bucket_size):
                if bucket_qws[slot] < min_qw:
                    min_qw = bucket_qws[slot]
                    min_slot = slot
            if should_replace(estimate, min_qw):
                n_swaps += 1
                evicted_fp = bucket_fps[min_slot]
                evicted_vkey = vague_key(evicted_fp, bucket)
                evicted_cols = filt._hashes.indices(evicted_vkey)
                evicted_signs = filt._signs.signs(evicted_vkey)
                for r in range(depth):
                    rows[r][evicted_cols[r]] += evicted_signs[r] * min_qw
                if estimate != 0.0:
                    for r in range(depth):
                        rows[r][col_rows[r][i]] -= sign_rows[r][i] * estimate
                bucket_fps[min_slot] = fp
                bucket_qws[min_slot] = estimate

        filt._cand_fps[touched] = np.asarray(
            [cand_fps[b] for b in touched_list], dtype=np.uint64
        )
        filt._cand_qws[touched] = np.asarray(
            [cand_qws[b] for b in touched_list], dtype=np.float64
        )
        if rows is not None:
            filt._rows[...] = rows
        return positions, (
            n_hits, n_vague, n_swaps, n_cand_reports, n_vague_reports
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Occupied candidate slots (snapshot-time scan, not hot-path)."""
        return int(np.count_nonzero(self._cand_fps))

    def occupancy(self) -> float:
        """Fraction of candidate slots currently holding an entry."""
        return self.entry_count() / (self.num_buckets * self.bucket_size)

    def candidate_hit_rate(self) -> float:
        """Fraction of inserts resolved in the candidate part.

        Meaningful only while :attr:`stats_tallies` is on (the hit tally
        does not advance otherwise).
        """
        if self.items_processed == 0:
            return 0.0
        return self.candidate_hits / self.items_processed

    @property
    def nbytes(self) -> int:
        """Modelled memory footprint (same model as the scalar filter)."""
        per_slot = bits_to_bytes(self.fp_bits) + QWEIGHT_COUNTER_BYTES
        candidate = self.num_buckets * self.bucket_size * per_slot
        vague = self.depth * self.width * sizeof_counter("int32")
        return candidate + vague
