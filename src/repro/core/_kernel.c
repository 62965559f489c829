/*
 * Algorithm 2's exact tier for repro.core.vectorized, in plain C.
 *
 * Loaded through ctypes by repro.core.kernel (no Python.h): every
 * pointer is an ndarray's data buffer, updated in place, and ctypes
 * releases the GIL for the length of each call.  The arithmetic
 * mirrors the Python reference loop in BatchQuantileFilter operation
 * for operation, so the planes stay bit-identical to it.  That needs
 * -ffp-contract=off: a fused multiply-add rounds once where the
 * reference rounds twice.
 */
#include <stdint.h>

/* splitmix64 finalizer: repro.common.hashing.mix64. */
static inline uint64_t mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* ---- CPython's MT19937 (Modules/_randommodule.c) ------------------ */
/* mt[0..623] is the state, mt[624] the index: random.Random.getstate()[1]. */
#define MT_N 624
#define MT_M 397

static uint32_t genrand_uint32(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (mt[MT_N] >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random(): genrand_res53. */
static double genrand_res53(uint32_t *mt)
{
    uint32_t a = genrand_uint32(mt) >> 5, b = genrand_uint32(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* ---- replacement strategies (repro.core.strategies) -------------- */
enum { COMPARATIVE = 0, PROBABILISTIC = 1, FORCEFUL = 2 };

static int should_replace(int strategy, double est, double min_qw, uint32_t *mt)
{
    double denominator, probability;
    if (strategy == COMPARATIVE)
        return est > min_qw;
    if (strategy == FORCEFUL)
        return 1;
    if (est <= 0)
        return 0;
    denominator = est + min_qw;
    if (denominator <= 0)
        return 1;
    probability = est / denominator;
    if (probability > 1.0)
        probability = 1.0;
    return genrand_res53(mt) < probability;
}

/* Column and sign of a vague-part key in every row. */
static void vague_cells(uint64_t vkey, int64_t depth, uint64_t width,
                        const uint64_t *col_seeds, const uint64_t *sign_seeds,
                        int64_t *cols, double *signs)
{
    int64_t r;
    for (r = 0; r < depth; r++) {
        cols[r] = (int64_t)(mix64(vkey ^ col_seeds[r]) % width);
        signs[r] = (mix64(vkey ^ sign_seeds[r]) & 1U) ? 1.0 : -1.0;
    }
}

/*
 * The exact per-item branch over items idx[0..m): candidate hit,
 * vacancy, vague insert + median estimate (+ subtract on a report),
 * bucket-minimum election and the evicted key's re-insert.
 *
 * Writes the positions j (into idx) of reported items to reported[]
 * and returns their count.  tallies[] receives, in order: candidate
 * hits, vague inserts, swaps, candidate reports, vague reports.
 */
int64_t qf_scalar_pass(
    const uint64_t *fps, const int64_t *buckets, const double *weights,
    const int64_t *idx, int64_t m,
    uint64_t *cand_fps, double *cand_qws, int64_t bucket_size,
    double *rows, int64_t depth, int64_t width,
    const uint64_t *col_seeds, const uint64_t *sign_seeds,
    double report_threshold, int32_t strategy, uint32_t *mt,
    int64_t *reported, int64_t *tallies)
{
    int64_t cols[depth], evicted_cols[depth];
    double signs[depth], evicted_signs[depth], ests[depth];
    int64_t n_reported = 0, n_hits = 0, n_vague = 0, n_swaps = 0;
    int64_t n_cand_reports = 0, n_vague_reports = 0;
    int64_t j, r, slot;

    for (j = 0; j < m; j++) {
        int64_t i = idx[j];
        uint64_t fp = fps[i];
        int64_t bucket = buckets[i];
        double weight = weights[i];
        uint64_t *bucket_fps = cand_fps + bucket * bucket_size;
        double *bucket_qws = cand_qws + bucket * bucket_size;
        int64_t free_slot = -1, min_slot;
        int matched = 0;
        double estimate, min_qw;

        /* Case 1: candidate hit. */
        for (slot = 0; slot < bucket_size; slot++) {
            uint64_t slot_fp = bucket_fps[slot];
            if (slot_fp == fp) {
                double new_qw = bucket_qws[slot] + weight;
                n_hits++;
                if (new_qw >= report_threshold) {
                    bucket_qws[slot] = 0.0;
                    reported[n_reported++] = j;
                    n_cand_reports++;
                } else {
                    bucket_qws[slot] = new_qw;
                }
                matched = 1;
                break;
            }
            if (slot_fp == 0 && free_slot < 0)
                free_slot = slot;
        }
        if (matched)
            continue;

        /* Case 2: vacancy. */
        if (free_slot >= 0) {
            bucket_fps[free_slot] = fp;
            if (weight >= report_threshold) {
                bucket_qws[free_slot] = 0.0;
                reported[n_reported++] = j;
                n_cand_reports++;
            } else {
                bucket_qws[free_slot] = weight;
            }
            continue;
        }

        /* Case 3: vague part (fused insert + median estimate). */
        n_vague++;
        vague_cells(mix64(((uint64_t)bucket << 20) ^ fp), depth,
                    (uint64_t)width, col_seeds, sign_seeds, cols, signs);
        for (r = 0; r < depth; r++) {
            double *cell = rows + r * width + cols[r];
            double est;
            int64_t k;
            *cell += signs[r] * weight;
            /* Stable insertion sort, as Python's list.sort keeps
             * equal values (0.0 and -0.0) in arrival order. */
            est = signs[r] * *cell;
            for (k = r; k > 0 && est < ests[k - 1]; k--)
                ests[k] = ests[k - 1];
            ests[k] = est;
        }
        estimate = (depth % 2) ? ests[depth / 2]
                               : 0.5 * (ests[depth / 2 - 1] + ests[depth / 2]);

        if (estimate >= report_threshold) {
            for (r = 0; r < depth; r++)
                rows[r * width + cols[r]] -= signs[r] * estimate;
            reported[n_reported++] = j;
            n_vague_reports++;
            estimate = 0.0;
        }

        /* Candidate election against the bucket minimum. */
        min_slot = 0;
        min_qw = bucket_qws[0];
        for (slot = 1; slot < bucket_size; slot++) {
            if (bucket_qws[slot] < min_qw) {
                min_qw = bucket_qws[slot];
                min_slot = slot;
            }
        }
        if (should_replace(strategy, estimate, min_qw, mt)) {
            n_swaps++;
            vague_cells(mix64(((uint64_t)bucket << 20) ^ bucket_fps[min_slot]),
                        depth, (uint64_t)width, col_seeds, sign_seeds,
                        evicted_cols, evicted_signs);
            for (r = 0; r < depth; r++)
                rows[r * width + evicted_cols[r]] += evicted_signs[r] * min_qw;
            if (estimate != 0.0) {
                for (r = 0; r < depth; r++)
                    rows[r * width + cols[r]] -= signs[r] * estimate;
            }
            bucket_fps[min_slot] = fp;
            bucket_qws[min_slot] = estimate;
        }
    }

    tallies[0] = n_hits;
    tallies[1] = n_vague;
    tallies[2] = n_swaps;
    tallies[3] = n_cand_reports;
    tallies[4] = n_vague_reports;
    return n_reported;
}

/*
 * The fast tier's risky-slot replay: items grouped by flat slot (in
 * stream order within a slot) accumulate into qws[slot] one at a
 * time, resetting on each report crossing.  Writes the positions of
 * reported items to reported[] and returns their count.
 */
int64_t qf_replay_slots(
    const int64_t *slots, const double *weights, int64_t m,
    double *qws, double report_threshold, int64_t *reported)
{
    int64_t pos, current_slot = -1, n_reported = 0;
    double qweight = 0.0;
    for (pos = 0; pos < m; pos++) {
        int64_t slot = slots[pos];
        double new_qw;
        if (slot != current_slot) {
            if (current_slot >= 0)
                qws[current_slot] = qweight;
            current_slot = slot;
            qweight = qws[slot];
        }
        new_qw = qweight + weights[pos];
        if (new_qw >= report_threshold) {
            qweight = 0.0;
            reported[n_reported++] = pos;
        } else {
            qweight = new_qw;
        }
    }
    if (current_slot >= 0)
        qws[current_slot] = qweight;
    return n_reported;
}
