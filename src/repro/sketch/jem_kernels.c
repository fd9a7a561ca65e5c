/* The compiled kernels — built and cached by repro/_native_build.py, bound
   by repro/sketch/_native.py, and all bit-identical to their Python
   references: the per-trial numpy functions in repro/sketch/jem.py and
   repro/sketch/minimizers.py, and _parse_record in repro/seq/io_fasta.py
   (the test suite asserts the equivalence):

   jem_parse_block — S1's load: a block of whole FASTA records in one pass
     each to header bounds, base and line counts and 2-bit codes (all of
     them, or a read's two l-base ends), flagging the records only the
     reference parser may judge, so every ParseError is raised there;
   jem_minimizer_kernel — step 1 for S2 and S4 alike: per sequence, one
     rolling pass over the 2-bit codes (forward and reverse-complement k-mer
     updated in O(1) per base, a branch-free block-scan window minimum) to
     the concatenated minimizer block — ranks, positions, per-sequence counts;
   jem_query_kernel — per trial, one sequential sweep hashing each minimizer
     with a Barrett-reduced LCG and tracking the packed (hash << 32) | index
     minimum per segment: sketch_rows, the loop jem_map_ctx sketches with;
   jem_subject_kernel — one trial per call: the same Barrett hash plus a
     branch-free block scan (prefix and suffix minima of chained blocks), in
     O(n), for the minimum of every l-interval, keeping a packed
     (value << 32) | subject key only where it differs from the previous
     interval's and radix-sorting what is kept into the trial's list, in two
     n-entry buffers the caller reuses;
   jem_ctx_open / jem_map_ctx / jem_ctx_close — the whole S4 query pipeline
     fused, on a context opened once per store: per segment and per trial,
     sketch (Barrett hash + packed-key minimum, every occurrence hashed
     inline), bucketed branchless binary search over the columnar store's
     sorted per-trial value columns, and the paper's lazy-update vote
     counter A[1..n] — one pass from minimizer ranks to per-segment best hits.

   The minimizer pass packs the same (canon << 32) | position keys as
   minimizers_set, one Barrett reduction computes the exact (a x + b) mod p
   (one conditional subtract corrects the floor estimate; lcg_hash states
   why a x + b cannot wrap), and tie-breaking uses the same packed keys.
   The caller hands every kernel the hash family's rows with their Barrett
   constants (HashFamily.m), and the map context its bucket index.  The
   kernels follow in the order listed above.
   No kernel starts a thread or keeps state between calls beyond the
   read-only context, and each writes only the buffers it is handed, which
   is what lets the bindings run several calls at once. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

/* Exact x mod p for p in [2, 2^63) and any 64-bit x, via Barrett
   reduction: with m = floor(2^64 / p) the estimate q = (x * m) >> 64 is
   either the true quotient or one less, so a single conditional subtract
   corrects r. */
static inline uint64_t barrett_mod(uint64_t x, uint64_t p, uint64_t m) {
    uint64_t q = (uint64_t)(((u128)x * m) >> 64);
    uint64_t r = x - q * p;
    if (r >= p) r -= p;
    return r;
}

/* h_t(x) = (a * x + b) mod p, which equals the reference's
   (a * (x mod p) + b) mod p, in one Barrett reduction.  The bound: a and
   b are below p < 2^31 and x is below 2^32, so a * x + b is at most
   (2^31 - 2)(2^32 - 1) + 2^31 - 2 < 2^63 and never wraps.  Every hashed
   x is a minimizer rank, under 2^32 because k <= 16: minimizer_block
   refuses a larger k, and S2 checks again that "sketch values must fit in
   32 bits" before its kernel runs. */
static inline uint64_t lcg_hash(uint64_t x, uint64_t a, uint64_t b,
                                uint64_t p, uint64_t m) {
    return barrett_mod(a * x + b, p, m);
}

/* ---- S1: FASTA records to 2-bit codes ------------------------------------ */

/* What Python's str.strip() removes, within ASCII: \t \n \v \f \r,
   \x1c-\x1f and the space. */
static inline int is_space(uint8_t c) {
    return c == ' ' || (c >= 9 && c <= 13) || (c >= 0x1c && c <= 0x1f);
}

/* text[0, len) holds whole FASTA records, all ASCII, every line ending
   folded to \n; a record runs from a '>' that opens a line up to the next
   one (text before the first is a record of its own).  Per record, recs
   gets six int64s: its start, the end of its header line, its base count,
   a flag set when only the reference parser can tell what it is (a header
   of only whitespace, or text before the first '>'), and the '\n' bytes
   and codes from text's start through it.  An unflagged record's bases go
   through table into codes, back to back, '\n' dropped: all of them, or
   with ends > 0 the first ends and the last min(ends, bases - ends).
   codes has room for len bytes (or 2 * ends a record).  Returns the number
   of records, or -1 when they need more than cap rows. */
int64_t jem_parse_block(const uint8_t *text, int64_t len,
                        const uint8_t *table, int64_t ends,
                        int64_t *recs, int64_t cap, uint8_t *codes) {
    int64_t n = 0, m = 0, lines = 0;
    for (int64_t start = 0, end; start < len; start = end) {
        if (n == cap) return -1;
        for (end = start + 1; end < len; end++) { /* to a line-start '>' */
            const uint8_t *gt = memchr(text + end, '>', (size_t)(len - end));
            end = gt != NULL ? gt - text : len;
            if (end == len || text[end - 1] == '\n') break;
        }
        const uint8_t *nl = memchr(text + start, '\n', (size_t)(end - start));
        const int64_t eol = nl != NULL ? nl - text : end;
        int64_t blank = start + 1, bases = 0, k = 0;
        while (blank < eol && is_space(text[blank])) blank++;
        const int flag = text[start] != '>' || blank == eol;
        const int64_t head = flag ? 0 : ends > 0 ? ends : len; /* bases to code */
        lines += nl != NULL;
        for (int64_t i = eol + 1; i < end; i++) { /* line by line */
            const uint8_t *next = memchr(text + i, '\n', (size_t)(end - i));
            const int64_t stop = next != NULL ? next - text : end;
            const int64_t take = stop - i < head - k ? stop - i : head - k;
            for (int64_t j = 0; j < take; j++) codes[m + k + j] = table[text[i + j]];
            k += take;
            bases += stop - i;
            lines += next != NULL;
            i = stop;
        }
        /* with ends: the last min(ends, bases - ends) bases, walked back */
        const int64_t tail = flag ? 0 : bases - k < ends ? bases - k : ends;
        for (int64_t i = end - 1, j = k + tail; j > k; i--)
            if (text[i] != '\n') codes[m + --j] = table[text[i]];
        m += k + tail;
        int64_t *r = recs + 6 * n++;
        r[0] = start; r[1] = eol; r[2] = bases; r[3] = flag; r[4] = lines; r[5] = m;
    }
    return n;
}

/* ---- S1: rolling canonical (w, k)-minimizers ----------------------------- */

/* Where this function lands matters: on the Xeon (Emerald Rapids, gcc 12,
   -O2) the ledger is measured on, these same bytes run ~10 % slower from a
   start address that is 0 mod 32 than from one that is 16 mod 32, which
   this file's order gives.  After an edit above it that moves it,
   measure S1 again (docs/performance.md, "What a cold set-up pays"). */

/* Sequences [seq_lo, seq_hi) of the concatenated 2-bit code buffer, one
   pass each: the forward and reverse-complement k-mers roll in O(1) per
   base, `run` counts the valid bases ending here (a k-mer is valid iff
   run >= k; code 4 resets it), and the minimum of every window of
   weff = min(w, nk) packed keys (canon << 32) | position comes from the
   van Herk block scan minimizers_set uses — a running prefix minimum of
   the current weff-block and in-place suffix minima of the previous one —
   which, unlike a deque, has no data-dependent branch.  A key is emitted
   when the window minimum changes; windows of only invalid k-mers carry
   the sentinel rank and are dropped after the change test, so the output
   equals minimizers_set bit for bit.  block holds min(w, longest
   sequence) keys.  Appends to ranks/positions from index 0, writes
   counts[s] per sequence, returns the number emitted (at most one per
   base of the range). */
int64_t jem_minimizer_kernel(const uint8_t *codes, const int64_t *offsets,
                             int64_t seq_lo, int64_t seq_hi,
                             int64_t k, int64_t w, uint64_t *block,
                             uint64_t *ranks, int64_t *positions,
                             int64_t *counts) {
    const uint64_t sentinel = 0xffffffffu;
    const uint64_t kmask = (((uint64_t)1) << (2 * k)) - 1;
    const int rc_shift = (int)(2 * (k - 1));
    int64_t m = 0;
    for (int64_t s = seq_lo; s < seq_hi; s++) {
        const uint8_t *seq = codes + offsets[s];
        const int64_t len = offsets[s + 1] - offsets[s];
        const int64_t nk = len - k + 1;
        const int64_t weff = w < nk ? w : nk;
        const int64_t first = m;
        uint64_t fwd = 0, rc = 0, prefix = UINT64_MAX, prev = UINT64_MAX;
        int64_t run = 0, b = 0; /* b: slot of k-mer j in its block */
        for (int64_t i = 0; i < len; i++) {
            const uint64_t c = seq[i] & 3;
            run = (seq[i] == 4) ? 0 : run + 1;
            fwd = ((fwd << 2) | c) & kmask;
            rc = (rc >> 2) | ((c ^ 3) << rc_shift);
            const int64_t j = i - k + 1; /* k-mer index */
            if (j < 0) continue;
            const uint64_t canon = run >= k ? (fwd < rc ? fwd : rc) : sentinel;
            const uint64_t key = (canon << 32) | (uint64_t)j;
            /* slot b's suffix minimum was read one step ago: reuse it */
            block[b] = key;
            if (key < prefix) prefix = key;
            uint64_t cur = prefix;
            if (++b < weff) {
                if (j < weff) continue; /* first block: no full window yet */
                if (block[b] < cur) cur = block[b];
            } else { /* block full: its suffix minima serve the next one */
                for (int64_t q = weff - 1; q > 0; q--)
                    if (block[q] < block[q - 1]) block[q - 1] = block[q];
                b = 0;
                prefix = UINT64_MAX;
            }
            if (cur == prev) continue;
            prev = cur;
            if ((cur >> 32) == sentinel) continue;
            ranks[m] = cur >> 32;
            positions[m++] = (int64_t)(cur & sentinel);
        }
        counts[s] = m - first;
    }
    return m;
}

/* Per trial t and segment j in [lo, hi) of [starts[j], starts[j+1]) (the
   last one ends at n): the minimizer value minimising (hash << 32) | index,
   or UINT64_MAX for an empty segment (sketch values fit 32 bits, so that
   never collides with a real one), at out[t * stride + j - lo].  The hash
   family's rows are a, b, p and m, m[t] = floor(2^64 / p[t]). */
static void sketch_rows(const uint64_t *values, int64_t n, const int64_t *starts,
                        int64_t nseg, int64_t lo, int64_t hi,
                        const uint64_t *a, const uint64_t *b, const uint64_t *p,
                        const uint64_t *m, int64_t trials,
                        uint64_t *out, int64_t stride) {
    for (int64_t t = 0; t < trials; t++) {
        const uint64_t at = a[t], bt = b[t], pt = p[t], mt = m[t];
        uint64_t *row = out + t * stride;
        for (int64_t j = lo; j < hi; j++) {
            const int64_t first = starts[j];
            const int64_t last = (j + 1 < nseg) ? starts[j + 1] : n;
            uint64_t best = UINT64_MAX;
            for (int64_t i = first; i < last; i++) {
                const uint64_t key =
                    (lcg_hash(values[i], at, bt, pt, mt) << 32) | (uint64_t)i;
                if (key < best) best = key;
            }
            row[j - lo] = (last > first) ? values[best & 0xffffffffu] : UINT64_MAX;
        }
    }
}

/* S4's sketch alone: out is (trials, nseg). */
void jem_query_kernel(const uint64_t *values, int64_t n,
                      const int64_t *starts, int64_t nseg,
                      const uint64_t *a, const uint64_t *b,
                      const uint64_t *p, const uint64_t *m, int64_t trials,
                      uint64_t *out) {
    sketch_rows(values, n, starts, nseg, 0, nseg, a, b, p, m, trials, out, nseg);
}

/* LSD radix sort of uint64 keys; returns whichever scratch holds the
   sorted data.  Passes where every key shares the same byte (common for
   narrow key spaces) are skipped. */
static uint64_t *radix_sort_u64(uint64_t *src, uint64_t *dst, int64_t n) {
    for (int sh = 0; sh < 64; sh += 8) {
        int64_t count[256];
        memset(count, 0, sizeof(count));
        for (int64_t i = 0; i < n; i++) count[(src[i] >> sh) & 0xff]++;
        int uniform = 0;
        for (int b = 0; b < 256; b++)
            if (count[b] == n) { uniform = 1; break; }
        if (uniform) continue;
        int64_t offs[256];
        int64_t acc = 0;
        for (int b = 0; b < 256; b++) { offs[b] = acc; acc += count[b]; }
        for (int64_t i = 0; i < n; i++)
            dst[offs[(src[i] >> sh) & 0xff]++] = src[i];
        uint64_t *tmp = src; src = dst; dst = tmp;
    }
    return src;
}

/* S2 for one trial: the minimum packed key (hash << 32) | index over
   every half-open index interval [i, ends[i]) (ends is non-decreasing and
   ends[i] > i), by a branch-free block scan like jem_minimizer_kernel's.
   The blocks are chained from 0, block [lo, ends[lo]) followed by the one
   starting at its end; each block's keys are hashed into window with their
   running (prefix) minima in row, then their suffix minima are rebuilt in
   window in place.  An interval starts inside some block and ends at or
   past that block's end, but not past the next block's end, so its minimum
   is the block's suffix minimum at i and, when it reaches into the next
   block, that block's prefix minimum at ends[i] - 1.  The keys are unique,
   so the minimum is the one key a deque would find.  The packed sketch key
   (values[argmin] << 32) | subject_ids[i] is kept only where it differs from
   the previous interval's (overlapping intervals mostly share their
   minimum), written over prefix minima no later interval reads (the kept
   count never passes i, and interval i reads from ends[i] - 1 >= i).  The
   kept keys are radix-sorted, window serving as the sort's scratch, and
   deduped into row.  window and row hold n entries each, mp is
   floor(2^64 / p); returns how many sorted distinct keys row holds. */
int64_t jem_subject_kernel(const uint64_t *values, const int64_t *ends,
                           int64_t n, const uint64_t *subject_ids,
                           uint64_t a, uint64_t b, uint64_t p, uint64_t mp,
                           uint64_t *window, uint64_t *row) {
    for (int64_t lo = 0, hi; lo < n; lo = hi) {
        hi = ends[lo];
        uint64_t acc = UINT64_MAX;
        for (int64_t q = lo; q < hi; q++) {
            const uint64_t k = (lcg_hash(values[q], a, b, p, mp) << 32) | (uint64_t)q;
            window[q] = k;
            if (k < acc) acc = k;
            row[q] = acc;
        }
        acc = UINT64_MAX;
        for (int64_t q = hi - 1; q >= lo; q--) {
            if (window[q] < acc) acc = window[q];
            window[q] = acc;
        }
    }
    uint64_t prev = 0;
    int64_t block_end = 0, m = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t end = ends[i];
        block_end = i == block_end ? end : block_end;
        const uint64_t next = end > block_end ? row[end - 1] : UINT64_MAX;
        const uint64_t win = window[i] < next ? window[i] : next;
        const uint64_t key = (values[win & 0xffffffffu] << 32) | subject_ids[i];
        row[m] = key;
        m += (key != prev) | (i == 0);
        prev = key;
    }
    const uint64_t *sorted = radix_sort_u64(row, window, m);
    int64_t kept = 0;
    for (int64_t i = 0; i < m; i++) {
        const uint64_t key = sorted[i];
        if (kept == 0 || key != row[kept - 1]) row[kept++] = key;
    }
    return kept;
}

/* ---- fused S4 map kernel: sketch -> lookup -> vote ---------------------- */

/* Branchless lower bound over a sorted uint32 column: first index whose
   value is >= key.  The classic half-interval form — the conditional add
   compiles to a cmov, so the loop has no unpredictable branch. */
static inline int64_t lower_bound_u32(const uint32_t *arr, int64_t n,
                                      uint32_t key) {
    int64_t lo = 0;
    while (n > 1) {
        const int64_t half = n >> 1;
        if (arr[lo + half - 1] < key) lo += half;
        n -= half;
    }
    if (n == 1 && arr[lo] < key) lo++;
    return lo;
}

/* First index whose value is > key (upper bound). */
static inline int64_t upper_bound_u32(const uint32_t *arr, int64_t n,
                                      uint32_t key) {
    int64_t lo = 0;
    while (n > 1) {
        const int64_t half = n >> 1;
        if (arr[lo + half - 1] <= key) lo += half;
        n -= half;
    }
    if (n == 1 && arr[lo] <= key) lo++;
    return lo;
}

/* Segments per phase block: the (trials x MAP_BLOCK) sketch matrix stays
   L1/L2-resident, and the trial-outer sketch phase touches one hashed row
   at a time for a whole block of segments. */
#define MAP_BLOCK 128

/* What jem_map_ctx reads — so any number of calls may run on one context
   at once: the hash family's rows with their Barrett constants, each
   trial's two column pointers and length, and per trial a 256-bucket index
   over the sorted value column.  Bucket b = value >> bucket_shift[t] of
   trial t covers rows [bk[b], bk[b+1]) with bk = bucket_lo + t * 257; the
   caller sizes the shift to the column's max value so narrow key spaces
   (small k) still spread across buckets, and a binary search then probes
   ~clen/256 entries instead of clen. */
typedef struct {
    const uint32_t *const *col_values;   /* per trial: sorted value column   */
    const uint32_t *const *col_subjects; /* per trial: parallel contig ids   */
    const int64_t *col_len;              /* per trial: both columns' length  */
    int64_t trials, n_subjects;
    const uint64_t *a, *b, *p, *m;       /* hash rows, m = floor(2^64 / p)   */
    const int64_t *bucket_lo;            /* (trials, 257) bucket run starts  */
    const int64_t *bucket_shift;         /* per-trial bucket shift           */
} jem_ctx;

/* A context over the caller's arrays, none of them copied: the caller keeps
   every one alive and unchanged until jem_ctx_close.  Returns NULL when the
   context cannot be allocated. */
void *jem_ctx_open(const uint32_t *const *col_values,
                   const uint32_t *const *col_subjects,
                   const int64_t *col_len, int64_t trials,
                   const uint64_t *a, const uint64_t *b, const uint64_t *p,
                   const uint64_t *m, const int64_t *bucket_lo,
                   const int64_t *bucket_shift, int64_t n_subjects) {
    jem_ctx *ctx = (jem_ctx *)malloc(sizeof(jem_ctx));
    if (ctx != NULL)
        *ctx = (jem_ctx){col_values, col_subjects, col_len, trials, n_subjects,
                         a, b, p, m, bucket_lo, bucket_shift};
    return ctx;
}

void jem_ctx_close(void *ctx) { free(ctx); }

/* The one S4 entry point: fused sketch -> lookup -> vote over the nseg
   segments of a query block, on the calling thread.  The vote is the
   paper's Algorithm 2 with the lazy-update counter array A[1..n]
   (Section III-C): counters are never cleared between queries — a stale
   entry is detected by its stored query id and re-seeded to (1, j).  Ties
   on the maximum count break toward the smallest subject id, matching
   count_hits_lazy / count_hits_vectorised bit for bit.  All scratch —
   counters and sketch matrix — lives inside the call, and
   segments are independent, so a block cut into several calls (on several
   threads) gives the same output.  Returns 0, or 1 on allocation failure. */
int64_t jem_map_ctx(const void *handle, const uint64_t *qvalues, int64_t n,
                    const int64_t *starts, int64_t nseg, int64_t min_hits,
                    int64_t *best_subject, int64_t *best_count) {
    const jem_ctx *ctx = (const jem_ctx *)handle;
    const int64_t n_subjects = ctx->n_subjects, trials = ctx->trials;
    int64_t *counter_u = (int64_t *)malloc((size_t)n_subjects * sizeof(int64_t));
    int64_t *counter_v = (int64_t *)malloc((size_t)n_subjects * sizeof(int64_t));
    uint64_t *sketch =
        (uint64_t *)malloc((size_t)trials * MAP_BLOCK * sizeof(uint64_t));
    if (((counter_u == NULL || counter_v == NULL) && n_subjects > 0) ||
        (sketch == NULL && trials > 0)) {
        free(counter_u);
        free(counter_v);
        free(sketch);
        return 1;
    }
    /* all-ones bytes == -1 in two's complement: no query id matches */
    if (n_subjects > 0)
        memset(counter_v, 0xff, (size_t)n_subjects * sizeof(int64_t));
    for (int64_t blk_lo = 0; blk_lo < nseg; blk_lo += MAP_BLOCK) {
        const int64_t blk_hi =
            (blk_lo + MAP_BLOCK < nseg) ? blk_lo + MAP_BLOCK : nseg;
        sketch_rows(qvalues, n, starts, nseg, blk_lo, blk_hi, ctx->a, ctx->b,
                    ctx->p, ctx->m, trials, sketch, MAP_BLOCK);
        for (int64_t j = blk_lo; j < blk_hi; j++) {
            int64_t top_count = 0, top_subject = -1;
            for (int64_t t = 0; t < trials; t++) {
                const uint64_t sk = sketch[t * MAP_BLOCK + (j - blk_lo)];
                if (sk == UINT64_MAX) continue; /* empty segment */
                const uint32_t key = (uint32_t)sk;
                /* lookup: narrow to the key's bucket, then binary search
                   the run of matching entries in trial t's column */
                if (ctx->col_len[t] == 0) continue;
                const uint32_t *cv = ctx->col_values[t];
                const uint64_t bidx = (uint64_t)key >> ctx->bucket_shift[t];
                if (bidx > 255) continue; /* above every stored value */
                const int64_t *bk = ctx->bucket_lo + t * 257;
                const int64_t blo = bk[bidx], bhi = bk[bidx + 1];
                if (blo == bhi) continue;
                const int64_t run_lo =
                    blo + lower_bound_u32(cv + blo, bhi - blo, key);
                if (run_lo >= bhi || cv[run_lo] != key) continue;
                const int64_t run_hi =
                    run_lo + upper_bound_u32(cv + run_lo, bhi - run_lo, key);
                const uint32_t *cs = ctx->col_subjects[t];
                /* vote: lazy-update counters over the colliding subjects */
                for (int64_t r = run_lo; r < run_hi; r++) {
                    const int64_t s = (int64_t)cs[r];
                    if (counter_v[s] != j) {
                        counter_v[s] = j;
                        counter_u[s] = 0;
                    }
                    const int64_t u = ++counter_u[s];
                    if (u > top_count || (u == top_count && s < top_subject)) {
                        top_count = u;
                        top_subject = s;
                    }
                }
            }
            const int mapped = top_count >= min_hits && top_count > 0;
            best_subject[j] = mapped ? top_subject : -1;
            best_count[j] = mapped ? top_count : 0;
        }
    }
    free(counter_u);
    free(counter_v);
    free(sketch);
    return 0;
}
