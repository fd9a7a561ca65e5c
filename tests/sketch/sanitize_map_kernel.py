#!/usr/bin/env python3
"""``jem_ctx_open`` / ``jem_map_ctx`` / ``jem_ctx_close``, and
``jem_query_kernel`` (the sketch loop the map shares), under AddressSanitizer
+ UBSan, and under ThreadSanitizer (ROADMAP 8b, 14a).

Not collected by pytest: CI's ``kernels`` job runs it as
``PYTHONPATH=src python tests/sketch/sanitize_map_kernel.py`` and again with
``--sanitize thread``, after ``sanitize_minimizer_kernel.py``, whose build
step it shares.

The contract worth a sanitizer is the context's: built once, read-only
afterwards, pointing into arrays it does not own — the columns, the hash
family's rows with their Barrett constants, and the bucket index
(``_native.bucket_index``), all the caller's, each in an exact-size
allocation of its own, as a store built trial by trial holds its columns, so
a read one past any of them aborts the ASan run instead of landing in the
next.  It opens a context and closes it without a call, then opens two on
the one store.  The
block's segments are cut into one range per thread, as ``map_segment_batch``
cuts a batch, and the ranges are mapped at once on POSIX threads — every
thread on the **same** handle, each reading its own exact-size copy of its
range's values and starts and writing its own exact-size outputs: a read one
past a column or a range aborts the ASan run, a write to anything the calls
share aborts the TSan run.  The second handle then maps the whole block in
one call and must agree byte for byte; both are closed (a leak fails the ASan
run).  The joined output is compared with the numpy sketch
(``query_kernel_reference``) voted by ``count_hits_vectorised``.  Each thread
also sketches its range with ``jem_query_kernel`` into its own exact-size
``(T, range)`` matrix, the whole block is sketched once more in one call, and
the rows must agree with each other and with ``query_kernel_reference`` —
an empty segment is the ``2^64 - 1`` sentinel, never a read of
``values[2^32 - 1]``.  Shapes:
T = 1 and T = 256, an empty store, empty trials between non-empty ones, a
store written by ``from_sized_keys``, 0 segments, fewer segments than threads,
empty segments, a block under 64 values, a duplicate-heavy block, an
all-distinct block, store and query values of 2^32 - 1, and a ``min_hits``
nothing reaches.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sanitize_minimizer_kernel import THREADS, sanitizers  # noqa: E402
from sanitize_minimizer_kernel import build as build_driver  # noqa: E402

from repro.core.hitcounter import count_hits_vectorised  # noqa: E402
from repro.core.store import ColumnarSketchStore  # noqa: E402
from repro.sketch._native import bucket_index  # noqa: E402
from repro.sketch.hashing import HashFamily  # noqa: E402
from repro.sketch.jem import query_kernel_reference  # noqa: E402

_DRIVER = r"""
#include "kernels.c"
#include <pthread.h>
#include <stdio.h>

static void *exact(size_t count, size_t size) { /* malloc(0) may be NULL */
    void *p = malloc(count ? count * size : 1);
    if (p == NULL) exit(3);
    return p;
}

static void *load(FILE *in, size_t count, size_t size) {
    void *p = exact(count, size);
    if (fread(p, size, count, in) != count) exit(2);
    return p;
}

typedef struct { /* segments [lo, hi) of the block: a thread's share */
    const void *ctx;
    uint64_t *values; int64_t *starts;   /* the range's own exact-size copies */
    int64_t n, nseg, min_hits, rc, trials;
    int64_t *subject, *count;
    const uint64_t *a, *b, *p, *m;       /* shared with every thread */
    uint64_t *sketch;                    /* (trials, nseg): jem_query_kernel's */
} range_t;

static void *map_range(void *arg) {
    range_t *r = arg;
    r->rc = jem_map_ctx(r->ctx, r->values, r->n, r->starts, r->nseg, r->min_hits,
                        r->subject, r->count);
    jem_query_kernel(r->values, r->n, r->starts, r->nseg, r->a, r->b, r->p, r->m,
                     r->trials, r->sketch);
    return NULL;
}

int main(int argc, char **argv) {
    if (argc != 3) return 2;
    FILE *in = fopen(argv[1], "rb");
    const int64_t threads = atoll(argv[2]);
    int64_t head[5]; /* segments, values, trials, subjects, min_hits */
    if (in == NULL || threads < 1 || fread(head, 8, 5, in) != 5) return 2;
    const int64_t nseg = head[0], n = head[1], trials = head[2];
    const int64_t n_subjects = head[3], min_hits = head[4];
    uint64_t *values = load(in, n, 8);
    int64_t *starts = load(in, nseg, 8);
    uint64_t *a = load(in, trials, 8), *b = load(in, trials, 8), *p = load(in, trials, 8);
    uint64_t *m = load(in, trials, 8);
    int64_t *col_len = load(in, trials, 8);
    int64_t *bucket_lo = load(in, trials * 257, 8), *bucket_shift = load(in, trials, 8);
    uint32_t **col_values = exact(trials, sizeof(uint32_t *));
    uint32_t **col_subjects = exact(trials, sizeof(uint32_t *));
    for (int64_t t = 0; t < trials; t++) { /* one exact-size block per column */
        col_values[t] = load(in, col_len[t], 4);
        col_subjects[t] = load(in, col_len[t], 4);
    }
    fclose(in);

#define OPEN() jem_ctx_open((const uint32_t *const *)col_values, \
                            (const uint32_t *const *)col_subjects, col_len, trials, \
                            a, b, p, m, bucket_lo, bucket_shift, n_subjects)
    void *unused = OPEN();
    if (unused == NULL) return 3;
    jem_ctx_close(unused); /* open -> close without a call */
    void *ctx = OPEN(), *twin = OPEN();
    if (ctx == NULL || twin == NULL) return 3;

    range_t *ranges = exact(threads, sizeof(range_t));
    pthread_t *tids = exact(threads, sizeof(pthread_t));
    for (int64_t t = 0; t < threads; t++) {
        range_t *r = &ranges[t];
        const int64_t lo = nseg * t / threads, hi = nseg * (t + 1) / threads;
        const int64_t v0 = lo < nseg ? starts[lo] : n, v1 = hi < nseg ? starts[hi] : n;
        r->ctx = ctx; r->min_hits = min_hits; r->trials = trials;
        r->a = a; r->b = b; r->p = p; r->m = m;
        r->nseg = hi - lo; r->n = v1 - v0;
        r->sketch = exact(trials * r->nseg, 8);
        r->values = exact(r->n, 8); r->starts = exact(r->nseg, 8);
        memcpy(r->values, values + v0, (size_t)r->n * 8);
        for (int64_t j = 0; j < r->nseg; j++) r->starts[j] = starts[lo + j] - v0;
        r->subject = exact(r->nseg, 8); r->count = exact(r->nseg, 8);
        if (pthread_create(&tids[t], NULL, map_range, r)) return 3;
    }
    for (int64_t t = 0; t < threads; t++) {
        pthread_join(tids[t], NULL);
        if (ranges[t].rc != 0) return 4;
    }
    /* the second handle on the same store, the whole block in one call */
    int64_t *subject = exact(nseg, 8), *count = exact(nseg, 8);
    if (jem_map_ctx(twin, values, n, starts, nseg, min_hits, subject, count) != 0) return 4;
    /* and the whole block sketched in one call */
    uint64_t *sketch = exact(trials * nseg, 8);
    jem_query_kernel(values, n, starts, nseg, a, b, p, m, trials, sketch);
    int64_t at = 0;
    for (int64_t t = 0; t < threads; t++) {
        range_t *r = &ranges[t];
        if (memcmp(subject + at, r->subject, (size_t)r->nseg * 8)) return 5;
        if (memcmp(count + at, r->count, (size_t)r->nseg * 8)) return 5;
        for (int64_t row = 0; row < trials; row++)
            if (memcmp(sketch + row * nseg + at, r->sketch + row * r->nseg,
                       (size_t)r->nseg * 8)) return 6;
        at += r->nseg;
    }
    fwrite(subject, 8, nseg, stdout);
    fwrite(count, 8, nseg, stdout);
    fwrite(sketch, 8, trials * nseg, stdout);
    jem_ctx_close(ctx); jem_ctx_close(twin);
    for (int64_t t = 0; t < threads; t++) {
        free(ranges[t].values); free(ranges[t].starts);
        free(ranges[t].subject); free(ranges[t].count); free(ranges[t].sketch);
    }
    free(ranges); free(tids); free(subject); free(count); free(sketch);
    for (int64_t t = 0; t < trials; t++) { free(col_values[t]); free(col_subjects[t]); }
    free(values); free(starts); free(col_values); free(col_subjects);
    free(a); free(b); free(p); free(m); free(col_len); free(bucket_lo); free(bucket_shift);
    return 0;
}
"""

TOP = (1 << 32) - 1
SENTINEL = (1 << 64) - 1


def keys_of(rng, trials, n_subjects, entries, pool) -> list[np.ndarray]:
    """``entries`` random (value from ``pool``, subject) keys per trial."""
    keys = []
    for _ in range(trials):
        values = rng.choice(pool, size=entries).astype(np.uint64)
        subjects = rng.integers(0, n_subjects, size=entries).astype(np.uint64)
        keys.append(np.unique((values << np.uint64(32)) | subjects))
    return keys


def store_of(rng, trials, n_subjects, entries, pool) -> ColumnarSketchStore:
    return ColumnarSketchStore.from_trial_keys(
        keys_of(rng, trials, n_subjects, entries, pool), n_subjects
    )


def block_of(rng, lengths, pool) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.asarray(lengths, dtype=np.int64)
    values = rng.choice(pool, size=int(lengths.sum())).astype(np.uint64)
    return values, np.cumsum(lengths) - lengths


def shapes(rng: np.random.Generator):
    """(label, store, values, starts, min_hits)."""
    small = np.arange(40, dtype=np.uint64)
    wide = rng.integers(0, 1 << 32, size=4_000, dtype=np.uint64)
    top = np.concatenate([wide[:50], np.full(20, TOP, dtype=np.uint64)])
    yield "T = 1", store_of(rng, 1, 5, 200, small), *block_of(rng, [9] * 30, small), 1
    yield "T = 256", store_of(rng, 256, 7, 60, small), *block_of(rng, [5] * 12, small), 2
    yield ("an empty store", ColumnarSketchStore.from_trial_keys([np.empty(0, np.uint64)] * 3, 4),
           *block_of(rng, [6] * 20, small), 1)
    gaps = keys_of(rng, 5, 6, 150, small)
    gaps[1] = gaps[3] = np.empty(0, dtype=np.uint64)
    yield ("empty trials between non-empty ones", ColumnarSketchStore.from_trial_keys(gaps, 6),
           *block_of(rng, [7] * 25, small), 1)
    sized = keys_of(rng, 6, 8, 250, wide[:60])
    sized[4] = np.empty(0, dtype=np.uint64)
    yield ("a store written by from_sized_keys",
           ColumnarSketchStore.from_sized_keys([k.size for k in sized], sized, 8),
           *block_of(rng, rng.integers(0, 15, size=60), wide[:60]), 1)
    yield "0 segments", store_of(rng, 4, 5, 100, small), *block_of(rng, [], small), 1
    yield "two segments, three threads", store_of(rng, 4, 5, 100, small), \
        *block_of(rng, [4, 3], small), 1
    yield "under 64 values", store_of(rng, 6, 9, 300, small), \
        *block_of(rng, [7] * 9, small), 1
    yield "duplicate-heavy", store_of(rng, 6, 9, 300, small), \
        *block_of(rng, rng.integers(0, 30, size=200), small), 1
    yield "all-distinct", store_of(rng, 6, 9, 3_000, wide), \
        rng.permutation(wide).astype(np.uint64), np.arange(0, wide.size, 20, dtype=np.int64), 1
    yield "empty segments at both ends and in runs", store_of(rng, 5, 6, 300, small), \
        *block_of(rng, [0, 0, 8, 0, 5, 70, 0, 0, 3, 0], small), 1
    yield "store and query values at 2^32 - 1", store_of(rng, 5, 8, 400, top), \
        *block_of(rng, rng.integers(1, 12, size=150), top), 1
    yield "min_hits nothing reaches", store_of(rng, 3, 4, 200, small), \
        *block_of(rng, [6] * 40, small), 4


def oracle(store, family, values, starts, min_hits):
    """Numpy sketch + vote; a segment with no value is unmapped, and its
    sketch is the sentinel."""
    lengths = np.diff(np.append(starts, values.size))
    mask = lengths > 0
    sketches = np.full((family.size, starts.size), SENTINEL, dtype=np.uint64)
    if mask.any():  # empty segments own no value: dropping them moves nothing
        sketches[:, mask] = query_kernel_reference(values, starts[mask], family)
    voted = np.where(mask, sketches, 0)  # a masked query is never looked up
    hits = count_hits_vectorised(store, voted, min_hits=min_hits, query_mask=mask)
    return hits.subject, hits.count, sketches


def run(exe, workdir, store, family, values, starts, min_hits, threads):
    path = os.path.join(workdir, "case.bin")
    lengths = np.array([v.size for v in store.values], dtype=np.int64)
    buckets, shifts = bucket_index(store.values)
    with open(path, "wb") as fh:
        fh.write(np.array([starts.size, values.size, family.size, store.n_subjects,
                           min_hits], dtype=np.int64).tobytes())
        for arr in (values, starts, family.a, family.b, family.p, family.m, lengths,
                    buckets, shifts):
            fh.write(np.ascontiguousarray(arr).tobytes())
        for v, s in zip(store.values, store.subjects):
            fh.write(v.tobytes() + s.tobytes())
    raw = subprocess.run([exe, path, str(threads)], check=True, capture_output=True).stdout
    nseg = starts.size
    assert len(raw) == 8 * nseg * (2 + family.size)
    return (np.frombuffer(raw, dtype=np.int64, count=nseg),
            np.frombuffer(raw, dtype=np.int64, count=nseg, offset=8 * nseg),
            np.frombuffer(raw, dtype=np.uint64, offset=16 * nseg).reshape(family.size, nseg))


def main(argv: list[str] | None = None) -> int:
    sanitize = sanitizers(sys.argv[1:] if argv is None else argv)
    os.environ["REPRO_NO_NATIVE"] = "1"  # the oracle side never loads the kernels
    with tempfile.TemporaryDirectory() as workdir:
        exe = build_driver(workdir, _DRIVER, sanitize)
        for label, store, values, starts, min_hits in shapes(np.random.default_rng(20230157)):
            family = HashFamily.generate(store.trials, seed=store.trials)
            want = oracle(store, family, values, starts, min_hits)
            for threads in THREADS:
                got = run(exe, workdir, store, family, values, starts, min_hits, threads)
                if not all(np.array_equal(g, w) for g, w in zip(got, want)):
                    print(f"FAIL {label} at {threads} thread(s)")
                    return 1
            print(f"ok   {label}: {int((want[0] >= 0).sum())} of {starts.size} segments "
                  f"mapped at {THREADS} threads")
    print(f"jem_ctx_open / jem_map_ctx / jem_ctx_close / jem_query_kernel: clean under the "
          f"{sanitize} sanitizers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
