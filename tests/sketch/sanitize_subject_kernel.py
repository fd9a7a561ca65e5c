#!/usr/bin/env python3
"""``jem_subject_kernel`` under AddressSanitizer + UBSan, and under
ThreadSanitizer (ROADMAP 6b).

Not collected by pytest: CI's ``kernels`` job runs it as
``PYTHONPATH=src python tests/sketch/sanitize_subject_kernel.py`` and again
with ``--sanitize thread``, after ``sanitize_minimizer_kernel.py``, whose
build step it shares.

The kernel writes each trial's *compacted* row — a key only where it
differs from the previous interval's, then sorted and deduped in place —
so the contract worth a sanitizer is "a row never needs more than n
entries, however little compacts".  The C driver gives the kernel buffers
of exactly the sizes the ctypes binding promises (n deque slots and n sort
slots per thread, ``chunk x n`` key slots, ``chunk`` counts) and calls it
once per chunk of trials, as ``subject_kernel`` does — the chunk's rows
divided between 1, 2 and 3 POSIX threads, as ``NativeKernels.subject_keys``
divides them, every thread writing its own rows of the one key scratch: two
threads touching one byte abort the TSan run.  Each row is compared with
``np.unique`` of the uncompacted keys from ``subject_kernel_reference``.
Shapes: n = 0, n = 1, all-equal values (one key per subject), all-distinct
values with ``ends[i] = i + 1`` (nothing compacts, m = n), T = 1 and
T = 256, values and subject ids at 2^32 - 1, subject ids in no order, and
a chunk budget of one trial.
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

from repro.sketch.hashing import HashFamily  # noqa: E402
from repro.sketch.jem import subject_kernel_reference  # noqa: E402

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

typedef struct { /* rows [lo, hi) of one chunk: a thread's share */
    const uint64_t *values, *subject_ids, *a, *b, *p;
    const int64_t *ends;
    int64_t n, rows;
    uint64_t *deque, *sort, *out;
    int64_t *counts;
} share_t;

static void *sketch_rows(void *arg) {
    share_t *s = arg;
    jem_subject_kernel(s->values, s->ends, s->n, s->subject_ids, s->a, s->b, s->p,
                       s->rows, s->deque, s->sort, s->out, s->counts);
    return NULL;
}

int main(int argc, char **argv) {
    if (argc != 3) return 2;
    FILE *in = fopen(argv[1], "rb");
    const int64_t threads = atoll(argv[2]);
    int64_t head[3]; /* minimizers, trials, trials per kernel call */
    if (in == NULL || threads < 1 || fread(head, 8, 3, in) != 3) return 2;
    const int64_t n = head[0], trials = head[1], chunk = head[2];
    uint64_t *values = load(in, n, 8);
    int64_t *ends = load(in, n, 8);
    uint64_t *subject_ids = load(in, n, 8);
    uint64_t *a = load(in, trials, 8), *b = load(in, trials, 8), *p = load(in, trials, 8);
    fclose(in);
    share_t *shares = exact(threads, sizeof(share_t));
    pthread_t *tids = exact(threads, sizeof(pthread_t));
    for (int64_t t = 0; t < threads; t++) {
        shares[t].deque = exact(n, 8);
        shares[t].sort = exact(n, 8);
    }
    for (int64_t lo = 0; lo < trials; lo += chunk) {
        const int64_t c = lo + chunk < trials ? chunk : trials - lo;
        /* fresh, exact-size rows per chunk: one write past row c - 1 aborts */
        uint64_t *out = exact(c * n, 8);
        int64_t *counts = exact(c, 8);
        for (int64_t t = 0; t < threads; t++) {
            share_t *s = &shares[t];
            const int64_t r0 = c * t / threads, r1 = c * (t + 1) / threads;
            s->values = values; s->ends = ends; s->n = n; s->subject_ids = subject_ids;
            s->a = a + lo + r0; s->b = b + lo + r0; s->p = p + lo + r0;
            s->rows = r1 - r0; s->out = out + r0 * n; s->counts = counts + r0;
            if (pthread_create(&tids[t], NULL, sketch_rows, s)) return 3;
        }
        for (int64_t t = 0; t < threads; t++) pthread_join(tids[t], NULL);
        for (int64_t t = 0; t < c; t++) {
            if (counts[t] < 0 || counts[t] > n) return 4;
            fwrite(&counts[t], 8, 1, stdout);
            fwrite(out + t * n, 8, counts[t], stdout);
        }
        free(out); free(counts);
    }
    for (int64_t t = 0; t < threads; t++) { free(shares[t].deque); free(shares[t].sort); }
    free(values); free(ends); free(subject_ids); free(a); free(b); free(p);
    free(shares); free(tids);
    return 0;
}
"""

TOP = (1 << 32) - 1


def shapes(rng: np.random.Generator):
    """(label, values, ends, subject_ids, trials, trials per call)."""
    u64, i64 = np.uint64, np.int64

    def windows(n, reach):
        ends = np.arange(1, n + 1) + rng.integers(0, reach, size=n)
        return np.maximum.accumulate(ends).clip(max=n).astype(i64)

    empty = np.empty(0, dtype=u64)
    yield "n = 0", empty, np.empty(0, dtype=i64), empty, 3, 3
    yield "n = 1", np.array([7], u64), np.array([1], i64), np.array([0], u64), 4, 4
    n = 600
    subjects = np.sort(rng.integers(0, 9, size=n)).astype(u64)
    yield ("all-equal values: one key per subject",
           np.full(n, 12345, u64), windows(n, 40), subjects, 5, 2)
    distinct = rng.permutation(n).astype(u64)
    unit = np.arange(1, n + 1, dtype=i64)
    yield "all-distinct values, ends[i] = i + 1: m = n", distinct, unit, subjects, 5, 5
    yield "all-distinct, one subject per entry, at 2^32 - 1", \
        distinct + u64(TOP - n + 1), unit, np.arange(n, dtype=u64) + u64(TOP - n + 1), 3, 1
    values = rng.integers(0, 1 << 32, size=n, dtype=u64)
    values[rng.random(n) < 0.1] = TOP
    at_top = subjects.copy()
    at_top[at_top == at_top.max()] = TOP
    yield "values and subject ids at 2^32 - 1", values, windows(n, 30), at_top, 6, 4
    yield "T = 1", values, windows(n, 30), subjects, 1, 1
    yield "T = 256", values[:80], windows(80, 10), subjects[:80], 256, 100
    yield "chunk budget of one trial", values, windows(n, 60), subjects, 7, 1
    yield ("subject ids in no order, repeats far apart",
           rng.integers(0, 20, size=n).astype(u64), windows(n, 5),
           rng.integers(0, 1 << 32, size=n, dtype=u64), 4, 3)


def run(exe, workdir, values, ends, subject_ids, family, chunk, threads):
    path = os.path.join(workdir, "case.bin")
    with open(path, "wb") as fh:
        fh.write(np.array([values.size, family.size, chunk], dtype=np.int64).tobytes())
        for arr in (values, ends, subject_ids, family.a, family.b, family.p):
            fh.write(np.ascontiguousarray(arr).tobytes())
    raw = subprocess.run([exe, path, str(threads)], check=True, capture_output=True).stdout
    rows, at = [], 0
    for _ in range(family.size):
        count = int(np.frombuffer(raw, dtype=np.int64, count=1, offset=at)[0])
        rows.append(np.frombuffer(raw, dtype=np.uint64, count=count, offset=at + 8))
        at += 8 * (1 + count)
    assert at == len(raw)
    return rows


def main(argv: list[str] | None = None) -> int:
    sanitize = sanitizers(sys.argv[1:] if argv is None else argv)
    os.environ["REPRO_NO_NATIVE"] = "1"  # the oracle side never loads the kernels
    with tempfile.TemporaryDirectory() as workdir:
        exe = build_driver(workdir, _DRIVER, sanitize)
        for label, values, ends, subject_ids, trials, chunk in shapes(
            np.random.default_rng(20230157)
        ):
            family = HashFamily.generate(trials, seed=trials)
            want = subject_kernel_reference(values, ends, subject_ids, family)
            for threads in THREADS:
                rows = run(exe, workdir, values, ends, subject_ids, family, chunk, threads)
                if not all(np.array_equal(g, w) for g, w in zip(rows, want)):
                    print(f"FAIL {label} at {threads} thread(s)")
                    return 1
            print(f"ok   {label}: {sum(r.size for r in rows)} keys from "
                  f"{trials} x {values.size} at {THREADS} threads")
    print(f"jem_subject_kernel: clean under the {sanitize} sanitizers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
