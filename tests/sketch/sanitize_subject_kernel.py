#!/usr/bin/env python3
"""``jem_subject_kernel`` under AddressSanitizer + UBSan, and under
ThreadSanitizer (ROADMAP 6b).

Not collected by pytest: CI's ``kernels`` job runs it as
``PYTHONPATH=src python tests/sketch/sanitize_subject_kernel.py`` and again
with ``--sanitize thread``, after ``sanitize_minimizer_kernel.py``, whose
build step it shares.

The kernel computes one trial per call into two buffers its caller reuses
— a window and a row of n entries each — and writes the trial's
*compacted* keys (a key only where it differs from the previous
interval's, then sorted and deduped in place) to the front of the row, so
the contract worth a sanitizer is "a call never needs more than n entries
of either, however little compacts".  The C driver calls it as
``NativeKernels.subject_keys`` does: 1, 2 and 3 POSIX threads each take the
next trial from a shared counter, every thread with its own window and row
of exactly n entries, allocated once and reused from trial to trial, and
each trial's keys copied out of the row into a buffer of exactly their
count — two threads touching one byte abort the TSan run.  Each trial is
compared with ``np.unique`` of the uncompacted keys from
``subject_kernel_reference``.  Shapes: n = 0, n = 1, all-equal values (one
key per subject), all-distinct values with ``ends[i] = i + 1`` (nothing
compacts, m = n), T = 1 and T = 256, values and subject ids at 2^32 - 1,
subject ids in no order, and windows up to 60 entries wide.
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

typedef struct { /* one pass: every trial of one input */
    const uint64_t *values, *subject_ids, *a, *b, *p, *m;
    const int64_t *ends;
    int64_t n, trials;
    int64_t next;     /* the next trial a thread takes */
    uint64_t **keys;  /* per trial: its keys, copied out of a row */
    int64_t *counts;
} pass_t;

static void *sketch_trials(void *arg) {
    pass_t *s = arg;
    /* this thread's scratch: exactly n entries each, reused trial to trial */
    uint64_t *window = exact(s->n, 8), *row = exact(s->n, 8);
    for (int64_t t; (t = __atomic_fetch_add(&s->next, 1, __ATOMIC_RELAXED)) < s->trials;) {
        const int64_t count = jem_subject_kernel(
            s->values, s->ends, s->n, s->subject_ids, s->a[t], s->b[t], s->p[t], s->m[t],
            window, row);
        if (count < 0 || count > s->n) exit(4);
        s->counts[t] = count;
        s->keys[t] = exact(count, 8);
        memcpy(s->keys[t], row, count * 8);
    }
    free(window); free(row);
    return NULL;
}

int main(int argc, char **argv) {
    if (argc != 3) return 2;
    FILE *in = fopen(argv[1], "rb");
    const int64_t threads = atoll(argv[2]);
    int64_t head[2]; /* minimizers, trials */
    if (in == NULL || threads < 1 || fread(head, 8, 2, in) != 2) return 2;
    pass_t s = {.n = head[0], .trials = head[1], .next = 0};
    const int64_t n = s.n, trials = s.trials;
    s.values = load(in, n, 8);
    s.ends = load(in, n, 8);
    s.subject_ids = load(in, n, 8);
    s.a = load(in, trials, 8); s.b = load(in, trials, 8); s.p = load(in, trials, 8);
    s.m = load(in, trials, 8);
    fclose(in);
    s.keys = exact(trials, sizeof(uint64_t *));
    s.counts = exact(trials, 8);
    pthread_t *tids = exact(threads, sizeof(pthread_t));
    for (int64_t t = 0; t < threads; t++)
        if (pthread_create(&tids[t], NULL, sketch_trials, &s)) return 3;
    for (int64_t t = 0; t < threads; t++) pthread_join(tids[t], NULL);
    for (int64_t t = 0; t < trials; t++) {
        fwrite(&s.counts[t], 8, 1, stdout);
        fwrite(s.keys[t], 8, s.counts[t], stdout);
        free(s.keys[t]);
    }
    free((void *)s.values); free((void *)s.ends); free((void *)s.subject_ids);
    free((void *)s.a); free((void *)s.b); free((void *)s.p); free((void *)s.m);
    free(s.keys); free(s.counts); free(tids);
    return 0;
}
"""

TOP = (1 << 32) - 1


def shapes(rng: np.random.Generator):
    """(label, values, ends, subject_ids, trials)."""
    u64, i64 = np.uint64, np.int64

    def windows(n, reach):
        ends = np.arange(1, n + 1) + rng.integers(0, reach, size=n)
        return np.maximum.accumulate(ends).clip(max=n).astype(i64)

    empty = np.empty(0, dtype=u64)
    yield "n = 0", empty, np.empty(0, dtype=i64), empty, 3
    yield "n = 1", np.array([7], u64), np.array([1], i64), np.array([0], u64), 4
    n = 600
    subjects = np.sort(rng.integers(0, 9, size=n)).astype(u64)
    yield ("all-equal values: one key per subject",
           np.full(n, 12345, u64), windows(n, 40), subjects, 5)
    distinct = rng.permutation(n).astype(u64)
    unit = np.arange(1, n + 1, dtype=i64)
    yield "all-distinct values, ends[i] = i + 1: m = n", distinct, unit, subjects, 5
    yield "all-distinct, one subject per entry, at 2^32 - 1", \
        distinct + u64(TOP - n + 1), unit, np.arange(n, dtype=u64) + u64(TOP - n + 1), 3
    values = rng.integers(0, 1 << 32, size=n, dtype=u64)
    values[rng.random(n) < 0.1] = TOP
    at_top = subjects.copy()
    at_top[at_top == at_top.max()] = TOP
    yield "values and subject ids at 2^32 - 1", values, windows(n, 30), at_top, 6
    yield "T = 1", values, windows(n, 30), subjects, 1
    yield "T = 256", values[:80], windows(80, 10), subjects[:80], 256
    yield "wide windows: blocks of up to 60 entries", values, windows(n, 60), subjects, 7
    yield ("subject ids in no order, repeats far apart",
           rng.integers(0, 20, size=n).astype(u64), windows(n, 5),
           rng.integers(0, 1 << 32, size=n, dtype=u64), 4)


def run(exe, workdir, values, ends, subject_ids, family, threads):
    path = os.path.join(workdir, "case.bin")
    with open(path, "wb") as fh:
        fh.write(np.array([values.size, family.size], dtype=np.int64).tobytes())
        for arr in (values, ends, subject_ids, family.a, family.b, family.p, family.m):
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
        for label, values, ends, subject_ids, trials in shapes(
            np.random.default_rng(20230157)
        ):
            family = HashFamily.generate(trials, seed=trials)
            want = subject_kernel_reference(values, ends, subject_ids, family)
            for threads in THREADS:
                rows = run(exe, workdir, values, ends, subject_ids, family, threads)
                if not all(np.array_equal(g, w) for g, w in zip(rows, want)):
                    print(f"FAIL {label} at {threads} thread(s)")
                    return 1
            print(f"ok   {label}: {sum(r.size for r in rows)} keys from "
                  f"{trials} x {values.size} at {THREADS} threads")
    print(f"jem_subject_kernel: clean under the {sanitize} sanitizers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
