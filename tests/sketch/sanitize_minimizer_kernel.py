#!/usr/bin/env python3
"""``jem_minimizer_kernel`` under AddressSanitizer + UBSan, and under
ThreadSanitizer (ROADMAP 5c, 6b).

Not collected by pytest: CI's ``kernels`` job runs it as
``PYTHONPATH=src python tests/sketch/sanitize_minimizer_kernel.py`` and again
with ``--sanitize thread``.

The kernel source is the shipped ``repro/sketch/jem_kernels.c``
(``repro._native_build.SOURCE_PATH``), built, with the small C driver below, under ``-fsanitize=address,undefined``
(or ``thread``).  The driver calls the kernel the way
``NativeKernels.minimizer_block`` does at 1, 2 and 3 threads: the sequences cut
into one run per thread, the runs sketched at once on POSIX threads, each into
buffers of its own of exactly the sizes the binding promises — one output
slot per base of the run, ``min(w, longest sequence)`` block slots — all of
them writing the one shared ``counts``.  A write one past a buffer aborts the
ASan run, two runs touching one byte abort the TSan run, and the joined output
is compared with numpy ``minimizers_set``.  Shapes: ``n`` runs, sequences
shorter than k and shorter than k + w - 1, empty sequences, w in {1, 2, 7,
100, > nk}, w = 1 on an all-``n`` sequence, and one sequence longer than 2^20
bases.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from repro import _native_build
from repro.seq import SequenceSet
from repro.sketch.minimizers import minimizers_set

_DRIVER = r"""
#include "kernels.c"
#include <pthread.h>
#include <stdio.h>

static void *exact(size_t count, size_t size) { /* malloc(0) may be NULL */
    void *p = malloc(count ? count * size : 1);
    if (p == NULL) exit(3);
    return p;
}

typedef struct { /* one run of sequences [lo, hi): a thread's share */
    const uint8_t *codes; const int64_t *offsets;
    int64_t lo, hi, k, w, slots, m;
    uint64_t *block, *ranks; int64_t *positions, *counts;
} run_t;

static void *sketch_run(void *arg) {
    run_t *r = arg;
    r->m = jem_minimizer_kernel(r->codes, r->offsets, r->lo, r->hi, r->k, r->w,
                                r->block, r->ranks, r->positions, r->counts);
    return NULL;
}

int main(int argc, char **argv) {
    if (argc != 3) return 2;
    FILE *in = fopen(argv[1], "rb");
    const int64_t threads = atoll(argv[2]);
    int64_t head[5]; /* sequences, bases, k, w, block slots */
    if (in == NULL || threads < 1 || fread(head, 8, 5, in) != 5) return 2;
    const int64_t n = head[0], bases = head[1];
    int64_t *offsets = exact(n + 1, 8);
    uint8_t *codes = exact(bases, 1);
    if (fread(offsets, 8, n + 1, in) != (size_t)(n + 1)) return 2;
    if (fread(codes, 1, bases, in) != (size_t)bases) return 2;
    fclose(in);
    int64_t *counts = exact(n, 8);
    run_t *runs = exact(threads, sizeof(run_t));
    pthread_t *tids = exact(threads, sizeof(pthread_t));
    for (int64_t t = 0; t < threads; t++) {
        run_t *r = &runs[t];
        r->codes = codes; r->offsets = offsets; r->counts = counts;
        r->lo = n * t / threads; r->hi = n * (t + 1) / threads;
        r->k = head[2]; r->w = head[3];
        r->slots = offsets[r->hi] - offsets[r->lo]; /* one per base of the run */
        r->block = exact(head[4], 8);
        r->ranks = exact(r->slots, 8); r->positions = exact(r->slots, 8);
        if (pthread_create(&tids[t], NULL, sketch_run, r)) return 3;
    }
    int64_t m = 0;
    for (int64_t t = 0; t < threads; t++) {
        pthread_join(tids[t], NULL);
        if (runs[t].m < 0 || runs[t].m > runs[t].slots) return 4;
        m += runs[t].m;
    }
    fwrite(&m, 8, 1, stdout);
    fwrite(counts, 8, n, stdout);
    for (int64_t t = 0; t < threads; t++) fwrite(runs[t].ranks, 8, runs[t].m, stdout);
    for (int64_t t = 0; t < threads; t++) fwrite(runs[t].positions, 8, runs[t].m, stdout);
    for (int64_t t = 0; t < threads; t++) {
        free(runs[t].block); free(runs[t].ranks); free(runs[t].positions);
    }
    free(offsets); free(codes); free(counts); free(runs); free(tids);
    return 0;
}
"""

#: thread counts every shape runs at: one run, an even split, an uneven one
THREADS = (1, 2, 3)

def sanitizers(argv: list[str]) -> str:
    """``address,undefined`` by default, or what ``--sanitize`` names."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--sanitize", default="address,undefined",
                        choices=("address,undefined", "thread"))
    return parser.parse_args(argv).sanitize


def build(workdir: str, driver: str = _DRIVER, sanitize: str = "address,undefined") -> str:
    """Compile ``driver`` (which includes the shipped kernel source) under the sanitizers."""
    shutil.copyfile(_native_build.SOURCE_PATH, os.path.join(workdir, "kernels.c"))
    with open(os.path.join(workdir, "driver.c"), "w") as fh:
        fh.write(driver)
    exe = os.path.join(workdir, "driver")
    subprocess.run(
        [os.environ.get("CC", "cc"), "-O1", "-g", "-pthread",
         f"-fsanitize={sanitize}", "-fno-sanitize-recover=all",
         "-o", exe, os.path.join(workdir, "driver.c")],
        check=True,
    )
    return exe


def as_set(sequences: list[np.ndarray]) -> SequenceSet:
    lengths = [s.size for s in sequences]
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    codes = np.concatenate(sequences).astype(np.uint8) if sequences else np.empty(0, np.uint8)
    return SequenceSet(codes, offsets, [f"s{i}" for i in range(len(sequences))])


def shapes(rng: np.random.Generator):
    def dna(n, invalid=0.0):
        codes = rng.integers(0, 4, size=n).astype(np.uint8)
        codes[rng.random(n) < invalid] = 4
        return codes

    all_n = np.full(500, 4, dtype=np.uint8)
    mixed = [dna(0), dna(3), dna(15), dna(16), dna(17), dna(40, 0.2), all_n,
             dna(115), dna(116), dna(2000, 0.01), dna(0),
             np.concatenate([dna(60), np.full(130, 4, np.uint8), dna(60)])]
    for k in (1, 5, 16):
        for w in (1, 2, 7, 100, 10**9):
            yield f"mixed k={k} w={w}", as_set(mixed), k, w
    yield "all-n w=1", as_set([all_n]), 16, 1
    yield "one empty sequence", as_set([dna(0)]), 16, 100
    yield "longer than 2^20, w=100", as_set([dna((1 << 20) + 12345, 0.0001)]), 16, 100
    yield "longer than 2^20, w=1", as_set([dna((1 << 20) + 1, 0.001)]), 16, 1
    yield "longer than 2^20, w > nk", as_set([dna((1 << 20) + 77)]), 16, 1 << 40


def run(exe: str, workdir: str, sset: SequenceSet, k: int, w: int, threads: int):
    longest = int(np.diff(sset.offsets).max())
    w = min(w, max(longest, 1))  # as NativeKernels.minimizer_block clamps it
    path = os.path.join(workdir, "case.bin")
    with open(path, "wb") as fh:
        fh.write(np.array([len(sset), sset.buffer.size, k, w, w], dtype=np.int64).tobytes())
        fh.write(sset.offsets.tobytes())
        fh.write(sset.buffer.tobytes())
    raw = subprocess.run([exe, path, str(threads)], check=True, capture_output=True).stdout
    m = int(np.frombuffer(raw, dtype=np.int64, count=1)[0])
    n = len(sset)
    counts = np.frombuffer(raw, dtype=np.int64, count=n, offset=8)
    ranks = np.frombuffer(raw, dtype=np.uint64, count=m, offset=8 * (1 + n))
    positions = np.frombuffer(raw, dtype=np.int64, count=m, offset=8 * (1 + n + m))
    return ranks, positions, counts


def main(argv: list[str] | None = None) -> int:
    sanitize = sanitizers(sys.argv[1:] if argv is None else argv)
    os.environ["REPRO_NO_NATIVE"] = "1"  # the oracle side never loads the kernels
    with tempfile.TemporaryDirectory() as workdir:
        exe = build(workdir, sanitize=sanitize)
        for label, sset, k, w in shapes(np.random.default_rng(20230157)):
            lists = minimizers_set(sset, k, w)
            for threads in THREADS:
                ranks, positions, counts = run(exe, workdir, sset, k, w, threads)
                ok = (
                    counts.tolist() == [len(ml) for ml in lists]
                    and np.array_equal(ranks, np.concatenate([ml.ranks for ml in lists]))
                    and np.array_equal(positions, np.concatenate([ml.positions for ml in lists]))
                )
                if not ok:
                    print(f"FAIL {label} at {threads} thread(s)")
                    return 1
            print(f"ok   {label}: {ranks.size} minimizers at {THREADS} threads")
    print(f"jem_minimizer_kernel: clean under the {sanitize} sanitizers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
