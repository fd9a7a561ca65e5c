#!/usr/bin/env python3
"""``jem_minimizer_kernel`` under AddressSanitizer + UBSan (ROADMAP 5c).

Not collected by pytest: CI's ``kernels`` job runs it as
``PYTHONPATH=src python tests/sketch/sanitize_minimizer_kernel.py``.

The kernel source is taken from ``repro.sketch._native._SOURCE`` as shipped
and built, with the small C driver below, under
``-fsanitize=address,undefined``.  The driver gives the kernel buffers of
exactly the sizes the ctypes binding promises it — one output slot per
base, ``min(w, longest sequence)`` block slots — so a write one past any
of them aborts the run, and its output is compared with numpy
``minimizers_set``.  Shapes: ``n`` runs, sequences shorter than k and
shorter than k + w - 1, empty sequences, w in {1, 2, 7, 100, > nk}, w = 1
on an all-``n`` sequence, and one sequence longer than 2^20 bases.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import numpy as np

from repro.seq import SequenceSet
from repro.sketch import _native
from repro.sketch.minimizers import minimizers_set

_DRIVER = r"""
#include "kernels.c"
#include <stdio.h>

static void *exact(size_t count, size_t size) { /* malloc(0) may be NULL */
    void *p = malloc(count ? count * size : 1);
    if (p == NULL) exit(3);
    return p;
}

int main(int argc, char **argv) {
    if (argc != 2) return 2;
    FILE *in = fopen(argv[1], "rb");
    int64_t head[5]; /* sequences, bases, k, w, block slots */
    if (in == NULL || fread(head, 8, 5, in) != 5) return 2;
    const int64_t n = head[0], bases = head[1];
    int64_t *offsets = exact(n + 1, 8);
    uint8_t *codes = exact(bases, 1);
    if (fread(offsets, 8, n + 1, in) != (size_t)(n + 1)) return 2;
    if (fread(codes, 1, bases, in) != (size_t)bases) return 2;
    fclose(in);
    uint64_t *block = exact(head[4], 8), *ranks = exact(bases, 8);
    int64_t *positions = exact(bases, 8), *counts = exact(n, 8);
    const int64_t m = jem_minimizer_kernel(codes, offsets, 0, n, head[2], head[3],
                                           block, ranks, positions, counts);
    fwrite(&m, 8, 1, stdout);
    fwrite(counts, 8, n, stdout);
    fwrite(ranks, 8, m, stdout);
    fwrite(positions, 8, m, stdout);
    free(offsets); free(codes); free(block);
    free(ranks); free(positions); free(counts);
    return 0;
}
"""


def build(workdir: str, driver: str = _DRIVER) -> str:
    """Compile ``driver`` (which includes the shipped kernel source) under the sanitizers."""
    with open(os.path.join(workdir, "kernels.c"), "w") as fh:
        fh.write(_native._SOURCE)
    with open(os.path.join(workdir, "driver.c"), "w") as fh:
        fh.write(driver)
    exe = os.path.join(workdir, "driver")
    subprocess.run(
        [os.environ.get("CC", "cc"), "-O1", "-g", "-pthread",
         "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
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


def run(exe: str, workdir: str, sset: SequenceSet, k: int, w: int):
    longest = int(np.diff(sset.offsets).max())
    w = min(w, max(longest, 1))  # as NativeKernels.minimizer_block clamps it
    path = os.path.join(workdir, "case.bin")
    with open(path, "wb") as fh:
        fh.write(np.array([len(sset), sset.buffer.size, k, w, w], dtype=np.int64).tobytes())
        fh.write(sset.offsets.tobytes())
        fh.write(sset.buffer.tobytes())
    raw = subprocess.run([exe, path], check=True, capture_output=True).stdout
    m = int(np.frombuffer(raw, dtype=np.int64, count=1)[0])
    n = len(sset)
    counts = np.frombuffer(raw, dtype=np.int64, count=n, offset=8)
    ranks = np.frombuffer(raw, dtype=np.uint64, count=m, offset=8 * (1 + n))
    positions = np.frombuffer(raw, dtype=np.int64, count=m, offset=8 * (1 + n + m))
    return ranks, positions, counts


def main() -> int:
    os.environ["REPRO_NO_NATIVE"] = "1"  # the oracle side never loads the kernels
    with tempfile.TemporaryDirectory() as workdir:
        exe = build(workdir)
        for label, sset, k, w in shapes(np.random.default_rng(20230157)):
            ranks, positions, counts = run(exe, workdir, sset, k, w)
            lists = minimizers_set(sset, k, w)
            ok = (
                counts.tolist() == [len(ml) for ml in lists]
                and np.array_equal(ranks, np.concatenate([ml.ranks for ml in lists]))
                and np.array_equal(positions, np.concatenate([ml.positions for ml in lists]))
            )
            print(f"{'ok  ' if ok else 'FAIL'} {label}: {ranks.size} minimizers")
            if not ok:
                return 1
    print("jem_minimizer_kernel: clean under address,undefined sanitizers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
