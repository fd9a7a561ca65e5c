#!/usr/bin/env python3
"""``jem_parse_block`` under AddressSanitizer + UBSan, and under
ThreadSanitizer.

Not collected by pytest: CI's ``kernels`` job runs it as
``PYTHONPATH=src python tests/sketch/sanitize_parse_kernel.py`` and again
with ``--sanitize thread``, after ``sanitize_minimizer_kernel.py``, whose
build step it shares.

The contract worth a sanitizer is the binding's: a run of text is read in
place and never past its end, ``recs`` is written no further than the rows
it is given (the kernel answers -1 and the caller doubles them), and
``codes`` no further than the room ``NativeKernels.parse_block`` gives it.
Every case is cut into runs by the reader itself (``io_fasta._iter_runs``)
at adversarial block sizes — 1, 2, 3, 7, 64 and 4096 bytes and the default —
so runs start and end wherever a block can put them; the runs with a byte
outside ASCII, which the binding hands the reference parser whole, are
left out.  The C driver copies each run into an exact-size allocation,
gives it rows and codes of exactly those sizes, and parses the runs on 1,
2 and 3 POSIX threads at once, every thread writing only its own runs'
buffers and all of them reading the one code table.  Each run's rows and codes are then held to the reference
parser, ``_parse_record``: the same record starts and line counts, a flag
exactly where the reference raises or finds no record, and elsewhere the
same name, description, base count and codes — whole, and with ``ends`` of
1, 5 and 1000.  Cases: CRLF and lone-CR endings, no trailing newline, a
lone ``>``, ``>`` in the middle of a line, empty bodies, a header with no
newline at the end of the text, NUL in headers and bodies (and non-ASCII
bytes beside them), whitespace-only headers, text and blank lines before the first
``>``, ``N`` and IUPAC codes, reads of ℓ - 1 to 2ℓ + 1 bases, 20,000 tiny
records (the rows doubled many times), and a record of over 1 MiB.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sanitize_minimizer_kernel import THREADS, sanitizers  # noqa: E402
from sanitize_minimizer_kernel import build as build_driver  # noqa: E402

from repro.errors import ParseError  # noqa: E402
from repro.seq import io_fasta  # noqa: E402

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

typedef struct { /* one run of text and what the kernel made of it */
    uint8_t *text; int64_t len, n;
    int64_t *recs; uint8_t *codes;
} run_t;

static const uint8_t *table;
static int64_t ends, nruns, threads;
static run_t *runs;

static void *parse_share(void *arg) { /* runs t, t + threads, ... */
    for (int64_t i = (int64_t)(intptr_t)arg; i < nruns; i += threads) {
        run_t *r = &runs[i];
        for (int64_t cap = r->len / 256 + 64;; cap *= 2) { /* as parse_block */
            const int64_t room = ends == 0 || r->len < 2 * ends * cap ? r->len
                                                                    : 2 * ends * cap;
            r->recs = exact(cap * 6, 8);
            r->codes = exact(room, 1);
            r->n = jem_parse_block(r->text, r->len, table, ends, r->recs, cap, r->codes);
            if (r->n >= 0) break;
            free(r->recs); free(r->codes);
        }
    }
    return NULL;
}

int main(int argc, char **argv) {
    if (argc != 3) return 2;
    FILE *in = fopen(argv[1], "rb");
    threads = atoll(argv[2]);
    int64_t head[2]; /* runs, ends */
    if (in == NULL || threads < 1 || fread(head, 8, 2, in) != 2) return 2;
    nruns = head[0]; ends = head[1];
    table = load(in, 256, 1);
    runs = exact(nruns, sizeof(run_t));
    for (int64_t i = 0; i < nruns; i++) {
        if (fread(&runs[i].len, 8, 1, in) != 1) return 2;
        runs[i].text = load(in, runs[i].len, 1); /* exact: one past it aborts */
    }
    fclose(in);
    pthread_t *tids = exact(threads, sizeof(pthread_t));
    for (int64_t t = 0; t < threads; t++)
        if (pthread_create(&tids[t], NULL, parse_share, (void *)(intptr_t)t)) return 3;
    for (int64_t t = 0; t < threads; t++) pthread_join(tids[t], NULL);
    for (int64_t i = 0; i < nruns; i++) {
        run_t *r = &runs[i];
        const int64_t m = r->n ? r->recs[6 * r->n - 1] : 0;
        fwrite(&r->n, 8, 1, stdout);
        fwrite(r->recs, 8, 6 * r->n, stdout);
        fwrite(&m, 8, 1, stdout);
        fwrite(r->codes, 1, m, stdout);
        free(r->text); free(r->recs); free(r->codes);
    }
    free(runs); free(tids); free((void *)table);
    return 0;
}
"""

BLOCK_SIZES = (1, 2, 3, 7, 64, 4096, io_fasta._BLOCK_BYTES)
ENDS = (0, 1, 5, 1000)


def cases(rng: np.random.Generator):
    """(label, file bytes, block sizes)."""
    def bases(n: int, alphabet: bytes = b"ACGTacgtN") -> bytes:
        return rng.choice(np.frombuffer(alphabet, np.uint8), size=n).tobytes()

    def wrap(body: bytes, width: int) -> bytes:
        return b"\n".join(body[i : i + width] for i in range(0, len(body), width))

    yield "CRLF", b">a x\r\nACGTA\r\nCGT\r\n\r\n>b\r\nGGTTACCA\r\n", BLOCK_SIZES
    yield "lone CR", b">a\rACGTACGTACG\r>b\rTT", BLOCK_SIZES
    yield "no trailing newline", b">a\nACGTACGTAC\nGT\n>b desc\nGGTTAACCGGTT", BLOCK_SIZES
    yield "a lone >", b">", BLOCK_SIZES
    yield "empty text", b"", BLOCK_SIZES
    yield "lone > lines", b">\n>a\nAC\n>\n>\nGG\n>", BLOCK_SIZES
    yield "> in the middle of lines", b">a\nAC>GT>\n>b x>y\n>>\nTT>A\n>c>\n", BLOCK_SIZES
    yield "empty bodies", b">a\n>b\n\n\n>c\nACGT\n>d\n", BLOCK_SIZES
    yield "non-ASCII and NUL", (b">a\x00\nAC\x00GT\n>b caf\xc3\xa9\nACGT\n>c\nACGT\xff\n"
                                b">d\n\x80\n>e\nTT\xe9"), BLOCK_SIZES
    yield "whitespace-only headers", b">\x1c\x1d\nACGT\n> \t\x0b\x0c\nAC\n>\x1f a\nAC\n", BLOCK_SIZES
    yield "text before the first >", b"ACGT AC\nGG\n>a\nACGTACGT\n", BLOCK_SIZES
    yield "blank lines before the first >", b"\n\n\n>a\nACGTACGTACGT\n", BLOCK_SIZES
    yield "N and IUPAC codes", b">a\nACGTNRYKMSWBDHVnrykmswbdhv-*.\n>b\nNNNNNNNN\n", BLOCK_SIZES
    yield "lengths around l and 2l", b"".join(
        b">r%d\n%s\n" % (n, wrap(bases(n), 3))
        for ell in ENDS[1:] for n in (ell - 1, ell, ell + 1, 2 * ell - 1, 2 * ell, 2 * ell + 1)
    ), BLOCK_SIZES
    yield "20,000 tiny records", b"".join(b">%d\nA\n" % i for i in range(20_000)), (64, 4096)
    yield "a record over 1 MiB", (b">short\nAC\n>long\n" + wrap(bases(1_200_000), 80)
                                  + b"\n>tail\nG"), (4096, io_fasta._BLOCK_BYTES)


def runs_of(data: bytes, size: int) -> list[bytes]:
    """The runs the reader hands the kernel, blocks of ``size`` bytes."""
    runs = (bytes(run) for runs in io_fasta._iter_runs(io.BytesIO(data), size) for run in runs)
    return [run for run in runs if run.isascii()]


def check_run(text: bytes, recs: np.ndarray, codes: np.ndarray, ends: int) -> str | None:
    """What differs between the kernel's rows for ``text`` and the reference
    parser, or None."""
    starts = list(io_fasta._record_starts(text, True))
    if not starts or starts[0]:
        starts.insert(0, 0)
    if len(recs) != (len(starts) if text else 0):
        return f"{len(recs)} records, not {len(starts)}"
    bounds, lines, code_at = starts + [len(text)], 0, 0
    for i, row in enumerate(recs.tolist()):
        record_text = text[bounds[i] : bounds[i + 1]]
        lines += record_text.count(b"\n")
        if row[0] != bounds[i] or row[4] != lines:
            return f"record {i}: start/lines {row[0]}/{row[4]}, not {bounds[i]}/{lines}"
        try:
            want = io_fasta._parse_record(
                record_text, "case", 1, record_text.count(b"\n"), ends or None
            )
        except ParseError:
            want = None
        if bool(row[3]) != (want is None):
            return f"record {i}: flag {row[3]}, reference {'none' if want is None else 'a record'}"
        if want is None:
            if row[5] != code_at:
                return f"record {i}: a flagged record wrote codes"
            continue
        name, _, description = text[row[0] + 1 : row[1]].decode("ascii").strip().partition(" ")
        got = codes[code_at : row[5]].tobytes()
        if (name, row[2], got) != (want.name, want.bases, want.codes.tobytes()):
            return f"record {i}: name/bases/codes differ"
        if description != want.meta.get("description", ""):
            return f"record {i}: description differs"
        code_at = row[5]
    return None


def run(exe: str, workdir: str, texts: list[bytes], ends: int, threads: int):
    path = os.path.join(workdir, "case.bin")
    with open(path, "wb") as fh:
        fh.write(np.array([len(texts), ends], dtype=np.int64).tobytes())
        fh.write(io_fasta._CODE_TABLE)
        for text in texts:
            fh.write(np.int64(len(text)).tobytes() + text)
    raw = subprocess.run([exe, path, str(threads)], check=True, capture_output=True).stdout
    out, at = [], 0
    for _ in texts:
        n = int(np.frombuffer(raw, dtype=np.int64, count=1, offset=at)[0])
        recs = np.frombuffer(raw, dtype=np.int64, count=6 * n, offset=at + 8).reshape(n, 6)
        at += 8 + 48 * n
        m = int(np.frombuffer(raw, dtype=np.int64, count=1, offset=at)[0])
        out.append((recs, np.frombuffer(raw, dtype=np.uint8, count=m, offset=at + 8)))
        at += 8 + m
    assert at == len(raw)
    return out


def main(argv: list[str] | None = None) -> int:
    sanitize = sanitizers(sys.argv[1:] if argv is None else argv)
    with tempfile.TemporaryDirectory() as workdir:
        exe = build_driver(workdir, _DRIVER, sanitize)
        for label, data, sizes in cases(np.random.default_rng(20230157)):
            texts = [run for size in sizes for run in runs_of(data, size)]
            for ends in ENDS:
                for threads in THREADS:
                    parsed = run(exe, workdir, texts, ends, threads)
                    for text, (recs, codes) in zip(texts, parsed):
                        problem = check_run(text, recs, codes, ends)
                        if problem:
                            print(f"FAIL {label}, ends={ends}, {threads} thread(s): {problem}")
                            return 1
            print(f"ok   {label}: {len(texts)} runs at block sizes {sizes}, ends {ENDS}, "
                  f"{THREADS} threads")
    print(f"jem_parse_block: clean under the {sanitize} sanitizers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
