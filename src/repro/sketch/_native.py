"""ctypes bindings over the compiled sketch kernels, and their thread count.

The per-trial numpy kernels in :mod:`repro.sketch.jem` are bound by
64-bit hardware division: every trial pays two ``uint64`` modulos
per minimizer, and numpy cannot fuse the hash, the packed-key min and the
interval reduction into one pass.  Four small C kernels do exactly that,
and a fifth parses FASTA records (S1's load) — their source, what each
computes and how it is compiled and cached live in
:mod:`repro._native_build`; this module loads the library (:func:`load`)
and binds it (:class:`NativeKernels`).

ctypes releases the GIL for every call, so kernel calls on different
threads run on different cores.  :func:`thread_count` says how many to use:
the minimizer (S1), subject-sketch (S2) and map (S1 then S4 per range of
segments) passes are each cut into independent calls whose results are
joined in input order (:func:`thread_map`) — the paper's block partition
in shared memory, and the only threading there is: the C starts no thread.
Every kernel's output is bit-identical at any thread count.

Availability is strictly optional: if no compiler is present, compilation
fails, or ``REPRO_NO_NATIVE`` is set in the environment, :func:`load`
returns ``None`` and callers stay on the numpy path.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import threading
import warnings
import weakref
from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np

from .. import _native_build

__all__ = [
    "load", "load_error", "thread_count", "thread_shares", "thread_ranges", "thread_map",
    "availability", "bucket_index", "NativeKernels", "MapContext",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: The size from which numpy asks the kernel for transparent huge pages
#: (``madvise``) for an array.  The kernels write their scratch sparsely —
#: S1's at w = 100 fills 2 % of it, S2's row only as far as its kept keys
#: reach — and a huge page makes a whole 2 MiB resident wherever one byte is
#: touched, so S1's per-call arrays are sized to half this line
#: (``_BLOCK_BASES``), and S2's two n-entry arrays a thread stay under it at
#: a 2-Mi-base contig block's n (≈ 46k minimizers at w = 100).
NUMPY_HUGEPAGE_BYTES = 1 << 22

#: Most bases handed to ``jem_minimizer_kernel`` per call.  The kernel can
#: emit one minimizer per base (w = 1), so its output scratch is sized to
#: one call's bases, not the whole set's, and each call's result is trimmed:
#: two 8-byte arrays a thread, each under ``NUMPY_HUGEPAGE_BYTES``.
_BLOCK_BASES = NUMPY_HUGEPAGE_BYTES // 2 // 8

#: Least work worth a thread of its own, ≈ 0.3-1 ms of kernel each way —
#: bases for S1 (≈ 4 ns each), trial-row entries for S2 (≈ 10 ns each),
#: end-segment bases for a map batch's S1 + S4 (≈ 10 ns each).  Starting,
#: binding and joining a thread costs ≈ 0.15 ms and each further call
#: ≈ 0.04 ms, so a served batch and an added contig stay inline; a
#: 2-Mi-base block of contigs or of reads (≈ 0.4 Mi bases of end segments)
#: does not.
MIN_THREAD_BASES = 1 << 18
MIN_THREAD_ENTRIES = 1 << 15
MIN_THREAD_MAP_BASES = 1 << 17

#: Kernel calls a threaded pass is cut into, per thread: :func:`thread_map`
#: hands them out one at a time, so this is how finely a slow thread's work
#: can be taken over by a fast one.
_CALLS_PER_THREAD = 4

_lock = threading.Lock()
_lib: "NativeKernels | None" = None
_tried = False
_load_error: str | None = None


def thread_shares(work: int, least: int, threads: int | None) -> int:
    """How many threads ``work`` elements are worth, at ``least`` elements a
    thread: :func:`thread_count` of ``threads`` at most, one when there is
    too little for two (a served batch: the count is not even looked up)."""
    most = work // least
    return 1 if most < 2 else min(thread_count(threads), most)


def thread_ranges(
    n: int, shares: int, per_thread: int = _CALLS_PER_THREAD
) -> list[tuple[int, int]]:
    """``[0, n)`` cut into the ``(lo, hi)`` calls of a pass on ``shares``
    threads: whole for one thread, else ``per_thread`` even ranges a
    thread (fewer when ``n`` is)."""
    calls = max(min(shares * per_thread, n), 1) if shares > 1 else 1
    cuts = [n * i // calls for i in range(calls + 1)]
    return list(zip(cuts, cuts[1:]))


def thread_map(fn: Callable[[_T], _R], items: Sequence[_T], threads: int) -> list[_R]:
    """``[fn(item) for item in items]``, the calls spread over ``threads`` threads.

    Each thread — the caller's own is one of them — takes the next item
    whenever it finishes one, so a thread whose CPU a neighbour is using
    holds up one item, not its share; with one thread or one item nothing is
    started and this *is* the list comprehension.  Results come back in
    input order, and the first exception any call raised is re-raised once
    every thread has finished.

    Thread k binds itself to the k-th CPU of the caller's affinity mask (the
    caller to the first, until the last thread has finished): left to the
    scheduler, a thread that lives for a few milliseconds is queued behind
    the one that started it and the calls run one after another
    (:func:`repro._native_build.affinity`).
    """
    n = min(threads, len(items))
    if n <= 1:
        return [fn(item) for item in items]
    out: list = [None] * len(items)
    errors: list[BaseException] = []
    todo = iter(enumerate(items))  # shared: a next() is one step under the GIL
    cpus = _native_build.affinity()

    def work(k: int) -> None:
        try:
            if cpus:
                os.sched_setaffinity(0, {cpus[k % len(cpus)]})  # 0: this thread
            for i, item in todo:
                out[i] = fn(item)
        except BaseException as exc:
            errors.append(exc)

    workers = [
        threading.Thread(target=work, args=(k,), name=f"jem-kernel-{k}")
        for k in range(1, n)
    ]
    for worker in workers:
        worker.start()
    work(0)
    for worker in workers:
        worker.join()
    if cpus:
        os.sched_setaffinity(0, cpus)
    if errors:
        raise errors[0]
    return out


def bucket_index(col_values: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The fused map's lookup index over sorted ``uint32`` value columns,
    one a trial: ``(bucket_lo, bucket_shift)``, ``int64`` arrays of shape
    ``(T, 257)`` and ``(T,)``.  Bucket ``b`` of trial ``t`` holds the values
    ``v`` with ``v >> bucket_shift[t] == b``, the shift the least that puts
    the column's largest value in bucket 255 or below, and covers rows
    ``bucket_lo[t, b]:bucket_lo[t, b + 1]`` — the values under ``b << shift``
    are counted by one ``searchsorted`` of 256 keys, not by a pass over
    the entries."""
    shifts = np.array(
        [max(int(v[-1]).bit_length() - 8, 0) if v.size else 0 for v in col_values],
        dtype=np.int64,
    )
    buckets = np.empty((len(col_values), 257), dtype=np.int64)
    edges = np.arange(256, dtype=np.uint32)
    for t, v in enumerate(col_values):
        buckets[t, :256] = v.searchsorted(edges << np.uint32(shifts[t]))
        buckets[t, 256] = v.size
    return buckets, shifts


class NativeKernels:
    """ctypes bindings over the compiled kernels (GIL released during calls)."""

    def __init__(self, dll: ctypes.CDLL) -> None:
        self._dll = dll
        u64p = ctypes.POINTER(ctypes.c_uint64)
        u32p = ctypes.POINTER(ctypes.c_uint32)
        i64p = ctypes.POINTER(ctypes.c_int64)
        i64 = ctypes.c_int64
        dll.jem_query_kernel.argtypes = [u64p, i64, i64p, i64, u64p, u64p, u64p, u64p, i64, u64p]
        dll.jem_query_kernel.restype = None
        dll.jem_subject_kernel.argtypes = [
            u64p, i64p, i64, u64p,                       # values, ends, n, subject_ids
            ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64,  # a, b, p, m
            u64p, u64p,                                  # window, row
        ]
        dll.jem_subject_kernel.restype = i64
        void_p = ctypes.c_void_p
        dll.jem_ctx_open.argtypes = [       # arrays by address: the context points into them
            void_p, void_p, void_p, i64,       # per-trial col_values, col_subjects, col_len; trials
            void_p, void_p, void_p, void_p,    # the family's a, b, p, m rows
            void_p, void_p, i64,               # bucket_lo (trials, 257), bucket_shift, n_subjects
        ]
        dll.jem_ctx_open.restype = void_p
        dll.jem_map_ctx.argtypes = [       # arrays by address: bound per call, not converted
            void_p, void_p, i64, void_p, i64,  # handle, qvalues, n, starts, nseg
            i64, void_p, void_p,               # min_hits, best_subject, best_count
        ]
        dll.jem_map_ctx.restype = i64
        dll.jem_ctx_close.argtypes = [void_p]
        dll.jem_ctx_close.restype = None
        dll.jem_minimizer_kernel.argtypes = [
            ctypes.POINTER(ctypes.c_uint8), i64p, i64, i64,  # codes, offsets, lo, hi
            i64, i64, u64p,                                  # k, w, block
            u64p, i64p, i64p,                                # ranks, positions, counts
        ]
        dll.jem_minimizer_kernel.restype = i64
        dll.jem_parse_block.argtypes = [void_p, i64, ctypes.c_char_p, i64, void_p, i64, void_p]
        dll.jem_parse_block.restype = i64

    @staticmethod
    def _ptr(arr: np.ndarray, dtype, ctype):
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            raise ValueError("native kernel inputs must be contiguous and typed")
        return arr.ctypes.data_as(ctypes.POINTER(ctype))

    def minimizer_block(
        self,
        codes: np.ndarray,
        offsets: np.ndarray,
        k: int,
        w: int,
        *,
        threads: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical (w, k)-minimizers of every sequence, concatenated (S1).

        ``codes``/``offsets`` are a :class:`~repro.seq.records.SequenceSet`'s
        buffer and offsets.  Returns ``(ranks, positions, counts)``: the
        ``uint64`` canonical ranks and ``int64`` within-sequence positions
        of all sequences back to back, and the ``int64`` number each
        sequence contributed — what ``minimizers_set`` returns, without
        the per-sequence objects.  Sequences go to the kernel in runs of
        at most ``_BLOCK_BASES`` bases (a longer sequence alone), so the
        scratch a call can fill is bounded by that, not by the set — and
        of no more than a thread's share of the set, the runs being
        independent calls spread over ``threads`` threads (None:
        :func:`thread_count`) and joined in input order.
        """
        u64, i64 = np.uint64, np.int64
        codes_p = self._ptr(codes, np.uint8, ctypes.c_uint8)
        offsets_p = self._ptr(offsets, i64, ctypes.c_int64)
        lengths = np.diff(offsets)
        if offsets.size < 2 or offsets[0] < 0 or offsets[-1] > codes.size or lengths.min() < 0:
            raise ValueError("offsets must be non-decreasing, inside codes, one sequence or more")
        longest = int(lengths.max())
        if not 1 <= k <= 16 or w < 1 or longest >> 32:
            raise ValueError("minimizer kernel needs 1 <= k <= 16, w >= 1, sequences under 2^32 bases")
        n = lengths.size
        counts = np.empty(n, dtype=i64)
        counts_p = self._ptr(counts, i64, ctypes.c_int64)
        w = min(int(w), max(longest, 1))
        total = int(offsets[-1] - offsets[0])
        shares = thread_shares(total, MIN_THREAD_BASES, threads)
        run_bases = _BLOCK_BASES
        if shares > 1:
            run_bases = min(run_bases, max(total // (shares * _CALLS_PER_THREAD), 1))
        runs, lo, cap = [], 0, 0
        while lo < n:
            hi = int(np.searchsorted(offsets, offsets[lo] + run_bases, side="right")) - 1
            hi = min(max(hi, lo + 1), n)
            runs.append((lo, hi))
            cap = max(cap, int(offsets[hi] - offsets[lo]))
            lo = hi

        # one set of scratch per thread, taken for the length of a call: a
        # run emits at most one minimizer per base it is handed (``cap``)
        scratch = [
            (np.empty(w, dtype=u64), np.empty(cap, dtype=u64), np.empty(cap, dtype=i64))
            for _ in range(min(shares, len(runs)))
        ]

        def sketch_run(run: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
            mine = block, ranks, positions = scratch.pop()
            m = self._dll.jem_minimizer_kernel(
                codes_p, offsets_p, *run, k, w,
                self._ptr(block, u64, ctypes.c_uint64),
                self._ptr(ranks, u64, ctypes.c_uint64),
                self._ptr(positions, i64, ctypes.c_int64),
                counts_p,
            )
            part = ranks[:m].copy(), positions[:m].copy()
            scratch.append(mine)
            return part

        parts = thread_map(sketch_run, runs, len(scratch))
        if len(parts) == 1:
            return (*parts[0], counts)
        return (
            np.concatenate([ranks for ranks, _ in parts]),
            np.concatenate([positions for _, positions in parts]),
            counts,
        )

    def parse_block(
        self, text: bytes | memoryview, table: bytes, ends: int | None,
        codes: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        r"""The FASTA records of ``text`` — whole records, ``\n`` line ends —
        in one call (S1's load): ``(recs, codes)``, or None when ``text`` is
        not all ASCII.  Row i of the ``int64`` ``recs[(n, 6)]`` is record i's
        start, header-line end, base count and "needs the reference parser"
        flag, then the ``\n`` bytes and the codes from the text's start
        through record i; ``codes`` holds the unflagged records' bases
        through ``table``, back to back — all of them, or with ``ends=ℓ`` a
        record's first and last ℓ once it has more than 2ℓ.  Room for a
        record per 256 bytes is tried first, and doubled until the records
        fit.  The codes are written into ``codes`` when it is given room for
        one a byte of ``text``."""
        data = np.frombuffer(text, dtype=np.uint8)  # a view: the text is not copied
        if data.size and data.max() > 0x7F:
            return None
        rows = data.size // 256 + 64
        if codes is not None and codes.size < data.size:
            codes = None
        while True:
            room = data.size if ends is None else min(data.size, 2 * ends * rows)
            recs = np.empty((rows, 6), dtype=np.int64)
            if codes is None or codes.size < room:
                codes = np.empty(room, dtype=np.uint8)
            n = self._dll.jem_parse_block(
                data.ctypes.data, data.size, table, ends or 0, recs.ctypes.data, rows,
                codes.ctypes.data,
            )
            if n >= 0:
                return recs[:n], codes
            rows *= 2

    def query_values(
        self, values: np.ndarray, starts: np.ndarray, family, out: np.ndarray
    ) -> np.ndarray:
        """Fill ``out[(T, nseg)]`` with per-segment sketch values (S4)."""
        u64, i64 = np.uint64, np.int64
        self._dll.jem_query_kernel(
            self._ptr(values, u64, ctypes.c_uint64),
            ctypes.c_int64(values.size),
            self._ptr(starts, i64, ctypes.c_int64),
            ctypes.c_int64(starts.size),
            self._ptr(family.a, u64, ctypes.c_uint64),
            self._ptr(family.b, u64, ctypes.c_uint64),
            self._ptr(family.p, u64, ctypes.c_uint64),
            self._ptr(family.m, u64, ctypes.c_uint64),
            ctypes.c_int64(family.size),
            self._ptr(out, u64, ctypes.c_uint64),
        )
        return out

    def subject_keys(
        self,
        values: np.ndarray,
        ends: np.ndarray,
        subject_ids: np.ndarray,
        family,
        *,
        threads: int | None = None,
    ) -> list[np.ndarray]:
        """Every trial's sorted distinct packed sketch keys (S2), one
        ``uint64`` array a trial of ``family``.

        The trials are one :func:`thread_map` over ``threads`` threads
        (None: :func:`thread_count`), one kernel call a trial.  A thread
        takes its own window and row, ``n`` entries each, reuses them from
        trial to trial and copies each trial's keys out of its row: S2 holds
        ``2n`` scratch entries a thread, and no ``(T, n)`` matrix.
        """
        u64, i64 = np.uint64, np.int64
        n, trials = values.size, family.size
        shared = (
            self._ptr(values, u64, ctypes.c_uint64),
            self._ptr(ends, i64, ctypes.c_int64),
            n,
            self._ptr(subject_ids, u64, ctypes.c_uint64),
        )
        hashes = list(zip(*(row.tolist() for row in (family.a, family.b, family.p, family.m))))
        shares = min(thread_shares(trials * n, MIN_THREAD_ENTRIES, threads), trials)
        # window and row: one pair per thread, taken for a call
        scratch = [(np.empty(n, dtype=u64), np.empty(n, dtype=u64)) for _ in range(shares)]

        def sketch_trial(t: int) -> np.ndarray:
            mine = window, row = scratch.pop()
            count = self._dll.jem_subject_kernel(
                *shared, *hashes[t],
                self._ptr(window, u64, ctypes.c_uint64),
                self._ptr(row, u64, ctypes.c_uint64),
            )
            keys = row[:count].copy()
            scratch.append(mine)
            return keys

        return thread_map(sketch_trial, range(trials), shares)

    def map_open(
        self,
        col_values: Sequence[np.ndarray],
        col_subjects: Sequence[np.ndarray],
        family,
        n_subjects: int,
    ) -> "MapContext":
        """Open the fused S4 context of one store and hash family.

        ``col_values[t]`` / ``col_subjects[t]`` are trial ``t``'s sorted
        value column and its parallel subject column — the columnar store's
        own arrays, wherever each lives: the context points into them and
        copies none.  S4's set-up — :func:`bucket_index` — is paid here,
        not per :meth:`MapContext.map` call.
        """
        trials = family.size
        if len(col_values) != trials or len(col_subjects) != trials or any(
            v.shape != s.shape or v.dtype != np.uint32 or s.dtype != np.uint32
            or not (v.flags.c_contiguous and s.flags.c_contiguous)
            for v, s in zip(col_values, col_subjects)
        ):
            raise ValueError("map context needs one uint32 value/subject column pair per trial")
        lengths = np.array([v.size for v in col_values], dtype=np.int64)
        buckets, shifts = bucket_index(col_values)
        pointers = tuple(
            (ctypes.c_void_p * trials)(*(c.ctypes.data for c in cols))
            for cols in (col_values, col_subjects)
        )
        handle = self._dll.jem_ctx_open(
            *(ctypes.addressof(table) for table in pointers), lengths.ctypes.data, trials,
            *(row.ctypes.data for row in (family.a, family.b, family.p, family.m)),
            buckets.ctypes.data, shifts.ctypes.data, n_subjects,
        )
        if not handle:  # pragma: no cover - only on malloc failure
            raise MemoryError("jem_ctx_open: allocation failure")
        return MapContext(
            self._dll, handle, family, (tuple(col_values), tuple(col_subjects)),
            (pointers, lengths, buckets, shifts),
        )


class MapContext:
    """One store's open ``jem_ctx``: fused S4 — sketch → lookup → vote in C.

    Read-only once open, so calls on several threads may share it.  It
    keeps every array it points into alive — the columns, the family's
    rows, the bucket index — and is closed when the last reference to it
    goes: with the store that owns it, or after a call still running on
    another thread when the store replaced it.
    """

    def __init__(
        self, dll: ctypes.CDLL, handle: int, family, columns: tuple, held: tuple
    ) -> None:
        self.family = family
        self._columns = columns
        self._held = held  # the column tables and lengths, the bucket index
        self._handle = handle
        self._map = dll.jem_map_ctx
        weakref.finalize(self, dll.jem_ctx_close, handle)

    def map(
        self, values: np.ndarray, starts: np.ndarray, min_hits: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment ``(best_subject, best_count)`` int64 arrays (-1/0 for
        unmapped, as for a segment with no minimizer) of one query block:
        ``values``/``starts`` are the concatenated minimizer ranks and
        per-segment offsets (the :func:`~repro.sketch.jem.query_kernel`
        layout).  Every occurrence is hashed inline: a batch's values are
        96-99 % distinct, too few repeats for a hash-once table to pay for
        its sort.
        """
        n, nseg = values.size, starts.size
        if (
            values.dtype != np.uint64 or starts.dtype != np.int64
            or not (values.flags.c_contiguous and starts.flags.c_contiguous)
        ):
            raise ValueError("native kernel inputs must be contiguous and typed")
        if nseg and (starts[0] < 0 or starts[-1] > n or (starts[1:] < starts[:-1]).any()):
            raise ValueError("segment starts must be non-decreasing and inside values")
        best_subject = np.empty(nseg, dtype=np.int64)
        best_count = np.empty(nseg, dtype=np.int64)
        rc = self._map(
            self._handle, values.ctypes.data, n, starts.ctypes.data, nseg,
            min_hits, best_subject.ctypes.data, best_count.ctypes.data,
        )
        if rc != 0:  # pragma: no cover - only on malloc failure
            raise MemoryError("jem_map_ctx: allocation failure")
        return best_subject, best_count


def load() -> NativeKernels | None:
    """The compiled kernels, or ``None`` when unavailable or disabled.

    ``REPRO_NO_NATIVE`` (any non-empty value) is honoured per call so tests
    can force the numpy path without reloading modules.  Compilation is
    attempted once per process; failures are remembered as "unavailable",
    the cause is kept (see :func:`load_error`) and surfaced once as a
    :class:`RuntimeWarning` — a silent fallback to numpy used to hide
    broken toolchains until someone wondered where the speedup went.
    """
    global _lib, _tried, _load_error
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    if _tried:
        return _lib
    with _lock:
        if not _tried:
            try:
                _lib = NativeKernels(ctypes.CDLL(os.fspath(_native_build.library())))
            except subprocess.CalledProcessError as exc:
                stderr = (exc.stderr or b"").decode(errors="replace").strip()
                _load_error = f"compile failed ({exc.cmd[0]}): {stderr or exc}"
                _lib = None
            except Exception as exc:
                _load_error = f"{type(exc).__name__}: {exc}"
                _lib = None
            if _lib is None:
                warnings.warn(
                    f"repro native kernels unavailable, using the numpy "
                    f"fallback — {_load_error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            _tried = True
    return _lib


def load_error() -> str | None:
    """Why the native library failed to load (None before/without failure)."""
    return _load_error


def thread_count(requested: int | None = None) -> int:
    """How many threads the kernels of this process work on.

    ``requested`` (what ``jem map -p N`` or a worker process, which asks
    for 1, passes down) wins when given.  Otherwise
    ``REPRO_NATIVE_THREADS`` (clamped to >= 1, junk ignored), and by
    default the number of CPUs this process may run on (its affinity mask
    where the platform has one, else the machine's count) — a server
    pinned to one core sketches and maps inline instead of starting
    threads that share that core.  Read per call so tests and operators
    can change it without reloading modules.  It counts the concurrent
    kernel calls of a pass (:func:`thread_map`).
    """
    if requested is not None:
        return max(int(requested), 1)
    raw = os.environ.get("REPRO_NATIVE_THREADS")
    if raw:
        try:
            return max(int(raw), 1)
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def availability() -> dict:
    """Operational snapshot for telemetry (timing lines, healthz).

    ``available`` says whether the fused/native path will actually be
    taken right now (kill switch included); ``threads`` is
    :func:`thread_count` and ``error`` the recorded load failure, or the
    kill switch, when unavailable.
    """
    if os.environ.get("REPRO_NO_NATIVE"):
        return {
            "available": False,
            "threads": thread_count(),
            "error": "disabled via REPRO_NO_NATIVE",
        }
    lib = load()
    return {
        "available": lib is not None,
        "threads": thread_count(),
        "error": None if lib is not None else _load_error,
    }
