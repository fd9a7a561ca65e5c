"""Batched multi-trial kernels shared by the JEM and MinHash sketchers.

Every hot sketching path used to run one Python-level iteration per trial:
hash-apply, a fresh sparse-table build, a ``np.unique`` sort — T = 30 times
per call.  The kernels here collapse those loops into single multi-trial
array operations over ``(T, n)`` matrices:

* :func:`pack_keys_batched` — one validation pass then one shift-or over
  the whole trial matrix (replaces T ``pack_key`` calls, each of which
  re-scanned ``values.max()``);
* :func:`sorted_unique_rows` — one row-wise in-place sort plus a
  vectorised run-collapse (replaces T ``np.unique`` sorts);
* :func:`key_scratch` — a thread-local, geometrically grown ``uint64``
  buffer so repeated sketch calls (the service's S4 micro-batches, the
  per-rank driver loops) stop reallocating ``(T, n)`` scratch every call;
* :func:`trial_chunks` — bounds the working set of the fully batched
  subject kernel: a ``(T, n)`` sparse table holds ``T·n·log n`` entries,
  so trials are processed in the largest chunks that keep the table under
  a fixed byte budget (per-chunk results are per-trial results, so
  chunking never changes output).

The batching invariant throughout: trials share the *same* positional
intervals and the same minimizer columns, only the hash row differs.  That
is why one 2-d sparse table (:class:`~repro.sketch.rmq.SparseTableRMQ2D`)
and one interval-level bucketing serve all T trials at once.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import SketchError

__all__ = [
    "LOW32",
    "SUBJECT_SCRATCH_ELEMS",
    "key_scratch",
    "pack_keys_batched",
    "release_scratch",
    "sorted_unique_rows",
    "trial_chunks",
]

LOW32 = np.uint64(0xFFFFFFFF)

#: Working-set budget (uint64 entries) for one fully batched trial chunk.
#: 1 << 24 entries = 128 MB of sparse-table levels — large enough that the
#: usual bench/service scales run every trial in a single chunk, small
#: enough that a whole-genome minimizer list cannot blow up memory T-fold.
MAX_BATCH_ELEMS = 1 << 24

#: Key-scratch budget (uint64 entries, 4 MiB) of the native subject kernel,
#: which writes each trial's *compacted* row: however many minimizers a
#: contig set has, its trials go through the kernel a few rows at a time
#: (one row, of n entries, once n alone exceeds the budget).
SUBJECT_SCRATCH_ELEMS = 1 << 19

_scratch = threading.local()


def key_scratch(rows: int, cols: int, slot: str = "keys") -> np.ndarray:
    """A reusable ``(rows, cols)`` ``uint64`` matrix view (thread-local).

    Each ``slot`` names an independent backing buffer, so a kernel can hold
    several scratch matrices alive at once (the subject kernel keeps the
    hashed matrix, the sparse-table levels and the packed keys in three
    slots).  Buffers grow geometrically and are shared by every kernel call
    on the same thread, so steady-state sketching performs zero scratch
    allocations.  Callers must not let a view escape: anything returned to
    the caller of a kernel has to be a copy (the row-collapse in
    :func:`sorted_unique_rows` makes one naturally), and requesting the
    same slot again invalidates earlier views of it.
    """
    if rows < 0 or cols < 0:
        raise SketchError("scratch dimensions must be non-negative")
    need = rows * cols
    slots = getattr(_scratch, "slots", None)
    if slots is None:
        slots = _scratch.slots = {}
    buf = slots.get(slot)
    if buf is None or buf.size < need:
        capacity = 1 << 12
        while capacity < need:
            capacity *= 2
        buf = slots[slot] = np.empty(capacity, dtype=np.uint64)
    return buf[:need].reshape(rows, cols)


def release_scratch() -> None:
    """Free this thread's scratch buffers (the next kernel call regrows them):
    what a one-off pass — an index build — calls when it ends, so its
    working set does not stay resident for the life of the process."""
    _scratch.__dict__.pop("slots", None)


def pack_keys_batched(
    values: np.ndarray, subjects: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Pack a ``(T, n)`` value matrix with a shared subject row into keys.

    Equivalent to calling :func:`~repro.sketch.jem.pack_key` on every row,
    but the 32-bit range checks run once over the whole batch instead of
    once per trial, and the shift-or lands in ``out`` (typically a
    :func:`key_scratch` view) without intermediates.
    """
    values = np.asarray(values, dtype=np.uint64)
    if values.ndim != 2:
        raise SketchError("pack_keys_batched needs a (T, n) value matrix")
    subjects = np.asarray(subjects, dtype=np.uint64)
    if values.size and int(values.max()) >> 32:
        raise SketchError("sketch values must fit in 32 bits (k <= 16)")
    if subjects.size and int(subjects.max()) >> 32:
        raise SketchError("subject ids must fit in 32 bits")
    if out is None:
        out = np.empty(values.shape, dtype=np.uint64)
    np.left_shift(values, np.uint64(32), out=out)
    np.bitwise_or(out, subjects[None, :], out=out)
    return out


def sorted_unique_rows(keys: np.ndarray) -> list[np.ndarray]:
    """Per-row sorted deduplication of a 2-d key matrix.

    Returns ``[np.unique(keys[t]) for t in range(T)]`` computed with one
    row-wise in-place sort and one vectorised neighbour comparison over the
    whole matrix.  ``keys`` is clobbered (sorted in place) — pass a scratch
    view, not data you still need.  The returned arrays are fresh copies.
    """
    if keys.ndim != 2:
        raise SketchError("sorted_unique_rows needs a (T, n) key matrix")
    rows, cols = keys.shape
    if cols == 0:
        return [np.empty(0, dtype=np.uint64) for _ in range(rows)]
    keys.sort(axis=1)
    keep = np.empty(keys.shape, dtype=bool)
    keep[:, 0] = True
    np.not_equal(keys[:, 1:], keys[:, :-1], out=keep[:, 1:])
    return [keys[t, keep[t]] for t in range(rows)]


def trial_chunks(
    trials: int, n: int, *, with_levels: bool = True, budget: int | None = None
) -> list[range]:
    """Split ``range(trials)`` so each chunk's working set fits the budget.

    With ``with_levels=True`` (the subject kernel) a chunk of ``c`` trials
    over ``n`` columns materialises roughly ``c * n * log2(n)`` uint64
    entries of sparse-table levels; without (the reduceat-based query and
    MinHash kernels) the working set is just the ``c * n`` packed matrix.
    The chunk size is the largest ``c`` under ``budget`` (always at least
    1, so arbitrarily large inputs degrade to per-trial batching rather
    than failing).
    """
    if trials < 1:
        raise SketchError("trials must be >= 1")
    if budget is None:
        budget = MAX_BATCH_ELEMS  # looked up at call time so tests can shrink it
    levels = max(int(np.log2(n)) + 1, 1) if (with_levels and n > 1) else 1
    per_trial = max(n * levels, 1)
    chunk = max(int(budget // per_trial), 1)
    return [range(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
