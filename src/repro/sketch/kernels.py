"""Multi-trial helpers shared by the JEM and MinHash sketchers.

The S2 and S4 kernels themselves live in :mod:`repro.sketch.jem` (a C
kernel and one per-trial numpy oracle each, neither of which needs a
``(T, n)`` matrix); what is here is the ``(T, n)`` plumbing of the MinHash
sketchers and the packed-key constant they share with the JEM kernels:

* :func:`pack_keys_batched` — one validation pass then one shift-or over
  a whole trial matrix (replaces T ``pack_key`` calls, each of which
  re-scanned ``values.max()``);
* :func:`sorted_unique_rows` — one row-wise in-place sort plus a
  vectorised run-collapse (replaces T ``np.unique`` sorts);
* :func:`key_scratch` — a thread-local, geometrically grown ``uint64``
  buffer so repeated sketch calls stop reallocating ``(T, n)`` scratch;
* :func:`trial_chunks` — bounds the working set of a ``(T, n)`` pass:
  trials are processed in the largest chunks that keep the matrix under a
  fixed entry budget (per-chunk results are per-trial results, so chunking
  never changes output).
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import SketchError

__all__ = [
    "LOW32",
    "key_scratch",
    "pack_keys_batched",
    "sorted_unique_rows",
    "trial_chunks",
]

LOW32 = np.uint64(0xFFFFFFFF)

#: Working-set budget (uint64 entries) for one batched trial chunk.
#: 1 << 24 entries = 128 MB — large enough that the usual bench scales run
#: every trial in a single chunk, small enough that a whole-genome k-mer
#: list cannot blow up memory T-fold.
MAX_BATCH_ELEMS = 1 << 24

_scratch = threading.local()


def key_scratch(rows: int, cols: int) -> np.ndarray:
    """A reusable ``(rows, cols)`` ``uint64`` matrix view (thread-local).

    The buffer grows geometrically and is shared by every kernel call on
    the same thread, so steady-state sketching performs zero scratch
    allocations.  Callers must not let a view escape: anything returned to
    the caller of a kernel has to be a copy (the row-collapse in
    :func:`sorted_unique_rows` makes one naturally), and the next request
    invalidates earlier views.
    """
    if rows < 0 or cols < 0:
        raise SketchError("scratch dimensions must be non-negative")
    need = rows * cols
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < need:
        capacity = 1 << 12
        while capacity < need:
            capacity *= 2
        buf = _scratch.buf = np.empty(capacity, dtype=np.uint64)
    return buf[:need].reshape(rows, cols)


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


def trial_chunks(trials: int, n: int, *, budget: int | None = None) -> list[range]:
    """Split ``range(trials)`` so each chunk's working set fits the budget.

    A chunk of ``c`` trials over ``n`` columns materialises a ``c * n``
    packed matrix; the chunk size is the largest ``c`` under ``budget``
    (always at least 1, so arbitrarily large inputs degrade to per-trial
    batching rather than failing).
    """
    if trials < 1:
        raise SketchError("trials must be >= 1")
    if budget is None:
        budget = MAX_BATCH_ELEMS  # looked up at call time so tests can shrink it
    chunk = max(int(budget // max(n, 1)), 1)
    return [range(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
