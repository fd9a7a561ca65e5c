"""The minimizer-based Jaccard estimator (JEM) sketch — Algorithm 1.

Subjects (contigs): the minimizer list M_o(s, w) is computed, an interval of
length ℓ (the read end-segment length) slides over the minimizers *by
position*, and for every interval and every trial t the minimizer with the
smallest hash h_t becomes a sketch entry ``(k-mer, subject)`` in the trial-t
table.

Queries (read end segments): the segment is exactly ℓ long, so its whole
minimizer list is a single interval and each trial contributes one sketch
k-mer ("we then pick T JEM sketches in a similar fashion", Fig. 3).

Everything is batched across sequences *and across trials*: minimizer lists
are concatenated with per-sequence base offsets spaced far enough apart
that a positional interval can never cross a sequence boundary, one global
``searchsorted`` finds every interval, and the multi-trial kernels
(:mod:`repro.sketch.kernels`) answer all T trials per numpy dispatch — one
broadcasted hash pass, one 2-d sparse table whose interval bucketing is
shared by every trial, one row-wise dedupe.  The per-trial implementations
are retained as ``*_reference`` functions: they are the equivalence oracle
for the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SketchError
from ..seq.records import SequenceSet
from . import _native, kernels
from .hashing import HashFamily
from .kernels import LOW32 as _LOW32
from .kernels import key_scratch, sorted_unique_rows, trial_chunks
from .minimizers import MinimizerList, minimizers_set
from .rmq import SparseTableRMQ, SparseTableRMQ2D

__all__ = [
    "pack_key",
    "unpack_keys",
    "jem_sketch_single",
    "subject_sketch_pairs",
    "subject_sketch_pairs_reference",
    "subject_kernel",
    "subject_kernel_reference",
    "query_sketch_values",
    "query_sketch_values_reference",
    "query_kernel",
    "query_kernel_reference",
    "query_minimizer_concat",
    "QuerySketches",
]


def pack_key(values: np.ndarray, subjects: np.ndarray) -> np.ndarray:
    """Pack (sketch k-mer value, subject id) into one ``uint64`` key.

    Keys sort by value first, subject second, which is exactly the layout
    the per-trial sketch table needs for ``searchsorted`` lookups.
    """
    values = np.asarray(values, dtype=np.uint64)
    subjects = np.asarray(subjects, dtype=np.uint64)
    if values.size and int(values.max()) >> 32:
        raise SketchError("sketch values must fit in 32 bits (k <= 16)")
    if subjects.size and int(subjects.max()) >> 32:
        raise SketchError("subject ids must fit in 32 bits")
    return (values << np.uint64(32)) | subjects


def unpack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_key`: returns (values, subject ids)."""
    keys = np.asarray(keys, dtype=np.uint64)
    return keys >> np.uint64(32), (keys & _LOW32).astype(np.int64)


def jem_sketch_single(minis: MinimizerList, family: HashFamily) -> np.ndarray:
    """T sketch k-mers of one sequence treated as a single interval.

    Reference implementation used for queries of length ℓ and in tests; the
    batched :func:`query_sketch_values` must agree with it exactly.
    """
    if len(minis) == 0:
        raise SketchError("no minimizers to sketch")
    out = np.empty(family.size, dtype=np.uint64)
    for t in range(family.size):
        hashed = family.apply(t, minis.ranks)
        out[t] = minis.ranks[int(np.argmin(hashed))]
    return out


def _minimizer_block(
    sequences: SequenceSet, k: int, w: int, threads: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 1 for a whole set: every sequence's minimizers, back to back.

    Returns ``(ranks, positions, counts)`` — ``counts[i]`` minimizers of
    sequence i, positions relative to its own start.  One native rolling
    pass (over ``threads`` threads) when the compiled kernels are loaded;
    otherwise numpy :func:`minimizers_set`, the test oracle, concatenated —
    bit-identical.
    """
    if not 1 <= k <= 16:
        raise SketchError(f"minimizer extraction requires 1 <= k <= 16, got {k}")
    if w < 1:
        raise SketchError(f"window size must be >= 1, got {w}")
    if len(sequences) == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    native = _native.load()
    if native is not None:
        return native.minimizer_block(
            sequences.buffer, sequences.offsets, k, w, threads=threads
        )
    lists = minimizers_set(sequences, k, w)
    counts = np.fromiter((len(ml) for ml in lists), dtype=np.int64, count=len(lists))
    ranks = np.concatenate([ml.ranks for ml in lists])
    return ranks, np.concatenate([ml.positions for ml in lists]), counts


def _subject_minimizer_block(
    subjects: SequenceSet, k: int, w: int, ell: int, threads: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The subjects' minimizer block laid out for one global interval search.

    Returns ``(values, shifted_positions, owner)`` where ``owner[i]`` is the
    index of the sequence minimizer i came from.  Each non-empty sequence
    pushes the next one's positions up by its last position ``+ ell + 2``,
    so an interval ``[p, p + ell]`` never reaches the next sequence.
    """
    values, positions, counts = _minimizer_block(subjects, k, w, threads)
    ends = np.cumsum(counts)
    step = np.zeros(counts.size, dtype=np.int64)
    has = counts > 0
    step[has] = positions[ends[has] - 1] + (ell + 2)
    base = np.cumsum(step) - step
    positions += np.repeat(base, counts)
    owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    return values, positions, owner


def subject_sketch_pairs(
    subjects: SequenceSet,
    k: int,
    w: int,
    ell: int,
    family: HashFamily,
    *,
    subject_id_offset: int = 0,
    threads: int | None = None,
) -> list[np.ndarray]:
    """Algorithm 1 over a whole contig set, batched across trials (S2 kernel).

    For every contig, every sliding interval of length ℓ over its minimizer
    list and every trial t, the minimizer minimising h_t contributes a
    ``(k-mer value, global subject id)`` pair.  Duplicated pairs from
    overlapping intervals are removed.

    The minimizer block and its intervals are extracted once for all
    trials and the 32-bit range checks run once (not per trial, as in
    ``pack_key`` and the 1-d RMQ's packability scan); :func:`subject_kernel`
    does the rest, natively or in batched numpy.  Output is bit-identical
    to :func:`subject_sketch_pairs_reference` — asserted by the test suite.

    Returns one **sorted unique** packed-key array per trial — exactly the
    per-trial lists S[t] of Fig. 2, ready for the sketch table (and for the
    Allgatherv union in the parallel version, step S3).

    ``subject_id_offset`` maps local contig indices to global ids when each
    parallel rank sketches only its block of contigs (step S2).

    ``threads`` (None: :func:`~repro.sketch._native.thread_count`) is how
    many threads the native kernels split the block's sequences (S1) and
    its trials (S2) over — the paper's block partition in shared memory,
    joined in input order, so the lists are the same at any count.
    """
    values, positions, owner = _subject_minimizer_block(subjects, k, w, ell, threads)
    total = values.size
    if total == 0:
        return [np.empty(0, dtype=np.uint64) for _ in range(family.size)]
    if total >> 32:
        raise SketchError("minimizer count exceeds packed-key capacity")  # pragma: no cover
    # Hoisted validation: one pass over the minimizer values and subject ids
    # instead of one per trial inside pack_key / the argmin RMQ.
    if int(values.max()) >> 32:
        raise SketchError("sketch values must fit in 32 bits (k <= 16)")
    subject_ids = (owner + subject_id_offset).astype(np.uint64)
    if int(subject_ids[-1]) >> 32:
        raise SketchError("subject ids must fit in 32 bits")
    # Interval i spans minimizers with position in [p_i, p_i + ell]; offsets
    # guarantee the range stays inside sequence i's owner.
    ends = np.searchsorted(positions, positions + ell, side="right")
    return subject_kernel(values, ends, subject_ids, family, threads=threads)


def subject_kernel(
    values: np.ndarray,
    ends: np.ndarray,
    subject_ids: np.ndarray,
    family: HashFamily,
    *,
    threads: int | None = None,
) -> list[np.ndarray]:
    """The batched S2 kernel given pre-extracted minimizer intervals.

    Interval i is ``values[i : ends[i]]``; inputs must already satisfy the
    32-bit packing constraints (validated once by the caller).

    When the compiled fast path (:mod:`repro.sketch._native`) is
    available, each trial is one fused C sweep (Barrett-reduced LCG
    feeding a monotone-deque sliding minimum) that keeps a key only where
    it differs from the previous interval's and sorts the kept keys into
    the trial's list; trials go through it a few at a time, under the
    fixed :data:`~repro.sketch.kernels.SUBJECT_SCRATCH_ELEMS` budget, so
    no ``(T, n)`` key matrix exists, and each chunk's rows are divided
    between ``threads`` threads — the budget is shared, not multiplied.
    Otherwise the numpy path below runs.  Both produce bit-identical lists.
    """
    total = values.size
    native = _native.load()
    out: list[np.ndarray] = [np.empty(0, dtype=np.uint64)] * family.size
    if native is not None:
        values = np.ascontiguousarray(values, dtype=np.uint64)
        ends = np.ascontiguousarray(ends, dtype=np.int64)
        subject_ids = np.ascontiguousarray(subject_ids, dtype=np.uint64)
        budget = kernels.SUBJECT_SCRATCH_ELEMS  # read per call: tests shrink it
        for chunk in trial_chunks(family.size, total, with_levels=False, budget=budget):
            sub = family.trial_slice(chunk.start, chunk.stop)
            keys = key_scratch(len(chunk), total)
            counts = native.subject_keys(
                values, ends, subject_ids, sub, out=keys, threads=threads
            )
            for j, count in enumerate(counts):
                out[chunk.start + j] = keys[j, :count].copy()
        return out
    starts_idx = np.arange(total, dtype=np.int64)
    max_len = int((ends - starts_idx).max()) if total else 1
    uniq_vals, inverse = np.unique(values, return_inverse=True)
    # Hashing is division-bound, so when minimizers repeat (overlapping
    # contigs, genomic repeats) it is cheaper to hash the distinct values
    # and gather — identical values hash identically, so this is bit-exact.
    dedupe = uniq_vals.size <= total - (total >> 2)
    for chunk in trial_chunks(family.size, total):
        sub = family if len(chunk) == family.size else family.trial_slice(chunk.start, chunk.stop)
        # LCG outputs < 2^31, packable by construction.
        hashed = key_scratch(len(chunk), total, slot="hash")
        if dedupe:
            uniq_hashed = sub.apply_all(
                uniq_vals, out=key_scratch(len(chunk), uniq_vals.size, slot="uhash")
            )
            np.take(uniq_hashed, inverse, axis=1, out=hashed)
        else:
            sub.apply_all(values, out=hashed)
        rmq = SparseTableRMQ2D(
            hashed,
            track_argmin=True,
            values_packable=True,
            max_interval=max_len,
            workspace=True,
        )
        # The workspace build copied level 0 into its own scratch, so both
        # the hashed matrix and the keys slot are free to recycle here.
        packed = rmq.query_packed(starts_idx, ends, out=key_scratch(len(chunk), total))
        np.bitwise_and(packed, _LOW32, out=packed)  # keep the argmin columns
        keys = key_scratch(len(chunk), total, slot="hash")
        np.take(values, packed, out=keys)
        np.left_shift(keys, np.uint64(32), out=keys)
        np.bitwise_or(keys, subject_ids[None, :], out=keys)
        for j, uniq in enumerate(sorted_unique_rows(keys)):
            out[chunk.start + j] = uniq
    return out


def subject_kernel_reference(
    values: np.ndarray,
    ends: np.ndarray,
    subject_ids: np.ndarray,
    family: HashFamily,
) -> list[np.ndarray]:
    """Per-trial (pre-PR) S2 kernel: T rounds of hash, 1-d RMQ, np.unique."""
    total = values.size
    starts_idx = np.arange(total, dtype=np.int64)
    out: list[np.ndarray] = []
    for t in range(family.size):
        hashed = family.apply(t, values)
        rmq = SparseTableRMQ(hashed, track_argmin=True)
        idx, _ = rmq.query_argmin(starts_idx, ends)
        keys = pack_key(values[idx], subject_ids)
        out.append(np.unique(keys))
    return out


def subject_sketch_pairs_reference(
    subjects: SequenceSet,
    k: int,
    w: int,
    ell: int,
    family: HashFamily,
    *,
    subject_id_offset: int = 0,
) -> list[np.ndarray]:
    """Per-trial reference for :func:`subject_sketch_pairs`.

    The pre-kernel implementation: T rounds of hash-apply, a fresh 1-d
    :class:`~repro.sketch.rmq.SparseTableRMQ` build and an ``np.unique``
    sort.  Retained as the equivalence oracle for the property tests.
    """
    values, positions, owner = _subject_minimizer_block(subjects, k, w, ell)
    total = values.size
    if total == 0:
        return [np.empty(0, dtype=np.uint64) for _ in range(family.size)]
    if total >> 32:
        raise SketchError("minimizer count exceeds packed-key capacity")  # pragma: no cover
    ends = np.searchsorted(positions, positions + ell, side="right")
    subject_ids = (owner + subject_id_offset).astype(np.uint64)
    return subject_kernel_reference(values, ends, subject_ids, family)


@dataclass(frozen=True)
class QuerySketches:
    """Batched query sketches: per trial, one sketch k-mer per segment.

    ``values[t, i]`` is only meaningful where ``has[i]`` is true (segments
    with no valid minimizer — e.g. all-N — cannot be sketched and are
    reported unmapped).
    """

    values: np.ndarray  # (T, n_segments) uint64
    has: np.ndarray  # (n_segments,) bool

    @property
    def trials(self) -> int:
        return int(self.values.shape[0])

    def __len__(self) -> int:
        return int(self.values.shape[1])


def query_minimizer_concat(
    segments: SequenceSet, k: int, w: int, *, threads: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared query-side setup: concatenated ranks + segment bookkeeping.

    Returns ``(has, nonempty, values, starts)`` where ``values`` is the
    concatenation of every non-empty segment's minimizer ranks and
    ``starts`` the segment boundaries for ``minimum.reduceat``.  Public
    because the fused map path needs the *pre-sketch* minimizer block so
    the native kernel can hash, search and vote in one pass without a
    (T, n) matrix.
    """
    values, _, counts = _minimizer_block(segments, k, w, threads)
    if values.size >> 32:
        raise SketchError("too many minimizers for packed-key argmin")  # pragma: no cover
    has = counts > 0
    nonempty = np.flatnonzero(has)
    lengths = counts[nonempty]
    return has, nonempty, values, np.cumsum(lengths) - lengths


def query_sketch_values(
    segments: SequenceSet, k: int, w: int, family: HashFamily
) -> QuerySketches:
    """T sketch k-mers for every query segment, batched (S4 kernel).

    The ℓ-long end segment is one interval, so per trial the sketch is the
    minimizer of the whole segment under h_t.  One broadcasted ``(T, n)``
    hash pass and one segmented-minimum (``minimum.reduceat`` along axis 1)
    answer every trial at once; output is bit-identical to
    :func:`query_sketch_values_reference`.
    """
    has, nonempty, values, starts = query_minimizer_concat(segments, k, w)
    values_out = np.zeros((family.size, len(segments)), dtype=np.uint64)
    if nonempty.size == 0:
        return QuerySketches(values_out, has)
    values_out[:, nonempty] = query_kernel(values, starts, family)
    return QuerySketches(values_out, has)


def query_kernel(
    values: np.ndarray, starts: np.ndarray, family: HashFamily
) -> np.ndarray:
    """The batched S4 kernel: per-segment hash minima for every trial.

    ``values`` is the concatenation of the segments' minimizer ranks with
    segment boundaries at ``starts``; returns the ``(T, n_segments)``
    sketch value matrix.  Exposed separately for the same reason as
    :func:`subject_kernel`.

    When the compiled fast path (:mod:`repro.sketch._native`) is
    available, each trial is one fused C sweep — Barrett-reduced LCG hash
    and packed-key segment minimum in the same pass, no ``(T, n)``
    intermediate at all; otherwise the numpy path below runs.  Outputs
    are bit-identical either way.
    """
    total = values.size
    native = _native.load()
    out = np.empty((family.size, starts.size), dtype=np.uint64)
    if native is not None:
        values = np.ascontiguousarray(values, dtype=np.uint64)
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        native.query_values(values, starts, family, out=out)
        return out
    index_col = np.arange(total, dtype=np.uint64)[:, None]
    uniq_vals, inverse = np.unique(values, return_inverse=True)
    # Read end-segments overlap on the genome, so query minimizers repeat
    # heavily; hash each distinct value once and gather (bit-exact — equal
    # values hash equally, and ties still break on the original index).
    dedupe = uniq_vals.size <= total - (total >> 2)
    for chunk in trial_chunks(family.size, total, with_levels=False):
        sub = family if len(chunk) == family.size else family.trial_slice(chunk.start, chunk.stop)
        # (n, T) layout: the row gather below is a contiguous memcpy per
        # occurrence and the segmented min sweeps memory sequentially.
        packed = key_scratch(total, len(chunk))
        if dedupe:
            hashed = sub.apply_all_transposed(
                uniq_vals, out=key_scratch(uniq_vals.size, len(chunk), slot="uhash")
            )
            np.left_shift(hashed, np.uint64(32), out=hashed)
            np.take(hashed, inverse, axis=0, out=packed)
        else:
            sub.apply_all_transposed(values, out=packed)
            np.left_shift(packed, np.uint64(32), out=packed)
        np.bitwise_or(packed, index_col, out=packed)
        mins = np.minimum.reduceat(packed, starts, axis=0)  # (n_segments, c)
        out[chunk.start : chunk.stop] = values[(mins & _LOW32).astype(np.int64)].T
    return out


def query_kernel_reference(
    values: np.ndarray, starts: np.ndarray, family: HashFamily
) -> np.ndarray:
    """Per-trial (pre-PR) S4 kernel: T loop bodies of hash + pack + reduceat."""
    index = np.arange(values.size, dtype=np.uint64)
    out = np.empty((family.size, starts.size), dtype=np.uint64)
    for t in range(family.size):
        packed = (family.apply(t, values) << np.uint64(32)) | index
        mins = np.minimum.reduceat(packed, starts)
        out[t] = values[(mins & _LOW32).astype(np.int64)]
    return out


def query_sketch_values_reference(
    segments: SequenceSet, k: int, w: int, family: HashFamily
) -> QuerySketches:
    """Per-trial reference for :func:`query_sketch_values`.

    T loop bodies of hash + pack + ``reduceat``; retained as the test
    oracle.
    """
    has, nonempty, values, starts = query_minimizer_concat(segments, k, w)
    values_out = np.zeros((family.size, len(segments)), dtype=np.uint64)
    if nonempty.size == 0:
        return QuerySketches(values_out, has)
    values_out[:, nonempty] = query_kernel_reference(values, starts, family)
    return QuerySketches(values_out, has)
