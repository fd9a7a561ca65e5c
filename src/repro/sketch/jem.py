"""The minimizer-based Jaccard estimator (JEM) sketch — Algorithm 1.

Subjects (contigs): the minimizer list M_o(s, w) is computed, an interval of
length ℓ (the read end-segment length) slides over the minimizers *by
position*, and for every interval and every trial t the minimizer with the
smallest hash h_t becomes a sketch entry ``(k-mer, subject)`` in the trial-t
table.

Queries (read end segments): the segment is exactly ℓ long, so its whole
minimizer list is a single interval and each trial contributes one sketch
k-mer ("we then pick T JEM sketches in a similar fashion", Fig. 3).

Minimizer lists are concatenated across sequences with per-sequence base
offsets spaced far enough apart that a positional interval can never cross
a sequence boundary, and one global ``searchsorted`` finds every interval.
From there each stage has two implementations: the C kernel
(:mod:`repro.sketch._native`) that :func:`subject_kernel` and
:func:`query_kernel` call when it is loaded, and one per-trial numpy
function (``*_kernel_reference``) that is both the oracle the test suite
holds the C to and what runs on a host with no compiler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SketchError
from ..seq.records import SequenceSet
from . import _native
from .hashing import HashFamily
from .kernels import LOW32 as _LOW32, sorted_unique_rows
from .minimizers import MinimizerList, minimizers_set

__all__ = [
    "pack_key",
    "unpack_keys",
    "jem_sketch_single",
    "subject_sketch_pairs",
    "subject_intervals",
    "subject_kernel",
    "subject_kernel_reference",
    "query_sketch_values",
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


def subject_intervals(
    subjects: SequenceSet,
    k: int,
    w: int,
    ell: int,
    *,
    subject_id_offset: int = 0,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S1 of Algorithm 1 over a contig set: ``(values, ends, subject_ids)``,
    :func:`subject_kernel`'s input.

    Interval i is ``values[i : ends[i]]``: the minimizers whose position
    lies in ``[p_i, p_i + ℓ]`` of the contig minimizer i came from, whose
    global id is ``subject_ids[i]``.  The 32-bit range checks the kernel
    relies on run here, once.  Nothing returned refers to ``subjects``'
    codes, so a caller that lets the set go has freed them before S2.
    """
    values, positions, owner = _subject_minimizer_block(subjects, k, w, ell, threads)
    if values.size >> 32:
        raise SketchError("minimizer count exceeds packed-key capacity")  # pragma: no cover
    # Hoisted validation: one pass over the minimizer values and subject
    # ids; the native kernel checks neither.
    if values.size and int(values.max()) >> 32:
        raise SketchError("sketch values must fit in 32 bits (k <= 16)")
    subject_ids = (owner + subject_id_offset).astype(np.uint64)
    if subject_ids.size and int(subject_ids[-1]) >> 32:
        raise SketchError("subject ids must fit in 32 bits")
    # Interval i spans minimizers with position in [p_i, p_i + ell]; offsets
    # guarantee the range stays inside sequence i's owner.
    ends = np.searchsorted(positions, positions + ell, side="right")
    return values, ends, subject_ids


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
    """Algorithm 1 over a whole contig set (S2).

    For every contig, every sliding interval of length ℓ over its minimizer
    list and every trial t, the minimizer minimising h_t contributes a
    ``(k-mer value, global subject id)`` pair.  Duplicated pairs from
    overlapping intervals are removed.

    The minimizer block and its intervals are extracted once for all
    trials (:func:`subject_intervals`); :func:`subject_kernel` does the
    rest.

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
    intervals = subject_intervals(
        subjects, k, w, ell, subject_id_offset=subject_id_offset, threads=threads
    )
    return subject_kernel(*intervals, family, threads=threads)


def subject_kernel(
    values: np.ndarray,
    ends: np.ndarray,
    subject_ids: np.ndarray,
    family: HashFamily,
    *,
    threads: int | None = None,
) -> list[np.ndarray]:
    """The S2 kernel given pre-extracted minimizer intervals.

    Interval i is ``values[i : ends[i]]``; inputs must already satisfy the
    32-bit packing constraints (validated once by the caller).

    When the compiled fast path (:mod:`repro.sketch._native`) is
    available, each trial is one fused C sweep (Barrett-reduced LCG
    feeding a branch-free block-scan window minimum) that keeps a key only
    where it differs from the previous interval's and sorts the kept keys
    into the trial's list; the trials are spread over ``threads`` threads,
    each with its own two ``n``-entry buffers, so no ``(T, n)`` key matrix
    exists.  Otherwise :func:`subject_kernel_reference` runs.  Both
    produce bit-identical lists.
    """
    if values.size == 0:
        return [np.empty(0, dtype=np.uint64) for _ in range(family.size)]
    native = _native.load()
    if native is None:
        return subject_kernel_reference(values, ends, subject_ids, family)
    return native.subject_keys(
        np.ascontiguousarray(values, dtype=np.uint64),
        np.ascontiguousarray(ends, dtype=np.int64),
        np.ascontiguousarray(subject_ids, dtype=np.uint64),
        family,
        threads=threads,
    )


def subject_kernel_reference(
    values: np.ndarray,
    ends: np.ndarray,
    subject_ids: np.ndarray,
    family: HashFamily,
) -> list[np.ndarray]:
    """Per-trial numpy S2 kernel: the test oracle and the no-compiler fallback.

    Per trial, ``(hash << 32) | index`` keys make the minimum of an
    interval its leftmost hash argmin, and one ``minimum.reduceat`` over
    the interleaved bounds ``i, ends[i], i + 1, ends[i + 1], …`` reduces
    every ``[i, ends[i])`` (the even outputs; the odd ones are discarded).
    A bound may equal ``n``, so the keys carry one sentinel slot past the
    end.
    """
    n = values.size
    index = np.arange(n, dtype=np.uint64)
    bounds = np.stack([np.arange(n, dtype=np.int64), ends], axis=1).ravel()
    sentinel = np.uint64(np.iinfo(np.uint64).max)
    out: list[np.ndarray] = []
    for t in range(family.size):
        # LCG outputs < 2^31, packable by construction.
        packed = np.append((family.apply(t, values) << np.uint64(32)) | index, sentinel)
        mins = np.minimum.reduceat(packed, bounds)[0::2]
        idx = (mins & _LOW32).astype(np.int64)
        # sort + run-boundary mask: np.unique would import numpy.ma
        out.append(sorted_unique_rows(pack_key(values[idx], subject_ids)[None, :])[0])
    return out


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
    """T sketch k-mers for every query segment (S4 sketch).

    The ℓ-long end segment is one interval, so per trial the sketch is the
    minimizer of the whole segment under h_t; :func:`query_kernel` finds
    it for every segment of the concatenated minimizer block at once.
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
    """The S4 sketch kernel: per-segment hash minima for every trial.

    ``values`` is the concatenation of the segments' minimizer ranks with
    segment boundaries at ``starts``; returns the ``(T, n_segments)``
    sketch value matrix.  Exposed separately for the same reason as
    :func:`subject_kernel`.

    When the compiled fast path (:mod:`repro.sketch._native`) is
    available, each trial is one fused C sweep — Barrett-reduced LCG hash
    and packed-key segment minimum in the same pass, no ``(T, n)``
    intermediate at all; otherwise :func:`query_kernel_reference` runs.
    Outputs are bit-identical either way.
    """
    native = _native.load()
    if native is None:
        return query_kernel_reference(values, starts, family)
    out = np.empty((family.size, starts.size), dtype=np.uint64)
    values = np.ascontiguousarray(values, dtype=np.uint64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    native.query_values(values, starts, family, out=out)
    return out


def query_kernel_reference(
    values: np.ndarray, starts: np.ndarray, family: HashFamily
) -> np.ndarray:
    """Per-trial numpy S4 sketch kernel: hash, pack with the index, one
    ``minimum.reduceat`` over the segment starts — the test oracle and the
    no-compiler fallback."""
    index = np.arange(values.size, dtype=np.uint64)
    out = np.empty((family.size, starts.size), dtype=np.uint64)
    for t in range(family.size):
        packed = (family.apply(t, values) << np.uint64(32)) | index
        mins = np.minimum.reduceat(packed, starts)
        out[t] = values[(mins & _LOW32).astype(np.int64)]
    return out
