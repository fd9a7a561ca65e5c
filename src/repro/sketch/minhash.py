"""Classical MinHash sketches (Broder 1997) — the paper's baseline scheme.

For each trial ``t`` the sketch of a sequence is the k-mer minimising
``h_t`` over *all* its (canonical) k-mers — no windowing, no intervals.
This is the scheme Fig. 6 of the paper contrasts against JEM: because the
chosen k-mer can come from anywhere in a long contig, it often falls outside
the true overlap region with a 1000 bp read segment, which is why it needs
many more trials to reach the same recall.
"""

from __future__ import annotations

import numpy as np

from ..errors import SketchError
from ..seq.records import SequenceSet
from .hashing import HashFamily
from .kernels import trial_chunks
from .kmers import canonical_kmer_ranks

__all__ = ["minhash_sketch", "minhash_sketch_set", "jaccard", "minhash_jaccard_estimate"]


def minhash_sketch(codes: np.ndarray, k: int, family: HashFamily) -> np.ndarray:
    """The classical T-trial MinHash sketch of one sequence.

    Returns a ``uint64`` array of length T holding, per trial, the packed
    value of the k-mer with the smallest hash.  Raises when the sequence has
    no valid k-mer.
    """
    canon, valid = canonical_kmer_ranks(codes, k)
    kmers = np.unique(canon[valid])
    if kmers.size == 0:
        raise SketchError("sequence has no valid k-mer to sketch")
    # One broadcasted hash pass; row-wise argmin keeps the per-trial
    # first-minimum tie-break (np.argmin is leftmost along the axis).
    return kmers[np.argmin(family.apply_all(kmers), axis=1)]


def minhash_sketch_set(
    sequences: SequenceSet,
    k: int,
    family: HashFamily,
    *,
    minimizer_w: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """MinHash sketches of every sequence in a set.

    Per-sequence k-mer sets are concatenated and *all* trials are answered
    at once: one broadcasted hash pass over the ``(T, n)`` matrix and one
    segmented-minimum (``np.minimum.reduceat`` along axis 1).

    ``minimizer_w`` switches the base set from *all* canonical k-mers to
    the (w, k)-minimizer set — the "minimizer MinHash" middle ground
    between Broder's scheme and JEM, used by the ingredient ablation.

    Returns
    -------
    (sketches, has):
        ``sketches`` is ``(T, n)`` ``uint64``; ``has`` is a bool mask, false
        for sequences with no valid k-mer (their column is undefined).
    """
    n = len(sequences)
    trials = family.size
    sketches = np.zeros((trials, n), dtype=np.uint64)
    has = np.zeros(n, dtype=bool)
    per_seq: list[np.ndarray] = []
    for i in range(n):
        if minimizer_w is not None:
            from .minimizers import minimizers

            kmers = np.unique(minimizers(sequences.codes_of(i), k, minimizer_w).ranks)
        else:
            canon, valid = canonical_kmer_ranks(sequences.codes_of(i), k)
            kmers = np.unique(canon[valid])
        per_seq.append(kmers)
        has[i] = kmers.size > 0
    nonempty = np.flatnonzero(has)
    if nonempty.size == 0:
        return sketches, has
    values = np.concatenate([per_seq[i] for i in nonempty])
    lengths = np.fromiter((per_seq[i].size for i in nonempty), dtype=np.int64)
    starts = np.zeros(nonempty.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    if values.size >> 32:
        raise SketchError("too many k-mers for packed-key argmin")  # pragma: no cover
    index = np.arange(values.size, dtype=np.uint64)
    for chunk in trial_chunks(trials, values.size):
        sub = family if len(chunk) == trials else family.trial_slice(chunk.start, chunk.stop)
        packed = sub.apply_all(values)
        np.left_shift(packed, np.uint64(32), out=packed)
        np.bitwise_or(packed, index[None, :], out=packed)
        mins = np.minimum.reduceat(packed, starts, axis=1)
        sketches[chunk.start : chunk.stop, nonempty] = values[
            (mins & np.uint64(0xFFFFFFFF)).astype(np.int64)
        ]
    return sketches, has


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard similarity of two value sets (deduplicated)."""
    a = np.unique(np.asarray(a))
    b = np.unique(np.asarray(b))
    if a.size == 0 and b.size == 0:
        return 1.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / float(a.size + b.size - inter)


def minhash_jaccard_estimate(sketch_a: np.ndarray, sketch_b: np.ndarray) -> float:
    """Fraction of trials on which two sketches agree — estimates Jaccard.

    Broder's identity: P(min h_t(A) = min h_t(B)) = J(A, B), so the match
    fraction over T trials is an unbiased estimator of the Jaccard
    similarity between the underlying k-mer sets.
    """
    sketch_a = np.asarray(sketch_a)
    sketch_b = np.asarray(sketch_b)
    if sketch_a.shape != sketch_b.shape:
        raise SketchError("sketch length mismatch")
    if sketch_a.size == 0:
        raise SketchError("empty sketches")
    return float(np.count_nonzero(sketch_a == sketch_b)) / sketch_a.size
