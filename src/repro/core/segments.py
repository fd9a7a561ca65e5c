"""End-segment extraction (Section III-B.1).

Instead of sketching a whole long read, JEM-mapper maps only its two end
segments: the first ℓ bases (prefix) and the last ℓ bases (suffix).  A read
set of m reads therefore becomes a query set of 2m segments of length ℓ.

Ground-truth coordinates attached by the read simulator (``ref_start``,
``ref_end``, ``ref_strand`` in the record meta) are propagated to each
segment so the evaluation can place the segment on the reference exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SequenceError
from ..seq.records import SequenceSet

__all__ = ["PREFIX", "SUFFIX", "SegmentInfo", "extract_end_segments"]

#: Segment-kind markers stored in segment meta and names.
PREFIX = "prefix"
SUFFIX = "suffix"


@dataclass(frozen=True)
class SegmentInfo:
    """Bookkeeping for one extracted segment."""

    read_index: int
    kind: str  # PREFIX or SUFFIX


def _segment_meta(read_meta: dict, kind: str, read_len: int, ell: int) -> dict:
    """Segment meta, including projected reference coordinates when known."""
    meta = {"kind": kind}
    if "ref_start" in read_meta and "ref_end" in read_meta:
        start = int(read_meta["ref_start"])
        end = int(read_meta["ref_end"])
        strand = int(read_meta.get("ref_strand", 1))
        seg_len = min(ell, read_len)
        # A prefix of the read corresponds to the reference interval at the
        # read's start for forward reads, and at its end for reverse reads.
        at_start = (kind == PREFIX) == (strand == 1)
        if at_start:
            meta["ref_start"], meta["ref_end"] = start, min(start + seg_len, end)
        else:
            meta["ref_start"], meta["ref_end"] = max(end - seg_len, start), end
        meta["ref_strand"] = strand
        if "ref_name" in read_meta:
            meta["ref_name"] = read_meta["ref_name"]
    return meta


def extract_end_segments(
    reads: SequenceSet, ell: int
) -> tuple[SequenceSet, list[SegmentInfo]]:
    """Build the 2m-segment query set Q from m long reads.

    Reads shorter than ℓ contribute their full sequence as both prefix and
    suffix (the two segments then coincide, which is what mapping the "ends"
    of such a read degenerates to).  Empty reads are rejected.  The 2m
    source ranges are worked out from the offsets at once.  A read the
    parser trimmed to its two ℓ-base ends (``iter_fasta(..., ends=ℓ)``)
    gives the same segments and metas — a length enters only as
    ``min(ℓ, n)`` — and a batch of only such reads is its own segment
    buffer: the segment set is a view of it, not a copy.

    Returns
    -------
    (segments, infos):
        ``segments[2*i]`` is read i's prefix, ``segments[2*i + 1]`` its
        suffix; ``infos`` parallels the segment set.
    """
    if ell < 1:
        raise SequenceError(f"segment length must be >= 1, got {ell}")
    lengths = reads.lengths
    seg_len = np.minimum(lengths, ell)
    if not seg_len.all():
        raise SequenceError(f"read {reads.names[int(np.argmin(seg_len))]!r} is empty")
    m = len(reads)
    lo = np.empty(2 * m, dtype=np.int64)
    lo[0::2] = reads.offsets[:-1]
    lo[1::2] = reads.offsets[1:] - seg_len
    seg_lens = np.repeat(seg_len, 2)
    hi = lo + seg_lens
    offsets = np.zeros(2 * m + 1, dtype=np.int64)
    np.cumsum(seg_lens, out=offsets[1:])
    # Segments that lie back to back in the read buffer form one run: a
    # read of exactly 2ℓ codes (every read of 2ℓ bases or more the parser
    # trimmed to its ends) and any run of such reads.  One run is a view of
    # the buffer; reads whose ends overlap or lie apart break the runs, and
    # the runs are then copied out by one concatenate.
    cuts = np.flatnonzero(lo[1:] != hi[:-1]) + 1  # where a run starts, after the first
    if not m:
        buffer = reads.buffer[:0]
    elif not cuts.size:
        buffer = reads.buffer[lo[0] : hi[-1]]
    else:
        runs = zip(lo[np.append(0, cuts)].tolist(), hi[np.append(cuts, 2 * m) - 1].tolist())
        buffer = np.concatenate([reads.buffer[a:b] for a, b in runs])
    kinds = (PREFIX, SUFFIX)
    return (
        SequenceSet(
            buffer,
            offsets,
            [f"{name}/{kind}" for name in reads.names for kind in kinds],
            [
                _segment_meta(meta, kind, n, ell)
                for meta, n in zip(reads.metas, lengths.tolist())
                for kind in kinds
            ],
        ),
        [SegmentInfo(read_index=i, kind=kind) for i in range(m) for kind in kinds],
    )
