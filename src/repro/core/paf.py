"""PAF output — the de-facto interchange format for mapping results.

JEM-mapper's native output is ⟨segment, contig⟩ pairs; downstream tools
(scaffolders, viewers) speak PAF (the Pairwise mApping Format used by
minimap2 and Mashmap).  This writer reconstructs the coordinate fields by
anchor-placing each mapped segment on its contig, and converts the
trial-collision count into an approximate mapping quality.

PAF columns: qname qlen qstart qend strand tname tlen tstart tend
residue_matches alignment_length mapq (+ optional tags).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TextIO

from ..align.identity import locate_segment
from ..errors import MappingError
from ..seq.records import SequenceSet
from .mapper import MappingResult

__all__ = ["paf_records", "write_paf"]


def _mapq(hit_count: int, trials: int) -> int:
    """Map trial support to a 0-60 quality (saturating, minimap2-style cap)."""
    if trials <= 0:
        return 0
    return int(round(60.0 * min(hit_count / trials, 1.0)))


def paf_records(
    result: MappingResult,
    segments: SequenceSet,
    contigs: SequenceSet,
    *,
    trials: int,
    k: int = 16,
    w: int = 20,
) -> Iterable[str]:
    """Yield one PAF line per mapped segment (unmapped segments skipped)."""
    if len(result) != len(segments):
        raise MappingError(
            f"result has {len(result)} rows for {len(segments)} segments"
        )
    for i in range(len(result)):
        subject = int(result.subject[i])
        if subject < 0:
            continue
        seg = segments.codes_of(i)
        contig = contigs.codes_of(subject)
        placed = locate_segment(seg, contig, k, w)
        if placed is None:
            # mapped by sketch collision but unplaceable by anchors: emit a
            # coordinate-less stub covering the whole query
            qlo, qhi, clo, chi, strand = 0, seg.size, 0, min(seg.size, contig.size), 1
        else:
            qlo, qhi, clo, chi, strand = placed
        span = max(chi - clo, 1)
        matches = min(qhi - qlo, span)
        yield "\t".join(
            [
                result.segment_names[i],
                str(seg.size),
                str(qlo),
                str(qhi),
                "+" if strand == 1 else "-",
                contigs.names[subject],
                str(int(contig.size)),
                str(clo),
                str(chi),
                str(matches),
                str(span),
                str(_mapq(int(result.hit_count[i]), trials)),
                f"nh:i:{int(result.hit_count[i])}",
            ]
        )


def write_paf(
    handle: TextIO,
    result: MappingResult,
    segments: SequenceSet,
    contigs: SequenceSet,
    *,
    trials: int,
    k: int = 16,
    w: int = 20,
) -> int:
    """Write PAF lines to an open text handle; returns the record count."""
    count = 0
    for line in paf_records(result, segments, contigs, trials=trials, k=k, w=w):
        handle.write(line + "\n")
        count += 1
    return count
