"""Interior (tiled) query segments — the contained-contig extension.

Section III-B.1's caveat: "for non-scaffolding applications, this
segment-based approach may not apply to cases where a contig may be
completely contained within an interior region of a long read.  In such
cases, an extension of the approach will be needed."

This module is that extension: in addition to the two end segments, the
read interior is tiled with ℓ-length segments at a configurable stride, so
a short contig lying wholly inside a long read still receives query
sketches drawn from its locus.  :func:`map_reads_tiled` aggregates the
per-tile best hits into the set of *all* contigs a read covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import SequenceError
from ..seq.records import SequenceSet, SequenceSetBuilder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Mapper

__all__ = ["TileInfo", "extract_tiled_segments", "map_reads_tiled"]


@dataclass(frozen=True)
class TileInfo:
    """Provenance of one tiled segment."""

    read_index: int
    offset: int  # start of the tile within the read


def extract_tiled_segments(
    reads: SequenceSet, ell: int, *, stride: int | None = None
) -> tuple[SequenceSet, list[TileInfo]]:
    """Tile every read with ℓ-length segments (stride defaults to ℓ).

    The first tile is the read prefix and the last tile is the read suffix
    (it is shifted left so it never runs past the read end), so end-segment
    behaviour is a strict subset of tiled behaviour.
    """
    if ell < 1:
        raise SequenceError(f"segment length must be >= 1, got {ell}")
    stride = ell if stride is None else stride
    if stride < 1:
        raise SequenceError(f"stride must be >= 1, got {stride}")
    builder = SequenceSetBuilder()
    infos: list[TileInfo] = []
    for i in range(len(reads)):
        codes = reads.codes_of(i)
        n = codes.size
        if n == 0:
            raise SequenceError(f"read {reads.names[i]!r} is empty")
        meta = reads.metas[i]
        offsets = list(range(0, max(n - ell, 0) + 1, stride))
        if offsets[-1] != max(n - ell, 0):
            offsets.append(max(n - ell, 0))
        for off in offsets:
            seg = codes[off : off + ell]
            tile_meta = {"kind": "tile", "offset": off}
            if "ref_start" in meta and "ref_end" in meta:
                strand = int(meta.get("ref_strand", 1))
                if strand == 1:
                    tile_meta["ref_start"] = int(meta["ref_start"]) + off
                else:
                    tile_meta["ref_start"] = int(meta["ref_end"]) - off - seg.size
                tile_meta["ref_end"] = tile_meta["ref_start"] + seg.size
                tile_meta["ref_strand"] = strand
            builder.add(f"{reads.names[i]}/tile{off}", seg, tile_meta)
            infos.append(TileInfo(read_index=i, offset=off))
    return builder.build(), infos


def map_reads_tiled(
    mapper: "Mapper",
    reads: SequenceSet,
    *,
    stride: int | None = None,
    min_tile_hits: int | None = None,
) -> list[dict[int, int]]:
    """All contigs covered by each read, via tiled mapping.

    Returns one dict per read: ``{contig_id: supporting tiles}``.  A contig
    contained in the read interior shows up here even though neither end
    segment touches it.  ``mapper`` is any indexed
    :class:`~repro.core.engine.Mapper` (an engine's resident
    :attr:`~repro.core.engine.MappingEngine.mapper`, say); ℓ comes from the
    mapper's config (or its ``ell`` attribute).
    """
    ell = int(getattr(getattr(mapper, "config", mapper), "ell"))
    segments, infos = extract_tiled_segments(reads, ell, stride=stride)
    result = mapper.map_segments(segments)
    per_read: list[dict[int, int]] = [dict() for _ in range(len(reads))]
    for row, info in enumerate(infos):
        subject = int(result.subject[row])
        if subject < 0:
            continue
        bucket = per_read[info.read_index]
        bucket[subject] = bucket.get(subject, 0) + 1
    if min_tile_hits is not None and min_tile_hits > 1:
        per_read = [
            {c: n for c, n in bucket.items() if n >= min_tile_hits}
            for bucket in per_read
        ]
    return per_read
