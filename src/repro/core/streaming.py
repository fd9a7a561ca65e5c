"""Batched query mapping — the one loop ``jem map`` runs, in bounded memory.

The paper's real-data input (O. sativa) has 532 K reads / 10.5 Gbp, and the
mapper only ever needs the two ℓ-long ends of a read.  Reads are therefore
mapped as the parser yields them, in batches cut by *bases*:
:func:`map_reads_stream` consumes any record iterator and yields one result
per batch, :func:`map_file` feeds it from a FASTA/FASTQ path.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from ..errors import MappingError
from ..seq.io_fasta import ParseReport, iter_fasta
from ..seq.records import SeqRecord, SequenceSetBuilder
from .mapper import MappingResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Mapper

__all__ = ["BATCH_BASES", "iter_records", "map_reads_stream", "map_file"]

#: Bases per mapped batch (≈ 200 HiFi reads): per-batch kernel set-up is
#: ≈ 1 ms, and a batch — resident twice while it is concatenated — is 4 MB.
#: `jem map` has no flag for it; a read longer than this is a batch alone.
BATCH_BASES = 1 << 21


def iter_records(
    path: str, *, on_error: str = "raise", report: ParseReport | None = None
) -> Iterator[SeqRecord]:
    """Records of a FASTA or FASTQ file (by extension; gzip ok), streaming."""
    if path.endswith((".fq", ".fastq", ".fq.gz", ".fastq.gz")):
        from ..seq.io_fastq import iter_fastq

        return iter_fastq(path, on_error=on_error, report=report)
    return iter_fasta(path, on_error=on_error, report=report)


def map_reads_stream(
    mapper: "Mapper",
    records: Iterable[SeqRecord],
    *,
    batch_bases: int | None = None,
) -> Iterator[MappingResult]:
    """Yield one :class:`MappingResult` per batch of reads.

    ``mapper`` is any indexed :class:`~repro.core.engine.Mapper`.  A batch
    is closed before the read that would take it past ``batch_bases``
    (default :data:`BATCH_BASES`).  Segment rows follow the usual layout
    (two per read, prefix first), in input order across batches;
    ``infos[i].read_index`` is the index *within the batch*.
    """
    if batch_bases is None:
        batch_bases = BATCH_BASES
    if batch_bases < 1:
        raise MappingError(f"batch_bases must be >= 1, got {batch_bases}")
    if not getattr(mapper, "is_indexed", True):
        raise MappingError("index() must be called before streaming")
    builder = SequenceSetBuilder()
    bases = 0
    for record in records:
        if len(builder) and bases + len(record) > batch_bases:
            yield mapper.map_reads(builder.build())
            builder = SequenceSetBuilder()
            bases = 0
        builder.add(record.name, record.codes, record.meta)
        bases += len(record)
    if len(builder):
        yield mapper.map_reads(builder.build())


def map_file(
    mapper: "Mapper",
    path: str,
    *,
    on_error: str = "raise",
    report: ParseReport | None = None,
    batch_bases: int | None = None,
) -> Iterator[MappingResult]:
    """Stream-map a FASTA/FASTQ file (gzip ok) against an indexed mapper.

    ``on_error`` / ``report`` are the parser policy and skip tally of
    :func:`~repro.seq.io_fasta.iter_fasta`.
    """
    records = iter_records(path, on_error=on_error, report=report)
    return map_reads_stream(mapper, records, batch_bases=batch_bases)
