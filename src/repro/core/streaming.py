"""Bounded batches of records — the one loop under ``jem map`` and the index build.

The paper's real-data input (O. sativa) has 532 K reads / 10.5 Gbp, and the
mapper only ever needs the two ℓ-long ends of a read.  Records are therefore
consumed as the parser yields them, in batches cut by *bases*
(:func:`iter_batches`): reads go to S4 (:func:`map_reads_stream` yields one
result per batch, :func:`map_file` feeds it from a FASTA/FASTQ path) and
contigs to S2 (:meth:`~repro.core.mapper.JEMMapper.index_partitioned`).
A checkpointed run commits the same batches, cut at :func:`unit_bases`.

:func:`map_file` has the parser keep only each read's two ℓ-base ends
(``iter_file_batches(..., ends=ℓ)``): a batch holds at most 2ℓ codes a read,
while its boundaries are still cut at the reads' full base counts
(:attr:`~repro.seq.records.SeqRecord.bases`), so batches, checkpoint units
and output are the same as over whole reads.  A FASTA file's batches are
cut from the compiled parser's record blocks, with no record object per
sequence; FASTQ and record iterables go through :func:`iter_batches`.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from typing import TYPE_CHECKING

from ..errors import MappingError
from ..seq.io_fasta import ParseReport, RecordBlock, iter_fasta, iter_fasta_blocks
from ..seq.records import SeqRecord, SequenceSet, SequenceSetBuilder
from .mapper import MappingResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Mapper

__all__ = [
    "BATCH_BASES", "MIN_UNITS", "unit_bases", "iter_records", "iter_batches",
    "iter_file_batches", "map_reads_stream", "map_file",
]

#: Bases per batch (≈ 200 HiFi reads, ≈ 800 contigs): enough kernel work —
#: ≈ 4 ms of S1 + S4 over the reads' end segments — to be worth a second
#: thread.  A contig block, resident twice while it is concatenated, is 4 MB;
#: a read batch holds only its reads' ends (2ℓ codes a read, ≈ 0.4 MB).
#: No command has a flag for it; a sequence longer than this is a batch alone.
BATCH_BASES = 1 << 21

#: Fewest batches a checkpointed run cuts an input into, file size permitting:
#: a large input checkpoints at the production batches, a small one still
#: commits several units.
MIN_UNITS = 8


def unit_bases(path: str) -> int:
    """Batch size of a checkpointed run over ``path``: :data:`BATCH_BASES`, or
    less so that the file's bytes give at least :data:`MIN_UNITS` batches.

    Output does not depend on it (blocks and batches are bit-identical at any
    size); the run's manifest records it, and the kill-resume tests count units
    by it (``tests/chaos_harness.py``).
    """
    return max(1, min(BATCH_BASES, os.path.getsize(path) // MIN_UNITS))


def _is_fastq(path: str) -> bool:
    return path.endswith((".fq", ".fastq", ".fq.gz", ".fastq.gz"))


def iter_records(
    path: str,
    *,
    on_error: str = "raise",
    report: ParseReport | None = None,
    ends: int | None = None,
) -> Iterator[SeqRecord]:
    """Records of a FASTA or FASTQ file (by extension; gzip ok), streaming;
    ``ends`` is the parsers' (:func:`~repro.seq.io_fasta.iter_fasta`)."""
    if _is_fastq(path):
        from ..seq.io_fastq import iter_fastq

        return iter_fastq(path, on_error=on_error, report=report, ends=ends)
    return iter_fasta(path, on_error=on_error, report=report, ends=ends)


def _budget(batch_bases: int | None) -> int:
    if batch_bases is None:
        return BATCH_BASES
    if batch_bases < 1:
        raise MappingError(f"batch_bases must be >= 1, got {batch_bases}")
    return batch_bases


def iter_batches(
    records: Iterable[SeqRecord], batch_bases: int | None = None
) -> Iterator[SequenceSet]:
    """Cut a record stream into :class:`SequenceSet` batches, in input order.

    A batch is closed before the record that would take it past
    ``batch_bases`` (default :data:`BATCH_BASES`) — counted in the records'
    full :attr:`~repro.seq.records.SeqRecord.bases`, so a stream of trimmed
    reads is cut where the whole reads would be — and one batch is resident
    at a time whatever the file holds.  Once yielded, a batch is its
    consumer's alone: the suspended generator holds neither it nor its
    records' codes.
    """
    batch_bases = _budget(batch_bases)
    builder = SequenceSetBuilder()
    bases = 0
    for record in records:
        if len(builder) and bases + record.bases > batch_bases:
            yield builder.take()
            bases = 0
        builder.add(record.name, record.codes, record.meta)
        bases += record.bases
    if len(builder):
        record = None
        yield builder.take()


def _take(pieces: list[SequenceSet]) -> SequenceSet:
    """``SequenceSet.join(pieces)``, emptying ``pieces``: a generator that
    yields it holds neither the batch nor its pieces while suspended."""
    batch = SequenceSet.join(pieces)
    pieces.clear()
    return batch


def _cut_blocks(blocks: Iterable[RecordBlock], batch_bases: int) -> Iterator[SequenceSet]:
    """:func:`iter_batches` over the records of ``blocks``: the same cuts,
    each batch joined from slices of the blocks it spans.  Once yielded, a
    batch is its consumer's alone: the index build frees its codes after
    S1."""
    pieces: list[SequenceSet] = []
    bases = count = 0
    for block in blocks:
        lo = 0
        for i, size in enumerate(block.bases.tolist()):
            if count and bases + size > batch_bases:
                if lo < i:
                    pieces.append(block.sequences.slice(lo, i))
                bases, count, lo = 0, 0, i
                yield _take(pieces)
            bases += size
            count += 1
        if lo < len(block.bases):
            pieces.append(block.sequences.slice(lo, len(block.bases)) if lo else block.sequences)
    if count:
        block = None
        yield _take(pieces)


def iter_file_batches(
    path: str,
    *,
    on_error: str = "raise",
    report: ParseReport | None = None,
    ends: int | None = None,
    batch_bases: int | None = None,
) -> Iterator[SequenceSet]:
    """``iter_batches(iter_records(path, ...), batch_bases)``, the same
    batches; a FASTA file's are cut from the parser's record blocks
    (:func:`~repro.seq.io_fasta.iter_fasta_blocks`), with no record object
    per sequence."""
    batch_bases = _budget(batch_bases)
    if _is_fastq(path):
        return iter_batches(iter_records(path, on_error=on_error, report=report, ends=ends),
                            batch_bases)
    blocks = iter_fasta_blocks(path, on_error=on_error, report=report, ends=ends)
    return _cut_blocks(blocks, batch_bases)


def map_reads_stream(
    mapper: "Mapper",
    records: Iterable[SeqRecord],
    *,
    batch_bases: int | None = None,
    unit: Callable[[int, Callable[[], MappingResult]], MappingResult] | None = None,
) -> Iterator[MappingResult]:
    """Yield one :class:`MappingResult` per :func:`iter_batches` batch of reads.

    ``mapper`` is any indexed :class:`~repro.core.engine.Mapper`.  Segment
    rows follow the usual layout (two per read, prefix first), in input
    order across batches; ``infos[i].read_index`` is the index *within the
    batch*.  ``unit(k, map_batch)``, when given, returns batch k's result in
    place of ``map_batch()`` — a checkpointed run's load-or-map-and-commit.
    """
    return _map_batches(mapper, iter_batches(records, batch_bases), unit)


def _map_batches(
    mapper: "Mapper",
    batches: Iterable[SequenceSet],
    unit: Callable[[int, Callable[[], MappingResult]], MappingResult] | None,
) -> Iterator[MappingResult]:
    """Map each batch, holding none while the reader builds the next: the
    batch is handed to ``map_batch`` in a one-item list it pops, the way
    :meth:`~repro.core.mapper.JEMMapper.index_partitioned` hands its blocks."""
    if not getattr(mapper, "is_indexed", True):
        raise MappingError("index() must be called before streaming")
    k = 0  # not enumerate(): its reused result tuple holds the last batch
    for batch in batches:
        held = [batch]
        del batch
        map_batch = partial(_map_held, mapper, held)
        result = map_batch() if unit is None else unit(k, map_batch)
        held.clear()  # a loaded unit never mapped it
        yield result
        k += 1


def _map_held(mapper: "Mapper", held: list[SequenceSet]) -> MappingResult:
    return mapper.map_reads(held.pop())


def map_file(
    mapper: "Mapper",
    path: str,
    *,
    ell: int,
    on_error: str = "raise",
    report: ParseReport | None = None,
    batch_bases: int | None = None,
    unit: Callable[[int, Callable[[], MappingResult]], MappingResult] | None = None,
) -> Iterator[MappingResult]:
    """Stream-map a FASTA/FASTQ file (gzip ok) against an indexed mapper.

    ``ell`` is the mapper's segment length ℓ: the parser keeps only each
    read's two ℓ-base ends, and the mapper's end segments of them are those
    of the whole read.  ``on_error`` / ``report`` are the parser policy and
    skip tally of :func:`~repro.seq.io_fasta.iter_fasta`; ``unit`` is
    :func:`map_reads_stream`'s.
    """
    batches = iter_file_batches(
        path, on_error=on_error, report=report, ends=ell, batch_bases=batch_bases
    )
    return _map_batches(mapper, batches, unit)
