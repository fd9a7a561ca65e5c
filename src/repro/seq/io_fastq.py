"""Streaming FASTQ reader/writer (4-line records, Phred+33 qualities)."""

from __future__ import annotations

import io
import os
from collections.abc import Iterable, Iterator

import numpy as np

from ..errors import ParseError
from .encode import encode
from .io_fasta import ParseReport, _check_options, _open_binary, _open_text
from .records import SeqRecord, SequenceSet, SequenceSetBuilder

__all__ = ["read_fastq", "iter_fastq", "write_fastq", "PHRED_OFFSET"]

#: Sanger/Illumina 1.8+ quality encoding offset.
PHRED_OFFSET = 33


def _non_ascii_error(lines: tuple[str, ...], path: str, lineno: int) -> ParseError | None:
    """The typed error for the first byte >= 0x80 in ``lines`` (the first of
    them line ``lineno``), which the reader escaped to a lone surrogate."""
    for offset, line in enumerate(lines):
        if not line.isascii():
            bad = next(ord(ch) for ch in line if ord(ch) > 0x7F)
            return ParseError(
                f"non-ASCII byte 0x{bad & 0xFF:02x} in FASTQ input",
                path=path,
                line=lineno + offset,
            )
    return None


def iter_fastq(
    path: str | os.PathLike,
    *,
    on_error: str = "raise",
    report: ParseReport | None = None,
    ends: int | None = None,
) -> Iterator[SeqRecord]:
    """Yield records from a FASTQ file, streaming, with quality arrays.

    ``on_error="skip"`` drops malformed records (bad ``@`` header, missing
    ``+`` separator, quality/sequence length mismatch, non-ASCII bytes,
    truncated final record) with a counted warning and resynchronises on
    the next header line instead of aborting the file; pass a
    :class:`ParseReport` to collect the tally.

    ``ends=ℓ`` is :func:`~repro.seq.io_fasta.iter_fasta`'s: once the checks
    have read the full lines, a record of more than 2ℓ bases keeps the codes
    and qualities of its first and last ℓ bases, and its full base count in
    :attr:`SeqRecord.bases`.
    """
    _check_options(on_error, ends)
    report = report if report is not None else ParseReport()
    path = os.fspath(path)
    # surrogateescape: a byte >= 0x80 reaches the checks below, as a typed and
    # skippable ParseError, where strict decoding dies in readline
    with io.TextIOWrapper(
        _open_binary(path), encoding="ascii", errors="surrogateescape"
    ) as handle:
        lineno = 0
        while True:
            header = handle.readline()
            if not header:
                return
            lineno += 1
            header = header.rstrip("\n\r")
            if not header:
                continue
            if not header.startswith("@"):
                # skipped, this resynchronises: line by line to the next header
                err = _non_ascii_error((header,), path, lineno) or ParseError(
                    f"expected '@' header, got {header[:30]!r}", path=path, line=lineno
                )
            else:
                seq_line = handle.readline().rstrip("\n\r")
                plus_line = handle.readline().rstrip("\n\r")
                qual_line = handle.readline().rstrip("\n\r")
                lineno += 3
                err = _non_ascii_error(
                    (header, seq_line, plus_line, qual_line), path, lineno - 3
                )
                if err is not None:
                    pass
                elif not plus_line.startswith("+"):
                    err = ParseError(
                        f"expected '+' separator, got {plus_line[:30]!r}",
                        path=path,
                        line=lineno - 1,
                    )
                elif len(qual_line) != len(seq_line):
                    err = ParseError(
                        f"quality length {len(qual_line)} != sequence length {len(seq_line)}",
                        path=path,
                        line=lineno,
                    )
            if err is not None:
                if on_error == "raise":
                    raise err
                report.record(err)
                continue
            name, _, description = header[1:].partition(" ")
            bases = len(seq_line)
            if ends is not None and bases > 2 * ends:
                seq_line = seq_line[:ends] + seq_line[-ends:]
                qual_line = qual_line[:ends] + qual_line[-ends:]
            quality = (
                np.frombuffer(qual_line.encode("ascii"), dtype=np.uint8) - PHRED_OFFSET
            )
            meta = {"description": description} if description else {}
            yield SeqRecord(
                name=name, codes=encode(seq_line), quality=quality, meta=meta, bases=bases
            )


def read_fastq(
    path: str | os.PathLike,
    *,
    on_error: str = "raise",
    report: ParseReport | None = None,
) -> SequenceSet:
    """Read a whole FASTQ file into a :class:`SequenceSet` (qualities dropped)."""
    builder = SequenceSetBuilder()
    for rec in iter_fastq(path, on_error=on_error, report=report):
        builder.add(rec.name, rec.codes, rec.meta)
    return builder.build()


def write_fastq(
    path: str | os.PathLike,
    records: SequenceSet | Iterable[SeqRecord],
    *,
    default_quality: int = 40,
) -> int:
    """Write records to FASTQ; records without qualities get a constant score."""
    count = 0
    with _open_text(path, "w") as handle:
        for rec in records:
            seq = rec.sequence
            quality = rec.quality
            if quality is None:
                qual_line = chr(default_quality + PHRED_OFFSET) * len(seq)
            else:
                qual_line = (
                    (np.asarray(quality, dtype=np.uint8) + PHRED_OFFSET)
                    .tobytes()
                    .decode("ascii")
                )
            handle.write(f"@{rec.name}\n{seq}\n+\n{qual_line}\n")
            count += 1
    return count
