"""Streaming FASTA reader/writer.

Supports plain and gzip-compressed files (by suffix), multi-line records,
comments in headers, and strict error reporting with file/line positions.
The reader works on bytes: the file is taken in blocks, each cut where its
last record starts, and the compiled kernel ``jem_parse_block`` parses a
block's whole records in one call — header bounds, base and line counts
and 2-bit codes, no ``str`` built for sequence data.  Each record it
flags (an empty header, text before the first ``>``), every record of a
block with a byte outside ASCII, and without the kernels
(``REPRO_NO_NATIVE=1``, no compiler) every record goes through
:func:`_parse_record`, the reference parser, which raises every
:class:`~repro.errors.ParseError`; a byte outside ASCII is never a
silently coded base.  Either way the records come out columnar
(:class:`RecordBlock`), which is what :func:`read_fasta` and the batch
loop of :mod:`repro.core.streaming` consume; :func:`iter_fasta` yields
them one by one.

A mapper reads only the two ℓ-base ends of a read (Section III-B.1), so
``iter_fasta(path, ends=ℓ)`` codes only those: a record of more than 2ℓ
bases keeps the codes of its first and last ℓ bases, found by walking in
from the body's two ends past the ``\n`` bytes, and carries its full base
count in :attr:`SeqRecord.bases`.  Every check still reads the whole record.

Real-world inputs are partially damaged more often than they are clean;
``on_error="skip"`` turns malformed records into counted warnings (see
:class:`ParseReport`) instead of aborting the whole file, so one truncated
record does not discard an hour of mapping input.
"""

from __future__ import annotations

import gzip
import io
import os
import re
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import IO, NamedTuple

import numpy as np

from ..errors import ParseError
from .alphabet import BYTE_TO_CODE
from .records import SeqRecord, SequenceSet

__all__ = ["read_fasta", "iter_fasta", "write_fasta", "ParseReport"]

#: Most bytes asked of the file at once by a streamed read.  Its working
#: set is one block plus one record while a block is parsed, and one
#: block's parsed records after.  4 MiB blocks put 2 MB on the peak RSS of
#: reading a 32 MB file and were no faster; 512-KiB blocks took 0.3 MB off
#: `jem map` over 24 Mbp of reads, put 0.1 MB on `jem index`, the larger
#: leg, and parsed ≈ 1 ms slower.
_BLOCK_BYTES = 1 << 20

#: Byte -> 2-bit code (or ``INVALID_CODE``) table, for ``bytes.translate``
#: and ``jem_parse_block``.
_CODE_TABLE = BYTE_TO_CODE.tobytes()

_NON_ASCII = re.compile(rb"[\x80-\xff]")


@dataclass
class ParseReport:
    """Tally of records skipped under the ``on_error="skip"`` policy."""

    skipped: int = 0
    errors: list[ParseError] = field(default_factory=list)

    def record(self, err: ParseError) -> None:
        self.skipped += 1
        self.errors.append(err)
        warnings.warn(f"skipping malformed record: {err}", stacklevel=4)


def _check_options(on_error: str, ends: int | None) -> None:
    if on_error not in ("raise", "skip"):
        raise ValueError(f'on_error must be "raise" or "skip", got {on_error!r}')
    if ends is not None and ends < 1:
        raise ValueError(f"ends must be >= 1, got {ends}")


def _open_text(path: str | os.PathLike, mode: str) -> IO[str]:
    path = os.fspath(path)
    if path.endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="ascii")
    return open(path, mode + "t", encoding="ascii")


def _open_binary(path: str) -> IO[bytes]:
    return gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb")


def _record_starts(block: bytes, at_line_start: bool) -> Iterator[int]:
    """Offsets in ``block`` of every ``>`` that opens a line."""
    # a one-byte find is a memchr; searching for b"\n>" is over 15x slower
    cut = block.find(b">")
    while cut >= 0:
        opens_line = at_line_start if cut == 0 else block[cut - 1] == 0x0A
        if opens_line:
            yield cut
        cut = block.find(b">", cut + 1)


def _last_record_start(block: bytes, at_line_start: bool) -> int:
    """Offset in ``block`` of its last ``>`` that opens a line, or -1."""
    cut = block.rfind(b">")
    while cut > 0 and block[cut - 1] != 0x0A:
        cut = block.rfind(b">", 0, cut)
    return -1 if cut == 0 and not at_line_start else cut


def _iter_runs(handle: IO[bytes], block_bytes: int) -> Iterator[list[bytes | memoryview]]:
    r"""The file as runs of whole records, each ending just before a ``>``
    that opens a line (the last at the end of the file), every line ending
    folded to ``\n`` (``\r\n`` and a lone ``\r`` both end a line, as in
    text mode).

    The file is read in blocks of at most ``block_bytes``, and each block
    that opens a record gives a list of two runs: the record it finishes,
    joined once from the pieces it spans, and a view of the block's whole
    records.  The generator keeps nothing else of a block: a caller that
    empties the list lets the block go.
    """
    pending: list[bytes] = []  # the unfinished record, one piece per block it spans
    at_line_start = True
    while block := handle.read(block_bytes):
        while block.endswith(b"\r") and (more := handle.read(1)):
            block += more  # a CR that ends a block may pair with an LF after it
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        last = _last_record_start(block, at_line_start)
        first = next(_record_starts(block, at_line_start), -1)
        at_line_start = block.endswith(b"\n")
        if last < 0:
            pending.append(block)
            continue
        view = memoryview(block)
        runs = [b"".join([*pending, view[:first]]), view[first:last]]
        pending = [block[last:]]
        del block, view
        yield runs
    yield [b"".join(pending)]


def _head_stop(text: bytes, start: int, ell: int) -> int:
    r"""Offset in ``text`` just past the first ``ell`` bases from ``start``,
    ``\n`` bytes skipped (``text`` holds more than ``ell`` bases there)."""
    stop = start + ell
    newlines = text.count(b"\n", start, stop)
    while (want := start + ell + newlines) != stop:
        newlines += text.count(b"\n", stop, want)
        stop = want
    return stop


def _tail_start(text: bytes, stop: int, ell: int) -> int:
    r"""Offset in ``text`` of the last ``ell`` bases before ``stop``, ``\n``
    bytes skipped: :func:`_head_stop` walking backward."""
    start = stop - ell
    newlines = text.count(b"\n", start, stop)
    while (want := stop - ell - newlines) != start:
        newlines += text.count(b"\n", want, start)
        start = want
    return start


def _parse_record(
    text: bytes, path: str, lineno: int, newlines: int, ends: int | None = None
) -> SeqRecord | None:
    r"""One record's lines (``\n``-terminated, the first one ``lineno``) to a record.

    ``text`` is either everything from one line-start ``>`` up to the next, or
    whatever precedes the first ``>`` of the file (``None`` when that is blank);
    it holds ``newlines`` ``\n`` bytes.  With ``ends``, a body of more than
    ``2 * ends`` bases keeps the codes of its first and last ``ends`` bases
    only.  Raises :class:`ParseError` for a malformed record.

    The reference parser: what ``REPRO_NO_NATIVE=1`` runs, what the compiled
    parser hands every record it flags, and the tests' oracle.
    """
    if not text.isascii():
        bad = _NON_ASCII.search(text).start()
        raise ParseError(
            f"non-ASCII byte 0x{text[bad]:02x} in FASTA input",
            path=path,
            line=lineno + text.count(b"\n", 0, bad),
        )
    if not text.startswith(b">"):
        for offset, line in enumerate(text.split(b"\n")):
            if line:
                raise ParseError(
                    f"sequence data before any '>' header: {line[:30].decode('ascii')!r}",
                    path=path,
                    line=lineno + offset,
                )
        return None
    eol = text.find(b"\n")
    if eol < 0:
        eol = len(text)
    header = text[1:eol].decode("ascii").strip()
    if not header:
        raise ParseError("empty FASTA header", path=path, line=lineno)
    name, _, description = header.partition(" ")
    start = min(eol + 1, len(text))
    bases = len(text) - start - (newlines - (eol < len(text)))
    if ends is not None and bases > 2 * ends:
        head, tail = _head_stop(text, start, ends), _tail_start(text, len(text), ends)
        body = text[start:head] + text[tail:]
    else:
        body = text[start:]
    # newline removal and the BYTE_TO_CODE lookup in one pass; no str is built
    codes = np.frombuffer(body.translate(_CODE_TABLE, b"\n"), dtype=np.uint8)
    meta = {"description": description} if description else {}
    return SeqRecord(name=name, codes=codes, meta=meta, bases=bases)


class RecordBlock(NamedTuple):
    """Consecutive well-formed records of a FASTA file, columnar."""

    sequences: SequenceSet  #: their codes (only the two ends, with ``ends``)
    bases: np.ndarray  #: their full base counts (``int64``)

    def records(self) -> Iterator[SeqRecord]:
        seqs = self.sequences
        for i, bases in enumerate(self.bases.tolist()):
            yield SeqRecord(seqs.names[i], seqs.codes_of(i), meta=seqs.metas[i], bases=bases)

    @classmethod
    def of(cls, records: list[SeqRecord]) -> "RecordBlock":
        bases = np.array([rec.bases for rec in records], dtype=np.int64)
        return cls(SequenceSet.from_records(records), bases)


def _reference_rows(text: bytes) -> np.ndarray:
    """``jem_parse_block``'s rows for ``text`` with every record flagged:
    what the reference parser is given when there are no kernels."""
    starts = list(_record_starts(text, True))
    if not starts or starts[0]:
        starts.insert(0, 0)
    rows = np.zeros((len(starts), 6), dtype=np.int64)
    rows[:, 0] = starts
    rows[:, 3] = 1
    rows[:, 4] = np.cumsum([text.count(b"\n", *span) for span in zip(starts, starts[1:] + [len(text)])])
    return rows


def _parse_run(
    text: bytes | memoryview, path: str, lineno: int, ends: int | None,
    codes: np.ndarray | None = None,
) -> tuple[list[RecordBlock | ParseError], int, int]:
    """One :func:`_iter_runs` run (its first line ``lineno``) to its record
    blocks and parse errors in file order, its ``\n`` count, and how many
    codes the kernel wrote (into ``codes``, when given room enough).

    The compiled parser (``jem_parse_block``) takes the whole run in one
    call; each record it flags, every record of a run with a byte outside
    ASCII, and without the kernels every record goes through
    :func:`_parse_record`, so every error is raised there.
    """
    from ..sketch import _native

    lib = _native.load()
    parsed = None if lib is None else lib.parse_block(text, _CODE_TABLE, ends, codes)
    if parsed is None:  # no kernels, or a byte outside ASCII somewhere in the run
        text = bytes(text)
        parsed = _reference_rows(text), np.empty(0, dtype=np.uint8)
    recs, codes = parsed
    if not len(recs):
        return [], 0, 0
    bounds = [*recs[:, 0].tolist(), len(text)]
    lines_to = [0, *recs[:, 4].tolist()]  # '\n' bytes before record i: lines_to[i]
    code_to = np.zeros(len(recs) + 1, dtype=np.int64)  # codes before record i
    code_to[1:] = recs[:, 5]
    out: list[RecordBlock | ParseError] = []
    records: list[SeqRecord] = []  # from the reference parser, not yet in a block

    def flush() -> None:
        if records:
            out.append(RecordBlock.of(records))
            records.clear()

    lo = 0
    for i in [*np.flatnonzero(recs[:, 3]).tolist(), len(recs)]:
        if lo < i:  # records lo..i-1 came out of the kernel whole
            flush()
            heads = b"\n".join([text[a + 1 : b] for a, b in zip(bounds[lo:i], recs[lo:i, 1].tolist())])
            split = [head.strip().partition(" ") for head in heads.decode("ascii").split("\n")]
            names = [name for name, _, _ in split]
            metas = [{"description": desc} if desc else {} for _, _, desc in split]
            offsets = code_to[lo : i + 1] - code_to[lo]
            sequences = SequenceSet(codes[code_to[lo] : code_to[i]], offsets, names, metas)
            out.append(RecordBlock(sequences, recs[lo:i, 2].copy()))
        if i < len(recs):
            try:
                record = _parse_record(
                    bytes(text[bounds[i] : bounds[i + 1]]), path, lineno + lines_to[i],
                    lines_to[i + 1] - lines_to[i], ends,
                )
            except ParseError as err:
                flush()
                out.append(err)
            else:
                if record is not None:
                    records.append(record)
        lo = i + 1
    flush()
    return out, lines_to[-1], int(code_to[-1])


def iter_fasta_blocks(
    path: str | os.PathLike,
    *,
    on_error: str = "raise",
    report: ParseReport | None = None,
    ends: int | None = None,
) -> Iterator[RecordBlock]:
    """:func:`iter_fasta`'s records as :class:`RecordBlock` runs, in file
    order — one call of the compiled parser per block of the file."""
    return _iter_record_blocks(path, on_error, report, ends, _BLOCK_BYTES)


def _iter_record_blocks(
    path: str | os.PathLike,
    on_error: str,
    report: ParseReport | None,
    ends: int | None,
    block_bytes: int,
    into: np.ndarray | None = None,
) -> Iterator[RecordBlock]:
    """:func:`iter_fasta_blocks` in blocks of ``block_bytes``; with ``into``,
    room for every code of the file, the kernel writes the codes there,
    back to back."""
    _check_options(on_error, ends)
    report = report if report is not None else ParseReport()
    path = os.fspath(path)
    next_line, used = 1, 0
    with _open_binary(path) as handle:
        for runs in _iter_runs(handle, block_bytes):
            items = []
            for text in runs:
                codes = None if into is None else into[used:]
                parsed, newlines, written = _parse_run(text, path, next_line, ends, codes)
                items += parsed
                next_line += newlines
                used += written
            runs.clear()  # with the last view of it, the block goes
            del text  # before its records are used
            for item in items:
                if isinstance(item, ParseError):
                    if on_error == "raise":
                        raise item
                    report.record(item)
                else:
                    yield item


def iter_fasta(
    path: str | os.PathLike,
    *,
    on_error: str = "raise",
    report: ParseReport | None = None,
    ends: int | None = None,
) -> Iterator[SeqRecord]:
    """Yield :class:`SeqRecord` objects from a FASTA file, streaming.

    The record name is the header token up to the first whitespace; the rest
    of the header line is stored in ``meta['description']`` when present.

    ``on_error="skip"`` drops malformed records (empty headers, orphan
    sequence data, non-ASCII bytes) with a counted warning instead of
    raising; pass a :class:`ParseReport` to collect the tally.

    ``ends=ℓ`` keeps, of a record of more than 2ℓ bases, the codes of its
    first ℓ and last ℓ bases — all a read's end segments use — and its full
    base count in :attr:`SeqRecord.bases`; the checks above still cover the
    whole record.

    The file is read as bytes in blocks of at most ``_BLOCK_BYTES`` and cut
    into runs of whole records, each parsed in one call; at any time one
    block and one run are resident, whatever the file size.
    """
    for block in iter_fasta_blocks(path, on_error=on_error, report=report, ends=ends):
        yield from block.records()


def read_fasta(
    path: str | os.PathLike,
    *,
    on_error: str = "raise",
    report: ParseReport | None = None,
) -> SequenceSet:
    """Read a whole FASTA file into a :class:`SequenceSet`.

    The set holds the whole file, so it is read in blocks 4x the streaming
    size (8 % less time on 32 MB of reads), and an uncompressed file,
    which has no more codes than bytes, has the kernel write them all into
    one buffer of its size: the set is a view of it, and only the pages
    written are ever resident.
    """
    path = os.fspath(path)
    into = None if path.endswith(".gz") else np.empty(os.path.getsize(path), dtype=np.uint8)
    blocks = _iter_record_blocks(path, on_error, report, None, 4 * _BLOCK_BYTES, into)
    return SequenceSet.join([block.sequences for block in blocks])


def write_fasta(
    path: str | os.PathLike,
    records: SequenceSet | Iterable[SeqRecord],
    *,
    width: int = 80,
) -> int:
    """Write records to a FASTA file; returns the number of records written.

    ``width`` controls line wrapping of the sequence body (0 disables it).
    """
    count = 0
    with _open_text(path, "w") as handle:
        for rec in records:
            description = rec.meta.get("description", "")
            header = f">{rec.name}" + (f" {description}" if description else "")
            handle.write(header + "\n")
            seq = rec.sequence
            if width and width > 0:
                for start in range(0, len(seq), width):
                    handle.write(seq[start : start + width] + "\n")
            else:
                handle.write(seq + "\n")
            count += 1
    return count
