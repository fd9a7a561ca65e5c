"""Streaming FASTA reader/writer.

Supports plain and gzip-compressed files (by suffix), multi-line records,
comments in headers, and strict error reporting with file/line positions.
The reader works on bytes: the file is taken in blocks, cut into records
at every ``>`` that opens a line, and each record body becomes 2-bit codes
in one ``bytes.translate`` pass.  No ``str`` is built for sequence data,
and a byte outside ASCII is a :class:`~repro.errors.ParseError`, never a
silently coded base.

A mapper reads only the two ℓ-base ends of a read (Section III-B.1), so
``iter_fasta(path, ends=ℓ)`` translates only those: a record of more than
2ℓ bases keeps the codes of its first and last ℓ bases, found by walking in
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
from typing import IO

import numpy as np

from ..errors import ParseError
from .alphabet import BYTE_TO_CODE
from .records import SeqRecord, SequenceSet, SequenceSetBuilder

__all__ = ["read_fasta", "iter_fasta", "write_fasta", "ParseReport"]

#: Most bytes asked of the file at once.  The reader's working set is one
#: block plus one record; 4 MiB blocks put 2 MB on the peak RSS of reading
#: a 32 MB file and were no faster.
_BLOCK_BYTES = 1 << 20

#: ``bytes.translate`` table: ASCII byte -> 2-bit code (or ``INVALID_CODE``).
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


def _iter_blocks(handle: IO[bytes]) -> Iterator[bytes]:
    r"""Blocks of at most ``_BLOCK_BYTES`` with every line ending folded to ``\n``.

    ``\r\n`` and a lone ``\r`` both end a line, as in text mode.  A ``\r``
    that closes a block is held back until the next block shows whether a
    ``\n`` follows it.
    """
    held_cr = False
    while True:
        block = handle.read(_BLOCK_BYTES)
        if held_cr and not block.startswith(b"\n"):
            yield b"\n"
        if not block:
            return
        held_cr = block.endswith(b"\r")
        if held_cr:
            block = block[:-1]
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if block:
            yield block
            del block  # not kept alive across the next read


def _record_starts(block: bytes, at_line_start: bool) -> Iterator[int]:
    """Offsets in ``block`` of every ``>`` that opens a line."""
    # a one-byte find is a memchr; searching for b"\n>" is over 15x slower
    cut = block.find(b">")
    while cut >= 0:
        opens_line = at_line_start if cut == 0 else block[cut - 1] == 0x0A
        if opens_line:
            yield cut
        cut = block.find(b">", cut + 1)


def _iter_record_texts(handle: IO[bytes]) -> Iterator[bytes]:
    """Cut the file at every ``>`` that opens a line.

    The first text is whatever precedes the first such ``>`` (often empty).
    A record longer than a block is collected piecewise and joined once.
    """
    pending: list[bytes] = []  # the unfinished record, one piece per block it spans
    at_line_start = True
    for block in _iter_blocks(handle):
        pos = 0
        for cut in _record_starts(block, at_line_start):
            pending.append(block[pos:cut])
            yield b"".join(pending)
            pending.clear()
            pos = cut
        pending.append(block[pos:])
        at_line_start = block.endswith(b"\n")
        del block  # the tail lives on in ``pending``; the block does not
    yield b"".join(pending)


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
    text: bytes, path: str, lineno: int, ends: int | None = None
) -> SeqRecord | None:
    r"""One record's lines (``\n``-terminated, the first one ``lineno``) to a record.

    ``text`` is either everything from one line-start ``>`` up to the next, or
    whatever precedes the first ``>`` of the file (``None`` when that is blank).
    With ``ends``, a body of more than ``2 * ends`` bases keeps the codes of
    its first and last ``ends`` bases only.  Raises :class:`ParseError` for a
    malformed record.
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
    bases = len(text) - start - text.count(b"\n", start)
    if ends is not None and bases > 2 * ends:
        head, tail = _head_stop(text, start, ends), _tail_start(text, len(text), ends)
        body = text[start:head] + text[tail:]
    else:
        body = text[start:]
    # newline removal and the BYTE_TO_CODE lookup in one pass; no str is built
    codes = np.frombuffer(body.translate(_CODE_TABLE, b"\n"), dtype=np.uint8)
    meta = {"description": description} if description else {}
    return SeqRecord(name=name, codes=codes, meta=meta, bases=bases)


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
    into records at every ``>`` that opens a line; at any time one block and
    one record are resident, whatever the file size.
    """
    _check_options(on_error, ends)
    report = report if report is not None else ParseReport()
    path = os.fspath(path)
    next_line = 1
    with _open_binary(path) as handle:
        for text in _iter_record_texts(handle):
            lineno, next_line = next_line, next_line + text.count(b"\n")
            try:
                record = _parse_record(text, path, lineno, ends)
            except ParseError as err:
                if on_error == "raise":
                    raise
                report.record(err)
                continue
            if record is not None:
                yield record


def read_fasta(
    path: str | os.PathLike,
    *,
    on_error: str = "raise",
    report: ParseReport | None = None,
) -> SequenceSet:
    """Read a whole FASTA file into a :class:`SequenceSet`."""
    builder = SequenceSetBuilder()
    for rec in iter_fasta(path, on_error=on_error, report=report):
        builder.add(rec.name, rec.codes, rec.meta)
    return builder.build()


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
