"""Failure injection for the I/O layer: malformed and unusual files."""

import gzip

import pytest

from repro.errors import ParseError
from repro.seq import SequenceSet, iter_fasta, iter_fastq, read_fasta, write_fasta


def test_crlf_line_endings(tmp_path):
    path = tmp_path / "crlf.fasta"
    path.write_bytes(b">r1\r\nacgt\r\nacgt\r\n")
    records = list(iter_fasta(path))
    assert records[0].sequence == "acgtacgt"


def test_blank_lines_between_records(tmp_path):
    path = tmp_path / "blank.fasta"
    path.write_text(">a\nacgt\n\n\n>b\n\ngg\n")
    records = list(iter_fasta(path))
    assert [r.name for r in records] == ["a", "b"]
    assert records[1].sequence == "gg"


def test_header_only_record(tmp_path):
    path = tmp_path / "empty_seq.fasta"
    path.write_text(">a\n>b\nacgt\n")
    records = list(iter_fasta(path))
    assert records[0].name == "a" and len(records[0]) == 0
    assert records[1].sequence == "acgt"


def test_lowercase_and_uppercase_mixed(tmp_path):
    path = tmp_path / "case.fasta"
    path.write_text(">a\nAcGtNn\n")
    rec = next(iter_fasta(path))
    assert rec.sequence == "acgtnn"


def test_truncated_gzip(tmp_path):
    path = tmp_path / "x.fasta.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(">a\n" + "acgt" * 100 + "\n")
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(Exception):  # EOFError/OSError from gzip
        read_fasta(path)


def test_fastq_truncated_record(tmp_path):
    path = tmp_path / "trunc.fastq"
    path.write_text("@r1\nacgt\n+\nIIII\n@r2\nacgt\n")
    # r2 is missing the separator + quality: the parser must raise
    with pytest.raises(ParseError):
        list(iter_fastq(path))


def test_fasta_with_windows_bom_fails_cleanly(tmp_path):
    path = tmp_path / "bom.fasta"
    path.write_bytes(b"\xef\xbb\xbf>a\nacgt\n")
    # BOM bytes are not valid ASCII: a typed error with the file and line,
    # never a codec traceback and never silently coded as sequence
    with pytest.raises(ParseError, match="non-ASCII") as info:
        list(iter_fasta(path))
    assert info.value.line == 1 and info.value.path == str(path)


def test_write_empty_set(tmp_path):
    path = tmp_path / "empty.fasta"
    assert write_fasta(path, SequenceSet.empty()) == 0
    assert path.read_text() == ""
    assert len(read_fasta(path)) == 0


def test_very_long_single_line(tmp_path):
    path = tmp_path / "long.fasta"
    path.write_text(">a\n" + "acgt" * 100_000 + "\n")
    loaded = read_fasta(path)
    assert loaded.total_bases == 400_000
