"""Failure injection for the I/O layer: malformed and unusual files."""

import gzip
import re

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


#: r2 carries a Latin-1 byte in its sequence, r4 a UTF-8 pair in its header, r5
#: one in its quality line; r1, r3 and r6 are well formed
NON_ASCII_FASTQ = (
    b"@r1\nacgt\n+\nIIII\n"
    b"@r2\nac\xe9t\n+\nIIII\n"
    b"@r3\ntt\n+\nII\n"
    b"@r4 caf\xc3\xa9\nacgt\n+\nIIII\n"
    b"@r5\nacg\n+\nI\xffI\n"
    b"@r6\ng\n+\nI\n"
)


def _write_maybe_gzip(path, payload: bytes):
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(payload)
    return path


@pytest.mark.parametrize("name", ["latin.fastq", "latin.fastq.gz"])
def test_fastq_non_ascii_raises_parse_error_with_line(tmp_path, name):
    """A byte >= 0x80 is a typed error naming the byte, the file and the line —
    it used to escape as a UnicodeDecodeError from readline."""
    path = _write_maybe_gzip(tmp_path / name, NON_ASCII_FASTQ)
    with pytest.raises(ParseError, match="non-ASCII byte 0xe9 in FASTQ input") as info:
        list(iter_fastq(path))
    assert info.value.line == 6 and info.value.path == str(path)


@pytest.mark.parametrize("name", ["latin.fastq", "latin.fastq.gz"])
def test_fastq_non_ascii_record_is_skipped_and_counted(tmp_path, name):
    """Under ``skip`` each such record is dropped and counted once, and the
    reader picks up at the next ``@`` header — the policy FASTA has."""
    from repro.seq.io_fasta import ParseReport

    path = _write_maybe_gzip(tmp_path / name, NON_ASCII_FASTQ)
    report = ParseReport()
    with pytest.warns(UserWarning):
        records = list(iter_fastq(path, on_error="skip", report=report))
    assert [(r.name, r.sequence) for r in records] == [("r1", "acgt"), ("r3", "tt"), ("r6", "g")]
    assert report.skipped == 3
    assert [err.line for err in report.errors] == [6, 13, 20]
    assert ["0xe9" in str(e) for e in report.errors] == [True, False, False]
    assert "0xc3" in str(report.errors[1]) and "0xff" in str(report.errors[2])


def test_fastq_non_ascii_outside_a_record_resynchronises(tmp_path):
    """A stray non-ASCII line where a header should be is one counted error;
    the records on either side of it survive."""
    from repro.seq.io_fasta import ParseReport

    path = tmp_path / "stray.fastq"
    path.write_bytes(b"@r1\nacgt\n+\nIIII\n\xfe\xff junk\n@r2\ntt\n+\nII\n")
    with pytest.raises(ParseError, match="non-ASCII byte 0xfe") as info:
        list(iter_fastq(path))
    assert info.value.line == 5
    report = ParseReport()
    with pytest.warns(UserWarning):
        records = list(iter_fastq(path, on_error="skip", report=report))
    assert [r.name for r in records] == ["r1", "r2"] and report.skipped == 1


def test_map_skips_a_non_ascii_fastq_read(tmp_path, capsys):
    """`jem map --on-error skip` survives the read that used to kill it."""
    from repro.cli import main

    contigs, reads = tmp_path / "contigs.fasta", tmp_path / "reads.fastq"
    body = "acgtgcattagcctagatcgatcggatatcgcgatagctagcatcgatcagctacgactacgacgatcgatc" * 12
    contigs.write_text(f">c1\n{body}\n")
    good = f"@r1\n{body[:600]}\n+\n{'I' * 600}\n"
    reads.write_bytes(good.encode() + b"@r2\nac\xe9t\n+\nIIII\n" + good.replace("@r1", "@r3").encode())
    out = tmp_path / "out.tsv"
    argv = ["map", "-q", str(reads), "-s", str(contigs), "-o", str(out),
            "--k", "12", "--w", "10", "--ell", "300", "--trials", "4"]
    assert main(argv) == 1
    assert re.search(r"^error: .*non-ASCII byte 0xe9", capsys.readouterr().err, re.M)
    assert not out.exists()
    with pytest.warns(UserWarning):
        assert main([*argv, "--on-error", "skip"]) == 0
    rows = [line.split("\t")[0] for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[1:] == ["r1/prefix", "r1/suffix", "r3/prefix", "r3/suffix"]
    assert "skipped 1 malformed record(s)" in capsys.readouterr().err


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
