"""The compiled FASTA parser (``jem_parse_block``) held to the reference parser.

Every case is read twice by the one block reader: with the kernels, and with
``REPRO_NO_NATIVE=1``, where every record goes through ``_parse_record``.
Both error policies, whole records and ``ends=ℓ``, block sizes of 1, 7 and 64
bytes and the default: names, metas, codes, base counts, the ``ParseError``
raised (text, path, line) and the skip tally must agree, and so must
``read_fasta``'s columns and the batches ``iter_file_batches`` cuts.
"""

import gzip
import warnings
from unittest import mock

import numpy as np
import pytest

from repro.core.streaming import iter_file_batches
from repro.errors import ParseError
from repro.seq import ParseReport, io_fasta, iter_fasta, read_fasta
from repro.sketch import _native

pytestmark = pytest.mark.skipif(_native.load() is None, reason="native kernels unavailable")

ELL = 5
BLOCK_SIZES = (1, 7, 64, io_fasta._BLOCK_BYTES)


def _wrap(body: bytes, width: int, ending: bytes = b"\n") -> bytes:
    return ending.join(body[i : i + width] for i in range(0, len(body), width))


def _around_ell() -> bytes:
    """Reads of ℓ - 1, ℓ, ℓ + 1, 2ℓ - 1, 2ℓ, 2ℓ + 1 and 7ℓ bases, wrapped at 3."""
    rng = np.random.default_rng(3)
    parts = []
    for size in (ELL - 1, ELL, ELL + 1, 2 * ELL - 1, 2 * ELL, 2 * ELL + 1, 7 * ELL):
        body = rng.choice(np.frombuffer(b"ACGTacgtN", np.uint8), size=size).tobytes()
        parts.append(b">len%d\n" % size + _wrap(body, 3) + b"\n")
    return b"".join(parts)


CASES = {
    "crlf": b">a first\r\nACGTA\r\nCGT\r\n\r\n>b\r\nGGTTACCA\r\n",
    "lone cr": b">a\rACGTACGTACG\r>b\rTT",
    "no trailing newline": b">a\nACGTACGTAC\nGT\n>b desc\nGGTTAACCGGTT",
    "lone >": b">",
    "lone > line": b">a\nACGTACGTACGT\n>\nGG\n>c\nTT\n",
    "> in the middle of a line": b">a\nAC>GTACGTAC>\n>b x>y\nTT>A\n",
    "empty body": b">a\n>b\nACGTACGTACGT\n>c\n",
    "header only at the end": b">a\nACGT\n>b",
    "non-ASCII in a body": b">a\nACGTACGTACGT\n>b\nAC\nA\xe9CGTACGTACG\n>c\nTT\n",
    "non-ASCII in a header": b">a caf\xc3\xa9\nACGT\n>b\nACGTACGTACGTA\n",
    "NUL bytes": b">a\x00b\nAC\x00GTACGTACGT\n>\x00\nGG\n",
    "N and IUPAC codes": b">a\nACGTNRYKMSWBDHVnrykmswbdhv-*.acgtn\n>b\nNNNNNNNNNNNN\n",
    "whitespace-only headers": b">\x1c\x1d\nACGT\n> \t\x0b\x0c\nAC\n>\x1f a\nACGTACGTACGTAC\n",
    "text before the first >": b"\n\nACGT\n>a\nACGTACGTACGT\n",
    "text on the first line": b"ACGT AC\nGG\n>a\nACGTACGTACGT\n",
    "blank lines before the first >": b"\n\n\n>a\nACGTACGTACGT\n",
    "lengths around l and 2l": _around_ell(),
}


def _write(tmp_path, data: bytes, gz: bool) -> str:
    path = tmp_path / ("case.fasta.gz" if gz else "case.fasta")
    if gz:
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        path.write_bytes(data)
    return str(path)


def _errors(report: ParseReport) -> list:
    return [(str(err), err.path, err.line) for err in report.errors]


def observe(path: str, on_error: str, ends: int | None):
    """Everything a caller sees of ``iter_fasta`` over ``path``."""
    report, records, raised = ParseReport(), [], None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            for rec in iter_fasta(path, on_error=on_error, report=report, ends=ends):
                records.append((rec.name, rec.meta, rec.codes.tobytes(), rec.bases))
        except ParseError as exc:
            raised = (str(exc), exc.path, exc.line)
    return records, raised, report.skipped, _errors(report)


def observe_columns(path: str, ends: int | None):
    """``read_fasta``'s columns and the batches of at most 8 bases."""
    report = ParseReport()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        whole = read_fasta(path, on_error="skip", report=report)
        batches = [
            (b.names, b.metas, b.buffer.tobytes(), b.offsets.tolist())
            for b in iter_file_batches(path, on_error="skip", ends=ends, batch_bases=8)
        ]
    columns = (whole.names, whole.metas, whole.buffer.tobytes(), whole.offsets.tolist())
    return columns, batches, _errors(report)


def assert_kernel_matches_reference(path: str, monkeypatch, sizes=BLOCK_SIZES) -> None:
    for size in sizes:
        with mock.patch.object(io_fasta, "_BLOCK_BYTES", size):
            for ends in (None, ELL):
                for on_error in ("raise", "skip"):
                    got = observe(path, on_error, ends)
                    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
                    want = observe(path, on_error, ends)
                    monkeypatch.delenv("REPRO_NO_NATIVE")
                    assert got == want, (size, ends, on_error)
                got = observe_columns(path, ends)
                monkeypatch.setenv("REPRO_NO_NATIVE", "1")
                want = observe_columns(path, ends)
                monkeypatch.delenv("REPRO_NO_NATIVE")
                assert got == want, (size, ends)


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
@pytest.mark.parametrize("case", list(CASES))
def test_kernel_parse_matches_the_reference_parser(tmp_path, monkeypatch, case, gz):
    assert_kernel_matches_reference(_write(tmp_path, CASES[case], gz), monkeypatch)


def test_a_record_spanning_a_block(tmp_path, monkeypatch):
    """A 1.2-Mbase record, wrapped at 60, spans a 1-MiB block boundary (and
    two 512-KiB ones); a non-ASCII byte after it still names its line."""
    rng = np.random.default_rng(11)
    body = rng.choice(np.frombuffer(b"ACGTN", np.uint8), size=1_200_000).tobytes()
    data = b">short\nACGT\n>long one\n" + _wrap(body, 60) + b"\n>tail\nGG\n>bad\nA\xffA\n"
    path = _write(tmp_path, data, gz=False)
    assert_kernel_matches_reference(path, monkeypatch, sizes=(1 << 19, io_fasta._BLOCK_BYTES))
    records, raised, _, _ = observe(path, "raise", ELL)
    assert [r[3] for r in records] == [4, len(body), 2]
    assert raised[2] == 3 + len(body) // 60 + 4


def test_flagged_records_keep_their_line_numbers(tmp_path):
    """Every ``ParseError`` comes from ``_parse_record`` at the line the
    kernel's counts give it, whatever precedes it in the block."""
    data = b">a\nAC\nGT\n\n>\nAC\n>b\r\nGG\r\n>c\nA\xe9\n"
    path = _write(tmp_path, data, gz=False)
    for size in BLOCK_SIZES:
        with mock.patch.object(io_fasta, "_BLOCK_BYTES", size):
            records, raised, skipped, errors = observe(path, "skip", None)
        assert [r[0] for r in records] == ["a", "b"]
        assert skipped == 2
        assert [(text.split(": ")[-1], line) for text, _, line in errors] == [
            ("empty FASTA header", 5),
            ("non-ASCII byte 0xe9 in FASTA input", 10),
        ], size
