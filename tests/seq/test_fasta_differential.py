"""The byte-level FASTA block reader held to the line-loop reader it replaced.

``oracle_iter_fasta`` is ``repro.seq.io_fasta.iter_fasta`` as it stood
before the block reader, moved here verbatim: a text-mode (universal
newlines) ``for line in handle`` loop.  Every generated file is read by
both, under both error policies and with the block size shrunk so that
headers, ``\\r\\n`` pairs and ``\\n>`` boundaries straddle blocks; names,
metas, codes, offsets, the ``ParseError`` raised and the skip tally must
all agree.
"""

import gzip
import io
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.seq import ParseReport, SequenceSetBuilder, io_fasta, iter_fasta, read_fasta
from repro.seq.encode import encode
from repro.seq.records import SeqRecord

# -- the oracle ---------------------------------------------------------------


def _open_text(path, mode):
    path = os.fspath(path)
    if path.endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="ascii")
    return open(path, mode + "t", encoding="ascii")


def oracle_iter_fasta(path, *, on_error="raise", report=None):
    report = report if report is not None else ParseReport()
    path = os.fspath(path)
    name = None
    description = ""
    parts = []
    skipping = False  # inside a malformed record whose lines we drop
    lineno = 0
    with _open_text(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n\r")
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    yield _make_record(name, description, parts)
                    name = None
                header = line[1:].strip()
                if not header:
                    err = ParseError("empty FASTA header", path=path, line=lineno)
                    if on_error == "raise":
                        raise err
                    report.record(err)
                    skipping = True
                    parts = []
                    continue
                name, _, description = header.partition(" ")
                parts = []
                skipping = False
            else:
                if name is None:
                    if skipping:
                        continue
                    err = ParseError(
                        f"sequence data before any '>' header: {line[:30]!r}",
                        path=path,
                        line=lineno,
                    )
                    if on_error == "raise":
                        raise err
                    report.record(err)
                    skipping = True
                    continue
                parts.append(line)
        if name is not None:
            yield _make_record(name, description, parts)


def _make_record(name, description, parts):
    meta = {"description": description} if description else {}
    return SeqRecord(name=name, codes=encode("".join(parts)), meta=meta)


# -- comparison ---------------------------------------------------------------

BLOCK_SIZES = (1, 7, 64, io_fasta._BLOCK_BYTES)


def outcome(reader, path, on_error, *, cut=None, **kwargs):
    """Everything a caller can observe of one read of ``path`` (``cut``, when
    given, is applied to each record's codes first)."""
    report = ParseReport()
    records, raised = [], None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            for rec in reader(path, on_error=on_error, report=report, **kwargs):
                codes = rec.codes if cut is None else cut(rec.codes)
                records.append((rec.name, rec.meta, codes.tobytes(), rec.bases))
        except ParseError as exc:
            raised = (str(exc), exc.path, exc.line)
    skipped = [(str(err), err.path, err.line) for err in report.errors]
    return records, raised, report.skipped, skipped


def assert_matches_oracle(path):
    path = str(path)
    for on_error in ("raise", "skip"):
        want = outcome(oracle_iter_fasta, path, on_error)
        for size in BLOCK_SIZES:
            with mock.patch.object(io_fasta, "_BLOCK_BYTES", size):
                got = outcome(iter_fasta, path, on_error)
            assert got == want, (on_error, size)
    # the columnar form the pipeline consumes: buffer and offsets too
    builder = SequenceSetBuilder()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rec in oracle_iter_fasta(path, on_error="skip"):
            builder.add(rec.name, rec.codes, rec.meta)
        with mock.patch.object(io_fasta, "_BLOCK_BYTES", 7):
            loaded = read_fasta(path, on_error="skip")
    expected = builder.build()
    assert np.array_equal(loaded.buffer, expected.buffer)
    assert np.array_equal(loaded.offsets, expected.offsets)
    assert loaded.names == expected.names and loaded.metas == expected.metas


def write_case(directory, data, gz):
    path = directory / ("case.fasta.gz" if gz else "case.fasta")
    if gz:
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        path.write_bytes(data)
    return path


# -- generated files ----------------------------------------------------------

# any ASCII byte but the two line terminators; '>' and blanks included
_junk = st.binary(min_size=1, max_size=12).map(
    lambda b: bytes(c & 0x7F for c in b).replace(b"\n", b"n").replace(b"\r", b"N")
)
_bases = st.text(alphabet="acgtACGTNn", min_size=1, max_size=90).map(str.encode)
_word = st.text(
    alphabet="abcXYZ019_-.|", min_size=1, max_size=8
).map(str.encode)
_pad = st.sampled_from([b"", b"", b" ", b"\t", b"  "])

_header = st.builds(
    lambda lead, name, desc, trail: b">" + lead + name + desc + trail,
    _pad,
    _word,
    st.one_of(st.just(b""), st.builds(lambda w, v: b" " + w + b" " + v, _word, _word)),
    _pad,
)
_empty_header = st.builds(lambda pad: b">" + pad, _pad)
_sequence = st.one_of(
    _bases,
    _bases,
    st.builds(lambda a, j, b: a + j + b, _bases, _junk, _bases),
    st.builds(lambda a, b: a + b">" + b, _bases, _bases),  # '>' inside a line
    _junk,
)
_line = st.one_of(_header, _header, _sequence, _sequence, _sequence,
                  st.just(b""), _empty_header)
_ending = st.sampled_from([b"\n", b"\n", b"\n", b"\r\n", b"\r\n", b"\r"])


@st.composite
def fasta_bytes(draw):
    lines = draw(st.lists(st.tuples(_line, _ending), max_size=14))
    data = b"".join(line + ending for line, ending in lines)
    if lines and draw(st.booleans()):
        data = data[: -len(lines[-1][1])]  # no trailing newline
    return data


@settings(max_examples=300, deadline=None)
@given(data=fasta_bytes(), gz=st.booleans())
def test_generated_files_match_the_line_loop_reader(tmp_path_factory, data, gz):
    assert_matches_oracle(write_case(tmp_path_factory.mktemp("diff"), data, gz))


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"\n",
        b"\r",
        b"\r\n\r\n",
        b">",
        b">a",
        b">a\n",
        b">a\r",
        b">a\racgt\r>b\rgg",  # lone CR is a line ending, as in text mode
        b">a\r\nac\r\ngt\r\n>b desc  more \r\ntt",
        b"acgt\n>a\nac\n",  # orphan data
        b"\n\n  \n>a\nac\n",  # a blank-looking orphan line
        b"\n\n>a\n\n\nac\n\n>b\n",  # blank lines, header-only last record
        b">\nacgt\n>b\ncc\n>  \t\ngg\n>c\n",  # empty headers
        b">a\nac>gt\n>b\n>c\nx y\tz\x00\x7f\n",
        b">a\x1c\nacgt\n>\x1f\nacgt\n",  # separators str.strip() removes
    ],
)
def test_edge_files_match_the_line_loop_reader(tmp_path, data):
    assert_matches_oracle(write_case(tmp_path, data, gz=False))
    assert_matches_oracle(write_case(tmp_path, data, gz=True))


def test_record_spanning_many_blocks(tmp_path):
    rng = np.random.default_rng(5)
    long_body = "".join(rng.choice(list("acgtN"), size=5_000))
    lines = [long_body[i : i + 61] for i in range(0, len(long_body), 61)]
    data = ">short\nacgt\n>long one\n" + "\r\n".join(lines) + "\n>tail\ngg"
    path = write_case(tmp_path, data.encode(), gz=False)
    assert_matches_oracle(path)
    with mock.patch.object(io_fasta, "_BLOCK_BYTES", 64):
        records = list(iter_fasta(path))
    assert [len(r) for r in records] == [4, 5_000, 2]
    assert records[1].sequence == long_body.lower()


# -- non-ASCII input: where the old reader crashed, a typed error --------------


def test_non_ascii_raises_parse_error_with_line(tmp_path):
    path = tmp_path / "latin.fasta"
    path.write_bytes(b">a\nacgt\n>b\nac\n\ng\xe9t\n>c\ntt\n")
    with pytest.raises(ParseError, match="non-ASCII byte 0xe9") as info:
        list(iter_fasta(path))
    assert info.value.line == 6 and info.value.path == str(path)


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_non_ascii_record_is_skipped_and_counted(tmp_path, size):
    path = tmp_path / "latin.fasta"
    path.write_bytes(b">a\nacgt\n>b caf\xc3\xa9\nacgt\n>c\ntt\n>d\nt\xfft\n")
    report = ParseReport()
    with mock.patch.object(io_fasta, "_BLOCK_BYTES", size), pytest.warns(UserWarning):
        records = list(iter_fasta(path, on_error="skip", report=report))
    assert [(r.name, r.sequence) for r in records] == [("a", "acgt"), ("c", "tt")]
    assert report.skipped == 2
    assert [err.line for err in report.errors] == [3, 8]


def test_bom_is_never_coded_as_sequence(tmp_path):
    path = tmp_path / "bom.fasta"
    path.write_bytes(b"\xef\xbb\xbf>a\nacgt\n>b\ngg\n")
    with pytest.raises(ParseError) as info:
        read_fasta(path)
    assert info.value.line == 1
    report = ParseReport()
    with pytest.warns(UserWarning):
        loaded = read_fasta(path, on_error="skip", report=report)
    # the BOM hides the first '>': that record goes, the next survives
    assert loaded.names == ["b"] and report.skipped == 1


# -- the ends reader held to "translate all, then cut" --------------------------


def keep_ends(codes, ell):
    """What a mapper reads of a read: its first and last ``ell`` codes."""
    return codes if codes.size <= 2 * ell else np.concatenate((codes[:ell], codes[-ell:]))


def assert_ends_match_full_parse(path, ell):
    """``iter_fasta(..., ends=ell)`` sees what the full parse sees, cut to the
    ends afterwards: names, metas, kept codes, full base counts, the error
    raised and the skip tally, at every block size."""
    path = str(path)
    for on_error in ("raise", "skip"):
        want = outcome(iter_fasta, path, on_error, cut=lambda codes: keep_ends(codes, ell))
        for size in BLOCK_SIZES:
            with mock.patch.object(io_fasta, "_BLOCK_BYTES", size):
                got = outcome(iter_fasta, path, on_error, ends=ell)
            assert got == want, (on_error, size, ell)


_ELLS = (1, 2, 5, 13, 61, 100)
_BASE_BYTES = np.frombuffer(b"acgtACGTNn", dtype=np.uint8)


@st.composite
def long_read_fasta(draw):
    """(file bytes, ℓ): records of ℓ±1, 2ℓ±1 and other lengths, wrapped at
    1/7/60/80 bases or not at all, with any line ending, blank lines, ``N``,
    lower case and — now and then — a non-ASCII byte anywhere in a body."""
    ell = draw(st.sampled_from(_ELLS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    around = [ell - 1, ell, ell + 1, 2 * ell - 1, 2 * ell, 2 * ell + 1]
    ending = draw(_ending)
    chunks = []
    for i in range(draw(st.integers(1, 4))):
        size = draw(st.one_of(st.sampled_from(around), st.integers(0, 6 * ell + 3)))
        body = rng.choice(_BASE_BYTES, size=size).tobytes()
        if body and draw(st.integers(0, 5)) == 0:
            at = int(rng.integers(0, len(body)))
            body = body[:at] + b"\xe9" + body[at + 1 :]
        width = draw(st.sampled_from([1, 7, 60, 80, 0]))
        lines = [body[j : j + width] for j in range(0, len(body), width)] if width else [body]
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), b"")
        header = b">r%d" % i + draw(st.sampled_from([b"", b" desc x"]))
        chunks.append(ending.join([header, *lines]))
    data = ending.join(chunks)
    if draw(st.booleans()):
        data += ending
    return data, ell


@settings(max_examples=200, deadline=None)
@given(case=long_read_fasta(), gz=st.booleans())
def test_ends_reader_matches_the_full_parse_cut_afterwards(tmp_path_factory, case, gz):
    data, ell = case
    assert_ends_match_full_parse(write_case(tmp_path_factory.mktemp("ends"), data, gz), ell)


@pytest.mark.parametrize("ell", [1, 3, 1000])
@pytest.mark.parametrize("width", [1, 7, 60, 80, 0])
def test_every_length_around_l_and_2l_at_every_width(tmp_path, ell, width):
    rng = np.random.default_rng(ell * 100 + width)
    sizes = [ell - 1, ell, ell + 1, 2 * ell - 1, 2 * ell, 2 * ell + 1, 7 * ell]
    parts = []
    for i, size in enumerate(sizes):
        body = "".join(rng.choice(list("acgtACGTNn"), size=size))
        lines = [body[j : j + width] for j in range(0, len(body), width)] if width else [body]
        parts.append("\n".join([f">r{i} len {size}", *lines]))
    text = "\r\n".join(parts) + "\r\n"
    for gz in (False, True):
        path = write_case(tmp_path, text.encode(), gz)
        assert_ends_match_full_parse(path, ell)
        records = list(iter_fasta(path, ends=ell))
        assert [r.bases for r in records] == sizes
        assert max(len(r) for r in records) == 2 * ell


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_non_ascii_in_the_dropped_middle_is_still_an_error(tmp_path, size):
    """The middle of a long read is never translated, but it is still checked:
    the same ParseError at the same line, and the same skip tally."""
    body = b"acgt" * 50  # 200 bases, ends=10 keeps 20 of them
    lines = [body[j : j + 7] for j in range(0, len(body), 7)]
    lines[14] = lines[14][:3] + b"\xe9" + lines[14][4:]
    path = tmp_path / "middle.fasta"
    path.write_bytes(b">a\nacgt\n>long\n" + b"\n".join(lines) + b"\n>c\ntt\n")
    with mock.patch.object(io_fasta, "_BLOCK_BYTES", size):
        with pytest.raises(ParseError, match="non-ASCII byte 0xe9") as info:
            list(iter_fasta(path, ends=10))
        assert info.value.line == 4 + 14
        report = ParseReport()
        with pytest.warns(UserWarning):
            records = list(iter_fasta(path, on_error="skip", report=report, ends=10))
    assert [r.name for r in records] == ["a", "c"] and report.skipped == 1
    assert [err.line for err in report.errors] == [18]
    assert_ends_match_full_parse(path, 10)


def test_ends_must_be_positive(tmp_path):
    path = write_case(tmp_path, b">a\nacgt\n", gz=False)
    with pytest.raises(ValueError, match="ends must be >= 1"):
        list(iter_fasta(path, ends=0))
