import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.seq import SeqRecord, SequenceSet, encode, iter_fastq, read_fastq, write_fastq


def test_round_trip(tmp_path):
    path = tmp_path / "x.fastq"
    rec = SeqRecord("r1", encode("acgt"), quality=np.array([10, 20, 30, 40], dtype=np.uint8))
    write_fastq(path, [rec])
    loaded = list(iter_fastq(path))
    assert loaded[0].name == "r1"
    assert loaded[0].sequence == "acgt"
    assert np.array_equal(loaded[0].quality, [10, 20, 30, 40])


def test_default_quality(tmp_path):
    path = tmp_path / "d.fastq"
    write_fastq(path, SequenceSet.from_strings([("r", "acg")]), default_quality=35)
    rec = next(iter_fastq(path))
    assert np.array_equal(rec.quality, [35, 35, 35])


def test_read_fastq_set(tmp_path):
    path = tmp_path / "s.fastq"
    write_fastq(path, SequenceSet.from_strings([("a", "acgt"), ("b", "gg")]))
    loaded = read_fastq(path)
    assert loaded.names == ["a", "b"]
    assert loaded.total_bases == 6


def test_bad_header(tmp_path):
    path = tmp_path / "bad.fastq"
    path.write_text("r1\nacgt\n+\nIIII\n")
    with pytest.raises(ParseError, match="expected '@'"):
        list(iter_fastq(path))


def test_bad_separator(tmp_path):
    path = tmp_path / "bad2.fastq"
    path.write_text("@r1\nacgt\n-\nIIII\n")
    with pytest.raises(ParseError, match="expected '\\+'"):
        list(iter_fastq(path))


def test_quality_length_mismatch(tmp_path):
    path = tmp_path / "bad3.fastq"
    path.write_text("@r1\nacgt\n+\nII\n")
    with pytest.raises(ParseError, match="quality length"):
        list(iter_fastq(path))


def test_description_preserved(tmp_path):
    path = tmp_path / "desc.fastq"
    path.write_text("@r1 some description\nacgt\n+\nIIII\n")
    rec = next(iter_fastq(path))
    assert rec.meta["description"] == "some description"


# -- the ends reader held to "parse all, then cut" ------------------------------


def _fastq_outcome(path, on_error, ends=None, ell=None):
    """Names, metas, codes, qualities and base counts of every record — cut to
    their ``ell``-base ends afterwards when ``ell`` is given — plus the error
    raised and the skip tally."""
    import warnings

    from repro.seq import ParseReport

    def cut(arr):
        if ell is None or arr.size <= 2 * ell:
            return arr.tobytes()
        return np.concatenate((arr[:ell], arr[-ell:])).tobytes()

    report, records, raised = ParseReport(), [], None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            for rec in iter_fastq(path, on_error=on_error, report=report, ends=ends):
                records.append((rec.name, rec.meta, cut(rec.codes), cut(rec.quality), rec.bases))
        except ParseError as exc:
            raised = (str(exc), exc.line)
    return records, raised, [(str(e), e.line) for e in report.errors]


_BASE_BYTES = np.frombuffer(b"acgtACGTNn", dtype=np.uint8)


@st.composite
def long_read_fastq(draw):
    """(file bytes, ℓ): records of ℓ±1, 2ℓ±1 and other lengths, any line
    ending, and now and then a malformed one — a non-ASCII byte anywhere in
    the sequence or quality line, a short quality line, a bad separator."""
    ell = draw(st.sampled_from([1, 2, 5, 13, 100]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ending = draw(st.sampled_from([b"\n", b"\r\n"]))
    records = []
    for i in range(draw(st.integers(1, 4))):
        size = draw(st.one_of(
            st.sampled_from([ell - 1, ell, ell + 1, 2 * ell - 1, 2 * ell, 2 * ell + 1]),
            st.integers(0, 6 * ell + 3),
        ))
        seq = rng.choice(_BASE_BYTES, size=size).tobytes()
        qual = bytes(rng.integers(33, 74, size=size, dtype=np.uint8))
        plus = b"+"
        flaw = draw(st.sampled_from([None] * 6 + ["seq", "qual", "short", "plus"]))
        if flaw in ("seq", "qual") and size:
            at = int(rng.integers(0, size))
            if flaw == "seq":
                seq = seq[:at] + b"\xe9" + seq[at + 1 :]
            else:
                qual = qual[:at] + b"\xff" + qual[at + 1 :]
        elif flaw == "short":
            qual = qual[:-1] if size else b"I"
        elif flaw == "plus":
            plus = b"-"
        header = b"@r%d" % i + draw(st.sampled_from([b"", b" desc x"]))
        records.append(ending.join([header, seq, plus, qual]))
    return ending.join(records) + ending, ell


@settings(max_examples=150, deadline=None)
@given(case=long_read_fastq(), gz=st.booleans())
def test_ends_reader_matches_the_full_parse_cut_afterwards(tmp_path_factory, case, gz):
    import gzip

    data, ell = case
    path = tmp_path_factory.mktemp("ends") / ("r.fastq.gz" if gz else "r.fastq")
    if gz:
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        path.write_bytes(data)
    for on_error in ("raise", "skip"):
        assert _fastq_outcome(path, on_error, ends=ell) == _fastq_outcome(
            path, on_error, ell=ell
        ), on_error


def test_ends_keep_codes_and_qualities_of_both_ends(tmp_path):
    path = tmp_path / "long.fastq"
    seq = "ac" * 10 + "g" * 40 + "tt" * 10
    qual = "".join(chr(33 + i % 40) for i in range(len(seq)))
    path.write_text(f"@r1\n{seq}\n+\n{qual}\n@r2\nacgt\n+\nIIII\n")
    long, short = iter_fastq(path, ends=20)
    assert long.bases == 80 and long.sequence == ("ac" * 10 + "tt" * 10)
    assert np.array_equal(long.quality, [i % 40 for i in (*range(20), *range(60, 80))])
    assert short.bases == 4 and short.sequence == "acgt"
