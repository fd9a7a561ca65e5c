import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PREFIX, SUFFIX, SegmentInfo, extract_end_segments
from repro.errors import SequenceError
from repro.seq import SequenceSet, SequenceSetBuilder, decode, encode, write_fasta


def test_basic_extraction():
    reads = SequenceSet.from_strings([("r", "a" * 100 + "c" * 100 + "g" * 100)])
    segments, infos = extract_end_segments(reads, 100)
    assert len(segments) == 2
    assert segments.names == ["r/prefix", "r/suffix"]
    assert segments[0].sequence == "a" * 100
    assert segments[1].sequence == "g" * 100
    assert infos[0].kind == PREFIX and infos[1].kind == SUFFIX
    assert infos[0].read_index == infos[1].read_index == 0


def test_two_segments_per_read():
    reads = SequenceSet.from_strings([(f"r{i}", "acgt" * 100) for i in range(5)])
    segments, infos = extract_end_segments(reads, 50)
    assert len(segments) == 10
    assert [si.read_index for si in infos] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


def test_short_read_uses_whole_sequence():
    reads = SequenceSet.from_strings([("short", "acgtacgt")])
    segments, _ = extract_end_segments(reads, 100)
    assert segments[0].sequence == "acgtacgt"
    assert segments[1].sequence == "acgtacgt"


def test_empty_read_rejected():
    reads = SequenceSet(
        np.empty(0, dtype=np.uint8), np.array([0, 0], dtype=np.int64), ["bad"]
    )
    with pytest.raises(SequenceError):
        extract_end_segments(reads, 10)


def test_bad_ell():
    reads = SequenceSet.from_strings([("r", "acgt")])
    with pytest.raises(SequenceError):
        extract_end_segments(reads, 0)


def test_truth_coordinates_forward():
    builder = SequenceSetBuilder()
    builder.add_string("r", "a" * 500, {"ref_start": 1000, "ref_end": 1500, "ref_strand": 1})
    segments, _ = extract_end_segments(builder.build(), 100)
    assert segments.metas[0]["ref_start"] == 1000
    assert segments.metas[0]["ref_end"] == 1100
    assert segments.metas[1]["ref_start"] == 1400
    assert segments.metas[1]["ref_end"] == 1500


def test_truth_coordinates_reverse_strand():
    builder = SequenceSetBuilder()
    builder.add_string("r", "a" * 500, {"ref_start": 1000, "ref_end": 1500, "ref_strand": -1})
    segments, _ = extract_end_segments(builder.build(), 100)
    # Reverse-strand read: its prefix is the reference END.
    assert segments.metas[0]["ref_start"] == 1400
    assert segments.metas[0]["ref_end"] == 1500
    assert segments.metas[1]["ref_start"] == 1000
    assert segments.metas[1]["ref_end"] == 1100


def test_no_truth_meta_ok():
    reads = SequenceSet.from_strings([("r", "acgt" * 50)])
    segments, _ = extract_end_segments(reads, 10)
    assert "ref_start" not in segments.metas[0]
    assert segments.metas[0]["kind"] == PREFIX


# -- the batched extraction against the per-read loop it replaced -------------


def _segment_meta_loop(read_meta: dict, kind: str, read_len: int, ell: int) -> dict:
    meta = {"kind": kind}
    if "ref_start" in read_meta and "ref_end" in read_meta:
        start = int(read_meta["ref_start"])
        end = int(read_meta["ref_end"])
        strand = int(read_meta.get("ref_strand", 1))
        seg_len = min(ell, read_len)
        at_start = (kind == PREFIX) == (strand == 1)
        if at_start:
            meta["ref_start"], meta["ref_end"] = start, min(start + seg_len, end)
        else:
            meta["ref_start"], meta["ref_end"] = max(end - seg_len, start), end
        meta["ref_strand"] = strand
        if "ref_name" in read_meta:
            meta["ref_name"] = read_meta["ref_name"]
    return meta


def extract_end_segments_loop(reads: SequenceSet, ell: int):
    """``extract_end_segments`` as it was up to PR 23 — one read at a time
    through ``SequenceSetBuilder.add`` — kept here as the oracle."""
    if ell < 1:
        raise SequenceError(f"segment length must be >= 1, got {ell}")
    builder = SequenceSetBuilder()
    infos = []
    for i in range(len(reads)):
        codes = reads.codes_of(i)
        if codes.size == 0:
            raise SequenceError(f"read {reads.names[i]!r} is empty")
        name, meta, n = reads.names[i], reads.metas[i], codes.size
        builder.add(f"{name}/{PREFIX}", codes[: min(ell, n)], _segment_meta_loop(meta, PREFIX, n, ell))
        infos.append(SegmentInfo(read_index=i, kind=PREFIX))
        builder.add(f"{name}/{SUFFIX}", codes[max(0, n - ell) :], _segment_meta_loop(meta, SUFFIX, n, ell))
        infos.append(SegmentInfo(read_index=i, kind=SUFFIX))
    return builder.build(), infos


ELL = 12

_metas = st.one_of(
    st.just({}),
    st.fixed_dictionaries(
        {"ref_start": st.integers(0, 500), "ref_end": st.integers(0, 1_000),
         "ref_strand": st.sampled_from([1, -1])},
        optional={"ref_name": st.sampled_from(["chr1", "chr2"])},
    ),
    st.fixed_dictionaries({"ref_start": st.integers(0, 500), "ref_end": st.integers(0, 1_000)}),
    st.fixed_dictionaries({"ref_start": st.integers(0, 500), "note": st.just("no end")}),
)
# shorter than ell, exactly ell, ell + 1, 2 ell - 1 (the ends overlap), 2 ell, longer
_lengths = st.one_of(
    st.sampled_from([1, ELL - 1, ELL, ELL + 1, 2 * ELL - 1, 2 * ELL]), st.integers(1, 5 * ELL)
)
_reads = st.lists(st.tuples(_lengths, _metas), max_size=9)


def _read_set(shape, seed: int, empty_at: int | None = None) -> SequenceSet:
    rng = np.random.default_rng(seed)
    builder = SequenceSetBuilder()
    for i, (length, meta) in enumerate(shape):
        codes = rng.integers(0, 5, size=0 if i == empty_at else length).astype(np.uint8)
        builder.add(f"read{i}", codes, meta)
    return builder.build()


def _assert_same_segments(got, want):
    (got_set, got_infos), (want_set, want_infos) = got, want
    assert got_set.buffer.dtype == want_set.buffer.dtype == np.uint8
    assert np.array_equal(got_set.buffer, want_set.buffer)
    assert got_set.offsets.dtype == want_set.offsets.dtype
    assert np.array_equal(got_set.offsets, want_set.offsets)
    assert got_set.names == want_set.names
    assert got_set.metas == want_set.metas
    assert [type(v) for m in got_set.metas for v in m.values()] == [
        type(v) for m in want_set.metas for v in m.values()
    ]
    assert got_infos == want_infos


@settings(max_examples=300, deadline=None)
@given(shape=_reads, seed=st.integers(0, 2**16), ell=st.sampled_from([1, ELL, 1_000]))
def test_batched_extraction_equals_the_per_read_loop(shape, seed, ell):
    reads = _read_set(shape, seed)
    _assert_same_segments(extract_end_segments(reads, ell), extract_end_segments_loop(reads, ell))


@settings(max_examples=50, deadline=None)
@given(shape=_reads.filter(len), seed=st.integers(0, 2**16), data=st.data())
def test_an_empty_read_raises_what_the_loop_raised(shape, seed, data):
    """The first empty read is named, wherever it sits and however many follow."""
    first = data.draw(st.integers(0, len(shape) - 1))
    reads = _read_set(shape, seed, empty_at=first)
    with pytest.raises(SequenceError) as old:
        extract_end_segments_loop(reads, ELL)
    with pytest.raises(SequenceError) as new:
        extract_end_segments(reads, ELL)
    assert str(new.value) == str(old.value) == f"read 'read{first}' is empty"


def test_the_segment_set_does_not_alias_the_reads():
    reads = SequenceSet.from_strings([("r", "acgt" * 10)])
    segments, _ = extract_end_segments(reads, 8)
    assert not np.shares_memory(segments.buffer, reads.buffer)
    assert len(extract_end_segments(SequenceSet.empty(), 8)[0]) == 0


def test_reads_trimmed_to_their_ends_are_their_own_segment_buffer(tmp_path):
    """A streamed batch of reads of 2ℓ bases or more holds each read's two
    ℓ-base ends back to back: the segments are a view of the batch, equal to
    the loop's.  One shorter read (its ends overlap) makes them a copy."""
    from repro.core.streaming import iter_file_batches

    rng = np.random.default_rng(5)
    lengths = [2 * ELL, 5 * ELL, 2 * ELL + 1, 3 * ELL]
    pairs = [
        (f"r{i}", decode(rng.integers(0, 4, size=n).astype(np.uint8)))
        for i, n in enumerate(lengths)
    ]
    for reads, shares in ((pairs, True), (pairs + [("short", "acgt" * (ELL // 4) + "a")], False)):
        path = tmp_path / f"reads{len(reads)}.fasta"
        write_fasta(str(path), SequenceSet.from_strings(reads))
        (batch,) = iter_file_batches(str(path), ends=ELL)
        got = extract_end_segments(batch, ELL)
        _assert_same_segments(got, extract_end_segments_loop(batch, ELL))
        assert np.shares_memory(got[0].buffer, batch.buffer) is shares
