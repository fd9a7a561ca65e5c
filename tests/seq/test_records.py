import numpy as np
import pytest

from repro.errors import SequenceError
from repro.seq import SeqRecord, SequenceSet, SequenceSetBuilder, encode


def make_set():
    return SequenceSet.from_strings(
        [("a", "acgtacgt"), ("b", "ttttt"), ("c", "g")]
    )


def test_from_strings_lengths():
    s = make_set()
    assert len(s) == 3
    assert list(s.lengths) == [8, 5, 1]
    assert s.total_bases == 14


def test_getitem_round_trip():
    s = make_set()
    assert s[0].sequence == "acgtacgt"
    assert s[1].name == "b"
    assert s[-1].sequence == "g"


def test_getitem_out_of_range():
    with pytest.raises(IndexError):
        make_set()[3]


def test_codes_of_is_view():
    s = make_set()
    view = s.codes_of(0)
    assert view.base is s.buffer or view.base is s.buffer.base


def test_iteration_preserves_order():
    s = make_set()
    assert [r.name for r in s] == ["a", "b", "c"]


def test_subset():
    s = make_set()
    sub = s.subset([2, 0])
    assert [r.name for r in sub] == ["c", "a"]
    assert sub[1].sequence == "acgtacgt"


def test_slice_zero_copy():
    s = make_set()
    sl = s.slice(1, 3)
    assert [r.name for r in sl] == ["b", "c"]
    assert sl.total_bases == 6
    assert sl[0].sequence == "ttttt"


def test_slice_bad_range():
    with pytest.raises(SequenceError):
        make_set().slice(2, 1)


def test_slices_and_joins_of_valid_sets_skip_the_input_checks(monkeypatch):
    """A slice or join of valid sets is valid: neither re-runs the
    constructor's checks, and both build what the checked constructor
    would.  Outside input still goes through every check."""
    s = make_set()
    left, right = s.slice(0, 1), s.slice(1, 3)
    copied = SequenceSet.from_strings([("d", "cc")])

    def checked(*args, **kwargs):
        raise AssertionError("a slice or join ran the constructor's checks")

    with monkeypatch.context() as patch:
        patch.setattr(SequenceSet, "__init__", checked)
        got = [s.slice(1, 3), s.slice(2, 2), SequenceSet.join([left, right]),
               SequenceSet.join([right, copied])]
    for part in got:
        want = SequenceSet(part.buffer, part.offsets, part.names, part.metas)
        assert part.buffer.dtype == np.uint8 and part.offsets.dtype == np.int64
        assert np.array_equal(part.offsets, want.offsets) and part.names == want.names
    assert got[2].buffer.base is s.buffer  # back to back in one array: a view
    with pytest.raises(SequenceError, match="non-decreasing"):
        SequenceSet(np.zeros(3, np.uint8), np.array([0, 2, 1, 3]), ["a", "b", "c"])


def test_concat():
    s = make_set()
    joined = s.concat(s)
    assert len(joined) == 6
    assert joined[3].sequence == "acgtacgt"


def test_empty_set():
    s = SequenceSet.empty()
    assert len(s) == 0
    assert s.total_bases == 0


def test_builder_matches_from_records():
    builder = SequenceSetBuilder()
    builder.add_string("x", "acgt", {"tag": 1})
    builder.add_string("y", "gg")
    built = builder.build()
    assert len(built) == 2
    assert built.metas[0] == {"tag": 1}
    assert built[1].sequence == "gg"


def test_builder_empty():
    assert len(SequenceSetBuilder().build()) == 0


def test_record_quality_length_mismatch():
    with pytest.raises(SequenceError):
        SeqRecord("r", encode("acgt"), quality=np.array([30, 30], dtype=np.uint8))


def test_offsets_validation():
    with pytest.raises(SequenceError):
        SequenceSet(np.zeros(4, dtype=np.uint8), np.array([0, 5]), ["a"])
