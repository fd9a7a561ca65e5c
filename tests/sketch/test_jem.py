import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SketchError
from repro.seq import SequenceSet, decode, encode, random_codes
from repro.sketch import (
    HashFamily,
    jem_sketch_single,
    minimizers,
    pack_key,
    query_sketch_values,
    subject_kernel_reference,
    subject_sketch_pairs,
    unpack_keys,
)
from repro.sketch.jem import _subject_minimizer_block

dna = st.text(alphabet="acgt", min_size=30, max_size=300)


def naive_subject_pairs(seqs, k, w, ell, family):
    """Direct transcription of Algorithm 1 over every subject."""
    per_trial = [set() for _ in range(family.size)]
    for sid in range(len(seqs)):
        ml = minimizers(seqs.codes_of(sid), k, w)
        P, V = ml.positions, ml.ranks
        for i in range(len(ml)):
            in_interval = (P >= P[i]) & (P <= P[i] + ell)
            vals = V[in_interval]
            for t in range(family.size):
                hashed = family.apply(t, vals)
                sketch = int(vals[int(np.argmin(hashed))])
                per_trial[t].add((sketch, sid))
    return per_trial


def test_pack_unpack_round_trip():
    values = np.array([0, 5, (1 << 32) - 1], dtype=np.uint64)
    subjects = np.array([3, 0, (1 << 32) - 1], dtype=np.uint64)
    keys = pack_key(values, subjects)
    v2, s2 = unpack_keys(keys)
    assert np.array_equal(v2, values)
    assert np.array_equal(s2.astype(np.uint64), subjects)


def test_pack_rejects_large_values():
    with pytest.raises(SketchError):
        pack_key(np.array([1 << 32], dtype=np.uint64), np.array([0], dtype=np.uint64))


def test_subject_pairs_match_naive(rng):
    family = HashFamily.generate(5, seed=11)
    seqs = SequenceSet.from_strings(
        [(f"s{i}", decode(random_codes(400, rng))) for i in range(4)]
    )
    k, w, ell = 8, 10, 100
    got = subject_sketch_pairs(seqs, k, w, ell, family)
    expected = naive_subject_pairs(seqs, k, w, ell, family)
    for t in range(family.size):
        vals, sids = unpack_keys(got[t])
        got_set = set(zip(vals.tolist(), sids.tolist()))
        assert got_set == expected[t]


def test_subject_oracle_matches_naive_up_to_the_last_bound(rng, monkeypatch):
    """The numpy oracle on its own (no native S1, no native S2) against
    Algorithm 1 transcribed: the last contig's closing intervals all end at
    ``len(values)``, one past what ``minimum.reduceat`` can index without
    the sentinel slot."""
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    family = HashFamily.generate(5, seed=11)
    seqs = SequenceSet.from_strings(
        [(f"s{i}", decode(random_codes(400, rng))) for i in range(4)]
    )
    k, w, ell = 8, 10, 100
    values, positions, owner = _subject_minimizer_block(seqs, k, w, ell)
    ends = np.searchsorted(positions, positions + ell, side="right")
    assert np.count_nonzero(ends == values.size) > 1
    got = subject_kernel_reference(values, ends, owner.astype(np.uint64), family)
    expected = naive_subject_pairs(seqs, k, w, ell, family)
    for t in range(family.size):
        vals, sids = unpack_keys(got[t])
        assert set(zip(vals.tolist(), sids.tolist())) == expected[t]
        assert (got[t][1:] > got[t][:-1]).all()


def test_subject_pairs_sorted_unique():
    rng = np.random.default_rng(3)
    family = HashFamily.generate(4, seed=2)
    seqs = SequenceSet.from_strings([("s", decode(random_codes(600, rng)))])
    for keys in subject_sketch_pairs(seqs, 8, 10, 50, family):
        assert keys.size <= 1 or (keys[1:] > keys[:-1]).all()


def test_subject_id_offset():
    rng = np.random.default_rng(4)
    family = HashFamily.generate(3, seed=2)
    seqs = SequenceSet.from_strings([("s", decode(random_codes(300, rng)))])
    base = subject_sketch_pairs(seqs, 8, 10, 50, family)
    shifted = subject_sketch_pairs(seqs, 8, 10, 50, family, subject_id_offset=7)
    for t in range(3):
        _, s0 = unpack_keys(base[t])
        _, s7 = unpack_keys(shifted[t])
        assert np.array_equal(s0 + 7, s7)


def test_empty_subject_set():
    family = HashFamily.generate(2, seed=2)
    seqs = SequenceSet.from_strings([("s", "ac")])  # shorter than k
    keys = subject_sketch_pairs(seqs, 8, 10, 50, family)
    assert all(k.size == 0 for k in keys)


def test_query_sketches_match_single(rng):
    family = HashFamily.generate(6, seed=13)
    segs = SequenceSet.from_strings(
        [(f"q{i}", decode(random_codes(200, rng))) for i in range(5)]
    )
    qs = query_sketch_values(segs, 8, 10, family)
    assert qs.has.all()
    for i in range(5):
        ml = minimizers(segs.codes_of(i), 8, 10)
        expected = jem_sketch_single(ml, family)
        assert np.array_equal(qs.values[:, i], expected)


def test_query_sketches_empty_segment():
    family = HashFamily.generate(2, seed=1)
    segs = SequenceSet.from_strings([("a", "acgtacgtacgtacgtacgt"), ("b", "nnnn")])
    qs = query_sketch_values(segs, 8, 4, family)
    assert list(qs.has) == [True, False]


def test_sketch_single_requires_minimizers():
    family = HashFamily.generate(2, seed=1)
    ml = minimizers(encode("ac"), 8, 4)
    with pytest.raises(SketchError):
        jem_sketch_single(ml, family)


@settings(max_examples=20, deadline=None)
@given(dna)
def test_sketch_values_are_minimizers(seq):
    """Every JEM sketch value is one of the sequence's minimizers."""
    family = HashFamily.generate(4, seed=21)
    seqs = SequenceSet.from_strings([("s", seq)])
    k, w, ell = 6, 8, 60
    ml = minimizers(encode(seq), k, w)
    if len(ml) == 0:
        return
    for keys in subject_sketch_pairs(seqs, k, w, ell, family):
        vals, _ = unpack_keys(keys)
        assert np.isin(vals, ml.ranks).all()


def test_identical_segment_finds_subject(rng):
    """A query equal to a subject substring sketches to colliding values."""
    family = HashFamily.generate(10, seed=5)
    subject = random_codes(3000, rng)
    seqs = SequenceSet.from_strings([("s", decode(subject))])
    k, w, ell = 12, 10, 500
    table = subject_sketch_pairs(seqs, k, w, ell, family)
    segment = SequenceSet.from_strings([("q", decode(subject[1000:1500]))])
    qs = query_sketch_values(segment, k, w, family)
    hits = 0
    for t in range(family.size):
        vals, _ = unpack_keys(table[t])
        if qs.values[t, 0] in vals:
            hits += 1
    assert hits >= 5  # most trials should collide
