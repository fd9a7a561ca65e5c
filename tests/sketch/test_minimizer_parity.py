"""Step 1 three ways: strings, numpy, and the native rolling pass.

``string_minimizers`` works on Python strings only — ``min(kmer,
revcomp(kmer))`` over every window — and shares no code with
``repro.sketch.kmers`` / ``minimizers`` / ``windowmin``, so a mistake
common to the numpy oracle and the C kernel (which pack the same keys)
cannot hide behind their agreeing with each other.  The numpy
``minimizers_set`` and the native ``jem_minimizer_kernel`` are then held
equal to it, to each other over adversarial shapes, and the two block
layouts built on them (``subject_sketch_pairs``, ``query_minimizer_concat``)
are held equal with and without ``REPRO_NO_NATIVE``.

Runs in both CI legs: under ``REPRO_NO_NATIVE=1`` (or with no compiler)
the native cases skip and the string oracle still checks numpy.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq import SequenceSet
from repro.sketch import _native
from repro.sketch.hashing import HashFamily
from repro.sketch.jem import (
    _minimizer_block,
    _subject_minimizer_block,
    query_minimizer_concat,
    subject_sketch_pairs,
)
from repro.sketch.minimizers import minimizers_set

# `repro.sketch.minimizers` the attribute is the function of that name
minimizers_mod = importlib.import_module("repro.sketch.minimizers")

needs_native = pytest.mark.skipif(
    _native.load() is None, reason="native kernels unavailable or disabled"
)

_COMPLEMENT = str.maketrans("acgt", "tgca")
_DIGITS = str.maketrans("acgt", "0123")


def string_minimizers(seq: str, k: int, w: int) -> list[tuple[int, int]]:
    """⟨rank, position⟩ of one sequence, from the paper's rule on strings."""
    nk = len(seq) - k + 1
    if nk <= 0:
        return []
    canon: list[str | None] = []
    for j in range(nk):
        kmer = seq[j : j + k]
        if set(kmer) <= set("acgt"):
            canon.append(min(kmer, kmer.translate(_COMPLEMENT)[::-1]))
        else:
            canon.append(None)
    weff = min(w, nk)
    out: list[tuple[int, int]] = []
    previous = None
    for start in range(nk - weff + 1):
        window = [
            (canon[j], j) for j in range(start, start + weff) if canon[j] is not None
        ]
        current = min(window) if window else None  # ties: leftmost position
        if current != previous:
            previous = current
            if current is not None:
                out.append((int(current[0].translate(_DIGITS), 4), current[1]))
    return out


def as_set(strings: list[str]) -> SequenceSet:
    return SequenceSet.from_strings([(f"s{i}", s) for i, s in enumerate(strings)])


def numpy_block(sset: SequenceSet, k: int, w: int):
    lists = minimizers_set(sset, k, w)
    ranks = [r for ml in lists for r in ml.ranks.tolist()]
    positions = [p for ml in lists for p in ml.positions.tolist()]
    return ranks, positions, [len(ml) for ml in lists]


def native_block(sset: SequenceSet, k: int, w: int):
    ranks, positions, counts = _native.load().minimizer_block(
        sset.buffer, sset.offsets, k, w
    )
    assert ranks.dtype == np.uint64 and positions.dtype == np.int64
    assert counts.dtype == np.int64 and ranks.size == positions.size == counts.sum()
    return ranks.tolist(), positions.tolist(), counts.tolist()


def string_block(strings: list[str], k: int, w: int):
    per_seq = [string_minimizers(s, k, w) for s in strings]
    ranks = [r for entries in per_seq for r, _ in entries]
    positions = [p for entries in per_seq for _, p in entries]
    return ranks, positions, [len(entries) for entries in per_seq]


# n runs long enough to blank whole windows, sequences shorter than k and
# shorter than k + w - 1, empty sequences
dna_n = st.lists(
    st.one_of(st.text(alphabet="acgt", max_size=40), st.text(alphabet="n", max_size=20)),
    max_size=8,
).map("".join)
sequence_sets = st.lists(dna_n, min_size=1, max_size=6)
ks = st.integers(min_value=1, max_value=16)
ws = st.sampled_from([1, 2, 7, 100, 10**6])  # the last two are mostly > nk


@settings(max_examples=150, deadline=None)
@given(strings=sequence_sets, k=ks, w=ws)
def test_numpy_matches_string_oracle(strings, k, w):
    assert numpy_block(as_set(strings), k, w) == string_block(strings, k, w)


@needs_native
@settings(max_examples=150, deadline=None)
@given(strings=sequence_sets, k=ks, w=ws)
def test_native_matches_string_oracle(strings, k, w):
    assert native_block(as_set(strings), k, w) == string_block(strings, k, w)


@needs_native
@settings(max_examples=300, deadline=None)
@given(strings=sequence_sets, k=ks, w=st.one_of(ws, st.integers(1, 60)))
def test_native_matches_numpy(strings, k, w):
    sset = as_set(strings)
    assert native_block(sset, k, w) == numpy_block(sset, k, w)


def random_set(rng, n_seqs: int, max_len: int, invalid: float) -> SequenceSet:
    lengths = rng.integers(0, max_len, size=n_seqs)
    codes = rng.integers(0, 4, size=int(lengths.sum())).astype(np.uint8)
    codes[rng.random(codes.size) < invalid] = 4
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return SequenceSet(codes, offsets, [f"s{i}" for i in range(n_seqs)])


@needs_native
@pytest.mark.parametrize("k,w", [(16, 100), (16, 1), (1, 1), (3, 2), (11, 7), (16, 5000)])
def test_native_matches_numpy_across_chunk_boundaries(monkeypatch, k, w):
    """Both sides cut the set into runs of sequences (numpy: _CHUNK_BASES,
    native: _BLOCK_BASES); with runs of a few hundred bases nearly every
    boundary case — a sequence alone in its run, longer than the run, empty
    at a run's edge — occurs, and neither cut may show in the output."""
    sset = random_set(np.random.default_rng(k * 1000 + w), 300, 900, 0.01)
    whole = native_block(sset, k, w)
    assert whole == numpy_block(sset, k, w)
    monkeypatch.setattr(minimizers_mod, "_CHUNK_BASES", 300)
    monkeypatch.setattr(_native, "_BLOCK_BASES", 700)
    assert native_block(sset, k, w) == whole
    assert numpy_block(sset, k, w) == whole


@needs_native
def test_native_handles_default_sized_runs():
    """A set a few times _BLOCK_BASES long, one sequence longer than it."""
    rng = np.random.default_rng(5)
    lengths = np.array([0, 400_000, (1 << 20) + 4321, 17, 0, 900_000, 15, 16])
    codes = rng.integers(0, 4, size=int(lengths.sum())).astype(np.uint8)
    codes[rng.random(codes.size) < 0.0005] = 4
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    sset = SequenceSet(codes, offsets, [f"s{i}" for i in range(lengths.size)])
    assert native_block(sset, 16, 100) == numpy_block(sset, 16, 100)


@needs_native
def test_all_invalid_and_window_one():
    """w = 1 emits every valid k-mer: the output is as long as the input."""
    strings = ["n" * 50, "acgtn" * 10, "", "a" * 30]
    assert native_block(as_set(strings), 4, 1) == string_block(strings, 4, 1)
    assert native_block(as_set(["n" * 50]), 16, 1) == ([], [], [0])


@needs_native
def test_native_binding_rejects_bad_arguments():
    lib = _native.load()
    sset = as_set(["acgtacgt"])
    for k, w in [(0, 5), (17, 5), (4, 0)]:
        with pytest.raises(ValueError):
            lib.minimizer_block(sset.buffer, sset.offsets, k, w)
    with pytest.raises(ValueError):  # offsets past the buffer
        lib.minimizer_block(sset.buffer, np.array([0, 9], dtype=np.int64), 4, 5)
    with pytest.raises(ValueError):  # decreasing offsets
        lib.minimizer_block(sset.buffer, np.array([0, 6, 2], dtype=np.int64), 4, 5)
    with pytest.raises(ValueError):  # wrong dtype
        lib.minimizer_block(sset.buffer.astype(np.int32), sset.offsets, 4, 5)


# -- the two block layouts, native against REPRO_NO_NATIVE=1 ---------------


def both_backends(monkeypatch, fn):
    native = fn()
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    numpy = fn()
    monkeypatch.delenv("REPRO_NO_NATIVE")
    return native, numpy


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@needs_native
@pytest.mark.parametrize("k,w,ell", [(16, 100, 1000), (8, 5, 60), (4, 1, 10), (16, 3000, 200)])
def test_block_layout_parity(monkeypatch, k, w, ell):
    sset = random_set(np.random.default_rng(ell), 120, 2500, 0.02)
    family = HashFamily.generate(5, seed=3)
    # values, within-sequence positions, counts
    assert_same_arrays(*both_backends(monkeypatch, lambda: _minimizer_block(sset, k, w)))
    # subject side: values, shifted positions, owner — and the sketch built on them
    assert_same_arrays(
        *both_backends(monkeypatch, lambda: _subject_minimizer_block(sset, k, w, ell))
    )
    assert_same_arrays(
        *both_backends(
            monkeypatch,
            lambda: subject_sketch_pairs(sset, k, w, ell, family, subject_id_offset=7),
        )
    )
    # query side: has, nonempty, values, starts
    assert_same_arrays(
        *both_backends(monkeypatch, lambda: query_minimizer_concat(sset, k, w))
    )


def test_subject_block_matches_per_sequence_concatenation():
    """The vectorised offsets equal the loop they replaced: each non-empty
    sequence shifts the next by its last position + ell + 2."""
    sset = as_set(["acgtacgtaggatcca", "", "nnnn", "ttgacca" * 9, "ac", "gattaca" * 5])
    k, w, ell = 5, 4, 12
    values, shifted, owner = _subject_minimizer_block(sset, k, w, ell)
    want_values, want_shifted, want_owner, base = [], [], [], 0
    for i, ml in enumerate(minimizers_set(sset, k, w)):
        want_values += ml.ranks.tolist()
        want_shifted += (ml.positions + base).tolist()
        want_owner += [i] * len(ml)
        if len(ml):
            base += int(ml.positions[-1]) + ell + 2
    assert values.tolist() == want_values
    assert shifted.tolist() == want_shifted
    assert owner.tolist() == want_owner


def test_query_block_bookkeeping():
    sset = as_set(["nnnnnnnn", "acgtacgtaggatcca", "", "gattacagattaca", "ac"])
    has, nonempty, values, starts = query_minimizer_concat(sset, 4, 3)
    lists = minimizers_set(sset, 4, 3)
    assert has.tolist() == [False, True, False, True, False]
    assert nonempty.tolist() == [1, 3]
    assert starts.tolist() == [0, len(lists[1])]
    assert values.tolist() == lists[1].ranks.tolist() + lists[3].ranks.tolist()
    empty = query_minimizer_concat(as_set(["nn", ""]), 4, 3)
    assert [a.size for a in empty] == [2, 0, 0, 0] and not empty[0].any()
    assert empty[3].dtype == np.int64 and empty[2].dtype == np.uint64


def test_empty_set():
    sset = SequenceSet(np.empty(0, dtype=np.uint8), np.zeros(1, dtype=np.int64), [])
    assert [a.size for a in _minimizer_block(sset, 16, 100)] == [0, 0, 0]
    assert [a.size for a in query_minimizer_concat(sset, 16, 100)] == [0, 0, 0, 0]
