import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SketchError
from repro.seq import encode
from repro.sketch import minimizer_density, minimizers
from repro.sketch.kmers import canonical_kmer_ranks

dna = st.text(alphabet="acgt", min_size=1, max_size=250)
dna_n = st.text(alphabet="acgtn", min_size=1, max_size=250)


def naive_minimizers(seq: str, k: int, w: int):
    """Direct transcription of the paper's minimizer rule."""
    codes = encode(seq)
    canon, valid = canonical_kmer_ranks(codes, k)
    sentinel = (1 << 32) - 1
    canon = np.where(valid, canon, sentinel)
    nk = canon.size
    if nk == 0:
        return []
    weff = min(w, nk)
    out = []
    last = None
    for i in range(nk - weff + 1):
        window = canon[i : i + weff]
        j = int(np.argmin(window))  # leftmost min
        entry = (int(window[j]), i + j)
        if entry != last and entry[0] != sentinel:
            out.append(entry)
        if entry != last:
            last = entry
    return out


def test_simple_case():
    ml = minimizers(encode("acgtacgta"), 2, 3)
    naive = naive_minimizers("acgtacgta", 2, 3)
    assert list(zip(ml.ranks.tolist(), ml.positions.tolist())) == naive


def test_short_sequence_single_window():
    # fewer than w k-mers: treated as one window
    ml = minimizers(encode("acgta"), 3, 100)
    assert len(ml) == 1


def test_sequence_shorter_than_k():
    ml = minimizers(encode("ac"), 5, 10)
    assert len(ml) == 0


def test_k_too_large():
    with pytest.raises(SketchError):
        minimizers(encode("a" * 100), 17, 5)


def test_all_invalid_sequence():
    ml = minimizers(encode("nnnnnnnnnn"), 3, 2)
    assert len(ml) == 0


def test_positions_strictly_increasing(rng):
    from repro.seq import random_codes

    codes = random_codes(5000, rng)
    ml = minimizers(codes, 16, 50)
    assert (np.diff(ml.positions) > 0).all()


def test_minimizers_are_subset_of_kmers(rng):
    from repro.seq import random_codes

    codes = random_codes(2000, rng)
    ml = minimizers(codes, 8, 20)
    canon, _ = canonical_kmer_ranks(codes, 8)
    assert np.isin(ml.ranks, canon).all()
    # and each recorded rank matches the k-mer at its position
    assert np.array_equal(canon[ml.positions], ml.ranks)


@settings(max_examples=60, deadline=None)
@given(dna_n, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=20))
def test_matches_naive(seq, k, w):
    ml = minimizers(encode(seq), k, w)
    expected = naive_minimizers(seq, k, w)
    assert list(zip(ml.ranks.tolist(), ml.positions.tolist())) == expected


@settings(max_examples=30, deadline=None)
@given(dna, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=15))
def test_window_coverage(seq, k, w):
    """Every window of w consecutive k-mers contains a chosen minimizer."""
    codes = encode(seq)
    ml = minimizers(codes, k, w)
    nk = len(seq) - k + 1
    if nk <= 0:
        assert len(ml) == 0
        return
    weff = min(w, nk)
    positions = set(ml.positions.tolist())
    for i in range(nk - weff + 1):
        assert any(i <= p < i + weff for p in positions)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.text(alphabet="acgtn", min_size=0, max_size=120), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=15),
)
def test_minimizers_set_matches_per_sequence(seqs, k, w):
    """The chunked batch extractor equals the per-sequence one, always."""
    from repro.seq import SequenceSet
    from repro.sketch import minimizers_set

    sset = SequenceSet.from_strings([(f"s{i}", s) for i, s in enumerate(seqs)])
    batched = minimizers_set(sset, k, w)
    assert len(batched) == len(sset)
    for i in range(len(sset)):
        single = minimizers(sset.codes_of(i), k, w)
        assert np.array_equal(single.ranks, batched[i].ranks)
        assert np.array_equal(single.positions, batched[i].positions)


def test_minimizers_set_chunk_boundary(rng):
    """Sequences straddling the internal chunk budget still match."""
    from repro.seq import SequenceSet, decode, random_codes
    from repro.sketch import minimizers_set
    import importlib

    from repro.sketch import minimizers as single_fn

    # the attribute `repro.sketch.minimizers` is shadowed by the function
    # of the same name; fetch the module object explicitly
    mod = importlib.import_module("repro.sketch.minimizers")

    old = mod._CHUNK_BASES
    mod._CHUNK_BASES = 300  # force many small chunks
    try:
        sset = SequenceSet.from_strings(
            [(f"s{i}", decode(random_codes(int(rng.integers(50, 700)), rng)))
             for i in range(12)]
        )
        batched = minimizers_set(sset, 10, 8)
        for i in range(len(sset)):
            ref = single_fn(sset.codes_of(i), 10, 8)
            assert np.array_equal(ref.ranks, batched[i].ranks)
    finally:
        mod._CHUNK_BASES = old


def test_density_estimate_sane():
    d = minimizer_density(100_000, 16, 100)
    assert 0.01 < d < 0.03  # ~2/(w+1)
    assert minimizer_density(5, 16, 100) == 0.0


def _observed_density(sequences, k, w):
    """Minimizers per base, from S1's own per-sequence counts."""
    from repro.sketch.jem import _minimizer_block

    _, _, counts = _minimizer_block(sequences, k, w)
    bases = int(sequences.lengths.sum())
    return counts, (int(counts.sum()) / bases if bases else 0.0)


def test_observed_density_tracks_theory(rng):
    """Random sequences keep ~2/(w+1) of their positions (docs/algorithms.md
    §2), counted by the S1 pass itself, native or numpy."""
    from repro.seq import SequenceSet, decode, random_codes

    contigs = SequenceSet.from_strings(
        [(f"c{i}", decode(random_codes(20_000, rng))) for i in range(4)]
    )
    w = 30
    counts, density = _observed_density(contigs, 12, w)
    expected = 2.0 / (w + 1)
    assert counts.shape == (4,)
    assert all(0.5 * expected < c / 20_000 < 2.0 * expected for c in counts)
    assert 0.5 * expected < density < 2.0 * expected


def test_density_empty_set():
    from repro.seq import SequenceSet

    counts, density = _observed_density(SequenceSet.empty(), 12, 10)
    assert counts.size == 0 and density == 0.0
