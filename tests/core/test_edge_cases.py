"""Edge cases and failure injection across the core mapper stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JEMConfig, JEMMapper, merge_trial_keys
from repro.errors import MappingError
from repro.seq import SequenceSet, decode, random_codes


def test_contigs_shorter_than_k_yield_empty_table():
    mapper = JEMMapper(JEMConfig(k=16, w=10, ell=100, trials=4))
    tiny = SequenceSet.from_strings([("a", "acgt"), ("b", "gg")])
    table = mapper.index(tiny)
    assert table.total_entries == 0
    reads = SequenceSet.from_strings([("r", "acgt" * 100)])
    result = mapper.map_reads(reads)
    assert result.n_mapped == 0  # no crash, nothing mapped


def test_queries_shorter_than_k_unmapped(tiling_contigs):
    mapper = JEMMapper(JEMConfig(k=12, w=20, ell=500, trials=4))
    mapper.index(tiling_contigs)
    reads = SequenceSet.from_strings([("tiny", "acgtacg")])
    result = mapper.map_reads(reads)
    assert result.n_mapped == 0


def test_all_n_read_unmapped(tiling_contigs):
    mapper = JEMMapper(JEMConfig(k=12, w=20, ell=500, trials=4))
    mapper.index(tiling_contigs)
    reads = SequenceSet.from_strings([("nn", "n" * 2_000)])
    result = mapper.map_reads(reads)
    assert result.n_mapped == 0


def test_homopolymer_world():
    """A degenerate genome with a single repeated k-mer still terminates."""
    contigs = SequenceSet.from_strings([("poly", "a" * 5_000)])
    mapper = JEMMapper(JEMConfig(k=8, w=10, ell=500, trials=4))
    mapper.index(contigs)
    reads = SequenceSet.from_strings([("r", "a" * 3_000)])
    result = mapper.map_reads(reads)
    assert result.n_mapped == 2
    assert (result.subject == 0).all()


def test_single_contig_single_read(rng):
    genome = random_codes(3_000, rng)
    contigs = SequenceSet.from_strings([("c", decode(genome))])
    reads = SequenceSet.from_strings([("r", decode(genome[500:2_500]))])
    mapper = JEMMapper(JEMConfig(k=12, w=10, ell=400, trials=6))
    mapper.index(contigs)
    result = mapper.map_reads(reads)
    assert result.n_mapped == 2


def test_read_mapping_strand_invariance(tiling_contigs, clean_reads):
    """Reads map to the same contigs as their reverse complements."""
    from repro.seq import SequenceSetBuilder, reverse_complement

    cfg = JEMConfig(k=12, w=20, ell=500, trials=12, seed=2)
    mapper = JEMMapper(cfg)
    mapper.index(tiling_contigs)
    fwd = mapper.map_reads(clean_reads)

    builder = SequenceSetBuilder()
    for i in range(len(clean_reads)):
        builder.add(clean_reads.names[i], reverse_complement(clean_reads.codes_of(i)))
    rc = mapper.map_reads(builder.build())
    # a read's prefix == the RC read's suffix; compare swapped columns
    fwd_pairs = fwd.subject.reshape(-1, 2)
    rc_pairs = rc.subject.reshape(-1, 2)[:, ::-1]
    both = (fwd_pairs >= 0) & (rc_pairs >= 0)
    agreement = (fwd_pairs[both] == rc_pairs[both]).mean()
    assert agreement > 0.9


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_table_union_is_order_insensitive(data):
    n_parts = data.draw(st.integers(min_value=2, max_value=4))
    parts = []
    for _ in range(n_parts):
        keys = data.draw(
            st.lists(st.integers(min_value=0, max_value=1 << 40), max_size=20)
        )
        parts.append([np.unique(np.array(keys, dtype=np.uint64))])
    forward = merge_trial_keys(parts)
    backward = merge_trial_keys(parts[::-1])
    assert np.array_equal(forward[0], backward[0])
    # idempotence: union with itself changes nothing
    again = merge_trial_keys([forward, forward])
    assert np.array_equal(again[0], forward[0])


def test_mapper_independent_of_subject_names(tiling_contigs, clean_reads):
    cfg = JEMConfig(k=12, w=20, ell=500, trials=6, seed=5)
    renamed = SequenceSet(
        tiling_contigs.buffer,
        tiling_contigs.offsets,
        [f"x{i}" for i in range(len(tiling_contigs))],
    )
    a = JEMMapper(cfg)
    a.index(tiling_contigs)
    b = JEMMapper(cfg)
    b.index(renamed)
    assert np.array_equal(
        a.map_reads(clean_reads).subject, b.map_reads(clean_reads).subject
    )
