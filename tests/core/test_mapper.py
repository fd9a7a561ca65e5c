import numpy as np
import pytest

from repro.core import JEMConfig, JEMMapper
from repro.errors import MappingError
from repro.seq import SequenceSet, decode


CFG = JEMConfig(k=12, w=20, ell=500, trials=10, seed=99)


def test_requires_index(clean_reads):
    mapper = JEMMapper(CFG)
    with pytest.raises(MappingError):
        mapper.map_reads(clean_reads)
    assert not mapper.is_indexed


def test_empty_contigs_rejected():
    mapper = JEMMapper(CFG)
    with pytest.raises(MappingError):
        mapper.index(SequenceSet.empty())


def test_perfect_mapping_on_clean_data(small_genome, tiling_contigs, clean_reads):
    """Error-free reads from a repeat-free genome map to covering contigs."""
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    result = mapper.map_reads(clean_reads)
    assert len(result) == 2 * len(clean_reads)
    assert result.n_mapped == len(result)  # everything maps
    # Verify each segment mapped to a contig that truly covers its locus.
    contig_bounds = []
    pos = 0
    for ln in tiling_contigs.lengths:
        contig_bounds.append((pos, pos + int(ln)))
        pos += int(ln) - 100
    for i, info in enumerate(result.infos):
        seg_meta = None
        # reconstruct truth from read meta
        read_meta = clean_reads.metas[info.read_index]
        if info.kind == "prefix":
            lo, hi = read_meta["ref_start"], read_meta["ref_start"] + CFG.ell
        else:
            lo, hi = read_meta["ref_end"] - CFG.ell, read_meta["ref_end"]
        sid = int(result.subject[i])
        c_lo, c_hi = contig_bounds[sid]
        overlap = min(hi, c_hi) - max(lo, c_lo)
        assert overlap >= CFG.k, f"segment {i} mapped to non-overlapping contig"


def test_mapping_deterministic(tiling_contigs, clean_reads):
    r1 = JEMMapper(CFG)
    r1.index(tiling_contigs)
    r2 = JEMMapper(CFG)
    r2.index(tiling_contigs)
    m1 = r1.map_reads(clean_reads)
    m2 = r2.map_reads(clean_reads)
    assert np.array_equal(m1.subject, m2.subject)
    assert np.array_equal(m1.hit_count, m2.hit_count)


def test_index_partitioned_equivalent(tiling_contigs, clean_reads):
    """S2+S3 style partitioned indexing == sequential indexing."""
    whole = JEMMapper(CFG)
    whole.index(tiling_contigs)
    parts = [
        tiling_contigs.slice(0, len(tiling_contigs) // 2),
        tiling_contigs.slice(len(tiling_contigs) // 2, len(tiling_contigs)),
    ]
    split = JEMMapper(CFG)
    split.index_partitioned(parts)
    for t in range(CFG.trials):
        assert np.array_equal(whole.table.trial_keys(t), split.table.trial_keys(t))
    m1 = whole.map_reads(clean_reads)
    m2 = split.map_reads(clean_reads)
    assert np.array_equal(m1.subject, m2.subject)


def test_unmappable_read(tiling_contigs):
    """A read unrelated to the contigs should not map (or map weakly)."""
    rng = np.random.default_rng(777)
    from repro.seq import random_codes

    foreign = SequenceSet.from_strings(
        [("alien", decode(random_codes(3000, rng)))]
    )
    mapper = JEMMapper(JEMConfig(k=16, w=20, ell=500, trials=10, seed=99, min_hits=3))
    mapper.index(tiling_contigs)
    result = mapper.map_reads(foreign)
    assert result.n_mapped == 0


def test_result_pairs_naming(tiling_contigs, clean_reads):
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    result = mapper.map_reads(clean_reads)
    pairs = result.pairs(mapper.subject_names)
    assert all(name.startswith("contig_") for _, name in pairs)
    assert pairs[0][0].endswith("/prefix")


def test_mapped_fraction(tiling_contigs, clean_reads):
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    result = mapper.map_reads(clean_reads)
    assert result.mapped_fraction == 1.0
