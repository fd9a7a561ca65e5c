import numpy as np
import pytest

from repro.baselines import ClassicalMinHashMapper
from repro.core import JEMConfig
from repro.errors import MappingError
from repro.seq import SequenceSet


CFG = JEMConfig(k=12, w=20, ell=500, trials=15, seed=3)


def test_requires_index(clean_reads):
    with pytest.raises(MappingError):
        ClassicalMinHashMapper(CFG).map_reads(clean_reads)


def test_empty_contigs(clean_reads):
    with pytest.raises(MappingError):
        ClassicalMinHashMapper(CFG).index(SequenceSet.empty())


def test_maps_clean_data(tiling_contigs, clean_reads):
    mapper = ClassicalMinHashMapper(CFG)
    mapper.index(tiling_contigs)
    result = mapper.map_reads(clean_reads)
    assert len(result) == 2 * len(clean_reads)
    assert result.n_mapped > 0.8 * len(result)


def test_deterministic(tiling_contigs, clean_reads):
    r1 = ClassicalMinHashMapper(CFG)
    r1.index(tiling_contigs)
    r2 = ClassicalMinHashMapper(CFG)
    r2.index(tiling_contigs)
    assert np.array_equal(
        r1.map_reads(clean_reads).subject, r2.map_reads(clean_reads).subject
    )


def test_table_has_one_entry_per_subject_per_trial(tiling_contigs):
    mapper = ClassicalMinHashMapper(CFG)
    table = mapper.index(tiling_contigs)
    for t in range(CFG.trials):
        # each subject contributes exactly one (value, subject) key
        assert table.trial_keys(t).size == len(tiling_contigs)


def test_minimizer_variant_maps(tiling_contigs, clean_reads):
    """The use_minimizers ablation variant is a working mapper."""
    mapper = ClassicalMinHashMapper(CFG, use_minimizers=True)
    mapper.index(tiling_contigs)
    result = mapper.map_reads(clean_reads)
    assert result.n_mapped > 0.5 * len(result)
    # smaller base set -> its table is built from minimizer values only
    from repro.sketch import minimizers

    all_mins = np.unique(
        np.concatenate(
            [
                minimizers(tiling_contigs.codes_of(i), CFG.k, CFG.w).ranks
                for i in range(len(tiling_contigs))
            ]
        )
    )
    assert np.isin(mapper.table.values_of_trial(0), all_mins).all()


def test_fewer_trials_weaker_recall(tiling_contigs, clean_reads):
    """The Fig. 6 premise: classical MinHash improves with more trials."""
    few = ClassicalMinHashMapper(JEMConfig(k=12, w=20, ell=500, trials=2, seed=3))
    few.index(tiling_contigs)
    many = ClassicalMinHashMapper(JEMConfig(k=12, w=20, ell=500, trials=40, seed=3))
    many.index(tiling_contigs)
    n_few = few.map_reads(clean_reads).n_mapped
    n_many = many.map_reads(clean_reads).n_mapped
    assert n_many >= n_few
