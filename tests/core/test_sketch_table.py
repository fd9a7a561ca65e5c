"""The sketch tables S[1..T]: hand-built cases on every store kind.

Each case runs on the resident ``columnar`` store and on the ``dict``
oracle, against literal expected hits — including hit *order* (query
index ascending, subject ascending within a query), which the vote
kernels rely on.
"""

import numpy as np
import pytest

from repro.core import STORE_KINDS, build_store, merge_trial_keys
from repro.errors import SketchError
from repro.sketch import pack_key


def make_tables():
    # trial 0: value 5 -> subjects {0, 2}; value 9 -> {1}
    # trial 1: value 5 -> {1}
    t0 = np.sort(
        pack_key(np.array([5, 5, 9], dtype=np.uint64), np.array([0, 2, 1], dtype=np.uint64))
    )
    t1 = pack_key(np.array([5], dtype=np.uint64), np.array([1], dtype=np.uint64))
    return [build_store(kind, [t0, t1], n_subjects=3) for kind in STORE_KINDS]


def test_lookup_trial():
    for table in make_tables():
        hits = table.lookup_trial(0, np.array([5, 7, 9], dtype=np.uint64))
        assert hits.query_index.tolist() == [0, 0, 2]
        assert hits.subjects.tolist() == [0, 2, 1]
        assert len(hits) == 3


def test_lookup_scalar():
    for table in make_tables():
        assert table.lookup_scalar(0, 5).tolist() == [0, 2]
        assert table.lookup_scalar(1, 9).size == 0


def test_lookup_bad_trial():
    for table in make_tables():
        with pytest.raises(SketchError):
            table.lookup_trial(5, np.array([1], dtype=np.uint64))


def test_values_of_trial():
    for table in make_tables():
        assert list(table.values_of_trial(0)) == [5, 9]


def test_union_merges_disjoint_parts():
    t_a = [pack_key(np.array([5], dtype=np.uint64), np.array([0], dtype=np.uint64))]
    t_b = [pack_key(np.array([5], dtype=np.uint64), np.array([1], dtype=np.uint64))]
    merged = merge_trial_keys([t_a, t_b])
    assert len(merged) == 1
    for kind in STORE_KINDS:
        store = build_store(kind, merged, n_subjects=2)
        assert store.lookup_scalar(0, 5).tolist() == [0, 1]


def test_union_trial_mismatch():
    a = [np.empty(0, dtype=np.uint64)]
    b = [np.empty(0, dtype=np.uint64)] * 2
    with pytest.raises(SketchError):
        merge_trial_keys([a, b])
    with pytest.raises(SketchError):
        merge_trial_keys([])


def test_unsorted_rejected():
    bad = pack_key(np.array([9, 1], dtype=np.uint64), np.array([0, 0], dtype=np.uint64))
    for kind in STORE_KINDS:
        with pytest.raises(SketchError):
            build_store(kind, [bad], 1)
    with pytest.raises(SketchError):
        build_store("dict", [], 1)


def test_nbytes_and_entries():
    columnar, oracle = make_tables()
    assert columnar.total_entries == oracle.total_entries == 4
    assert columnar.nbytes == 4 * 8  # two uint32 columns
    assert columnar.trials == oracle.trials == 2
    for t in range(2):
        assert np.array_equal(columnar.trial_keys(t), oracle.trial_keys(t))
