import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_store, count_hits_lazy, count_hits_vectorised
from repro.core.hitcounter import UNMAPPED
from repro.errors import MappingError
from repro.sketch import pack_key


def build_table(per_trial_pairs, n_subjects):
    keys = []
    for pairs in per_trial_pairs:
        if pairs:
            v = np.array([p[0] for p in pairs], dtype=np.uint64)
            s = np.array([p[1] for p in pairs], dtype=np.uint64)
            keys.append(np.unique(pack_key(v, s)))
        else:
            keys.append(np.empty(0, dtype=np.uint64))
    return build_store("columnar", keys, n_subjects)


def test_simple_majority():
    # Subject 1 collides with query 0 in both trials; subject 0 once.
    table = build_table([[(5, 0), (5, 1)], [(7, 1)]], n_subjects=2)
    qv = np.array([[5], [7]], dtype=np.uint64)
    hits = count_hits_vectorised(table, qv)
    assert hits.subject[0] == 1
    assert hits.count[0] == 2


def test_unmapped_query():
    table = build_table([[(5, 0)]], n_subjects=1)
    qv = np.array([[99]], dtype=np.uint64)
    hits = count_hits_vectorised(table, qv)
    assert hits.subject[0] == UNMAPPED
    assert hits.count[0] == 0
    assert hits.n_mapped == 0


def test_tie_break_smallest_subject():
    table = build_table([[(5, 2), (5, 7)]], n_subjects=8)
    qv = np.array([[5]], dtype=np.uint64)
    for fn in (count_hits_vectorised, count_hits_lazy):
        hits = fn(table, qv)
        assert hits.subject[0] == 2


def test_min_hits_threshold():
    table = build_table([[(5, 0)], [(7, 0)]], n_subjects=1)
    qv = np.array([[5], [8]], dtype=np.uint64)  # only 1 collision
    hits = count_hits_vectorised(table, qv, min_hits=2)
    assert hits.subject[0] == UNMAPPED


def test_query_mask_blocks_lookup():
    table = build_table([[(0, 0)]], n_subjects=1)
    qv = np.zeros((1, 2), dtype=np.uint64)  # value 0 would collide
    mask = np.array([True, False])
    hits = count_hits_vectorised(table, qv, query_mask=mask)
    assert hits.subject[0] == 0
    assert hits.subject[1] == UNMAPPED


def test_trials_mismatch():
    table = build_table([[(5, 0)]], n_subjects=1)
    with pytest.raises(MappingError):
        count_hits_vectorised(table, np.zeros((2, 1), dtype=np.uint64))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lazy_and_vectorised_agree(data):
    """The paper's lazy counter and the vectorised groupby are equivalent."""
    trials = data.draw(st.integers(min_value=1, max_value=4))
    n_subjects = data.draw(st.integers(min_value=1, max_value=6))
    n_queries = data.draw(st.integers(min_value=1, max_value=8))
    values = st.integers(min_value=0, max_value=5)
    per_trial = [
        [
            (data.draw(values), s)
            for s in range(n_subjects)
            if data.draw(st.booleans())
        ]
        for _ in range(trials)
    ]
    table = build_table(per_trial, n_subjects)
    qv = np.array(
        [[data.draw(values) for _ in range(n_queries)] for _ in range(trials)],
        dtype=np.uint64,
    )
    lazy = count_hits_lazy(table, qv)
    vec = count_hits_vectorised(table, qv)
    assert np.array_equal(lazy.subject, vec.subject)
    assert np.array_equal(lazy.count, vec.count)
