"""Property: every store's lookup equals brute force, in the same order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import STORE_KINDS, build_store
from repro.sketch import pack_key


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lookup_matches_brute_force(data):
    n_pairs = data.draw(st.integers(min_value=0, max_value=40))
    values = st.integers(min_value=0, max_value=15)
    subjects = st.integers(min_value=0, max_value=7)
    pairs = {
        (data.draw(values), data.draw(subjects)) for _ in range(n_pairs)
    }
    if pairs:
        v = np.array([p[0] for p in pairs], dtype=np.uint64)
        s = np.array([p[1] for p in pairs], dtype=np.uint64)
        keys = np.unique(pack_key(v, s))
    else:
        keys = np.empty(0, dtype=np.uint64)
    n_queries = data.draw(st.integers(min_value=1, max_value=12))
    qv = np.array([data.draw(values) for _ in range(n_queries)], dtype=np.uint64)
    # (query index, subject id) ascending — the order the vote relies on
    expected = sorted(
        (qi, subj)
        for qi in range(n_queries)
        for (val, subj) in pairs
        if val == qv[qi]
    )
    for kind in STORE_KINDS:
        hits = build_store(kind, [keys], n_subjects=8).lookup_trial(0, qv)
        got = list(zip(hits.query_index.tolist(), hits.subjects.tolist()))
        assert got == expected, kind


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=20),
        ),
        max_size=50,
    )
)
def test_values_of_trial_is_distinct_sorted(pairs):
    if pairs:
        v = np.array([p[0] for p in pairs], dtype=np.uint64)
        s = np.array([p[1] for p in pairs], dtype=np.uint64)
        keys = np.unique(pack_key(v, s))
    else:
        keys = np.empty(0, dtype=np.uint64)
    for kind in STORE_KINDS:
        vals = build_store(kind, [keys], n_subjects=21).values_of_trial(0)
        assert sorted(set(vals.tolist())) == vals.tolist(), kind
        assert set(vals.tolist()) == {p[0] for p in pairs}, kind
