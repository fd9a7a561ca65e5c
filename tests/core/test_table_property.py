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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_merge_trial_keys_is_per_trial_unique_of_the_concatenation(data):
    """Any number of parts, empty parts, keys repeated within and across parts:
    the sort-and-drop merge equals ``np.unique`` of each trial's concatenation,
    lazily (consuming its input) and as a list (leaving it alone)."""
    from repro.core import merge_trial_keys
    from repro.core.store import iter_merged_trial_keys

    trials = data.draw(st.integers(min_value=1, max_value=4))
    n_parts = data.draw(st.integers(min_value=1, max_value=5))
    # a small key space, so duplicates are the rule; the top bit, so order is unsigned
    key = st.sampled_from([0, 1, 2, 3, 5, 8, (7 << 32) | 1, (7 << 32) | 2, (1 << 63) | 4])
    parts = [
        [
            np.array(data.draw(st.lists(key, max_size=12)), dtype=np.uint64)
            for _ in range(trials)
        ]
        for _ in range(n_parts)
    ]
    expected = [
        np.unique(np.concatenate([part[t] for part in parts])) for t in range(trials)
    ]
    copies = [[arr.copy() for arr in part] for part in parts]
    merged = merge_trial_keys(parts)
    assert len(merged) == trials
    for got, want in zip(merged, expected):
        assert got.dtype == np.uint64 and np.array_equal(got, want)
    for part, copy in zip(parts, copies):  # the list form does not consume its input
        assert all(np.array_equal(a, b) for a, b in zip(part, copy))
    for t, got in enumerate(iter_merged_trial_keys(copies)):
        assert np.array_equal(got, expected[t])
        assert all(part[t] is None for part in copies)  # dropped as soon as merged


def _pooled_sort_bounds(columns: list[np.ndarray], n_shards: int) -> np.ndarray:
    """Reference equal-frequency bounds: sort a pooled copy, read its quantiles."""
    pooled = np.sort(np.concatenate(columns)) if columns else np.empty(0, np.uint32)
    bounds = np.empty(n_shards + 1, dtype=np.int64)
    bounds[0], bounds[-1] = 0, 1 << 32
    if pooled.size == 0:
        bounds[1:-1] = np.linspace(0, 1 << 32, n_shards + 1)[1:-1].astype(np.int64)
        return bounds
    for i in range(1, n_shards):
        bounds[i] = int(pooled[min(int(round(i * pooled.size / n_shards)), pooled.size - 1)])
    np.maximum.accumulate(bounds, out=bounds)
    return bounds


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shard_bounds_equal_the_pooled_sort(data):
    """Empty stores, empty trials, duplicate-heavy columns and more shards than
    distinct values: the k-th-value search returns the pooled sort's bounds."""
    from repro.core.store import ColumnarSketchStore, shard_bounds

    trials = data.draw(st.integers(min_value=1, max_value=4))
    # few distinct values, so runs of duplicates are the rule; both ends of the space
    value = st.one_of(
        st.sampled_from([0, 1, 7, 7, 7, 1000, 1 << 31, (1 << 32) - 1]),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    columns = [
        np.sort(np.array(data.draw(st.lists(value, max_size=15)), dtype=np.uint32))
        for _ in range(trials)
    ]
    store = ColumnarSketchStore(columns, [np.zeros_like(c) for c in columns], 1)
    n_shards = data.draw(st.integers(min_value=1, max_value=12))
    got = shard_bounds(store, n_shards)
    assert got.dtype == np.int64
    assert np.array_equal(got, _pooled_sort_bounds(columns, n_shards))
