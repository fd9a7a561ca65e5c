"""SketchStore protocol conformance and columnar-vs-oracle parity."""

import numpy as np
import pytest

from repro.core import JEMConfig, MutableSketchStore
from repro.core.store import (
    DEFAULT_STORE_KIND,
    STORE_KINDS,
    ColumnarSketchStore,
    DictSketchStore,
    SketchStore,
    StoreShard,
    build_store,
    lookup_trial_sharded,
    shard_bounds,
)
from repro.errors import SketchError
from repro.netserve import ScatterGatherStore, ScatterPlacement
from repro.netserve.router import LookupLane
from repro.service.health import CircuitBreaker
from repro.service.metrics import ServiceMetrics

TRIALS = 5
N_SUBJECTS = 40


def _random_trial_keys(rng, trials=TRIALS, n_subjects=N_SUBJECTS, per_trial=300):
    """Sorted, deduplicated packed (value << 32 | subject) arrays."""
    keys = []
    for _ in range(trials):
        values = rng.integers(0, 500, size=per_trial, dtype=np.uint64)
        subjects = rng.integers(0, n_subjects, size=per_trial, dtype=np.uint64)
        keys.append(np.unique((values << np.uint64(32)) | subjects))
    return keys


@pytest.fixture
def trial_keys(rng):
    return _random_trial_keys(rng)


@pytest.fixture
def queries(rng):
    # mix of hitting and missing values
    return rng.integers(0, 700, size=200, dtype=np.uint64)


def _stores(trial_keys):
    return {kind: build_store(kind, trial_keys, N_SUBJECTS) for kind in STORE_KINDS}


def test_default_kind_is_columnar():
    assert DEFAULT_STORE_KIND == "columnar"
    assert STORE_KINDS == ("columnar", "dict")


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_protocol_conformance(kind, trial_keys):
    store = build_store(kind, trial_keys, N_SUBJECTS)
    assert isinstance(store, SketchStore)
    assert store.trials == TRIALS
    assert store.n_subjects == N_SUBJECTS
    assert store.total_entries == sum(k.size for k in trial_keys)
    assert store.nbytes > 0
    for t in range(TRIALS):
        assert np.array_equal(store.trial_keys(t), trial_keys[t])


@pytest.mark.parametrize("kind", ("columnar", "dict"))
def test_lookup_parity_with_packed(kind, trial_keys, queries):
    """Every store answers batch lookups exactly as a scan of the packed keys."""
    store = build_store(kind, trial_keys, N_SUBJECTS)
    for t in range(TRIALS):
        values = trial_keys[t] >> np.uint64(32)
        subjects = trial_keys[t] & np.uint64(0xFFFFFFFF)
        want = [
            (i, int(s))
            for i, q in enumerate(queries)
            for s in subjects[values == q]  # key order = subject ascending
        ]
        got = store.lookup_trial(t, queries)
        assert list(zip(got.query_index.tolist(), got.subjects.tolist())) == want


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_lookup_scalar_matches_batch(kind, trial_keys):
    store = build_store(kind, trial_keys, N_SUBJECTS)
    value = int(store.values_of_trial(0)[0])
    subjects = store.lookup_scalar(0, value)
    batch = store.lookup_trial(0, np.array([value], dtype=np.uint64))
    assert np.array_equal(subjects, batch.subjects)
    assert subjects.size > 0


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_values_of_trial_sorted_unique(kind, trial_keys):
    store = build_store(kind, trial_keys, N_SUBJECTS)
    for t in range(TRIALS):
        values = store.values_of_trial(t)
        assert np.array_equal(values, np.unique(values))


@pytest.fixture(params=["columnar", "dict", "generation", "mutable", "scatter"])
def implementer(request, trial_keys):
    """One of the five ``SketchStore`` implementers over the same keys."""
    root = ColumnarSketchStore.from_trial_keys(trial_keys, N_SUBJECTS)
    if request.param in STORE_KINDS:
        yield build_store(request.param, trial_keys, N_SUBJECTS)
    elif request.param in ("generation", "mutable"):
        handle = MutableSketchStore.in_memory(
            JEMConfig(trials=TRIALS),
            base_store=root,
            subject_names=[f"c{i}" for i in range(N_SUBJECTS)],
        )
        yield handle.current if request.param == "generation" else handle
    else:
        placement = ScatterPlacement(3)
        lanes = [
            LookupLane(
                i, shard.store,
                breaker=CircuitBreaker(failure_threshold=0),
                metrics=ServiceMetrics(window=64),
                capacity=64,
            )
            for i, shard in enumerate(placement.plan(root))
        ]
        try:
            yield ScatterGatherStore(lanes, placement, root)
        finally:
            for lane in lanes:
                lane.close()


def test_every_implementer_satisfies_the_protocol(implementer, trial_keys, queries):
    """The slimmed protocol, member by member, against the dict oracle."""
    oracle = DictSketchStore(trial_keys, N_SUBJECTS)
    assert isinstance(implementer, SketchStore)
    assert not hasattr(implementer, "as_table")
    assert not hasattr(implementer, "keys")
    assert implementer.trials == TRIALS
    assert implementer.n_subjects == N_SUBJECTS
    assert implementer.total_entries == oracle.total_entries
    assert implementer.nbytes > 0
    for t in range(TRIALS):
        assert np.array_equal(implementer.trial_keys(t), trial_keys[t])
        assert np.array_equal(
            implementer.values_of_trial(t), oracle.values_of_trial(t)
        )
        want = oracle.lookup_trial(t, queries)
        got = implementer.lookup_trial(t, queries)
        assert np.array_equal(want.query_index, got.query_index)
        assert np.array_equal(want.subjects, got.subjects)
    value = int(oracle.values_of_trial(0)[0])
    assert np.array_equal(
        implementer.lookup_scalar(0, value), oracle.lookup_scalar(0, value)
    )


def test_from_store_folds_any_store_to_columnar(trial_keys):
    columnar = build_store("columnar", trial_keys, N_SUBJECTS)
    assert ColumnarSketchStore.from_store(columnar) is columnar
    folded = ColumnarSketchStore.from_store(build_store("dict", trial_keys, N_SUBJECTS))
    assert isinstance(folded, ColumnarSketchStore)
    assert folded.n_subjects == N_SUBJECTS
    for t in range(TRIALS):
        assert np.array_equal(folded.trial_keys(t), trial_keys[t])


def test_export_import_columns_roundtrip(trial_keys, queries):
    store = ColumnarSketchStore.from_trial_keys(trial_keys, N_SUBJECTS)
    columns = store.export_columns()
    assert len(columns) == 2 * TRIALS
    rebuilt = ColumnarSketchStore.from_columns(columns, N_SUBJECTS)
    for t in range(TRIALS):
        want = store.lookup_trial(t, queries)
        got = rebuilt.lookup_trial(t, queries)
        assert np.array_equal(want.query_index, got.query_index)
        assert np.array_equal(want.subjects, got.subjects)
    # the rebuilt store shares the exported buffers (zero-copy attach)
    assert rebuilt.values[0] is columns[0]


def test_columnar_nbytes_much_smaller_than_dict(trial_keys):
    columnar = build_store("columnar", trial_keys, N_SUBJECTS)
    dictstore = build_store("dict", trial_keys, N_SUBJECTS)
    assert columnar.nbytes * 2 <= dictstore.nbytes


def test_sharding_parity(trial_keys, queries):
    """Partitioned lookup over key-range shards equals the unsharded one."""
    store = ColumnarSketchStore.from_trial_keys(trial_keys, N_SUBJECTS)
    for n_shards in (1, 3, 4):
        shards = store.shard(n_shards)
        assert len(shards) == n_shards
        assert all(isinstance(s, StoreShard) for s in shards)
        assert sum(s.store.total_entries for s in shards) == store.total_entries
        for t in range(TRIALS):
            want = store.lookup_trial(t, queries)
            got = lookup_trial_sharded(shards, t, queries)
            assert np.array_equal(want.query_index, got.query_index)
            assert np.array_equal(want.subjects, got.subjects)


def test_shard_bounds_cover_value_space(trial_keys):
    store = ColumnarSketchStore.from_trial_keys(trial_keys, N_SUBJECTS)
    bounds = shard_bounds(store, 4)
    assert bounds[0] == 0
    assert bounds[-1] == 1 << 32
    assert (np.diff(bounds) >= 0).all()


def test_shard_bounds_empty_store():
    empty = [np.empty(0, dtype=np.uint64) for _ in range(2)]
    store = ColumnarSketchStore.from_trial_keys(empty, 1)
    bounds = shard_bounds(store, 3)
    assert bounds[0] == 0 and bounds[-1] == 1 << 32
    assert (np.diff(bounds) >= 0).all()


def test_shard_bounds_duplicate_boundaries_from_skewed_values():
    """All entries share one value: interior bounds collapse onto it, some
    shards own an empty range, and the partitioned lookup still matches."""
    values = np.full(60, 7, dtype=np.uint64)
    subjects = np.arange(60, dtype=np.uint64) % 9
    keys = [np.unique((values << np.uint64(32)) | subjects)]
    store = ColumnarSketchStore.from_trial_keys(keys, 9)
    bounds = shard_bounds(store, 4)
    assert (np.diff(bounds) >= 0).all()
    assert (bounds[1:-1] == 7).all()  # every interior bound is the hot value
    shards = store.shard(4)
    assert sum(s.store.total_entries for s in shards) == store.total_entries
    assert sum(1 for s in shards if s.store.total_entries == 0) >= 2
    queries = np.array([0, 6, 7, 8, (1 << 32) - 1], dtype=np.uint64)
    want = store.lookup_trial(0, queries)
    got = lookup_trial_sharded(shards, 0, queries)
    assert np.array_equal(want.query_index, got.query_index)
    assert np.array_equal(want.subjects, got.subjects)


def test_more_shards_than_distinct_values(rng):
    """n_shards exceeding the distinct-value count leaves empty shards but
    loses no entries and changes no answers."""
    values = rng.integers(0, 3, size=40, dtype=np.uint64)  # ≤ 3 distinct
    subjects = rng.integers(0, 5, size=40, dtype=np.uint64)
    keys = [np.unique((values << np.uint64(32)) | subjects) for _ in range(2)]
    store = ColumnarSketchStore.from_trial_keys(keys, 5)
    shards = store.shard(6)
    assert len(shards) == 6
    assert sum(s.store.total_entries for s in shards) == store.total_entries
    queries = np.arange(8, dtype=np.uint64)
    for t in range(2):
        want = store.lookup_trial(t, queries)
        got = lookup_trial_sharded(shards, t, queries)
        assert np.array_equal(want.query_index, got.query_index)
        assert np.array_equal(want.subjects, got.subjects)


def test_single_trial_store_sharding(rng):
    """The T=1 degenerate store shards and stitches like any other."""
    values = rng.integers(0, 200, size=150, dtype=np.uint64)
    subjects = rng.integers(0, N_SUBJECTS, size=150, dtype=np.uint64)
    keys = [np.unique((values << np.uint64(32)) | subjects)]
    store = ColumnarSketchStore.from_trial_keys(keys, N_SUBJECTS)
    assert store.trials == 1
    bounds = shard_bounds(store, 3)
    assert bounds.shape == (4,)
    shards = store.shard(3)
    queries = rng.integers(0, 250, size=60, dtype=np.uint64)
    want = store.lookup_trial(0, queries)
    got = lookup_trial_sharded(shards, 0, queries)
    assert np.array_equal(want.query_index, got.query_index)
    assert np.array_equal(want.subjects, got.subjects)


def test_empty_store_shards_answer_nothing():
    empty = [np.empty(0, dtype=np.uint64) for _ in range(2)]
    store = ColumnarSketchStore.from_trial_keys(empty, 1)
    shards = store.shard(3)
    queries = np.arange(10, dtype=np.uint64)
    hits = lookup_trial_sharded(shards, 0, queries)
    assert len(hits.query_index) == 0 and len(hits.subjects) == 0


def test_unknown_kind_rejected(trial_keys):
    with pytest.raises(SketchError):
        build_store("btree", trial_keys, N_SUBJECTS)
    with pytest.raises(SketchError):
        build_store("packed", trial_keys, N_SUBJECTS)


def test_trial_out_of_range(trial_keys):
    for kind in STORE_KINDS:
        store = build_store(kind, trial_keys, N_SUBJECTS)
        with pytest.raises(SketchError):
            store.lookup_trial(TRIALS, np.array([1], dtype=np.uint64))


def test_oversized_query_values_rejected(trial_keys):
    store = ColumnarSketchStore.from_trial_keys(trial_keys, N_SUBJECTS)
    with pytest.raises(SketchError):
        store.lookup_trial(0, np.array([1 << 33], dtype=np.uint64))


def test_unsorted_columns_rejected():
    values = [np.array([5, 3], dtype=np.uint32)]
    subjects = [np.array([0, 1], dtype=np.uint32)]
    with pytest.raises(SketchError):
        ColumnarSketchStore(values, subjects, 2)


def test_mismatched_columns_rejected():
    with pytest.raises(SketchError):
        ColumnarSketchStore(
            [np.array([1], dtype=np.uint32)],
            [np.array([1, 2], dtype=np.uint32)],
            2,
        )
    with pytest.raises(SketchError):
        ColumnarSketchStore.from_columns([np.array([1], dtype=np.uint32)], 2)


def test_sized_keys_that_do_not_match_their_sizes_are_rejected():
    """One key for a trial of three used to be broadcast over its slice, and a
    trial with no keys left as uninitialised memory: both passed as sorted."""
    key = np.array([5 << 32 | 1], dtype=np.uint64)
    with pytest.raises(SketchError, match="trial 0: 1 keys for a size of 3"):
        ColumnarSketchStore.from_sized_keys([3, 2], [key], 4)
    with pytest.raises(SketchError, match="trial 1: no keys"):
        ColumnarSketchStore.from_sized_keys([1, 2], [key.copy()], 4)
    with pytest.raises(SketchError, match="more trials than the 1 sizes"):
        ColumnarSketchStore.from_sized_keys([1], [key.copy(), key.copy()], 4)
    store = ColumnarSketchStore.from_sized_keys([1, 0], [key.copy(), key[:0]], 4)
    assert store.values[0].tolist() == [5] and store.subjects[0].tolist() == [1]
    assert store.values[1].size == 0


def test_empty_lookup(trial_keys):
    for kind in STORE_KINDS:
        store = build_store(kind, trial_keys, N_SUBJECTS)
        hits = store.lookup_trial(0, np.empty(0, dtype=np.uint64))
        assert len(hits) == 0
