"""The fused native map kernel vs its numpy parity oracles.

The fused C pass (sketch → per-trial binary search → lazy-update vote)
replaces three numpy stages at once, so these tests gate it the hard way:
fuzzed bit-identity against *both* retained oracles — ``count_hits_lazy``
(the paper's Algorithm 2) and ``count_hits_vectorised`` — across misses,
empty segments, duplicate values spanning column runs, min_hits
thresholds and single-trial stores, plus a thread-invariance gate: the
output must not depend on ``REPRO_NATIVE_THREADS`` — on how many calls,
running at once on the store's one native context, a block is cut into.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.hitcounter import (
    BestHits,
    count_hits_fused,
    count_hits_lazy,
    count_hits_vectorised,
)
from repro.core.store import ColumnarSketchStore, DictSketchStore
from repro.sketch import _native
from repro.sketch.jem import HashFamily, query_kernel

needs_native = pytest.mark.skipif(
    _native.load() is None, reason="native kernels unavailable"
)


def random_store(rng, trials, n_subjects, n_entries, value_range):
    """A columnar store with random (value, subject) entries per trial."""
    subjects = rng.integers(0, n_subjects, n_entries).astype(np.uint64)
    keys = np.empty((trials, n_entries), dtype=np.uint64)
    for t in range(trials):
        values = rng.integers(0, value_range, n_entries).astype(np.uint64)
        keys[t] = np.sort((values << np.uint64(32)) | subjects)
    return ColumnarSketchStore.from_trial_keys(keys, n_subjects)


def random_query_block(rng, n_segments, max_len, value_pool):
    """Concatenated query values + starts, with some empty segments."""
    lengths = rng.integers(0, max_len, n_segments)
    starts = np.zeros(n_segments, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    values = rng.integers(0, value_pool, int(lengths.sum())).astype(np.uint64)
    return values, starts, lengths


def oracle_hits(store, family, values, starts, lengths, min_hits):
    """BestHits via the numpy sketch kernel + both retained vote oracles."""
    trials, n_segments = family.size, starts.size
    mask = lengths > 0
    sketches = np.zeros((trials, n_segments), dtype=np.uint64)
    nonempty = np.flatnonzero(mask)
    if nonempty.size:
        keep = np.concatenate(
            [np.arange(starts[j], starts[j] + lengths[j]) for j in nonempty]
        )
        compact_starts = np.zeros(nonempty.size, dtype=np.int64)
        np.cumsum(lengths[nonempty][:-1], out=compact_starts[1:])
        sketches[:, nonempty] = query_kernel(values[keep], compact_starts, family)
    lazy = count_hits_lazy(store, sketches, min_hits=min_hits, query_mask=mask)
    vect = count_hits_vectorised(store, sketches, min_hits=min_hits, query_mask=mask)
    assert np.array_equal(lazy.subject, vect.subject)
    assert np.array_equal(lazy.count, vect.count)
    return lazy


def fused_hits(store, family, values, starts, lengths, min_hits, threads=1):
    """Compact the block to its non-empty segments (the production layout
    produced by query_minimizer_concat) and run the fused path — cut, as
    ``map_segment_batch`` cuts a batch, into one range of segments per
    thread (None: ``thread_count()``), the ranges mapped at once on the
    store's one native context."""
    nonempty = np.flatnonzero(lengths > 0)
    bounds = np.concatenate([[0], np.cumsum(lengths[nonempty])]).astype(np.int64)
    keep = np.concatenate(
        [np.arange(starts[j], starts[j] + lengths[j]) for j in nonempty]
    ) if nonempty.size else np.empty(0, dtype=np.int64)
    compact = values[keep]
    shares = _native.thread_count(threads)

    def one_range(cut):
        lo, hi = cut
        return count_hits_fused(
            store, compact[bounds[lo]:bounds[hi]], bounds[lo:hi] - bounds[lo], family,
            min_hits=min_hits,
        )

    parts = _native.thread_map(
        one_range, _native.thread_ranges(nonempty.size, shares, per_thread=1), shares
    )
    if any(part is None for part in parts):
        return None
    subject = np.full(starts.size, -1, dtype=np.int64)
    count = np.zeros(starts.size, dtype=np.int64)
    subject[nonempty] = np.concatenate([part.subject for part in parts])
    count[nonempty] = np.concatenate([part.count for part in parts])
    return BestHits(subject, count)


@needs_native
class TestFusedParity:
    def test_fuzzed_parity_against_both_oracles(self):
        """Random stores and query blocks: fused == lazy == vectorised."""
        rng = np.random.default_rng(7)
        for case in range(40):
            trials = int(rng.integers(1, 8))
            n_subjects = int(rng.integers(1, 12))
            family = HashFamily.generate(trials, seed=case)
            store = random_store(
                rng, trials, n_subjects,
                n_entries=int(rng.integers(0, 400)),
                value_range=int(rng.choice([300, 2**16, 2**31])),
            )
            values, starts, lengths = random_query_block(
                rng, n_segments=int(rng.integers(1, 50)), max_len=30,
                value_pool=int(rng.choice([8, 50, 300])),
            )
            min_hits = int(rng.integers(1, 4))
            expected = oracle_hits(store, family, values, starts, lengths, min_hits)
            got = fused_hits(store, family, values, starts, lengths, min_hits)
            assert got is not None
            assert np.array_equal(got.subject, expected.subject), f"case {case}"
            assert np.array_equal(got.count, expected.count), f"case {case}"

    def test_all_misses(self):
        """Query values disjoint from the store: everything unmapped."""
        rng = np.random.default_rng(11)
        family = HashFamily.generate(4, seed=1)
        store = random_store(rng, 4, 5, n_entries=50, value_range=100)
        values = rng.integers(10_000, 20_000, 120).astype(np.uint64)
        starts = np.arange(0, 120, 10, dtype=np.int64)
        lengths = np.full(12, 10, dtype=np.int64)
        got = fused_hits(store, family, values, starts, lengths, 1)
        assert got is not None
        assert (got.subject == -1).all() and (got.count == 0).all()
        expected = oracle_hits(store, family, values, starts, lengths, 1)
        assert np.array_equal(got.subject, expected.subject)

    def test_empty_segments_stay_unmapped(self):
        """Zero-length segments report (-1, 0) in an otherwise mapped block."""
        rng = np.random.default_rng(13)
        family = HashFamily.generate(3, seed=2)
        store = random_store(rng, 3, 4, n_entries=200, value_range=64)
        values = rng.integers(0, 64, 40).astype(np.uint64)
        # segments 1 and 3 are empty (consecutive equal starts)
        starts = np.array([0, 20, 20, 40, 40], dtype=np.int64)
        lengths = np.array([20, 0, 20, 0, 0], dtype=np.int64)
        got = fused_hits(store, family, values, starts, lengths, 1)
        expected = oracle_hits(store, family, values, starts, lengths, 1)
        assert got is not None
        assert np.array_equal(got.subject, expected.subject)
        assert np.array_equal(got.count, expected.count)
        assert got.subject[1] == -1 and got.count[1] == 0
        assert got.subject[3] == -1 and got.subject[4] == -1

    def test_duplicate_values_spanning_column_runs(self):
        """Many store entries share one value: the whole run is voted."""
        family = HashFamily.generate(2, seed=3)
        # one hot value mapped by every subject, in every trial
        subjects = np.arange(6, dtype=np.uint64)
        hot = np.uint64(42)
        keys = np.stack([np.sort((hot << np.uint64(32)) | subjects)] * 2)
        store = ColumnarSketchStore.from_trial_keys(keys, 6)
        values = np.full(10, 42, dtype=np.uint64)
        starts = np.array([0, 5], dtype=np.int64)
        lengths = np.array([5, 5], dtype=np.int64)
        got = fused_hits(store, family, values, starts, lengths, 1)
        expected = oracle_hits(store, family, values, starts, lengths, 1)
        assert got is not None
        assert np.array_equal(got.subject, expected.subject)
        assert np.array_equal(got.count, expected.count)
        # every trial hits the full run; ties break to the smallest subject
        assert (got.subject == 0).all() and (got.count == 2).all()

    @pytest.mark.parametrize("min_hits", [1, 2, 3, 30])
    def test_min_hits_thresholds(self, min_hits):
        rng = np.random.default_rng(17)
        family = HashFamily.generate(5, seed=4)
        store = random_store(rng, 5, 6, n_entries=300, value_range=50)
        values, starts, lengths = random_query_block(rng, 20, 25, 50)
        got = fused_hits(store, family, values, starts, lengths, min_hits)
        expected = oracle_hits(store, family, values, starts, lengths, min_hits)
        assert got is not None
        assert np.array_equal(got.subject, expected.subject)
        assert np.array_equal(got.count, expected.count)

    def test_single_trial_store(self):
        rng = np.random.default_rng(19)
        family = HashFamily.generate(1, seed=5)
        store = random_store(rng, 1, 3, n_entries=80, value_range=40)
        values, starts, lengths = random_query_block(rng, 15, 20, 40)
        got = fused_hits(store, family, values, starts, lengths, 1)
        expected = oracle_hits(store, family, values, starts, lengths, 1)
        assert got is not None
        assert np.array_equal(got.subject, expected.subject)
        assert np.array_equal(got.count, expected.count)

    def test_non_columnar_store_returns_none(self):
        """Stores without lookup_fused fall back to numpy (None signal)."""
        rng = np.random.default_rng(23)
        family = HashFamily.generate(2, seed=6)
        store = random_store(rng, 2, 3, n_entries=50, value_range=30)
        values, starts, lengths = random_query_block(rng, 5, 10, 30)

        class NoFused:
            trials = store.trials

        got = count_hits_fused(
            NoFused(), values, starts, family, min_hits=1,
            n_queries=starts.size, nonempty=np.flatnonzero(lengths > 0),
        )
        assert got is None

    def test_kill_switch_returns_none(self, monkeypatch):
        rng = np.random.default_rng(29)
        family = HashFamily.generate(2, seed=7)
        store = random_store(rng, 2, 3, n_entries=50, value_range=30)
        values, starts, lengths = random_query_block(rng, 5, 10, 30)
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        got = fused_hits(store, family, values, starts, lengths, 1)
        assert got is None


class TestThreadDefault:
    def test_default_follows_affinity_mask(self, monkeypatch):
        """Unset, the count is the CPUs this process may run on — a server
        pinned to one core (as the ledger pins ``jem serve``) maps inline."""
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        if not hasattr(os, "sched_getaffinity"):
            assert _native.thread_count() == (os.cpu_count() or 1)
            return
        allowed = os.sched_getaffinity(0)
        assert _native.thread_count() == len(allowed)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            assert _native.thread_count() == 1
        finally:
            os.sched_setaffinity(0, allowed)

    def test_junk_override_falls_back_to_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        default = _native.thread_count()
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "many")
        assert _native.thread_count() == default
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "0")
        assert _native.thread_count() == 1


@needs_native
class TestThreadInvariance:
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_explicit_thread_counts_bit_identical(self, threads):
        """The contract behind REPRO_NATIVE_THREADS: output never depends
        on the thread count — segments are independent and each call
        owns a private counter array."""
        rng = np.random.default_rng(31)
        family = HashFamily.generate(6, seed=8)
        store = random_store(rng, 6, 8, n_entries=500, value_range=200)
        values, starts, lengths = random_query_block(rng, 40, 25, 200)
        baseline = fused_hits(store, family, values, starts, lengths, 2, threads=1)
        got = fused_hits(store, family, values, starts, lengths, 2, threads=threads)
        assert got is not None and baseline is not None
        assert np.array_equal(got.subject, baseline.subject)
        assert np.array_equal(got.count, baseline.count)

    @pytest.mark.parametrize("env_threads", ["1", "2", "8"])
    def test_env_override_bit_identical(self, monkeypatch, env_threads):
        rng = np.random.default_rng(37)
        family = HashFamily.generate(4, seed=9)
        store = random_store(rng, 4, 5, n_entries=300, value_range=100)
        values, starts, lengths = random_query_block(rng, 30, 20, 100)
        baseline = fused_hits(store, family, values, starts, lengths, 1, threads=1)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", env_threads)
        assert _native.thread_count() == int(env_threads)
        got = fused_hits(
            store, family, values, starts, lengths, 1, threads=None
        )
        assert got is not None and baseline is not None
        assert np.array_equal(got.subject, baseline.subject)
        assert np.array_equal(got.count, baseline.count)


# -- the columns are held once ------------------------------------------------


def _all_lookups(store, rng):
    probe = rng.integers(0, 500, 64).astype(np.uint64)
    hits = [store.lookup_trial(t, probe) for t in range(store.trials)]
    return [(h.query_index.tolist(), h.subjects.tolist()) for h in hits]


def test_the_per_trial_columns_are_held_once():
    """Each trial's value and subject column owns its own buffer — no flat
    copy, no column a view of another — so the store holds its entries
    once, 8 bytes each, and its lookups are the dict oracle's."""
    rng = np.random.default_rng(21)
    store = random_store(rng, trials=5, n_subjects=12, n_entries=300, value_range=500)
    columns = list(store.values) + list(store.subjects)
    assert all(column.base is None for column in columns)
    assert not any(
        np.shares_memory(a, b) for i, a in enumerate(columns) for b in columns[i + 1:]
    )
    assert store.nbytes == 8 * store.total_entries
    oracle = DictSketchStore(
        [store.trial_keys(t) for t in range(store.trials)], store.n_subjects
    )
    assert _all_lookups(store, np.random.default_rng(3)) == _all_lookups(
        oracle, np.random.default_rng(3)
    )


@needs_native
def test_the_fused_lookup_maps_each_trial_where_it_lives():
    """The first fused lookup copies no column: the open context pins the
    store's own per-trial arrays — the same objects before and after it,
    each still owning its buffer — and lookups and bytes are unchanged."""
    rng = np.random.default_rng(22)
    family = HashFamily.generate(4, seed=9)
    store = random_store(rng, trials=4, n_subjects=9, n_entries=200, value_range=400)
    values, starts, lengths = random_query_block(rng, 30, 8, 400)
    columns = list(store.values), list(store.subjects)
    before, nbytes = _all_lookups(store, np.random.default_rng(4)), store.nbytes
    want = oracle_hits(store, family, values, starts, lengths, 1)
    got = count_hits_fused(store, values, starts, family, min_hits=1, n_queries=starts.size)
    assert np.array_equal(got.subject, want.subject) and np.array_equal(got.count, want.count)
    for held, now, pinned in zip(columns, (store.values, store.subjects), store._ctx._columns):
        assert all(a is b is c for a, b, c in zip(held, now, pinned, strict=True))
        assert all(column.base is None for column in now)  # no shared flat buffer
    assert _all_lookups(store, np.random.default_rng(4)) == before
    assert store.nbytes == nbytes


def test_shm_attached_store_maps_the_shared_segment_in_place():
    """A worker's shard is views of the shared segment — at construction, for
    numpy lookups and for its fused lookups alike: nothing is copied out."""
    from repro.parallel import shm

    rng = np.random.default_rng(23)
    shared = shm.share_store(
        random_store(rng, trials=3, n_subjects=7, n_entries=150, value_range=300)
    )
    try:
        attached = shared.materialise()
        segment = shm.attach_arrays(shared.ref)
        before = _all_lookups(attached, np.random.default_rng(5))
        values, starts, _ = random_query_block(rng, 20, 8, 300)
        attached.lookup_fused(values, starts, HashFamily.generate(3, seed=4))
        for t in range(attached.trials):
            assert np.shares_memory(attached.values[t], segment[2 * t])
            assert np.shares_memory(attached.subjects[t], segment[2 * t + 1])
        assert _all_lookups(attached, np.random.default_rng(5)) == before
        del attached, segment
    finally:
        shm.release(shared.ref.name)
    assert not shm.created_segment_names()
