"""The life of a store's native map context (``jem_ctx``).

S4's set-up — Barrett constants and a 256-bucket index over every store
entry — is paid when :meth:`ColumnarSketchStore.lookup_fused` first runs, not
per call: one ``NativeKernels.map_open`` per store and hash family, shared by
every later call from any thread, replaced when another family is passed,
closed when the store goes, never pickled, and opened anew by every store
that attaches to a shared segment and by every generation a mutable index
installs.
"""

from __future__ import annotations

import gc
import pickle
import threading

import numpy as np
import pytest

from repro.core import JEMConfig, JEMMapper
from repro.core.lsm import MutableSketchStore
from repro.core.mapper import map_segment_batch
from repro.core.segments import extract_end_segments
from repro.core.store import ColumnarSketchStore
from repro.parallel import shm
from repro.seq import SequenceSet, decode, random_codes
from repro.sketch import _native
from repro.sketch.hashing import HashFamily

pytestmark = pytest.mark.skipif(
    _native.load() is None, reason="native kernels unavailable or disabled"
)


def random_store(rng, trials=5, n_subjects=9, n_entries=400, value_range=300):
    subjects = rng.integers(0, n_subjects, n_entries).astype(np.uint64)
    keys = []
    for _ in range(trials):
        values = rng.integers(0, value_range, n_entries).astype(np.uint64)
        keys.append(np.unique((values << np.uint64(32)) | subjects))
    return ColumnarSketchStore.from_trial_keys(keys, n_subjects)


def random_block(rng, n_segments=25, max_len=12, value_range=300):
    lengths = rng.integers(1, max_len, n_segments)
    values = rng.integers(0, value_range, int(lengths.sum())).astype(np.uint64)
    return values, (np.cumsum(lengths) - lengths).astype(np.int64)


@pytest.fixture
def opens(monkeypatch):
    """Every ``map_open`` of this process, as the value columns it was handed."""
    seen = []
    real = _native.NativeKernels.map_open

    def spy(self, col_values, col_subjects, family, n_subjects):
        seen.append(col_values)
        return real(self, col_values, col_subjects, family, n_subjects)

    monkeypatch.setattr(_native.NativeKernels, "map_open", spy)
    return seen


def rss_kb() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))


def test_opened_at_the_first_fused_lookup_and_reused_by_the_next_hundred(opens):
    rng = np.random.default_rng(1)
    store, family = random_store(rng), HashFamily.generate(5, seed=3)
    assert store._ctx is None and not opens  # nothing at construction
    values, starts = random_block(rng)
    first = store.lookup_fused(values, starts, family)
    ctx = store._ctx
    for _ in range(100):
        again = store.lookup_fused(values, starts, family, min_hits=1)
        assert np.array_equal(again[0], first[0]) and np.array_equal(again[1], first[1])
    assert len(opens) == 1 and store._ctx is ctx
    # it was handed the store's own per-trial columns, and pins those very arrays
    assert opens[0] is store.values
    pinned_values, pinned_subjects = ctx._columns
    assert all(a is b for a, b in zip(pinned_values, store.values, strict=True))
    assert all(a is b for a, b in zip(pinned_subjects, store.subjects, strict=True))


def test_an_equal_family_reuses_it_and_another_replaces_it(opens):
    rng = np.random.default_rng(2)
    store = random_store(rng)
    values, starts = random_block(rng)
    family = HashFamily.generate(5, seed=3)
    want = store.lookup_fused(values, starts, family)
    # a worker process builds its family afresh for every block: equal constants
    store.lookup_fused(values, starts, HashFamily.generate(5, seed=3))
    assert len(opens) == 1
    other = HashFamily.generate(5, seed=4)
    changed = store.lookup_fused(values, starts, other)
    assert len(opens) == 2 and store._ctx.family is other
    fresh = random_store(np.random.default_rng(2))
    for family_, got in ((other, changed), (family, store.lookup_fused(values, starts, family))):
        expect = fresh.lookup_fused(values, starts, family_)
        assert np.array_equal(got[0], expect[0]) and np.array_equal(got[1], expect[1])
    assert len(opens) == 5  # back to the first family: opened again, not remembered
    assert np.array_equal(store.lookup_fused(values, starts, family)[0], want[0])


def test_threads_that_arrive_together_share_one_open(opens):
    rng = np.random.default_rng(3)
    store, family = random_store(rng, n_entries=4_000), HashFamily.generate(5, seed=1)
    values, starts = random_block(rng, n_segments=200)
    together = threading.Barrier(4, timeout=30)

    def lookup(_):
        together.wait()
        return store.lookup_fused(values, starts, family)

    results = _native.thread_map(lookup, range(4), 4)
    assert len(opens) == 1
    assert all(np.array_equal(r[0], results[0][0]) for r in results)


def test_a_thousand_stores_opened_and_dropped_leave_nothing_behind():
    """The context is closed with its store: 1,000 x (257 x 30 x 8 B = 62 KB
    of bucket index) would be 60 MB if it were not."""
    rng = np.random.default_rng(4)
    family = HashFamily.generate(30, seed=1)
    keys = [random_store(rng).trial_keys(0)] * 30
    values, starts = random_block(rng)

    def cycle():
        store = ColumnarSketchStore.from_trial_keys(keys, 9)
        store.lookup_fused(values, starts, family)
        return store._ctx

    for _ in range(50):  # allocator warm-up
        cycle()
    gc.collect()
    before = rss_kb()
    for _ in range(1_000):
        assert cycle() is not None
    gc.collect()
    assert rss_kb() - before < 1_024


def test_the_context_is_not_in_the_pickle(opens):
    rng = np.random.default_rng(5)
    store, family = random_store(rng), HashFamily.generate(5, seed=2)
    values, starts = random_block(rng)
    cold = pickle.dumps(store)
    want = store.lookup_fused(values, starts, family)
    warm = pickle.dumps(store)
    assert store._ctx is not None
    assert len(warm) < len(cold) + 256  # neither the handle nor a second copy of the columns
    clone = pickle.loads(warm)
    assert clone._ctx is None
    assert all(np.array_equal(a, b) for a, b in zip(clone.values, store.values))
    got = clone.lookup_fused(values, starts, family)
    assert len(opens) == 2 and clone._ctx is not store._ctx
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_every_store_attached_to_a_shared_segment_opens_its_own(opens):
    """A lane maps on its attached store, is joined, and the segment is
    released under the store that still holds an open context.  Both contexts
    point into the segment itself — no column is copied out of it — closing
    one touches nothing but its own allocation, and the other still maps
    after the release."""
    rng = np.random.default_rng(6)
    source, family = random_store(rng), HashFamily.generate(5, seed=2)
    values, starts = random_block(rng)
    want = source.lookup_fused(values, starts, family)
    shared = shm.share_store(source)
    try:
        mine, lanes = shared.materialise(), shared.materialise()
        got = []
        lane = threading.Thread(
            target=lambda: got.append(lanes.lookup_fused(values, starts, family))
        )
        lane.start()
        lane.join(timeout=30)
        assert not lane.is_alive()
        got.append(mine.lookup_fused(values, starts, family))
        assert len(opens) == 3 and mine._ctx is not lanes._ctx is not source._ctx
        segment = shm.attach_arrays(shared.ref)
        for store in (mine, lanes):
            for t in range(store.trials):
                assert np.shares_memory(store.values[t], segment[2 * t])
                assert np.shares_memory(store.subjects[t], segment[2 * t + 1])
        del mine, segment  # one context closed while the segment is mapped
        gc.collect()
    finally:
        shm.release(shared.ref.name)
    assert not shm.created_segment_names()
    # the pinned views keep the mapping open: a released segment still serves
    # the store that holds it, through the context that points into it
    got.append(lanes.lookup_fused(values, starts, family))
    assert len(got) == 3
    assert all(np.array_equal(g[0], want[0]) and np.array_equal(g[1], want[1]) for g in got)
    del lanes
    gc.collect()


def test_a_mutable_index_opens_one_per_installed_generation(opens):
    rng = np.random.default_rng(7)
    config = JEMConfig(k=12, w=20, ell=500, trials=6, seed=5)
    genome = random_codes(24_000, rng)
    contigs = SequenceSet.from_strings(
        [(f"c{i}", decode(genome[lo : lo + 3_000])) for i, lo in enumerate(range(0, 18_000, 3_000))]
    )
    reads = SequenceSet.from_strings(
        [(f"r{i}", decode(genome[lo : lo + 2_500])) for i, lo in enumerate(range(100, 20_000, 1_700))]
    )
    mapper = JEMMapper(config)
    mapper.index(contigs)
    family = config.hash_family()
    segments, _ = extract_end_segments(reads, config.ell)
    with MutableSketchStore.in_memory(
        config, base_store=mapper.table, subject_names=contigs.names
    ) as handle:
        def mapped():
            return map_segment_batch(handle.current, segments, config, family)

        base = mapped()
        mapped()
        assert len(opens) == 1  # the clean base generation: one segment, one context
        handle.add_contigs(SequenceSet.from_strings([("late", decode(genome[18_000:24_000]))]))
        assert not handle.current.is_clean
        dirty = mapped()
        assert len(opens) == 1  # a dirty generation maps on numpy and opens nothing
        handle.compact()
        assert handle.current.is_clean
        compacted, again = mapped(), mapped()
        assert len(opens) == 2  # the compacted segment is new: its own, once
    assert np.array_equal(dirty.subject, compacted.subject)
    assert np.array_equal(dirty.hit_count, compacted.hit_count)
    assert np.array_equal(compacted.subject, again.subject)
    assert (compacted.subject == 6).any() and not (base.subject == 6).any()
