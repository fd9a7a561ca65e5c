"""Bit parity at every thread count.

S1 (``minimizer_block``), S2 (``subject_keys``) and a segment batch's map
(``map_segment_batch``: S1 then S4 per range of segments, every range on the
store's one open context) are cut into independent kernel calls that
``thread_map`` spreads over ``thread_count()`` threads and joins in input
order, so nothing about the output may depend on the count: every result
here is held equal to the one-thread run and to the numpy / per-trial
oracles, for ``REPRO_NATIVE_THREADS`` in {1, 2, 3, 7} and for an explicit
``threads=``.  ``MIN_THREAD_BASES`` / ``MIN_THREAD_ENTRIES`` /
``MIN_THREAD_MAP_BASES`` are shrunk to one element so that inputs of a few
hundred bases really are cut.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro import _native_build
from repro.core import JEMConfig, JEMMapper
from repro.core.mapper import map_segment_batch
from repro.seq import SequenceSet
from repro.sketch import _native
from repro.sketch.hashing import HashFamily
from repro.sketch.jem import subject_intervals, subject_sketch_pairs
from repro.sketch.minimizers import minimizers_set

needs_native = pytest.mark.skipif(
    _native.load() is None, reason="native kernels unavailable or disabled"
)

THREADS = [1, 2, 3, 7]


@pytest.fixture
def tiny_shares(monkeypatch):
    """Any input is worth cutting: one element per thread is enough."""
    monkeypatch.setattr(_native, "MIN_THREAD_BASES", 1)
    monkeypatch.setattr(_native, "MIN_THREAD_ENTRIES", 1)
    monkeypatch.setattr(_native, "MIN_THREAD_MAP_BASES", 1)


def as_set(sequences: list[np.ndarray]) -> SequenceSet:
    lengths = [s.size for s in sequences]
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    codes = np.concatenate(sequences).astype(np.uint8)
    return SequenceSet(codes, offsets, [f"s{i}" for i in range(len(sequences))])


def dna(rng, n, invalid=0.0):
    codes = rng.integers(0, 4, size=n).astype(np.uint8)
    codes[rng.random(n) < invalid] = 4
    return codes


def edge_sets(rng):
    """(label, set): zero-length and all-N sequences, at the edges of runs
    and alone; one sequence longer than a run; fewer sequences than threads."""
    all_n = np.full(300, 4, dtype=np.uint8)
    yield "mixed", as_set([
        dna(rng, 0), dna(rng, 900, 0.01), all_n, dna(rng, 15), dna(rng, 2_500),
        dna(rng, 0), dna(rng, 700), all_n, dna(rng, 1_200, 0.05), dna(rng, 0),
    ])
    yield "one sequence", as_set([dna(rng, 3_000)])
    yield "two sequences, seven threads", as_set([dna(rng, 800), dna(rng, 40)])
    yield "nothing to sketch", as_set([dna(rng, 0), all_n, dna(rng, 5)])
    yield "longer than a run", as_set([dna(rng, 400), dna(rng, 5_000), dna(rng, 400)])


def numpy_block(sset, k, w):
    lists = minimizers_set(sset, k, w)
    return (
        np.concatenate([ml.ranks for ml in lists]),
        np.concatenate([ml.positions for ml in lists]),
        np.array([len(ml) for ml in lists], dtype=np.int64),
    )


def assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# -- thread_map / thread_shares ----------------------------------------------


def test_thread_map_keeps_input_order_with_more_items_than_threads():
    seen = []
    all_here = threading.Barrier(3, timeout=30)

    def fn(i):
        seen.append(threading.current_thread().name)
        if i < 3:  # a thread waiting here cannot take a second item: three threads, one each
            all_here.wait()
        return i * i

    assert _native.thread_map(fn, range(11), 3) == [i * i for i in range(11)]
    assert set(seen) == {threading.current_thread().name, "jem-kernel-1", "jem-kernel-2"}
    assert len(seen) == 11
    assert not any(t.name.startswith("jem-kernel") for t in threading.enumerate())


@pytest.mark.parametrize("threads,items", [(1, 5), (4, 1), (4, 0)])
def test_thread_map_starts_nothing_for_one_thread_or_one_item(monkeypatch, threads, items):
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was created")

    monkeypatch.setattr(threading, "Thread", no_threads)
    assert _native.thread_map(lambda i: -i, range(items), threads) == [-i for i in range(items)]


def test_thread_map_reraises_after_every_thread_has_finished():
    finished = []

    def fn(i):
        if i == 1:
            raise KeyError("item 1")
        finished.append(i)
        return i

    with pytest.raises(KeyError, match="item 1"):
        _native.thread_map(fn, range(6), 3)
    # the thread that met item 1 stopped there; the others took what was left
    assert sorted(finished) == [0, 2, 3, 4, 5]
    assert not any(t.name.startswith("jem-kernel") for t in threading.enumerate())


@pytest.mark.skipif(not _native_build.affinity(), reason="no thread affinity here")
def test_thread_map_binds_thread_k_to_cpu_k_and_gives_the_caller_its_mask_back():
    cpus = _native_build.affinity()
    all_here = threading.Barrier(3, timeout=30)

    def mask_of_my_thread(_):
        all_here.wait()  # three threads, one item each
        return sorted(os.sched_getaffinity(0))

    masks = _native.thread_map(mask_of_my_thread, range(3), 3)
    assert sorted(masks) == sorted([cpus[k % len(cpus)]] for k in range(3))
    assert _native_build.affinity() == cpus


def test_thread_shares_follow_the_work_not_just_the_count(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
    unit = 1000
    assert _native.thread_shares(0, unit, None) == 1
    assert _native.thread_shares(2 * unit - 1, unit, None) == 1
    assert _native.thread_shares(2 * unit, unit, None) == 2
    assert _native.thread_shares(100 * unit, unit, None) == 4
    assert _native.thread_shares(100 * unit, unit, 1) == 1  # a worker process asks for one
    assert _native.thread_shares(100 * unit, unit, 7) == 7
    # what stays inline: a served batch of 64 reads' end segments, one read
    # batch's (2 Mi bases of reads), an added 8-kb contig's minimizers x 30 trials
    assert _native.thread_shares(64 * 2 * 1000, _native.MIN_THREAD_BASES, None) == 1
    assert _native.thread_shares(400 * 1000, _native.MIN_THREAD_BASES, None) == 1
    assert _native.thread_shares(30 * 160, _native.MIN_THREAD_ENTRIES, None) == 1
    # what does not: a 2-Mi-base block of contigs, a trial chunk of its minimizers
    assert _native.thread_shares(1 << 21, _native.MIN_THREAD_BASES, None) == 4
    assert _native.thread_shares(12 * 41_000, _native.MIN_THREAD_ENTRIES, None) == 4
    # S1 + S4 of a range is one hand-off, worth a thread at half the bases: a
    # read batch's end segments are cut, a served batch of 64 reads' still not
    assert _native.thread_shares(400 * 1000, _native.MIN_THREAD_MAP_BASES, None) == 3
    assert _native.thread_shares(375 * 1000, _native.MIN_THREAD_MAP_BASES, 2) == 2
    assert _native.thread_shares(64 * 2 * 1000, _native.MIN_THREAD_MAP_BASES, None) == 1


def test_thread_ranges_cover_the_input_once_in_order():
    assert _native.thread_ranges(10, 1) == [(0, 10)]
    assert _native.thread_ranges(0, 1) == [(0, 0)] == _native.thread_ranges(0, 3)
    assert _native.thread_ranges(10, 3, per_thread=1) == [(0, 3), (3, 6), (6, 10)]
    assert _native.thread_ranges(2, 7, per_thread=1) == [(0, 1), (1, 2)]
    for n, shares in [(30, 2), (5, 3), (256, 7)]:
        ranges = _native.thread_ranges(n, shares)
        assert len(ranges) == min(n, shares * _native._CALLS_PER_THREAD)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(ranges, ranges[1:]))


def test_thread_count_takes_an_explicit_request_over_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
    assert _native.thread_count() == 3
    assert _native.thread_count(None) == 3
    assert _native.thread_count(5) == 5
    assert _native.thread_count(0) == 1


# -- S1 ----------------------------------------------------------------------


@needs_native
@pytest.mark.parametrize("k,w", [(16, 100), (5, 7), (16, 1)])
def test_minimizer_block_is_the_same_at_every_thread_count(monkeypatch, tiny_shares, k, w):
    lib = _native.load()
    monkeypatch.setattr(_native, "_BLOCK_BASES", 1_500)  # "longer than a run" is
    for label, sset in edge_sets(np.random.default_rng(k * 100 + w)):
        want = numpy_block(sset, k, w)
        for threads in THREADS:
            got = lib.minimizer_block(sset.buffer, sset.offsets, k, w, threads=threads)
            assert_same(got, want)
            monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
            assert_same(lib.minimizer_block(sset.buffer, sset.offsets, k, w), want)
            monkeypatch.delenv("REPRO_NATIVE_THREADS")


@needs_native
def test_minimizer_block_threads_really_run(monkeypatch, tiny_shares):
    """The parity above is of a cut that happened: three threads, several runs."""
    calls = []
    real = _native.thread_map

    def spy(fn, items, threads):
        calls.append((len(items), threads))
        return real(fn, items, threads)

    monkeypatch.setattr(_native, "thread_map", spy)
    sset = as_set([dna(np.random.default_rng(1), 500) for _ in range(9)])
    _native.load().minimizer_block(sset.buffer, sset.offsets, 16, 100, threads=3)
    assert calls == [(9, 3)]  # finer than one run a thread: here, a sequence each
    calls.clear()
    _native.load().minimizer_block(sset.buffer, sset.offsets, 16, 100, threads=1)
    assert calls == [(1, 1)]


@needs_native
def test_a_small_batch_is_not_worth_a_thread(monkeypatch):
    """With the real threshold a served one-read batch (two 1-kb segments)
    is one inline call whatever the thread count."""
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was created")

    monkeypatch.setattr(threading, "Thread", no_threads)
    sset = as_set([dna(np.random.default_rng(2), 1_000) for _ in range(2)])
    got = _native.load().minimizer_block(sset.buffer, sset.offsets, 16, 100, threads=8)
    assert_same(got, numpy_block(sset, 16, 100))


# -- S2 ----------------------------------------------------------------------


@needs_native
@pytest.mark.parametrize("trials", [1, 2, 30])
@pytest.mark.parametrize("least", [1, None], ids=["one-row-a-thread", "default-threshold"])
def test_subject_sketch_pairs_is_the_same_at_every_thread_count(
    monkeypatch, tiny_shares, trials, least
):
    """Any row worth a thread leaves one trial a thread at T = 1 and fewer
    trials than threads at T = 2; the real threshold runs these small sets
    inline.  None of it may show."""
    if least is None:
        monkeypatch.setattr(_native, "MIN_THREAD_ENTRIES", 1 << 15)
    family = HashFamily.generate(trials, seed=trials)
    for label, sset in edge_sets(np.random.default_rng(trials)):
        with monkeypatch.context() as numpy_arm:
            numpy_arm.setenv("REPRO_NO_NATIVE", "1")
            want = subject_sketch_pairs(sset, 12, 20, 300, family, subject_id_offset=5)
        for threads in THREADS:
            got = subject_sketch_pairs(
                sset, 12, 20, 300, family, subject_id_offset=5, threads=threads
            )
            assert_same(got, want)
            monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
            assert_same(subject_sketch_pairs(sset, 12, 20, 300, family, subject_id_offset=5), want)
            monkeypatch.delenv("REPRO_NATIVE_THREADS")


@needs_native
def test_subject_scratch_is_per_thread(monkeypatch, tiny_shares):
    """S2 takes a window and a row of n entries for each thread it runs on,
    and nothing else: no array bigger than one n-entry row, and no more of
    them at 30 trials than at one."""
    sizes = []

    class SpyNumpy:  # what ``_native`` sees as ``np``: ``empty`` records sizes
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, *args, **kwargs):
            arr = np.empty(*args, **kwargs)
            sizes.append(arr.size)
            return arr

    monkeypatch.setattr(_native, "np", SpyNumpy())
    sset = as_set([dna(np.random.default_rng(3), 4_000) for _ in range(4)])
    intervals = subject_intervals(sset, 12, 20, 300)
    n = intervals[0].size
    for trials, threads in ((30, 1), (30, 3), (1, 3), (2, 3)):
        sizes.clear()
        keys = _native.load().subject_keys(
            *intervals, HashFamily.generate(trials, seed=1), threads=threads
        )
        assert len(keys) == trials
        assert sizes == [n] * (2 * min(threads, trials)), (trials, threads)
# -- S1 then S4 ----------------------------------------------------------------

MAP_CFG = JEMConfig(k=12, w=20, ell=300, trials=6, seed=3)


def map_world(rng):
    """An index over eight contigs, and every edge set's sequences as
    segments: some from a contig, some random, some empty or all-N."""
    contigs = as_set([dna(rng, 2_000) for _ in range(8)])
    mapper = JEMMapper(MAP_CFG)
    mapper.index(contigs)
    for label, sset in edge_sets(rng):
        hits = [contigs.codes_of(i % 8)[100 : 100 + 400] for i in range(6)]
        yield label, mapper, as_set([sset.codes_of(i) for i in range(len(sset))] + hits)


def same_result(got, want):
    return (
        got.segment_names == want.segment_names
        and got.subject.dtype == want.subject.dtype
        and np.array_equal(got.subject, want.subject)
        and np.array_equal(got.hit_count, want.hit_count)
    )


@needs_native
def test_map_segment_batch_is_the_same_at_every_thread_count(monkeypatch, tiny_shares):
    family = MAP_CFG.hash_family()
    for label, mapper, segments in map_world(np.random.default_rng(41)):
        with monkeypatch.context() as numpy_arm:
            numpy_arm.setenv("REPRO_NO_NATIVE", "1")
            want = map_segment_batch(mapper.table, segments, MAP_CFG, family)
        assert want.n_mapped >= 6, label
        for threads in THREADS:
            got = map_segment_batch(mapper.table, segments, MAP_CFG, family, threads=threads)
            assert same_result(got, want), (label, threads)
            monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
            assert same_result(map_segment_batch(mapper.table, segments, MAP_CFG, family), want)
            monkeypatch.delenv("REPRO_NATIVE_THREADS")


@needs_native
def test_map_ranges_really_run_s1_then_s4_each_on_the_one_context(monkeypatch, tiny_shares):
    """Three threads, three ranges: a minimizer pass and a map call each, in
    that order on the thread that took the range, all on one handle."""
    events = []  # (thread name, stage, segments in the call, what it ran on)
    real_s1 = _native.NativeKernels.minimizer_block
    real_s4 = _native.MapContext.map

    def s1(self, codes, offsets, k, w, *, threads=None):
        events.append((threading.current_thread().name, "S1", offsets.size - 1, threads))
        return real_s1(self, codes, offsets, k, w, threads=threads)

    def s4(self, values, starts, min_hits=1):
        events.append((threading.current_thread().name, "S4", starts.size, id(self)))
        return real_s4(self, values, starts, min_hits)

    rng = np.random.default_rng(42)
    _, mapper, _ = next(map_world(rng))
    segments = as_set([dna(rng, 300) for _ in range(10)])
    family = MAP_CFG.hash_family()
    monkeypatch.setattr(_native.NativeKernels, "minimizer_block", s1)
    monkeypatch.setattr(_native.MapContext, "map", s4)
    map_segment_batch(mapper.table, segments, MAP_CFG, family, threads=3)
    for name in {name for name, *_ in events}:
        stages = [stage for thread, stage, *_ in events if thread == name]
        assert stages == ["S1", "S4"] * (len(stages) // 2)
    assert sorted(n for _, stage, n, _ in events if stage == "S1") == [3, 3, 4]
    assert {on for _, stage, _, on in events if stage == "S1"} == {1}  # inline inside a range
    assert len({on for _, stage, _, on in events if stage == "S4"}) == 1  # one handle
    events.clear()
    map_segment_batch(mapper.table, segments, MAP_CFG, family, threads=1)
    assert [event[1:3] for event in events] == [("S1", 10), ("S4", 10)]


@needs_native
def test_a_served_batch_is_mapped_inline_whatever_the_thread_count(monkeypatch):
    """With the real threshold 64 reads' end segments are one S1 call and one
    S4 call on the caller's thread."""
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was created")

    rng = np.random.default_rng(43)
    _, mapper, _ = next(map_world(rng))
    segments = as_set([dna(rng, 1_000) for _ in range(128)])
    monkeypatch.setattr(threading, "Thread", no_threads)
    got = map_segment_batch(mapper.table, segments, MAP_CFG, MAP_CFG.hash_family(), threads=8)
    assert len(got) == 128


@needs_native
def test_oversubscribed_threads_under_a_short_switch_interval(tiny_shares):
    """More threads than cores, the interpreter switching between them as
    often as it can, for a bounded second: a share written by the wrong
    thread, or a scratch buffer two threads were handed, would show as a
    run that differs from the first."""
    import sys
    import time

    lib = _native.load()
    rng = np.random.default_rng(11)
    sset = as_set([dna(rng, 700, 0.01) for _ in range(40)])
    family = HashFamily.generate(12, seed=5)
    want_block = lib.minimizer_block(sset.buffer, sset.offsets, 12, 20, threads=1)
    want_keys = subject_sketch_pairs(sset, 12, 20, 300, family, threads=1)
    _, mapper, segments = next(map_world(rng))
    map_family = MAP_CFG.hash_family()
    want_map = map_segment_batch(mapper.table, segments, MAP_CFG, map_family, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        deadline = time.monotonic() + 1.0
        rounds = 0
        while rounds < 3 or time.monotonic() < deadline:
            assert_same(lib.minimizer_block(sset.buffer, sset.offsets, 12, 20, threads=7), want_block)
            assert_same(subject_sketch_pairs(sset, 12, 20, 300, family, threads=7), want_keys)
            assert same_result(
                map_segment_batch(mapper.table, segments, MAP_CFG, map_family, threads=7), want_map
            )
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
    assert rounds >= 3
    assert not any(t.name.startswith("jem-kernel") for t in threading.enumerate())
