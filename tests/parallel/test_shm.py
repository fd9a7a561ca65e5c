"""Shared-memory transport: round-trips, backend parity, fault survival,
and — most importantly — segment lifecycle (nothing may outlive the call,
even when workers die or the phase raises)."""

import gc
import glob
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import JEMConfig, JEMMapper, build_store
from repro.errors import CommError, PartialResultError
from repro.parallel import (
    FaultPlan,
    FaultSpec,
    RecoveryReport,
    RetryPolicy,
    map_reads_multiprocess,
)
from repro.parallel import shm
from repro.parallel.partition import partition_bounds
from repro.parallel.shm import (
    orphan_segment_names,
    segment_exists,
    share_store,
    sweep_orphan_segments,
)

CFG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=21)
POLICY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.005)


@pytest.fixture(scope="module")
def world():
    from repro.seq import SequenceSet, SequenceSetBuilder, decode, random_codes

    rng = np.random.default_rng(123)
    genome = random_codes(15_000, rng)
    contigs = []
    pos = 0
    i = 0
    while pos < genome.size:
        end = min(pos + 1_500, genome.size)
        contigs.append((f"c{i}", decode(genome[pos:end])))
        pos = end
        i += 1
    builder = SequenceSetBuilder()
    for j in range(10):
        start = int(rng.integers(0, genome.size - 4_000))
        builder.add(f"r{j}", genome[start : start + 4_000], meta={"gt": j})
    return SequenceSet.from_strings(contigs), builder.build()


def _no_leaks():
    assert shm.created_segment_names() == []
    assert glob.glob("/dev/shm/jem-*") == []


# -- array round-trips ---------------------------------------------------------

def test_share_attach_roundtrip():
    arrays = [
        np.arange(17, dtype=np.uint64),
        np.arange(5, dtype=np.int64) - 2,
        np.array([1, 2, 3], dtype=np.uint8),  # forces padding before next
        np.empty(0, dtype=np.uint64),
    ]
    ref = shm.share_arrays(arrays, "test")
    try:
        views = shm.attach_arrays(ref)
        for arr, view in zip(arrays, views):
            assert view.dtype == arr.dtype
            assert np.array_equal(view, arr)
    finally:
        shm.release(ref.name)
    _no_leaks()


def test_release_is_idempotent_and_atexit_safe():
    ref = shm.share_arrays([np.ones(4, dtype=np.uint64)], "test")
    shm.release(ref.name)
    shm.release(ref.name)  # second call is a no-op
    shm.release_all()
    _no_leaks()


def test_attach_vanished_segment_raises_comm_error():
    ref = shm.share_arrays([np.ones(4, dtype=np.uint64)], "test")
    shm.release(ref.name)
    with pytest.raises(CommError):
        shm.attach_arrays(ref)


def test_segment_exists_reports_lifecycle():
    ref = shm.share_arrays([np.ones(4, dtype=np.uint64)], "test")
    assert shm.segment_exists(ref.name)
    shm.release(ref.name)
    assert not shm.segment_exists(ref.name)


def test_a_view_outlives_the_release_of_its_segment():
    """Release unlinks the segment; the mapping goes with the last view."""
    ref = shm.share_arrays([np.arange(6, dtype=np.uint64).reshape(2, 3)], "test")
    (view,) = shm.attach_arrays(ref)

    def mapped():
        with open("/proc/self/maps") as maps:
            return ref.name in maps.read()

    shm.release(ref.name)
    assert not shm.segment_exists(ref.name) and mapped()
    assert np.array_equal(view, np.arange(6).reshape(2, 3))
    del view
    gc.collect()
    assert not mapped()


def test_shared_sequence_block_materialises_slices(world):
    contigs, reads = world
    bounds = partition_bounds(reads.offsets, 3)
    blocks = shm.share_sequence_set(
        reads, "test", [(int(bounds[r]), int(bounds[r + 1])) for r in range(3)]
    )
    try:
        for r, block in enumerate(blocks):
            part = reads.slice(int(bounds[r]), int(bounds[r + 1]))
            rebuilt = block.materialise()
            assert rebuilt.names == part.names
            assert rebuilt.metas == part.metas  # ground truth rides along
            assert np.array_equal(rebuilt.buffer, part.buffer)
            assert np.array_equal(rebuilt.offsets, part.offsets)
    finally:
        shm.release(blocks[0].ref.name)
    _no_leaks()


def test_shared_table_materialises_sorted_keys():
    keys = [
        np.sort(np.random.default_rng(t).integers(0, 1 << 40, 30).astype(np.uint64))
        for t in range(4)
    ]
    table = shm.share_store(build_store("columnar", keys, n_subjects=9))
    try:
        rebuilt = table.materialise()
        assert rebuilt.n_subjects == 9
        for t, want in enumerate(keys):
            assert np.array_equal(rebuilt.trial_keys(t), want)
    finally:
        shm.release(table.ref.name)
    _no_leaks()


# -- backend parity and lifecycle ---------------------------------------------

@pytest.mark.parametrize("processes", [2, 3])
def test_shm_transport_matches_inline_mapper(world, processes):
    contigs, reads = world
    seq = JEMMapper(CFG)
    seq.index(contigs)
    expected = seq.map_reads(reads)
    got = map_reads_multiprocess(
        contigs, reads, CFG, processes=processes, mp_context="fork"
    )
    assert np.array_equal(got.subject, expected.subject)
    assert np.array_equal(got.hit_count, expected.hit_count)
    assert got.segment_names == expected.segment_names
    _no_leaks()


def test_shm_transport_under_seeded_faults_no_leaks(world):
    contigs, reads = world
    seq = JEMMapper(CFG)
    seq.index(contigs)
    expected = seq.map_reads(reads)
    for seed in (1, 2, 3):
        plan = FaultPlan.seeded(seed, 2, delay=0.005)
        assert plan.recoverable
        report = RecoveryReport()
        got = map_reads_multiprocess(
            contigs, reads, CFG, processes=2, mp_context="fork",
            faults=plan, retry=POLICY, timeout=2.0, report=report,
        )
        assert np.array_equal(got.subject, expected.subject)
        _no_leaks()


def test_shm_survives_worker_death_and_pool_rebuild(world):
    """A dead worker triggers the timeout + pool-rebuild path; the fresh
    pool re-attaches to the same segments and nothing leaks."""
    contigs, reads = world
    seq = JEMMapper(CFG)
    seq.index(contigs)
    expected = seq.map_reads(reads)
    plan = FaultPlan(
        [
            FaultSpec("worker_death", "sketch", 0, times=1),
            FaultSpec("worker_death", "map", 1, times=1),
        ]
    )
    report = RecoveryReport()
    got = map_reads_multiprocess(
        contigs, reads, CFG, processes=2, mp_context="fork",
        faults=plan, retry=POLICY, timeout=2.0, report=report,
    )
    assert np.array_equal(got.subject, expected.subject)
    assert report.redispatches >= 2
    _no_leaks()


def test_shm_released_on_strict_failure(world):
    """Segments are unlinked even when the phase raises (strict S4 loss)."""
    contigs, reads = world
    plan = FaultPlan([FaultSpec("crash", "map", 1, times=None, unit_scoped=True)])
    with pytest.raises(PartialResultError):
        map_reads_multiprocess(
            contigs, reads, CFG, processes=2, mp_context="fork",
            faults=plan, retry=POLICY, timeout=30.0,
        )
    _no_leaks()


# -- orphan sweep: what a SIGKILLed owner leaves behind ------------------------
#
# A hard-killed process cannot run its ``atexit`` unlink, so its segment
# survives as an orphan — and the startup/watchdog sweep reclaims it.

@pytest.fixture
def store(tiling_contigs):
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    return mapper.table


def _publish_and_sleep(conn) -> None:
    """Child body: publish a store into shm, report the name, hang."""
    from repro.seq.records import SequenceSet

    mapper = JEMMapper(CFG)
    mapper.index(SequenceSet.from_strings([("c0", "ACGTACGTACGT" * 50)]))
    shared = share_store(mapper.table)
    conn.send(shared.ref.name)
    conn.close()
    time.sleep(120)  # killed long before this returns


class TestOrphanSweep:
    def test_sigkill_leaks_segment_and_sweep_reclaims_it(self):
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        child = ctx.Process(target=_publish_and_sleep, args=(child_conn,))
        child.start()
        try:
            assert parent_conn.poll(30), "child never published"
            name = parent_conn.recv()
            assert segment_exists(name)
            os.kill(child.pid, signal.SIGKILL)
            child.join(30)
            # SIGKILL skipped the atexit unlink: the segment is leaked
            assert segment_exists(name)
            assert name in orphan_segment_names()
            removed = sweep_orphan_segments()
            assert name in removed
            assert not segment_exists(name)
        finally:
            if child.is_alive():  # pragma: no cover - cleanup on failure
                child.kill()
                child.join(10)

    def test_sweep_spares_live_owners(self, store):
        shared = share_store(store)
        try:
            assert shared.ref.name not in orphan_segment_names()
            assert shared.ref.name not in sweep_orphan_segments()
            assert segment_exists(shared.ref.name)
        finally:
            from repro.parallel.shm import release

            release(shared.ref.name)


def test_interleaved_attaches_restore_the_tracker_hook(monkeypatch):
    """Two threads inside ``_attach_untracked`` at once (every replica's
    watchdog sweeps on the same period) leave ``resource_tracker.register``
    as they found it — not the suppression no-op, for the life of the process.

    The first caller is held inside the swap window until the second has
    either entered it too (unserialised code) or reached the lock; the
    second, if it got in, is held until the first has left.
    """
    original = shm.resource_tracker.register
    monkeypatch.setattr(shm.resource_tracker, "register", original)  # undo on failure
    first_inside, second_arrived, first_left = (threading.Event() for _ in range(3))

    class HeldSharedMemory:
        def __init__(self, name):
            if name == "first":
                first_inside.set()
                assert second_arrived.wait(30)
            else:
                second_arrived.set()
                assert first_left.wait(30)

    class AnnouncingLock:
        def __init__(self):
            self._lock = threading.Lock()

        def __enter__(self):
            if first_inside.is_set():
                second_arrived.set()
            self._lock.acquire()

        def __exit__(self, *exc_info):
            self._lock.release()

    monkeypatch.setattr(shm.shared_memory, "SharedMemory", HeldSharedMemory)
    monkeypatch.setattr(shm, "_attach_lock", AnnouncingLock())
    first = threading.Thread(target=shm._attach_untracked, args=("first",))
    second = threading.Thread(target=shm._attach_untracked, args=("second",))
    first.start()
    assert first_inside.wait(30)
    second.start()
    first.join(30)
    first_left.set()
    second.join(30)
    assert not first.is_alive() and not second.is_alive()
    assert shm.resource_tracker.register is original
