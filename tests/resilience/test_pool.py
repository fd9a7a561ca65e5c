"""ResilientWorkerPool: rebuild after worker loss, segment republish, sweep.

Also the SIGKILL-leak story for shared memory: a hard-killed process
cannot run its ``atexit`` unlink, so its segment survives as an orphan —
and the startup/watchdog sweep reclaims it.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import pytest

from repro import JEMConfig, JEMMapper
from repro.errors import ReproError
from repro.parallel.shm import (
    orphan_segment_names,
    segment_exists,
    share_store,
    sweep_orphan_segments,
)
from repro.resilience import ResilientWorkerPool
from repro.resilience.pool import probe_worker

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=4, seed=7)


@pytest.fixture
def store(tiling_contigs):
    mapper = JEMMapper(CONFIG)
    mapper.index(tiling_contigs)
    return mapper.table


def wait_until(predicate, timeout=10.0, interval=0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestResilientWorkerPool:
    def test_probe_sees_shared_store(self, store):
        with ResilientWorkerPool(store, processes=2) as pool:
            probes = pool.run(probe_worker, [0, 1, 2, 3], timeout=30)
            assert {pid for pid, _ in probes} <= set(pool.worker_pids)
            assert all(n == store.n_subjects for _, n in probes)

    def test_run_before_start_is_typed(self, store):
        pool = ResilientWorkerPool(store, processes=1)
        with pytest.raises(ReproError, match="not started"):
            pool.run(probe_worker, [0])

    def test_sigkilled_workers_trigger_rebuild(self, store):
        with ResilientWorkerPool(store, processes=2) as pool:
            assert pool.healthy()
            old_pids = pool.worker_pids
            hit = pool.kill_workers(signal.SIGKILL)
            assert hit == old_pids
            assert wait_until(lambda: not pool.healthy())
            assert pool.ensure() is True
            assert pool.rebuilds == 1
            assert pool.healthy()
            probes = pool.run(probe_worker, [0, 1], timeout=30)
            assert all(n == store.n_subjects for _, n in probes)

    def test_vanished_segment_republished(self, store):
        with ResilientWorkerPool(store, processes=1) as pool:
            name = pool.segment_name
            # an over-eager operator unlinks the segment out from under us
            from repro.parallel import shm as shm_mod

            seg, _ = shm_mod._created[name]
            seg.unlink()
            assert not pool.healthy()
            assert pool.ensure() is True
            assert pool.segments_republished == 1
            assert pool.segment_name != name
            assert pool.healthy()
            probes = pool.run(probe_worker, [0], timeout=30)
            assert probes[0][1] == store.n_subjects

    def test_ensure_on_healthy_pool_is_a_noop(self, store):
        with ResilientWorkerPool(store, processes=1) as pool:
            assert pool.ensure() is False
            assert pool.rebuilds == 0


def _publish_and_sleep(conn) -> None:
    """Child body: publish a store into shm, report the name, hang."""
    from repro.seq.records import SequenceSet

    mapper = JEMMapper(CONFIG)
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
