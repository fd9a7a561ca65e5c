"""Admission queue and micro-batch scheduler behaviour."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServiceClosedError, ServiceOverloadError
from repro.service import AdmissionQueue, MicroBatchScheduler
from repro.service.scheduler import COALESCE_S


class TestAdmissionQueue:
    def test_fifo_and_depth(self):
        q = AdmissionQueue(8)
        assert q.put("a") == 1
        assert q.put("b") == 2
        assert q.depth == 2
        assert q.take_batch(8, 0.0) == ["a", "b"]
        assert q.depth == 0

    def test_take_batch_respects_max_size(self):
        q = AdmissionQueue(16)
        for i in range(10):
            q.put(i)
        assert q.take_batch(4, 0.0) == [0, 1, 2, 3]
        assert q.take_batch(4, 0.0) == [4, 5, 6, 7]
        assert q.take_batch(4, 0.0) == [8, 9]

    def test_backpressure_rejection_carries_retry_after(self):
        q = AdmissionQueue(2)
        q.put("a")
        q.put("b")
        with pytest.raises(ServiceOverloadError) as exc_info:
            q.put("c", retry_after=0.25)
        assert exc_info.value.retry_after == pytest.approx(0.25)
        assert q.depth == 2  # rejected item was not admitted

    def test_callable_retry_after_sees_depth_at_rejection(self):
        """The hint callable runs under the queue lock with the true depth."""
        q = AdmissionQueue(4)
        for i in range(4):
            q.put(i)
        seen = []

        def hint(depth: int) -> float:
            seen.append(depth)
            return (depth + 1) * 0.01

        with pytest.raises(ServiceOverloadError) as exc_info:
            q.put("x", retry_after=hint)
        assert seen == [4]
        assert exc_info.value.retry_after == pytest.approx(0.05)

    def test_callable_retry_after_exact_under_concurrent_producers(self):
        """Regression: with many producers racing a consumer, every
        rejection's hint must be computed from the depth at the moment of
        *that* rejection (always == capacity, since rejections only
        happen at full) — a pre-computed float would be stale whenever
        another producer or the consumer slipped in between."""
        q = AdmissionQueue(4)
        stop = threading.Event()
        depths: list[int] = []
        hints: list[float] = []

        def hint(depth: int) -> float:
            depths.append(depth)  # list.append is atomic under the GIL
            return (depth + 1) * 0.001

        def produce():
            while not stop.is_set():
                try:
                    q.put(0, retry_after=hint)
                except ServiceOverloadError as exc:
                    hints.append(exc.retry_after)
                except ServiceClosedError:  # close() racing the last put
                    return

        def consume():
            while not stop.is_set():
                q.take_batch(2, 0.0)
                time.sleep(0.0005)

        workers = [threading.Thread(target=produce) for _ in range(4)]
        workers.append(threading.Thread(target=consume))
        for w in workers:
            w.start()
        time.sleep(0.3)
        stop.set()
        q.close()  # unblock a consumer parked in take_batch
        for w in workers:
            w.join(timeout=10.0)
        assert depths, "no rejection was ever provoked"
        assert set(depths) == {4}  # the exact depth, never a stale read
        assert all(h == pytest.approx(0.005) for h in hints)

    def test_drain_vs_shutdown_race_never_hangs_or_drops(self):
        """Producers race close() mid-drain: every put() resolves — either a
        depth (and the item is drained) or a typed rejection — and the
        consumer terminates.  Nothing hangs, nothing is silently lost."""
        q = AdmissionQueue(16)
        accepted, rejected, drained = [], [], []
        lock = threading.Lock()
        start = threading.Barrier(9)

        def produce(rank):
            start.wait()
            for i in range(50):
                item = (rank, i)
                try:
                    q.put(item)
                except (ServiceClosedError, ServiceOverloadError) as exc:
                    with lock:
                        rejected.append((item, type(exc)))
                else:
                    with lock:
                        accepted.append(item)

        def consume():
            start.wait()
            while True:
                batch = q.take_batch(4, 0.005)
                drained.extend(batch)
                if not batch and q.closed:
                    return

        def shutdown():
            start.wait()
            time.sleep(0.002)  # land mid-traffic
            q.close()

        threads = [threading.Thread(target=produce, args=(r,)) for r in range(6)]
        threads += [threading.Thread(target=consume), threading.Thread(target=shutdown)]
        for t in threads:
            t.start()
        start.wait()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "a participant hung in the race"
        # every put resolved one way or the other
        assert len(accepted) + len(rejected) == 6 * 50
        # each accepted item was drained exactly once, order preserved per rank
        assert sorted(drained) == sorted(accepted)
        assert all(exc in (ServiceClosedError, ServiceOverloadError)
                   for _, exc in rejected)
        # the queue stayed closed and empty afterwards
        assert q.closed and q.depth == 0
        assert q.take_batch(4, 0.0) == []

    def test_closed_queue_rejects_new_but_drains_old(self):
        q = AdmissionQueue(4)
        q.put("a")
        q.close()
        with pytest.raises(ServiceClosedError):
            q.put("b")
        assert q.take_batch(4, 0.0) == ["a"]
        assert q.take_batch(4, 0.0) == []  # drained: the scheduler exit signal

    def test_max_wait_coalesces_late_arrivals(self):
        q = AdmissionQueue(8)
        q.put("a")

        def late_put():
            time.sleep(0.03)
            q.put("b")

        thread = threading.Thread(target=late_put)
        thread.start()
        batch = q.take_batch(8, 0.5)
        thread.join()
        assert batch == ["a", "b"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)


class TestMicroBatchScheduler:
    def drain_through(self, queue, **kwargs):
        """Run a scheduler until the queue drains; returns dispatched batches."""
        batches: list[list] = []
        scheduler = MicroBatchScheduler(
            queue, lambda b: batches.append(list(b)), **kwargs
        )
        scheduler.start()
        queue.close()
        scheduler.join(timeout=5.0)
        assert not scheduler.alive
        return batches, scheduler

    def test_coalesces_up_to_max_batch_size(self):
        q = AdmissionQueue(64)
        for i in range(10):
            q.put(i)
        batches, scheduler = self.drain_through(q, max_batch_size=4)
        assert [len(b) for b in batches] == [4, 4, 2]
        assert sorted(x for b in batches for x in b) == list(range(10))
        assert scheduler.batches_dispatched == 3

    def test_window_follows_the_last_batch(self):
        """No wait at start or after a lone read, ``COALESCE_S`` after a
        batch that found company: a fake queue records each call's window."""

        class RecordingQueue:
            def __init__(self, batches):
                self.batches = list(batches)
                self.waits = []

            def take_batch(self, max_size, max_wait_s):
                self.waits.append(max_wait_s)
                return self.batches.pop(0) if self.batches else []

        q = RecordingQueue([["a"], ["b", "c"], ["d"]])
        dispatched = []
        scheduler = MicroBatchScheduler(q, dispatched.append, max_batch_size=8)
        scheduler.start()
        scheduler.join(timeout=5.0)
        assert not scheduler.alive
        assert dispatched == [["a"], ["b", "c"], ["d"]]
        assert q.waits == [0.0, 0.0, COALESCE_S, 0.0]

    def test_dispatch_error_does_not_kill_the_loop(self):
        q = AdmissionQueue(64)
        seen, failed = [], []

        def dispatch(batch):
            if batch[0] == "bad":
                raise RuntimeError("boom")
            seen.append(list(batch))

        scheduler = MicroBatchScheduler(
            q, dispatch, max_batch_size=1,
            on_batch_error=lambda batch, exc: failed.append((list(batch), exc)),
        )
        for item in ("bad", "good"):
            q.put(item)
        scheduler.start()
        q.close()
        scheduler.join(timeout=5.0)
        assert seen == [["good"]]
        assert len(failed) == 1 and failed[0][0] == ["bad"]
        assert isinstance(failed[0][1], RuntimeError)
        assert scheduler.batches_dispatched == 1  # the failed batch doesn't count

    def test_graceful_drain_processes_everything_queued(self):
        q = AdmissionQueue(64)
        for i in range(7):
            q.put(i)
        batches, _ = self.drain_through(q, max_batch_size=3)
        assert sorted(x for b in batches for x in b) == list(range(7))
