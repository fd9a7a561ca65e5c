"""A worker pool that survives the loss of every worker.

:class:`ResilientWorkerPool` owns the two fragile resources of the
process backend as one unit: the OS worker processes and the
shared-memory segment holding the resident sketch store.  Either can
vanish under it — workers die to SIGKILL, segments get unlinked by an
over-eager cleanup or an operator — and the pool's contract is that
:meth:`ensure` puts both back, re-publishing the store's columns from
the resident copy the parent still holds.  The service watchdog calls
:meth:`ensure` on a timer; tests call it right after vandalising the
pool.

The pool is deliberately generic: :meth:`run` maps any picklable
``fn(shared_store, item)`` over the workers, so the same machinery backs
liveness probes (:func:`probe_worker`) and real mapping work.

The workers are plain ``fork`` processes, one private pipe each —
*deliberately not* :class:`multiprocessing.Pool`.  A ``Pool`` worker
idles inside ``inqueue.get()`` holding the queue's reader lock; SIGKILL
it there and the lock dies held, after which ``Pool.terminate`` (via
``_help_stuff_finish``) deadlocks trying to take it.  A pool whose whole
contract is surviving SIGKILL cannot share locks with its workers, so
here the parent owns all coordination state and tearing a worker down is
always just ``kill`` + ``join``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

from ..core.store import ColumnarSketchStore
from ..errors import ReproError
from ..parallel.shm import (
    SharedStore,
    release,
    segment_exists,
    share_store,
    sweep_orphan_segments,
)

__all__ = ["ResilientWorkerPool", "probe_worker"]

#: Worker-side cache of the attached store (one per worker process).
_worker_store: dict[str, ColumnarSketchStore] = {}


def _attached_store(shared: SharedStore) -> ColumnarSketchStore:
    store = _worker_store.get(shared.ref.name)
    if store is None:
        store = shared.materialise()
        _worker_store.clear()  # at most one resident store per worker
        _worker_store[shared.ref.name] = store
    return store


def _call(args: tuple) -> object:
    fn, shared, item = args
    return fn(_attached_store(shared), item)


def probe_worker(store: ColumnarSketchStore, _item: object) -> tuple[int, int]:
    """Liveness probe: proves the worker can see the shared store."""
    return os.getpid(), store.n_subjects


def _worker_main(conn) -> None:
    """Worker loop: recv ``(fn, shared, item)``, send ``(ok, value)``."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:  # orderly shutdown
            return
        fn, shared, item = message
        try:
            result = (True, fn(_attached_store(shared), item))
        except BaseException as exc:  # ship the failure, keep serving
            result = (False, exc)
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One process, one private duplex pipe — no locks shared with siblings."""

    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.proc.start()
        child_conn.close()

    def stop(self, timeout: float = 5.0) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.kill()
            self.proc.join(timeout)
        self.conn.close()


class ResilientWorkerPool:
    """Process pool + shared resident store, rebuildable after total loss."""

    def __init__(self, store: ColumnarSketchStore, processes: int = 2) -> None:
        if processes < 1:
            raise ReproError(f"processes must be >= 1, got {processes}")
        self._store = store
        self._processes = int(processes)
        self._shared: SharedStore | None = None
        self._workers: list[_Worker] | None = None
        self._pids: list[int] = []
        self.rebuilds = 0
        self.segments_republished = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ResilientWorkerPool":
        """Publish the store and spawn workers (idempotent)."""
        if self._shared is None:
            self._shared = share_store(self._store)
        if self._workers is None:
            ctx = mp.get_context("fork")
            self._workers = [_Worker(ctx) for _ in range(self._processes)]
            self._pids = sorted(w.proc.pid for w in self._workers)
        return self

    def close(self) -> None:
        """Stop the workers and release the shared segment."""
        if self._workers is not None:
            for worker in self._workers:
                worker.stop()
            self._workers = None
            self._pids = []
        if self._shared is not None:
            release(self._shared.ref.name)
            self._shared = None

    def __enter__(self) -> "ResilientWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- health --------------------------------------------------------------

    @property
    def worker_pids(self) -> list[int]:
        return list(self._pids)

    @property
    def segment_name(self) -> str | None:
        return self._shared.ref.name if self._shared is not None else None

    def _pids_alive(self) -> bool:
        # Process.is_alive reaps a SIGKILLed child; a bare os.kill(pid, 0)
        # would keep reporting the unreaped zombie as alive.
        if not self._workers:
            return False
        return all(worker.proc.is_alive() for worker in self._workers)

    def healthy(self) -> bool:
        """True when every worker is alive and the segment is attachable."""
        if self._workers is None or self._shared is None:
            return False
        return self._pids_alive() and segment_exists(self._shared.ref.name)

    def kill_workers(self, sig: int = signal.SIGKILL) -> list[int]:
        """Chaos hook: signal every live worker; returns the pids hit."""
        hit: list[int] = []
        for pid in self._pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                continue
            hit.append(pid)
        return hit

    def ensure(self) -> bool:
        """Make the pool healthy; returns True when a rebuild was needed.

        Dead workers are replaced wholesale (the surviving half of a
        half-dead pool is cheap to recycle and a full restart is the only
        state we have to reason about).  A vanished segment is
        re-published from the resident store the parent still owns —
        workers re-attach by the *new* name carried in each payload, so
        nothing downstream needs to know.  Orphaned segments from the
        previous incarnation are swept as part of the rebuild.
        """
        if self.healthy():
            return False
        if self._workers is not None:
            for worker in self._workers:
                if worker.proc.is_alive():
                    worker.proc.kill()
                worker.proc.join(5.0)
                worker.conn.close()
            self._workers = None
            self._pids = []
        if self._shared is not None and not segment_exists(self._shared.ref.name):
            release(self._shared.ref.name)  # drop the stale registry entry
            self._shared = None
            self._shared = share_store(self._store)
            self.segments_republished += 1
        sweep_orphan_segments()
        self.start()
        self.rebuilds += 1
        return True

    # -- work ----------------------------------------------------------------

    def run(self, fn, items: list, *, timeout: float | None = None) -> list:
        """Map ``fn(shared_store, item)`` over the workers, in item order.

        ``fn`` must be a picklable module-level function.  Items are dealt
        round-robin; a worker that dies mid-call (or misses the deadline)
        raises :class:`~repro.errors.ReproError` — the caller (watchdog or
        test) is expected to :meth:`ensure` and retry.
        """
        if self._workers is None or self._shared is None:
            raise ReproError("pool is not started")
        workers, shared = self._workers, self._shared
        deadline = None if timeout is None else time.monotonic() + timeout
        lanes: list[list[int]] = [[] for _ in workers]
        for index, item in enumerate(items):
            lane = index % len(workers)
            try:
                workers[lane].conn.send((fn, shared, item))
            except (BrokenPipeError, OSError) as exc:
                raise ReproError(
                    f"pool worker pid {workers[lane].proc.pid} is gone"
                ) from exc
            lanes[lane].append(index)
        results: list = [None] * len(items)
        for lane, indices in enumerate(lanes):
            conn, pid = workers[lane].conn, workers[lane].proc.pid
            for index in indices:
                wait = None if deadline is None else deadline - time.monotonic()
                if wait is not None and wait <= 0:
                    raise ReproError(f"pool worker pid {pid} timed out")
                try:
                    if not conn.poll(wait):
                        raise ReproError(f"pool worker pid {pid} timed out")
                    ok, value = conn.recv()
                except (EOFError, BrokenPipeError, OSError) as exc:
                    raise ReproError(
                        f"pool worker pid {pid} died mid-call"
                    ) from exc
                if not ok:
                    raise value
                results[index] = value
        return results
