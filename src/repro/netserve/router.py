"""Scatter/gather routing: per-trial lookups fanned to shard owners.

The router is a *virtual store*: :class:`ScatterGatherStore` satisfies the
:class:`~repro.core.store.SketchStore` protocol, but its ``lookup_trial``
scatters the query batch to the replicas owning each key range, gathers
their candidate hits, and stitches them back in ascending
(query index, subject) order — exactly the contract of
:func:`~repro.core.store.lookup_trial_sharded`.  A completely ordinary
central :class:`~repro.service.MappingService` then runs over a mapper
that adopted this store, so sketching, hit counting, and the **vote stay
central and unchanged** — which is why scatter serving is bit-identical
to single-session serving: the vote in
:func:`~repro.core.hitcounter.count_hits_vectorised` only needs each
trial's collision set, and the union of disjoint key-range lookups *is*
that set.

Each shard owner is reached only through its :class:`LookupLane` — a
per-replica admission queue plus worker thread, guarded by the replica's
own :class:`~repro.service.health.CircuitBreaker`.  A sick owner (injected
faults, open breaker, full queue) degrades **alone**: the router answers
that owner's share of the batch inline from the root store restricted to
the same key range, which returns the same hits bit for bit, while the
other owners keep serving normally.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeout
from dataclasses import dataclass, field

import numpy as np

from ..core.store import ColumnarSketchStore, TrialHits, _check_query_values
from ..errors import (
    FaultError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from ..parallel.faults import FaultPlan, inject_compute_faults
from ..parallel.retry import RetryPolicy, retry_call
from ..service.queue import AdmissionQueue

__all__ = ["LookupLane", "ScatterGatherStore"]

#: How long the gather side waits for one owner's lookup before treating
#: the owner as sick and falling back inline (seconds).
LOOKUP_TIMEOUT_S = 30.0


class _LookupTask:
    __slots__ = ("t", "qv", "future")

    def __init__(self, t: int, qv: np.ndarray) -> None:
        self.t = t
        self.qv = qv
        self.future: Future = Future()


class LookupLane:
    """One shard owner's lookup executor: admission queue + worker thread.

    The lane is the scatter path's per-replica isolation boundary.  It
    shares the replica's circuit breaker and metrics registry with the
    replica's map path, so however the owner is reached, its health is
    accounted in one place: lookup failures open the same breaker the
    front door consults, and an open breaker short-circuits lane work
    until the cooldown half-opens it (a successful probe closes it).
    """

    def __init__(
        self,
        replica_id: int,
        store,
        *,
        breaker,
        metrics,
        capacity: int,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        generation: int = 0,
    ) -> None:
        self.replica_id = replica_id
        self.generation = int(generation)
        self._store = store
        self._breaker = breaker
        self._metrics = metrics
        self._faults = faults
        self._retry = retry if retry is not None else RetryPolicy()
        self._queue: AdmissionQueue[_LookupTask] = AdmissionQueue(capacity)
        self._seq = 0
        self._killed = False
        self._draining = False
        self._wedge_until = 0.0
        self._thread = threading.Thread(
            target=self._run, name=f"jem-lookup-{replica_id}", daemon=True
        )
        self._thread.start()

    @property
    def alive(self) -> bool:
        """True while the lane can still accept and answer lookups."""
        return (
            not self._killed
            and not self._queue.closed
            and self._thread.is_alive()
        )

    def submit(self, t: int, qv: np.ndarray) -> Future:
        """Queue one trial's owned query slice; rejections raise immediately."""
        task = _LookupTask(t, qv)
        self._queue.put(task)  # ServiceOverloadError/ServiceClosedError propagate
        self._metrics.requests_total.inc()
        self._metrics.queue_depth.set(self._queue.depth)
        return task.future

    def close(self) -> None:
        self._draining = True
        self._queue.close()
        self._thread.join(timeout=10.0)

    # -- chaos doors ---------------------------------------------------------

    def kill(self) -> None:
        """Chaos door: die like a SIGKILLed owner — without answering.

        Everything already queued is abandoned with its future left
        unresolved (a killed process never replies; the gather side's
        hedge deadline is what bounds the wait), the worker thread exits,
        and later submits are refused.  Detection and respawn are the
        supervisor's job.
        """
        self._killed = True
        self._queue.dump()  # abandoned: futures stay pending forever

    def wedge(self, seconds: float) -> None:
        """Chaos door: the worker stalls for ``seconds`` before each task.

        Unlike :meth:`kill` the lane is still alive — it answers
        eventually — which is exactly the failure mode heartbeat probes
        with a deadline exist to catch.
        """
        self._wedge_until = time.monotonic() + float(seconds)

    # -- worker thread -------------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._queue.take_batch(1, 0.0)
            if not batch:
                return  # closed and drained
            # honour a wedge in short slices so kill()/close() still
            # bound this thread's lifetime: a stalled worker must not
            # outlive its lane by the rest of the stall
            while not self._killed and not self._draining:
                stall = self._wedge_until - time.monotonic()
                if stall <= 0:
                    break
                time.sleep(min(stall, 0.05))
            if self._killed:
                return  # a killed owner never answers or touches the store
            self._execute(batch[0])

    def _execute(self, task: _LookupTask) -> None:
        t0 = time.perf_counter()
        if self._breaker.decide() == "degraded":
            # open breaker: don't even try; the router serves this share
            # inline and this owner stays quarantined until half-open.
            self._metrics.degraded_total.inc()
            task.future.set_exception(
                FaultError(f"replica {self.replica_id} breaker open")
            )
            return
        self._seq += 1
        stream = self.replica_id * 1_000_003 + self._seq

        def attempt(_attempt: int) -> TrialHits:
            inject_compute_faults(
                self._faults, "map",
                block=self.replica_id, exec_rank=self.replica_id,
            )
            return self._store.lookup_trial(task.t, task.qv)

        try:
            hits, _attempts, _recovery = retry_call(
                attempt, policy=self._retry, stream=stream
            )
        except FaultError as exc:
            self._metrics.errors_total.inc()
            event = self._breaker.record_failure()
            if event == "opened":
                self._metrics.breaker_open_total.inc()
                self._metrics.breaker_open.set(1.0)
            task.future.set_exception(exc)
        else:
            event = self._breaker.record_success()
            if event == "recovered":
                self._metrics.recovered_total.inc()
                self._metrics.breaker_open.set(0.0)
            self._metrics.responses_total.inc()
            self._metrics.map_latency.observe(time.perf_counter() - t0)
            task.future.set_result(hits)


@dataclass
class ScatterStats:
    """Router-side accounting (observable from tests and ``healthz``)."""

    scattered: int = 0  # owner lookups dispatched to lanes
    fallbacks: int = 0  # owner shares answered inline from the root store
    mismatches: int = 0  # shares refused because the lane's generation differed
    hedged: int = 0  # fallbacks taken because the owner missed the hedge deadline
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def note(
        self,
        *,
        scattered: int = 0,
        fallbacks: int = 0,
        mismatches: int = 0,
        hedged: int = 0,
    ) -> None:
        with self._lock:
            self.scattered += scattered
            self.fallbacks += fallbacks
            self.mismatches += mismatches
            self.hedged += hedged

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "scattered": self.scattered,
                "fallbacks": self.fallbacks,
                "mismatches": self.mismatches,
                "hedged": self.hedged,
            }


class ScatterGatherStore:
    """Virtual :class:`SketchStore` fanning lookups across shard owners.

    Non-lookup protocol members (``trial_keys``, ``values_of_trial``, ...)
    delegate to the root store: they serve index-shaped introspection and
    the central service's degraded fallback, which are front-end-local by
    design.  Only ``lookup_trial`` — the hot path — scatters.
    """

    def __init__(
        self,
        lanes: list[LookupLane],
        placement,
        root_store: ColumnarSketchStore,
        *,
        stats: ScatterStats | None = None,
        lookup_timeout_s: float = LOOKUP_TIMEOUT_S,
        hedge_timeout_s: float | None = None,
        metrics=None,
        generation: int = 0,
    ) -> None:
        if len(lanes) != placement.n_replicas:
            raise ServiceError(
                f"{len(lanes)} lanes for {placement.n_replicas} replicas"
            )
        self._lanes = lanes
        self._placement = placement
        self._root = root_store
        self._timeout = float(lookup_timeout_s)
        #: hedge deadline: how long to wait for an owner before serving its
        #: share inline from the root store (first answer wins — both are
        #: bit-identical by construction, so hedging never changes bytes).
        #: ``None`` keeps the plain long wait.
        self._hedge = float(hedge_timeout_s) if hedge_timeout_s is not None else None
        self._metrics = metrics
        #: index generation this router serves; lanes stamped differently
        #: are refused (fail closed to the root fallback) — a mis-wired
        #: lane would otherwise answer from a different index version
        self.generation = int(generation)
        self.stats = stats if stats is not None else ScatterStats()

    def bind_metrics(self, metrics) -> None:
        """Late-bind the registry counting ``hedged_requests_total``.

        The front-door service (whose registry outlives lane swaps) is
        constructed *after* its virtual store, hence the two-step wiring.
        """
        self._metrics = metrics

    # -- protocol: shape delegates to the root store -------------------------

    @property
    def trials(self) -> int:
        return self._root.trials

    @property
    def n_subjects(self) -> int:
        return self._root.n_subjects

    @property
    def total_entries(self) -> int:
        return self._root.total_entries

    @property
    def nbytes(self) -> int:
        return self._root.nbytes

    def lookup_scalar(self, t: int, value: int) -> np.ndarray:
        return self.lookup_trial(t, np.array([value], dtype=np.uint64)).subjects

    def values_of_trial(self, t: int) -> np.ndarray:
        return self._root.values_of_trial(t)

    def trial_keys(self, t: int) -> np.ndarray:
        return self._root.trial_keys(t)

    # -- the hot path --------------------------------------------------------

    def lookup_trial(self, t: int, query_values: np.ndarray) -> TrialHits:
        """Scatter one trial's query batch to owners; gather and stitch.

        Owner shares that cannot be served by their lane (overload at
        submit, fault budget exhausted, open breaker, timeout) fall back
        to an inline lookup on the root store over the *same* query
        subset — every entry for a value in ``[lo, hi)`` lives in that
        shard, so root and shard agree bit for bit and the fallback only
        costs front-end CPU, never answer quality.

        With ``hedge_timeout_s`` set, the wait for each owner is bounded
        by the hedge deadline instead of the long lookup timeout: an
        owner that has not answered by then (killed mid-task, wedged,
        overloaded) has its share *re-computed inline immediately* and
        the late answer — identical anyway — is discarded.  This is what
        keeps in-flight requests flowing while the supervisor is still
        detecting and respawning a corpse.
        """
        qv = _check_query_values(query_values)
        owner = self._placement.owner_of(qv)
        shares: list[tuple[np.ndarray, np.ndarray, Future | None]] = []
        for i, lane in enumerate(self._lanes):
            mine = np.flatnonzero(owner == i)
            if mine.size == 0:
                continue
            sub = qv[mine]
            if lane.generation != self.generation:
                # generation disagreement: never mix answers from another
                # index version into this batch — serve the share inline
                self.stats.note(mismatches=1)
                future = None
            else:
                try:
                    future = lane.submit(t, sub)
                    self.stats.note(scattered=1)
                except (ServiceOverloadError, ServiceClosedError):
                    future = None
            shares.append((mine, sub, future))
        idx_chunks: list[np.ndarray] = []
        sub_chunks: list[np.ndarray] = []
        wait = self._hedge if self._hedge is not None else self._timeout
        for mine, sub, future in shares:
            hits = None
            hedged = 0
            if future is not None:
                try:
                    hits = future.result(wait)
                except FutureTimeout:
                    hedged = 1 if self._hedge is not None else 0
                except FaultError:
                    hits = None
            if hits is None:
                self.stats.note(fallbacks=1, hedged=hedged)
                if hedged and self._metrics is not None:
                    self._metrics.hedged_requests_total.inc()
                hits = self._root.lookup_trial(t, sub)
            if len(hits):
                idx_chunks.append(mine[hits.query_index])
                sub_chunks.append(hits.subjects)
        if not idx_chunks:
            empty = np.empty(0, dtype=np.int64)
            return TrialHits(empty, empty)
        query_index = np.concatenate(idx_chunks)
        subjects = np.concatenate(sub_chunks)
        order = np.lexsort((subjects, query_index))
        return TrialHits(query_index[order], subjects[order])
