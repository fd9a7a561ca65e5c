"""The long-lived mapping service.

A :class:`MappingService` turns the one-shot JEM mapping pipeline into a
resident server: the contig index is loaded (or built) **once**, the
per-trial sketch tables stay in memory, and query reads stream through a
bounded admission queue into dynamically coalesced micro-batches, each
mapped by one S4 call (:func:`~repro.core.mapper.map_segment_batch`,
which splits the batch over the native kernel's threads).  An LRU cache
keyed by the content of a read's end segments lets duplicate reads
bypass sketching and table lookup entirely.

Scheduling is invisible in the output: for any submission order, batch
shape or cache state, the per-read results are bit-identical to a
sequential :meth:`~repro.core.mapper.JEMMapper.map_reads` over the same
reads — the service changes *when* work happens, never *what* is
computed.

A service only reads its index: the one way to change what it serves is
:meth:`MappingService.install_index`, the generation-swap door of the
:class:`~repro.netserve.ReplicaSet` that owns a served index's mutable
handle.

Public usage::

    from repro.service import MappingService, ServiceConfig

    with MappingService.from_index("contigs.idx.npz") as svc:
        fut = svc.submit("read_1", "ACGT...")
        print(fut.result().best())          # (contig name, hits)
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace

import numpy as np

from ..core.config import JEMConfig
from ..core.lsm import store_stats
from ..core.mapper import JEMMapper, MappingResult, map_segment_batch
from ..core.segments import PREFIX, SUFFIX, SegmentInfo
from ..core.store import ColumnarSketchStore
from ..errors import (
    DeadlineExceededError,
    SequenceError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from ..seq.encode import encode
from ..seq.records import SequenceSet
from .cache import SketchLRUCache, pack_entries, read_content_key, unpack_entry
from .config import ServiceConfig
from .health import OPEN, CircuitBreaker
from .metrics import ServiceMetrics
from .queue import AdmissionQueue
from .scheduler import MicroBatchScheduler

__all__ = ["MappingService", "ReadMapping", "map_reads_through"]

#: Seed for the per-read service-time estimate before any batch completes.
_INITIAL_READ_SECONDS = 2e-3


@dataclass(frozen=True)
class ReadMapping:
    """Service response for one read: its two end-segment mappings.

    ``degraded`` marks a best-effort answer produced by the single-trial
    fallback path while the circuit breaker was open — lower sensitivity
    than the full multi-trial mapping, never cached.
    """

    name: str
    subject: tuple[int, int]  # (prefix, suffix) contig ids; -1 = unmapped
    hit_count: tuple[int, int]
    subject_names: tuple[str | None, str | None]
    cached: bool = False
    degraded: bool = False

    @property
    def segment_names(self) -> tuple[str, str]:
        return (f"{self.name}/{PREFIX}", f"{self.name}/{SUFFIX}")

    def best(self) -> tuple[str | None, int]:
        """(contig name, hits) of the stronger end segment (None = unmapped)."""
        side = 0 if self.hit_count[0] >= self.hit_count[1] else 1
        return self.subject_names[side], self.hit_count[side]


class _IndexView:
    """One generation's read view: store snapshot + names + cache key prefix.

    A batch captures the service's current view exactly once, at dispatch,
    and maps/labels/caches entirely through it — so a generation swap that
    lands mid-batch never mixes into that batch's responses.  ``prefix``
    namespaces the result cache by generation: entries written by an older
    generation can never satisfy a newer one (and vice versa), without any
    locking on the swap path.
    """

    __slots__ = ("table", "subject_names", "generation", "prefix")

    def __init__(self, table, subject_names: tuple[str, ...], generation: int) -> None:
        self.table = table
        self.subject_names = subject_names
        self.generation = int(generation)
        self.prefix = self.generation.to_bytes(8, "little")

    def label(self, subject: int) -> str | None:
        return self.subject_names[subject] if subject >= 0 else None


class _MapRequest:
    """One queued read and its completion future.

    ``deadline`` is an absolute ``time.perf_counter()`` instant (or
    ``None``): a request still undispatched past it is shed, not mapped.
    """

    __slots__ = ("name", "codes", "key", "future", "t_submit", "deadline")

    def __init__(
        self,
        name: str,
        codes: np.ndarray,
        key: bytes,
        deadline_s: float | None = None,
    ) -> None:
        self.name = name
        self.codes = codes
        self.key = key
        self.future: Future = Future()
        self.t_submit = time.perf_counter()
        self.deadline = (
            self.t_submit + deadline_s if deadline_s is not None else None
        )


def map_reads_through(
    submit, reads: SequenceSet, timeout: float | None = None
) -> MappingResult:
    """Stream a whole set through a ``submit(name, codes)`` door, blocking.

    Backpressure is honoured by sleeping out ``retry_after`` and
    resubmitting.  The returned :class:`MappingResult` has exactly the
    layout of :meth:`JEMMapper.map_reads` (prefix then suffix per read,
    reads in order) so callers can compare bit for bit.
    """
    futures: list[Future] = []
    for i in range(len(reads)):
        while True:
            try:
                futures.append(submit(reads.names[i], reads.codes_of(i)))
                break
            except ServiceOverloadError as exc:
                time.sleep(exc.retry_after)
    names: list[str] = []
    infos: list[SegmentInfo] = []
    subjects = np.empty(2 * len(reads), dtype=np.int64)
    hit_counts = np.empty(2 * len(reads), dtype=np.int64)
    for i, future in enumerate(futures):
        mapping = future.result(timeout)
        names.extend(mapping.segment_names)
        infos.append(SegmentInfo(read_index=i, kind=PREFIX))
        infos.append(SegmentInfo(read_index=i, kind=SUFFIX))
        subjects[2 * i], subjects[2 * i + 1] = mapping.subject
        hit_counts[2 * i], hit_counts[2 * i + 1] = mapping.hit_count
    return MappingResult(
        segment_names=names, subject=subjects, hit_count=hit_counts, infos=infos
    )


class MappingService:
    """Batched, cached, admission-controlled mapping over a resident index."""

    def __init__(
        self,
        mapper: JEMMapper,
        service_config: ServiceConfig | None = None,
        *,
        auto_start: bool = True,
        metrics_labels: dict[str, str] | None = None,
    ) -> None:
        table = mapper.table  # raises MappingError when not indexed
        self._mapper = mapper
        self._swap_lock = threading.Lock()
        self._view = _IndexView(
            table, tuple(mapper.subject_names), getattr(table, "generation", 0)
        )
        self.jem_config: JEMConfig = mapper.config
        self.config = service_config if service_config is not None else ServiceConfig()
        self._family = mapper.config.hash_family()
        self.metrics = ServiceMetrics(labels=metrics_labels)
        self.cache = SketchLRUCache(self.config.cache_capacity)
        self._queue: AdmissionQueue[_MapRequest] = AdmissionQueue(
            self.config.queue_capacity
        )
        self._scheduler = MicroBatchScheduler(
            self._queue,
            self._process_batch,
            max_batch_size=self.config.max_batch_size,
            on_batch_error=self._fail_batch,
        )
        self._ewma_read_seconds = _INITIAL_READ_SECONDS
        self._ewma_lock = threading.Lock()
        self._drained = False
        self._killed = False
        self._breaker = CircuitBreaker(
            window=self.config.breaker_window,
            failure_threshold=self.config.breaker_failures,
            cooldown_batches=self.config.breaker_cooldown_batches,
        )
        #: ((generation, trials kept), table, family slice) — rebuilt on swap
        #: and whenever the breaker's shed level moves the trial budget
        self._degraded_view: (
            tuple[tuple[int, int], ColumnarSketchStore, object] | None
        ) = None
        self._refresh_index_gauges()
        if auto_start:
            self.start()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_index(
        cls, path, service_config: ServiceConfig | None = None, **kwargs
    ) -> "MappingService":
        """Service over a saved (checksummed) index bundle — loaded once."""
        from ..core.persist import load_index

        return cls(load_index(path), service_config, **kwargs)

    @classmethod
    def from_contigs(
        cls,
        contigs: SequenceSet,
        jem_config: JEMConfig | None = None,
        service_config: ServiceConfig | None = None,
        **kwargs,
    ) -> "MappingService":
        """Service that indexes ``contigs`` at startup and keeps it resident."""
        mapper = JEMMapper(jem_config)
        mapper.index(contigs)
        return cls(mapper, service_config, **kwargs)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._scheduler.start()
        self.metrics.ready.set(1.0)

    @property
    def draining(self) -> bool:
        return self._queue.closed

    @property
    def drained(self) -> bool:
        return self._drained

    @property
    def subject_names(self) -> list[str]:
        return self._mapper.subject_names

    def drain(self, timeout: float | None = None) -> None:
        """Stop admission, finish every accepted request, stop the scheduler.

        Idempotent.  Raises :class:`~repro.errors.ServiceError` if the
        scheduler fails to drain within ``timeout`` seconds.
        """
        self._queue.close()
        self._scheduler.join(timeout)
        if self._scheduler.alive:
            raise ServiceError(
                f"service failed to drain within {timeout}s "
                f"({self._queue.depth} requests still queued)"
            )
        self._drained = True
        self.metrics.queue_depth.set(0)
        self.metrics.ready.set(0.0)

    close = drain

    def __enter__(self) -> "MappingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()

    # -- health and self-healing ---------------------------------------------

    @property
    def breaker(self) -> CircuitBreaker:
        return self._breaker

    @property
    def killed(self) -> bool:
        return self._killed

    def kill(self) -> None:
        """Chaos door: die abruptly, the in-process stand-in for SIGKILL.

        Admission closes, everything still queued fails *typed*
        (:class:`~repro.errors.ServiceClosedError` — a real kill would
        simply never answer, but in-process futures must not hang), the
        scheduler thread exits on the emptied queue, and the service
        reports ``live`` False.  Unlike :meth:`drain`, no accepted work is
        completed.  Detecting and replacing the corpse is the fleet
        supervisor's job.
        """
        for request in self._queue.dump():
            if not request.future.done():
                self._fail(request, ServiceClosedError("replica killed"))
        self._killed = True
        self._drained = True
        self.metrics.ready.set(0.0)

    # -- the resident index ---------------------------------------------------

    @property
    def index_generation(self) -> int:
        return self._view.generation

    def store_stats(self) -> dict:
        """Per-generation stats of the resident index (see ``jem store-stats``)."""
        stats = store_stats(self._mapper.table)
        stats["generation"] = self._view.generation
        return stats

    def _refresh_index_gauges(self) -> None:
        stats = store_stats(self._mapper.table)
        self.metrics.index_generation.set(self._view.generation)
        self.metrics.memtable_entries.set(stats["memtable_entries"])
        self.metrics.index_tombstones.set(stats["tombstones"])
        self.metrics.index_segments.set(stats["segments"])

    def install_index(
        self, store, subject_names, *, generation: int | None = None
    ) -> None:
        """Swap in a new resident index: the service's one way to change it.

        The generation-swap door of :class:`~repro.netserve.ReplicaSet`,
        which owns the mutable handle and installs each immutable
        generation (or shard of one) it publishes.  ``generation``
        overrides the number stamped on the view when the store itself
        does not carry one (scatter shards).  In-flight batches finish on
        the view they captured; the result cache is generation-namespaced
        (and cleared here, purely to release memory), and the degraded
        single-trial view is invalidated so the breaker fallback also
        reads the new index.
        """
        with self._swap_lock:
            names = list(subject_names)
            self._mapper.adopt_store(store, names)
            if generation is None:
                generation = getattr(store, "generation", 0)
            self._view = _IndexView(store, tuple(names), generation)
            self._degraded_view = None
            self.cache.clear()
            self.metrics.cache_size.set(0)
            self._refresh_index_gauges()

    def healthz(self) -> dict:
        """Liveness/readiness snapshot (also refreshes the ``ready`` gauge).

        ``live`` is True until the service has drained — the process can
        still answer.  ``ready`` is True only while new work is being
        accepted *and* served at full quality: scheduler running, not
        draining, circuit breaker not open.
        """
        breaker_state = self._breaker.state
        ready = (
            self._scheduler.alive
            and not self.draining
            and breaker_state != OPEN
        )
        shed = self._breaker.shed_level
        self.metrics.ready.set(1.0 if ready else 0.0)
        self.metrics.breaker_open.set(1.0 if breaker_state == OPEN else 0.0)
        self.metrics.shed_level.set(shed)
        from ..sketch import _native

        health: dict = {
            "live": not self._drained,
            "ready": ready,
            "draining": self.draining,
            "breaker": breaker_state,
            "shed_level": shed,
            "queue_depth": self._queue.depth,
            "index_generation": self._view.generation,
            # whether the fused/native map path is actually in effect, its
            # thread count, and the load failure when it is not
            "native": _native.availability(),
        }
        return health

    def _note_breaker(self, event: str | None) -> None:
        if event == "opened":
            self.metrics.breaker_open_total.inc()
            self.metrics.breaker_open.set(1.0)
            self.metrics.ready.set(0.0)
        elif event == "recovered":
            self.metrics.recovered_total.inc()
            self.metrics.breaker_open.set(0.0)
            self.metrics.ready.set(1.0)

    # -- request path --------------------------------------------------------

    def _retry_after(self, depth: int) -> float:
        """Retry hint for a rejection observed at queue ``depth``.

        Called by the admission queue *under its lock* with the exact
        depth at the moment of rejection, and reads the EWMA under its
        own lock — safe for any number of concurrent producers (the
        network front-end submits from many connections at once).
        """
        with self._ewma_lock:
            ewma = self._ewma_read_seconds
        return max((depth + 1) * ewma, 1e-3)

    def submit(
        self,
        name: str,
        sequence: str | np.ndarray,
        *,
        deadline_s: float | None = None,
    ) -> Future:
        """Admit one read; returns a future resolving to a :class:`ReadMapping`.

        ``deadline_s`` (seconds from now) propagates into S4 dispatch: a
        request whose deadline expires while still queued is *shed* — its
        future fails with :class:`~repro.errors.DeadlineExceededError`
        before any mapping work is spent on it.

        Only the read's two ℓ-base ends are encoded and queued — all its end
        segments use — so a long read costs 2ℓ codes from here on.

        Raises :class:`~repro.errors.ServiceOverloadError` (with a
        ``retry_after`` hint) when the admission queue is full and
        :class:`~repro.errors.ServiceClosedError` once draining started.
        """
        ell = self.jem_config.ell
        if isinstance(sequence, str):
            if len(sequence) > 2 * ell:
                sequence = sequence[:ell] + sequence[-ell:]
            codes = encode(sequence)
        elif isinstance(sequence, np.ndarray):
            codes = np.ascontiguousarray(sequence, dtype=np.uint8)
        else:
            # protocol hygiene: a JSON number/list/object in "seq" must be
            # a typed refusal, not a silently coerced one-byte read
            raise SequenceError(
                f"read {name!r} payload must be a string of bases or a "
                f"code array, got {type(sequence).__name__}"
            )
        if codes.ndim != 1:
            raise SequenceError(
                f"read {name!r} payload must be one flat sequence, "
                f"got a {codes.ndim}-d array"
            )
        if codes.size == 0:
            raise SequenceError(f"read {name!r} is empty")
        if deadline_s is not None and deadline_s <= 0:
            raise ServiceError(f"deadline_s must be > 0, got {deadline_s}")
        if codes.size > 2 * ell:
            codes = np.concatenate((codes[:ell], codes[-ell:]))
        n = codes.size
        key = read_content_key(codes[: min(ell, n)], codes[max(0, n - ell):])
        request = _MapRequest(name, codes, key, deadline_s)
        try:
            depth = self._queue.put(request, retry_after=self._retry_after)
        except ServiceOverloadError:
            self.metrics.rejected_total.inc()
            raise
        self.metrics.requests_total.inc()
        self.metrics.inflight.add(1)
        self.metrics.queue_depth.set(depth)
        return request.future

    def map_reads(
        self, reads: SequenceSet, *, timeout: float | None = None
    ) -> MappingResult:
        """Blocking convenience: stream a whole set through the service
        (:func:`map_reads_through` this service's :meth:`submit`)."""
        return map_reads_through(self.submit, reads, timeout)

    # -- batch execution (scheduler thread) ----------------------------------

    def _resolve_all(
        self,
        resolved: list[tuple[_MapRequest, int]],
        view: _IndexView,
        *,
        cached: bool,
        degraded: bool = False,
    ) -> None:
        """Answer each (request, packed entry) of a batch: the metrics first,
        one call each, then the futures."""
        if not resolved:
            return
        replies = []
        for request, packed in resolved:
            prefix_subject, prefix_hits, suffix_subject, suffix_hits = unpack_entry(packed)
            replies.append(ReadMapping(
                name=request.name,
                subject=(prefix_subject, suffix_subject),
                hit_count=(prefix_hits, suffix_hits),
                subject_names=(view.label(prefix_subject), view.label(suffix_subject)),
                cached=cached,
                degraded=degraded,
            ))
        now = time.perf_counter()
        self.metrics.responses_total.inc(len(resolved))
        self.metrics.reads_mapped_total.inc(len(resolved))
        self.metrics.request_latency.observe_many(
            [now - request.t_submit for request, _ in resolved]
        )
        self.metrics.inflight.add(-len(resolved))
        # resolved last: a snapshot taken once a reply is out (the
        # protocol's ``metrics`` / ``drained``) already counts its read
        for (request, _), mapping in zip(resolved, replies):
            request.future.set_result(mapping)

    def _fail(self, request: _MapRequest, exc: BaseException) -> None:
        self.metrics.errors_total.inc()
        self.metrics.inflight.add(-1)
        request.future.set_exception(exc)

    def _fail_batch(self, batch, exc: BaseException) -> None:
        """Scheduler error hook: fail whatever the batch left unresolved."""
        self._note_breaker(self._breaker.record_failure())
        for request in batch:
            if not request.future.done():
                self._fail(request, exc)

    def _shed(self, request: _MapRequest, now: float) -> None:
        """Fail an expired request before spending mapping work on it."""
        elapsed = now - request.t_submit
        self.metrics.shed_total.inc()
        self.metrics.inflight.add(-1)
        request.future.set_exception(
            DeadlineExceededError(
                f"read {request.name!r} shed: deadline expired after "
                f"{elapsed:.3f}s in queue",
                elapsed=elapsed,
            )
        )

    def _segments_of(self, requests: list[_MapRequest]) -> SequenceSet:
        """The batch's end segments, two a read, straight from the queued codes.

        :meth:`submit` keeps at most a read's two ℓ-code ends, so a read of
        2ℓ codes already is its prefix then its suffix, back to back; a
        shorter one gives ``min(ℓ, n)`` codes from each end (below ℓ, the
        whole read twice) — :func:`~repro.core.segments.extract_end_segments`'
        segments, without its names, metas and infos, which S4 never reads.
        """
        ell = self.jem_config.ell
        pieces: list[np.ndarray] = []
        ends: list[int] = []
        for request in requests:
            codes = request.codes
            end = min(ell, codes.size)
            if codes.size == 2 * end:  # the two ends, back to back
                pieces.append(codes)
            else:
                pieces += (codes[:end], codes[codes.size - end :])
            ends.append(end)
        offsets = np.zeros(2 * len(ends) + 1, dtype=np.int64)
        np.cumsum(np.repeat(ends, 2), out=offsets[1:])
        unnamed = [""] * (2 * len(ends))
        return SequenceSet(np.concatenate(pieces), offsets, unnamed, [{}] * len(unnamed))

    @property
    def shed_level(self) -> int:
        """Current degraded-path shedding step (0 = full trial budget)."""
        return self._breaker.shed_level

    def degraded_trials(self) -> int:
        """How many sketch trials the degraded path would use right now.

        The stepwise ladder from ROADMAP item 5: shed level *s* keeps the
        first ``max(1, trials >> s)`` trials, so sustained failure walks
        T → T/2 → … → 1 and each recovery walks one step back up.
        """
        return max(1, self.jem_config.trials >> self._breaker.shed_level)

    def _map_degraded(
        self, requests: list[_MapRequest], view: _IndexView
    ) -> list[int]:
        """Best-effort reduced-trial mapping — the open-breaker fallback.

        Uses the first :meth:`degraded_trials` trials of the batch's index
        view with the matching slice of the hash family (slicing, never
        regenerating, so the trials are the same ones the full mapping
        uses).  ``min_hits`` scales with the kept fraction (floored at 1:
        with few trials a subject collects few hits, so the configured
        multi-trial threshold would unmap everything).  It is the same
        one S4 call as :meth:`_map_misses`, over a reduced store cached per
        (generation, trial budget): the breaker's cheaper answer while the
        full-trial call keeps failing.
        Results are never cached — they are lower-sensitivity answers.
        """
        cfg = self.jem_config
        t_eff = self.degraded_trials()
        degraded = self._degraded_view
        if degraded is None or degraded[0] != (view.generation, t_eff):
            degraded = (
                (view.generation, t_eff),
                ColumnarSketchStore.from_trial_keys(
                    [view.table.trial_keys(t) for t in range(t_eff)],
                    view.table.n_subjects,
                ),
                self._family.trial_slice(0, t_eff),
            )
            self._degraded_view = degraded
        _, table, family = degraded
        min_hits = max(1, (cfg.min_hits * t_eff) // cfg.trials)
        result = map_segment_batch(
            table, self._segments_of(requests),
            replace(cfg, trials=t_eff, min_hits=min_hits), family,
        )
        return pack_entries(result.subject, result.hit_count)

    def _map_misses(
        self, requests: list[_MapRequest], view: _IndexView
    ) -> list[int]:
        """Map uncached reads: one S4 call over the batch, one packed entry
        (:func:`~repro.service.cache.pack_entry`) per read.

        Exactly :meth:`JEMMapper.map_segments` over the batch's view — the
        fused native kernel when the view's store is columnar (or a clean
        single-segment generation, which delegates to its segment).
        """
        result = map_segment_batch(
            view.table, self._segments_of(requests), self.jem_config, self._family
        )
        return pack_entries(result.subject, result.hit_count)

    def _process_batch(self, batch: list[_MapRequest]) -> None:
        t0 = time.perf_counter()
        # deadline propagation: shed expired work before dispatching any of it
        live: list[_MapRequest] = []
        for request in batch:
            if request.deadline is not None and t0 > request.deadline:
                self._shed(request, t0)
            else:
                live.append(request)
        batch = live
        self.metrics.queue_depth.set(self._queue.depth)
        if not batch:
            return
        self.metrics.batch_size.observe(len(batch))
        self.metrics.queue_wait.observe_many([t0 - request.t_submit for request in batch])
        # the whole batch runs against one index generation, captured here:
        # lookups, labels, and cache traffic all go through this view, so a
        # concurrent mutation never mixes generations within a response
        view = self._view
        hits: list[tuple[_MapRequest, int]] = []
        misses: list[_MapRequest] = []
        for request in batch:
            entry = self.cache.get(view.prefix + request.key)
            if entry is not None:
                self.metrics.cache_hits_total.inc()
                hits.append((request, entry))
            else:
                self.metrics.cache_misses_total.inc()
                misses.append(request)
        mapped: list[int] = []
        degraded = False
        if misses:
            if self._breaker.decide() == "degraded":
                degraded = True
                mapped = self._map_degraded(misses, view)
                self.metrics.degraded_total.inc(len(misses))
            else:
                # a raise propagates to _fail_batch, which fails the batch's
                # futures and records the breaker failure for this batch
                mapped = self._map_misses(misses, view)
                self._note_breaker(self._breaker.record_success())
                for request, entry in zip(misses, mapped):
                    self.cache.put(view.prefix + request.key, entry)
        self.metrics.map_latency.observe(time.perf_counter() - t0)
        self.metrics.batches_total.inc()
        self.metrics.cache_size.set(len(self.cache))
        self._resolve_all(hits, view, cached=True)
        self._resolve_all(list(zip(misses, mapped)), view, cached=False, degraded=degraded)
        elapsed = time.perf_counter() - t0
        alpha = 0.3
        per_read = elapsed / len(batch)
        with self._ewma_lock:
            self._ewma_read_seconds += alpha * (per_read - self._ewma_read_seconds)
