"""Replicated mapping workers behind one front door.

A :class:`ReplicaSet` spawns N :class:`~repro.service.MappingService`
workers, threads of the serving process, and hands each its owned store
by reference: under replication every replica holds the set's root store
object itself, and under scatter replica *i* holds
``root.restrict(lo, hi)`` — column views into the root, no bytes copied.
The process holds one copy of the index however many replicas serve it,
and replicas sharing one store object share its native map context too.

The set is the one owner of a served index's mutable handle: mutations,
flushes and compactions run here under one lock, each only when a caller
asks for it, and each published generation is installed into the replica
services, which only read.  ``jem serve`` fronts a set.

Every replica keeps its own admission queue, circuit breaker, and
labelled metrics registry (all inside its ``MappingService``), so one
sick replica sheds or degrades alone while the set keeps serving:

* ``replicate`` placement routes whole reads round-robin across replicas
  whose breaker is not open, with overload failover to the next replica
  — an open-breaker replica would answer from its degraded single-trial
  path, so routing around it is what keeps the set's output bit-identical
  to a single healthy session.
* ``scatter`` placement serves every read through one *central* service
  over a :class:`~repro.netserve.router.ScatterGatherStore`; the replicas
  answer per-trial key-range lookups through their
  :class:`~repro.netserve.router.LookupLane`, and a sick owner's share is
  recomputed inline from the root store — same answer, one replica's
  speedup lost.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import TYPE_CHECKING

import numpy as np

from ..core.config import JEMConfig
from ..core.lsm import MutableSketchStore, store_stats
from ..core.mapper import JEMMapper, MappingResult
from ..core.store import ColumnarSketchStore
from ..errors import ServiceClosedError, ServiceError, ServiceOverloadError
from ..seq.records import SequenceSet
from ..service.config import ServiceConfig
from ..service.health import OPEN
from ..service.metrics import aggregate_metrics
from ..service.service import MappingService, map_reads_through
from ..sketch.kernels import sorted_unique_rows
from .placement import PlacementPolicy, ScatterPlacement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.faults import FaultPlan
    from ..parallel.retry import RetryPolicy
    from .router import LookupLane, ScatterGatherStore

__all__ = ["Replica", "ReplicaSet"]


class Replica:
    """One worker: a :class:`MappingService` over the store it is handed."""

    def __init__(
        self,
        replica_id: int,
        store,
        lo: int,
        hi: int,
        subject_names: list[str],
        jem_config: JEMConfig | None,
        service_config: ServiceConfig,
        *,
        placement_kind: str,
        generation: int = 0,
    ) -> None:
        self.id = int(replica_id)
        self.lo = int(lo)
        self.hi = int(hi)
        self.store = store
        mapper = JEMMapper(jem_config)
        mapper.adopt_store(self.store, subject_names)
        self.service = MappingService(
            mapper,
            service_config,
            metrics_labels={
                "replica": str(self.id),
                "placement": placement_kind,
                "key_range": f"[{self.lo:#010x}, {self.hi:#010x})",
            },
        )
        if generation != self.service.index_generation:
            # a shard carries no generation of its own: stamp the
            # fleet's, so healthz agreement and the lane stamp line up
            self.service.install_index(
                self.store, subject_names, generation=generation
            )

    def healthz(self) -> dict:
        health = self.service.healthz()
        health["replica"] = self.id
        health["key_range"] = [self.lo, self.hi]
        return health


class ReplicaSet:
    """N placement-assigned mapping workers behind one ``submit`` door.

    ``faults`` / ``retry`` reach only the scatter placement's lookup lanes
    (:class:`~repro.netserve.router.LookupLane`): an injected fault strikes
    a lane's per-trial lookup, and a replica service always maps its
    batch in one call.
    """

    def __init__(
        self,
        store: ColumnarSketchStore | MutableSketchStore,
        subject_names: list[str],
        jem_config: JEMConfig | None = None,
        *,
        placement: PlacementPolicy,
        service_config: ServiceConfig | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        hedge_timeout_s: float | None = 2.0,
    ) -> None:
        self.placement = placement
        self.config = (
            service_config if service_config is not None else ServiceConfig()
        )
        self._jem_config = jem_config if jem_config is not None else JEMConfig()
        #: the set-level mutable handle: one serves every replica —
        #: mutations are applied here and the resulting generation is
        #: *installed* into the replica services (replicate) or re-sharded
        #: behind new lookup lanes (scatter).  A handle loaded from a v4
        #: directory is kept as given, so every mutation reaches its WAL
        #: and segment files
        self._mutable = MutableSketchStore.wrap(
            store, self._jem_config, subject_names
        )
        # sharding is columnar-only; fold once
        store = self._mutable.current.as_columnar()
        #: the current unsharded index (follows mutations): the object
        #: every replicate member holds, the one scatter shards view
        self._root = store
        self._subject_names = self._mutable.subject_names
        self._faults = faults
        self._retry = retry
        self._hedge_timeout_s = hedge_timeout_s
        self._mutation_lock = threading.Lock()
        #: counted once per set, not per replica (a respawn must not reset
        #: them), under the mutation lock; metrics_snapshot reports them.
        #: ``replica_respawns_total`` counts every member replacement, by
        #: the supervisor or a rolling restart
        self._counts = {
            "mutations_total": 0, "flushes_total": 0, "compactions_total": 0,
            "replica_respawns_total": 0,
        }
        self._drained = False
        self.supervisor = None  # set by FleetSupervisor
        self.replicas = [
            self._spawn(i, shard.store, shard.lo, shard.hi)
            for i, shard in enumerate(placement.plan(store))
        ]
        self._lanes: list[LookupLane] = []
        self._frontdoor: MappingService | None = None
        self._router: ScatterGatherStore | None = None
        self.scatter_stats = None
        if isinstance(placement, ScatterPlacement):
            # the router, and the fault plans and retry policy its lanes
            # take, are imported by a scatter fleet only
            from .router import ScatterGatherStore

            self._lanes = [self._lane(r) for r in self.replicas]
            virtual = ScatterGatherStore(
                self._lanes, placement, store,
                hedge_timeout_s=self._hedge_timeout_s,
                generation=self.index_generation,
            )
            self._router = virtual
            self.scatter_stats = virtual.stats
            central = JEMMapper(jem_config)
            central.adopt_store(virtual, self._subject_names)
            self._frontdoor = MappingService(
                central,
                self.config,
                metrics_labels={"replica": "front", "placement": placement.kind},
            )
            virtual.bind_metrics(self._frontdoor.metrics)
        self._cursor = 0
        self._cursor_lock = threading.Lock()

    def _spawn(self, i: int, store, lo: int, hi: int) -> Replica:
        """Replica ``i`` over ``store``, stamped with the fleet's generation."""
        return Replica(
            i, store, lo, hi,
            self._subject_names, self._jem_config, self.config,
            placement_kind=self.placement.kind,
            generation=self.index_generation,
        )

    def _lane(self, replica: Replica) -> LookupLane:
        """A lookup lane over ``replica``'s shard at the fleet's generation,
        sharing the replica's breaker and metrics."""
        from .router import LookupLane

        return LookupLane(
            replica.id, replica.store,
            breaker=replica.service.breaker,
            metrics=replica.service.metrics,
            capacity=self.config.queue_capacity,
            faults=self._faults,
            retry=self._retry,
            generation=self.index_generation,
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_engine(
        cls,
        engine,
        placement: PlacementPolicy,
        service_config: ServiceConfig | None = None,
        **kwargs,
    ) -> "ReplicaSet":
        """Replica set over a :class:`MappingEngine`'s (jem) index."""
        mapper = engine.mapper
        if not isinstance(mapper, JEMMapper):
            raise ServiceError("netserve requires a JEMMapper index")
        return cls(
            mapper.table, mapper.subject_names, mapper.config,
            placement=placement, service_config=service_config, **kwargs,
        )

    # -- request path --------------------------------------------------------

    @property
    def subject_names(self) -> list[str]:
        return self._subject_names

    def _route_order(self, start: int) -> list[MappingService]:
        """Failover order from member ``start``, healthy members first.

        A replica with an open breaker answers from its degraded
        single-trial path, so it is only used when *every* breaker is
        open — one sick replica degrades alone, the set stays exact.
        """
        n = len(self.replicas)
        order = [self.replicas[(start + j) % n].service for j in range(n)]
        admitting = [s for s in order if not s.draining]
        healthy = [s for s in admitting if s.breaker.state != OPEN]
        return healthy or admitting or order

    def submit(
        self,
        name: str,
        sequence: str | np.ndarray,
        *,
        deadline_s: float | None = None,
    ) -> Future:
        """Admit one read: the round-robin member unless its breaker is
        open, it is draining or it refuses — only then the failover order."""
        if self._frontdoor is not None:
            return self._frontdoor.submit(name, sequence, deadline_s=deadline_s)
        with self._cursor_lock:
            start = self._cursor
            self._cursor = (start + 1) % len(self.replicas)
        first = self.replicas[start].service
        last = tried = None
        if first.breaker.state != OPEN and not first.draining:
            try:
                return first.submit(name, sequence, deadline_s=deadline_s)
            except (ServiceOverloadError, ServiceClosedError) as exc:
                last, tried = exc, first
        for service in self._route_order(start):
            if service is tried:
                continue
            try:
                return service.submit(name, sequence, deadline_s=deadline_s)
            except (ServiceOverloadError, ServiceClosedError) as exc:
                last = exc  # fail over (a closed member was replaced by a restart)
        raise last

    def map_reads(
        self, reads: SequenceSet, *, timeout: float | None = None
    ) -> MappingResult:
        """Blocking convenience with :meth:`MappingService.map_reads` layout."""
        return map_reads_through(self.submit, reads, timeout)

    # -- online index mutation -----------------------------------------------

    @property
    def index_generation(self) -> int:
        return self._mutable.generation

    def store_stats(self) -> dict:
        """Per-generation stats of the set's (shared) index."""
        return store_stats(self._mutable)

    def _install_generation(self) -> dict:
        """Publish the handle's latest generation across the whole set.

        ``replicate``: the generation becomes the root, and every
        replica's service adopts that *same*
        :class:`~repro.core.lsm.IndexGeneration` object — in-flight
        batches finish on the view they captured.

        ``scatter``: the generation is folded to one columnar root, a
        fresh placement re-derives the equal-frequency ``shard_bounds``
        of the *new* key distribution, each replica adopts its shard's
        column views behind a new :class:`LookupLane` (reusing the
        replica's breaker and metrics, stamped with the new generation),
        and a new :class:`ScatterGatherStore` is installed in the front
        door atomically.  Old lanes are then closed: an in-flight batch
        still holding the previous router sees closed lanes (or a
        generation mismatch) and falls back to its own generation's root
        store inline — fail closed, never a mixed-generation answer.
        Called under the mutation lock.
        """
        handle = self._mutable
        generation = handle.current
        names = list(handle.subject_names)
        self._subject_names = names
        if self._frontdoor is None:
            self._root = generation
            for replica in self.replicas:
                replica.store = generation
                replica.service.install_index(generation, names)
            return self.store_stats()
        from .router import ScatterGatherStore

        merged = generation.as_columnar()
        placement = ScatterPlacement(self.placement.n_replicas)
        new_lanes = []
        for replica, shard in zip(self.replicas, placement.plan(merged)):
            replica.store, replica.lo, replica.hi = shard.store, shard.lo, shard.hi
            replica.service.install_index(
                shard.store, names, generation=generation.generation
            )
            new_lanes.append(self._lane(replica))
        virtual = ScatterGatherStore(
            new_lanes, placement, merged,
            stats=self.scatter_stats,
            hedge_timeout_s=self._hedge_timeout_s,
            metrics=self._frontdoor.metrics,
            generation=generation.generation,
        )
        old_lanes, self._lanes = self._lanes, new_lanes
        self.placement = placement
        self._root = merged
        self._router = virtual
        self._frontdoor.install_index(virtual, names)
        for lane in old_lanes:
            lane.close()
        return self.store_stats()

    def add_contigs(self, contigs: SequenceSet) -> dict:
        """Add contigs online across the whole set; returns store stats."""
        with self._mutation_lock:
            self._mutable.add_contigs(contigs)
            self._counts["mutations_total"] += 1
            return self._install_generation()

    def remove_contigs(self, names: list[str]) -> dict:
        """Tombstone contigs across the whole set; returns store stats."""
        with self._mutation_lock:
            self._mutable.remove_contigs(names)
            self._counts["mutations_total"] += 1
            return self._install_generation()

    def flush_index(self) -> dict:
        """Seal the set-level memtable into an immutable segment."""
        with self._mutation_lock:
            before = self._mutable.generation
            self._mutable.flush()
            if self._mutable.generation == before:  # nothing to seal
                return self.store_stats()
            self._counts["flushes_total"] += 1
            return self._install_generation()

    def compact_index(self) -> dict:
        """Fold the set-level index into one clean segment."""
        with self._mutation_lock:
            self._mutable.compact()
            self._counts["compactions_total"] += 1
            return self._install_generation()

    # -- fleet recovery (chaos doors + respawn) ------------------------------

    @property
    def respawns(self) -> int:
        return self._counts["replica_respawns_total"]

    def kill_replica(self, i: int) -> None:
        """Chaos door: replica ``i`` dies abruptly, SIGKILL-style.

        Its lookup lane (scatter) stops answering — in-flight shares hit
        the hedge deadline and are served inline — and its service fails
        queued work typed and reports dead.  Nothing is repaired here:
        detection and respawn are the supervisor's job.
        """
        replica = self.replicas[i]
        if self._lanes:
            self._lanes[i].kill()
        if not replica.service.drained:
            replica.service.kill()

    def wedge_replica(self, i: int, seconds: float) -> None:
        """Chaos door: replica ``i``'s lane stalls for ``seconds`` per task."""
        if not self._lanes:
            raise ServiceError("wedge_replica requires scatter placement")
        self._lanes[i].wedge(seconds)

    def _parity_probe(self, lane: LookupLane, replica: Replica) -> None:
        """Prove a respawned owner answers bit-identically before re-admission.

        A deterministic sample of the shard's own stored values plus its
        range boundaries is looked up *through the lane* (worker thread
        and all) for every trial and compared bit-for-bit against the
        root store over the same queries — the root covers ``[lo, hi)``
        completely, so any disagreement means the rebuilt shard is wrong
        and the replica must not rejoin.
        """
        boundary = np.array(
            [replica.lo, max(replica.lo, replica.hi - 1)], dtype=np.uint64
        )
        for t in range(self._root.trials):
            col = replica.store.values[t]
            if col.size:
                picks = np.linspace(
                    0, col.size - 1, num=min(64, col.size), dtype=np.int64
                )
                # sort + run-boundary mask: np.unique would import numpy.ma
                qv = sorted_unique_rows(
                    np.concatenate([col[picks].astype(np.uint64), boundary])[None, :]
                )[0]
            else:
                qv = boundary
            expected = self._root.lookup_trial(t, qv)
            try:
                got = lane.submit(t, qv).result(30.0)
            except Exception as exc:
                raise ServiceError(
                    f"replica {replica.id} parity probe failed at trial {t}: {exc}"
                ) from exc
            if not (
                np.array_equal(got.query_index, expected.query_index)
                and np.array_equal(got.subjects, expected.subjects)
            ):
                raise ServiceError(
                    f"replica {replica.id} parity probe mismatch at trial {t}"
                )

    def respawn_replica(
        self, i: int, *, graceful: bool = False, timeout: float | None = None
    ) -> dict:
        """Replace replica ``i`` with a new member at the current generation.

        ``graceful`` is make-before-break (rolling restart): the new member
        is spawned and admitted first, then the old one drains, so its
        accepted work completes and no read finds the slot closed.
        Otherwise whatever is left of a corpse is killed off first.  The
        new member adopts the *current* root — the root object itself
        (replicate) or a fresh column view of it at the current placement
        bounds (scatter); nothing is copied or reclaimed — and a scatter
        member passes :meth:`_parity_probe` through its new lane *before*
        the in-place lane swap admits it to the scatter path.  Runs under
        the mutation lock so a concurrent generation install can never
        interleave.
        """
        with self._mutation_lock:
            if self._drained:
                raise ServiceClosedError("replica set is drained")
            old = self.replicas[i]
            old_lane = self._lanes[i] if self._lanes else None
            if not graceful:
                if old_lane is not None:
                    old_lane.kill()
                if not old.service.drained:
                    old.service.kill()
            generation = self.index_generation
            store = (
                self._root
                if self._frontdoor is None
                else self._root.restrict(old.lo, old.hi).store
            )
            replica = self._spawn(i, store, old.lo, old.hi)
            if self._frontdoor is not None:
                lane = self._lane(replica)
                try:
                    self._parity_probe(lane, replica)
                except ServiceError:
                    lane.close()
                    replica.service.drain()
                    raise
                # in-place swap into the list the live router scatters
                # over: this single assignment *is* re-admission
                self._lanes[i] = lane
            self.replicas[i] = replica
            self._counts["replica_respawns_total"] += 1
            if graceful:
                if old_lane is not None:
                    old_lane.close()
                if not old.service.drained:
                    old.service.drain(timeout)
            return {
                "replica": i,
                "generation": generation,
                "graceful": graceful,
                "key_range": [replica.lo, replica.hi],
            }

    def rolling_restart(self, timeout: float | None = None) -> dict:
        """Replace each replica in turn, make-before-break.

        Strictly sequential, and each successor is admitted before its
        predecessor drains, so the fleet never runs below N members and
        no read is refused — a fleet of one included.  Wired to SIGHUP
        and the NDJSON ``restart`` op by the front-end.
        """
        restarted = [
            self.respawn_replica(i, graceful=True, timeout=timeout)["replica"]
            for i in range(len(self.replicas))
        ]
        return {
            "restarted": restarted,
            "generation": self.index_generation,
            "respawns": self.respawns,
        }

    # -- health, metrics, lifecycle ------------------------------------------

    def healthz(self) -> dict:
        """Set-level health: the set is ready while it can serve exactly.

        ``scatter``: the central service must be ready (sick owners only
        cost fallback CPU).  ``replicate``: at least one replica must be
        ready.  Per-replica detail rides in ``replicas``.
        """
        reps = [r.healthz() for r in self.replicas]
        if self._frontdoor is not None:
            front = self._frontdoor.healthz()
            ready = front["ready"]
            live = front["live"]
        else:
            front = None
            ready = any(h["ready"] for h in reps)
            live = any(h["live"] for h in reps)
        generations = [h["index_generation"] for h in reps]
        if front is not None:
            generations.append(front["index_generation"])
        health = {
            "live": live,
            "ready": ready,
            "placement": self.placement.describe(),
            "replicas_ready": sum(1 for h in reps if h["ready"]),
            "index_generation": self.index_generation,
            # scatter dispatch is refused (fails closed to the root-store
            # fallback) whenever a lane disagrees with the router, so a
            # False here costs speedup, never answer correctness
            "generations_agree": len(set(generations)) <= 1,
            "replicas": reps,
        }
        if front is not None:
            health["front"] = front
        if self.scatter_stats is not None:
            health["scatter"] = self.scatter_stats.as_dict()
        health["respawns"] = self.respawns
        if self.supervisor is not None:
            health["supervisor"] = self.supervisor.status()
        return health

    def metrics_registries(self) -> list:
        regs = [r.service.metrics for r in self.replicas]
        if self._frontdoor is not None:
            regs.append(self._frontdoor.metrics)
        return regs

    def metrics_snapshot(self) -> dict:
        """Aggregated view plus each labelled per-replica snapshot; the
        set's own mutation and respawn counters ride in the aggregate."""
        regs = self.metrics_registries()
        aggregate = aggregate_metrics(regs)
        aggregate["counters"].update(self._counts)
        return {"aggregate": aggregate, "replicas": [m.snapshot() for m in regs]}

    @property
    def drained(self) -> bool:
        return self._drained

    def drain(self, timeout: float | None = None) -> None:
        """Stop admission and finish accepted work.

        The central door drains first (no new lookups), then the lanes,
        then the replica services.
        """
        if self._drained:
            return
        if self.supervisor is not None:  # no respawns during teardown
            self.supervisor.stop()
        if self._frontdoor is not None:
            self._frontdoor.drain(timeout)
        for lane in self._lanes:
            lane.close()
        for replica in self.replicas:
            replica.service.drain(timeout)
        self._drained = True

    close = drain

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()
