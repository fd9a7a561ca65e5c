"""Live metrics for the mapping service.

A tiny, dependency-free instrumentation layer in the Prometheus idiom:
monotonically increasing :class:`Counter`\\ s, point-in-time
:class:`Gauge`\\ s, and reservoir-backed :class:`LatencyHistogram`\\ s that
report p50/p95/p99 quantiles.  Everything is thread-safe (the service's
submitters, the scheduler thread, and metrics readers run concurrently)
and :meth:`ServiceMetrics.snapshot` renders the whole registry as one
plain-``dict`` tree that ``json.dumps`` accepts verbatim — the service's
observability contract (see ``docs/serving.md``).
"""

from __future__ import annotations

import json
import math
import threading
from collections.abc import Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "ServiceMetrics",
    "aggregate_metrics",
]

#: Quantiles every histogram reports, in snapshot key order.
QUANTILES = ((50, "p50"), (95, "p95"), (99, "p99"))

#: Most recent observations each histogram keeps for its quantiles.
WINDOW = 4096

#: How each gauge combines across replicas in :func:`aggregate_metrics`.
#: Levels add up (total queued work is the sum of per-replica queues) except
#: readiness, where the set is only as ready as its least-ready member;
#: breaker state, where any open breaker is worth surfacing; and the index
#: generation, where the fleet-wide number is the *oldest* generation any
#: replica still serves (a lagging replica is the operationally relevant one).
GAUGE_AGGREGATION = {
    "ready": min,
    "breaker_open": max,
    "index_generation": min,
    # the fleet's effective shed level is its worst member's: one replica
    # answering at 1/2^s trials is what an operator needs to see.
    "shed_level": max,
}


class Counter:
    """A monotonically increasing count (requests served, cache hits, ...)."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got inc({n})")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time level (queue depth, in-flight requests, ...)."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


def percentile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile(ordered, q)`` of a sorted, non-empty float64 array.

    numpy's default ``linear`` rule, step for step: the virtual index
    ``(n - 1) * q / 100``, its floor and the next index (both the last one
    at or past the top), and ``_lerp``'s two-sided form, so the result is
    bit for bit numpy's.  ``np.percentile`` itself calls ``np.unique``,
    which imports ``numpy.ma`` (≈ 1.25 MB) into the process that first asks
    for a snapshot.
    """
    n = ordered.size
    virtual = (n - 1) * (q / 100)
    lo = math.floor(virtual)
    hi = lo + 1
    if virtual >= n - 1:
        lo = hi = -1
    gamma = virtual - lo
    a, b = float(ordered[lo]), float(ordered[hi])
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def _summary(count: int, total: float, lo: float, hi: float, reservoir: np.ndarray) -> dict:
    """A histogram snapshot: exact totals, quantiles of the reservoir."""
    if count == 0:
        return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                **{key: 0.0 for _, key in QUANTILES}}
    ordered = np.sort(reservoir)
    return {
        "count": count,
        "sum": total,
        "mean": total / count,
        "min": lo,
        "max": hi,
        **{key: percentile(ordered, q) for q, key in QUANTILES},
    }


class LatencyHistogram:
    """Quantile summary over a bounded reservoir of observations.

    Keeps the most recent ``window`` observations in a ``float64`` ring
    (count/sum/min/max are exact over the full stream) and computes
    p50/p95/p99 from the reservoir at snapshot time — accurate for the
    service's steady-state distributions without unbounded memory.
    """

    def __init__(self, window: int = WINDOW) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._ring = np.empty(window, dtype=np.float64)
        self._head = 0  # where the next observation goes
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._ring[self._head] = value
            self._head = (self._head + 1) % self._ring.size
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` each of ``values`` in order, under one lock: the
        same reservoir and the same count, sum, min and max."""
        values = [float(v) for v in values]
        if not values:
            return
        window = self._ring.size
        with self._lock:
            total = self._sum
            for value in values:  # in order, as the per-value loop adds them
                total += value
            self._sum = total
            self._count += len(values)
            self._min = min(self._min, min(values))
            self._max = max(self._max, max(values))
            tail = values[-window:]
            head = self._head
            split = min(len(tail), window - head)
            self._ring[head : head + split] = tail[:split]
            self._ring[: len(tail) - split] = tail[split:]
            self._head = (head + len(tail)) % window

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def _state(self) -> tuple[int, float, float, float, np.ndarray]:
        """Consistent (count, sum, min, max, reservoir) under the lock; the
        reservoir is a copy, oldest observation first."""
        with self._lock:
            if self._count < self._ring.size:
                recent = self._ring[: self._count].copy()
            else:
                recent = np.roll(self._ring, -self._head)
            return self._count, self._sum, self._min, self._max, recent

    @staticmethod
    def merged_snapshot(histograms: Sequence["LatencyHistogram"]) -> dict:
        """One snapshot over the pooled observations of many histograms.

        count/sum/min/max stay exact (they are exact per histogram);
        quantiles come from the concatenated reservoirs, which is the
        true pooled distribution as long as each reservoir still holds
        its full stream — and the usual recent-window approximation
        otherwise.  Aggregating live histograms instead of their
        pre-computed snapshots is what makes the pooled p99 honest: a
        mean of per-replica p99s is not a p99.
        """
        states = [h._state() for h in histograms]
        count = sum(s[0] for s in states)
        if count == 0:
            return _summary(0, 0.0, 0.0, 0.0, np.empty(0))
        return _summary(
            count,
            sum(s[1] for s in states),
            min(s[2] for s in states if s[0]),
            max(s[3] for s in states if s[0]),
            np.concatenate([s[4] for s in states]),
        )

    def snapshot(self) -> dict:
        return _summary(*self._state())


class ServiceMetrics:
    """The mapping service's metric registry.

    Counters
        ``requests_total``, ``responses_total``, ``rejected_total``
        (admission-control rejections), ``errors_total`` (requests failed
        with their batch, or killed while queued), ``cache_hits_total``, ``cache_misses_total``,
        ``batches_total``, ``reads_mapped_total``; self-healing:
        ``shed_total`` (requests dropped because their deadline expired
        before dispatch), ``degraded_total`` (reads served by the
        degraded single-trial path while the breaker was open),
        ``breaker_open_total`` (breaker trips), ``recovered_total``
        (half-open probes that closed the breaker),
        ``hedged_requests_total`` (scatter shares answered inline because
        the owning replica missed the hedge deadline).  A fleet's
        ``replica_respawns_total`` is counted by its
        :class:`~repro.netserve.ReplicaSet`, not by any one registry.
    Gauges
        ``queue_depth``, ``inflight``, ``cache_size``, ``ready``
        (1 while the service serves and its breaker is not open),
        ``breaker_open`` (1 while the breaker is open), ``shed_level``
        (the breaker's current degraded-path trial-shedding step).  The
        last three and the two breaker counters are written at each
        transition, by :func:`~repro.service.health.note_breaker` alone.
    Histograms (seconds unless noted)
        ``queue_wait`` (submit → batch pickup), ``map_latency`` (batch
        compute), ``request_latency`` (submit → response), ``batch_size``
        (reads per dispatched batch).

    ``labels`` identify *whose* numbers these are once several registries
    coexist (one per replica in a :class:`~repro.netserve.ReplicaSet`);
    they ride along in every snapshot and :func:`aggregate_metrics` folds
    labelled registries into one fleet-wide view.
    """

    COUNTERS = (
        "requests_total", "responses_total", "rejected_total", "errors_total",
        "cache_hits_total", "cache_misses_total", "batches_total",
        "reads_mapped_total", "shed_total", "degraded_total",
        "breaker_open_total", "recovered_total", "hedged_requests_total",
    )
    GAUGES = (
        "queue_depth", "inflight", "cache_size", "ready", "breaker_open",
        "index_generation", "memtable_entries", "index_tombstones",
        "index_segments", "shed_level",
    )
    #: attribute name -> snapshot key (histograms carry their unit suffix).
    HISTOGRAMS = (
        ("queue_wait", "queue_wait_seconds"),
        ("map_latency", "map_latency_seconds"),
        ("request_latency", "request_latency_seconds"),
        ("batch_size", "batch_size_reads"),
    )

    def __init__(
        self, *, window: int = WINDOW, labels: dict[str, str] | None = None
    ) -> None:
        self.labels = dict(labels or {})
        self.requests_total = Counter()
        self.responses_total = Counter()
        self.rejected_total = Counter()
        self.errors_total = Counter()
        self.cache_hits_total = Counter()
        self.cache_misses_total = Counter()
        self.batches_total = Counter()
        self.reads_mapped_total = Counter()
        self.shed_total = Counter()
        self.degraded_total = Counter()
        self.breaker_open_total = Counter()
        self.recovered_total = Counter()
        self.hedged_requests_total = Counter()
        self.queue_depth = Gauge()
        self.inflight = Gauge()
        self.cache_size = Gauge()
        self.ready = Gauge()
        self.breaker_open = Gauge()
        self.index_generation = Gauge()
        self.memtable_entries = Gauge()
        self.index_tombstones = Gauge()
        self.index_segments = Gauge()
        self.shed_level = Gauge()
        self.queue_wait = LatencyHistogram(window)
        self.map_latency = LatencyHistogram(window)
        self.request_latency = LatencyHistogram(window)
        self.batch_size = LatencyHistogram(window)

    @property
    def cache_hit_ratio(self) -> float:
        hits = self.cache_hits_total.value
        misses = self.cache_misses_total.value
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> dict:
        """The whole registry as one JSON-serialisable dict."""
        snap = {
            "counters": {
                name: getattr(self, name).value for name in self.COUNTERS
            },
            "gauges": {name: getattr(self, name).value for name in self.GAUGES},
            "cache_hit_ratio": self.cache_hit_ratio,
            "histograms": {
                key: getattr(self, attr).snapshot()
                for attr, key in self.HISTOGRAMS
            },
        }
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.snapshot(), **dumps_kwargs)


def aggregate_metrics(registries: Sequence[ServiceMetrics]) -> dict:
    """Fold many (labelled) registries into one snapshot-shaped dict.

    Counters sum; gauges sum except where :data:`GAUGE_AGGREGATION` says
    otherwise (``ready`` = min, ``breaker_open`` = max); histograms pool
    their live reservoirs via :meth:`LatencyHistogram.merged_snapshot` so
    the fleet-wide quantiles are computed over actual observations, not
    averaged per-replica quantiles.  The result carries a ``replicas``
    list with each member's labels so readers can tell who contributed.
    """
    if not registries:
        raise ValueError("aggregate_metrics needs at least one registry")
    counters = {
        name: sum(getattr(m, name).value for m in registries)
        for name in ServiceMetrics.COUNTERS
    }
    gauges = {
        name: GAUGE_AGGREGATION.get(name, sum)(
            [getattr(m, name).value for m in registries]
        )
        for name in ServiceMetrics.GAUGES
    }
    hits = counters["cache_hits_total"]
    lookups = hits + counters["cache_misses_total"]
    return {
        "counters": counters,
        "gauges": gauges,
        "cache_hit_ratio": hits / lookups if lookups else 0.0,
        "histograms": {
            key: LatencyHistogram.merged_snapshot(
                [getattr(m, attr) for m in registries]
            )
            for attr, key in ServiceMetrics.HISTOGRAMS
        },
        "replicas": [dict(m.labels) for m in registries],
    }
