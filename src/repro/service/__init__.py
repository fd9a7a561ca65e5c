"""repro.service — batched, cached, long-lived mapping service.

Turns the one-shot JEM-mapper pipeline into a resident server: index
loaded once, bounded admission queue with backpressure, dynamic
micro-batching with one S4 call per batch, an LRU result cache keyed by
query-sketch content, and live metrics.  See
``docs/serving.md`` for the architecture and contracts.
"""

from .cache import SketchLRUCache, pack_entry, read_content_key, unpack_entry
from .config import ServiceConfig
from .metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    ServiceMetrics,
    aggregate_metrics,
)
from .protocol import ClientStats, SocketTransport, run_session
from .queue import AdmissionQueue, MapFuture
from .scheduler import MicroBatchScheduler
from .service import MappingService, ReadMapping

__all__ = [
    "MappingService",
    "ReadMapping",
    "ServiceConfig",
    "ServiceMetrics",
    "aggregate_metrics",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "SketchLRUCache",
    "pack_entry",
    "unpack_entry",
    "read_content_key",
    "AdmissionQueue",
    "MapFuture",
    "MicroBatchScheduler",
    "run_session",
    "SocketTransport",
    "ClientStats",
]
