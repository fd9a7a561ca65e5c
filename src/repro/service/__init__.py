"""repro.service — batched, cached, long-lived mapping service.

Turns the one-shot JEM-mapper pipeline into a resident server: index
loaded once, bounded admission queue with backpressure, dynamic
micro-batching with one S4 call per batch, an LRU result cache keyed by
query-sketch content, and live metrics.  See
``docs/serving.md`` for the architecture and contracts.
"""

from .._lazy import lazy_exports

#: Public name -> submodule that defines it, imported on first access (PEP 562):
#: ``jem client`` speaks the protocol and must not load the service, its
#: scheduler or its cache.
_EXPORTS = {
    "MappingService": ".service",
    "ReadMapping": ".service",
    "ServiceConfig": ".config",
    "ServiceMetrics": ".metrics",
    "aggregate_metrics": ".metrics",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "LatencyHistogram": ".metrics",
    "SketchLRUCache": ".cache",
    "pack_entry": ".cache",
    "unpack_entry": ".cache",
    "read_content_key": ".cache",
    "AdmissionQueue": ".queue",
    "MicroBatchScheduler": ".scheduler",
    "run_session": ".protocol",
    "SocketTransport": ".protocol",
    "ClientStats": ".protocol",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
