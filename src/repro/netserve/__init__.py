"""repro.netserve — concurrent network serving over replicated shard workers.

The network tier on top of :mod:`repro.service`: an asyncio front-end
(:class:`NetFrontend`) is the server side of the NDJSON protocol for
many concurrent TCP clients, with per-client fairness, and hands every
read to a :class:`ReplicaSet`:
N :class:`~repro.service.MappingService` workers whose index ownership
is decided by a pluggable :class:`PlacementPolicy`, and the one owner of
the served index's mutable handle:

* ``scatter`` — each replica owns one key-range shard of the columnar
  store (``ColumnarSketchStore.restrict``: column views, no copy); a
  scatter/gather router fans per-trial lookups to shard owners and runs
  the vote centrally, bit-identical to single-session serving.
* ``replicate`` — every replica holds the one root store object; whole
  reads round-robin across healthy replicas.

A :class:`FleetSupervisor` keeps the topology honest under failure:
heartbeat probes detect dead or wedged members, hedged retry serves
their scatter shares inline meanwhile, and respawn + parity probe
re-admit a rebuilt replica at the current index generation — see
``docs/robustness.md`` ("fleet recovery").

See ``docs/serving.md`` for the topology and lifecycle contracts.
"""

from .._lazy import lazy_exports

#: Public name -> submodule that defines it, imported on first access (PEP 562):
#: ``jem serve`` under the default replicate placement must not load the
#: scatter router, or the fault plans and retry policy only its lanes take.
_EXPORTS = {
    "NetFrontend": ".frontend",
    "parse_hostport": ".frontend",
    "PlacementPolicy": ".placement",
    "ScatterPlacement": ".placement",
    "ReplicatedPlacement": ".placement",
    "make_placement": ".placement",
    "FULL_RANGE": ".placement",
    "Replica": ".replica",
    "ReplicaSet": ".replica",
    "ScatterGatherStore": ".router",
    "FleetSupervisor": ".supervisor",
    "SupervisorConfig": ".supervisor",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
