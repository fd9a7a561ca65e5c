"""repro.netserve — concurrent network serving over replicated shard workers.

The network tier on top of :mod:`repro.service`: an asyncio front-end
(:class:`NetFrontend`) is the server side of the NDJSON protocol for
many concurrent TCP clients, with per-client fairness and optional
per-tenant quotas, and hands every read to a :class:`ReplicaSet`:
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

from .frontend import NetFrontend, parse_hostport
from .placement import (
    FULL_RANGE,
    PlacementPolicy,
    ReplicatedPlacement,
    ScatterPlacement,
    make_placement,
)
from .replica import Replica, ReplicaSet
from .router import ScatterGatherStore
from .supervisor import FleetSupervisor, SupervisorConfig

__all__ = [
    "NetFrontend",
    "parse_hostport",
    "PlacementPolicy",
    "ScatterPlacement",
    "ReplicatedPlacement",
    "make_placement",
    "FULL_RANGE",
    "Replica",
    "ReplicaSet",
    "ScatterGatherStore",
    "FleetSupervisor",
    "SupervisorConfig",
]
