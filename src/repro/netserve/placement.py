"""Placement policies: which replica owns which slice of the index.

Placement is an explicit policy *object* in the Legion
``CAShardingFunctor`` / ``MachineView`` idiom: a small, deterministic
functor that maps index points (here: 32-bit sketch values) onto workers,
kept separate from both the data structure being placed and the machinery
that spawns the workers.  Two policies cover the serving design space:

* :class:`ScatterPlacement` — key-range sharding.  Replica *i* owns shard
  *i* of :meth:`~repro.core.store.ColumnarSketchStore.shard`'s
  equal-frequency split — column views of the store, so each replica
  answers for ~1/N of the index and the shards together cost no copy
  (minimap2-style index partitioning).  Queries scatter by key ownership.
* :class:`ReplicatedPlacement` — full replication.  Every replica owns
  the whole value space and whole reads round-robin across replicas;
  every replica holds the *same* store object.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core.store import ColumnarSketchStore, StoreShard
from ..errors import ServiceError

__all__ = [
    "FULL_RANGE",
    "PlacementPolicy",
    "ScatterPlacement",
    "ReplicatedPlacement",
    "make_placement",
]

#: The whole 32-bit sketch-value space, as a ``[lo, hi)`` pair.
FULL_RANGE = (0, 1 << 32)


class PlacementPolicy(ABC):
    """Maps index key ranges onto replicas (the sharding functor)."""

    #: policy name as spelled on the CLI (``--placement``).
    kind: str = ""

    def __init__(self, n_replicas: int) -> None:
        if n_replicas < 1:
            raise ServiceError(f"n_replicas must be >= 1, got {n_replicas}")
        self.n_replicas = int(n_replicas)

    @abstractmethod
    def plan(self, store: ColumnarSketchStore) -> list[StoreShard]:
        """Decide each replica's owned slice of ``store``.

        Returns one :class:`StoreShard` per replica — the store the
        replica will load plus the ``[lo, hi)`` key range it answers for.
        """

    def describe(self) -> dict:
        return {"kind": self.kind, "replicas": self.n_replicas}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_replicas={self.n_replicas})"


class ScatterPlacement(PlacementPolicy):
    """Key-range scatter: replica *i* owns shard *i* of the value space."""

    kind = "scatter"

    def __init__(self, n_replicas: int) -> None:
        super().__init__(n_replicas)
        self._bounds: np.ndarray | None = None

    def plan(self, store: ColumnarSketchStore) -> list[StoreShard]:
        shards = store.shard(self.n_replicas)
        # the shards' own edges: one bounds pass, and owner_of agrees with owns
        self._bounds = np.array([s.lo for s in shards] + [shards[-1].hi], dtype=np.int64)
        return shards

    @property
    def bounds(self) -> np.ndarray:
        """The ``n_replicas + 1`` ascending key boundaries (after plan)."""
        if self._bounds is None:
            raise ServiceError("plan() must run before querying ownership")
        return self._bounds

    def owner_of(self, query_values: np.ndarray) -> np.ndarray:
        """Vectorised value → owning replica id — the functor proper.

        With duplicate boundaries (empty shards) a boundary value maps to
        the *last* shard whose ``lo`` equals it, which is exactly the
        shard whose ``[lo, hi)`` is non-empty — consistent with
        :meth:`StoreShard.owns` on the planned shards.
        """
        qv = np.asarray(query_values).astype(np.int64)
        return np.searchsorted(self.bounds, qv, side="right") - 1


class ReplicatedPlacement(PlacementPolicy):
    """Full replication: every replica owns the whole store."""

    kind = "replicate"

    def plan(self, store: ColumnarSketchStore) -> list[StoreShard]:
        lo, hi = FULL_RANGE
        return [StoreShard(store, lo, hi) for _ in range(self.n_replicas)]


def make_placement(kind: str, n_replicas: int) -> PlacementPolicy:
    """Policy factory keyed by CLI spelling."""
    policies = {
        ScatterPlacement.kind: ScatterPlacement,
        ReplicatedPlacement.kind: ReplicatedPlacement,
    }
    if kind not in policies:
        raise ServiceError(
            f"unknown placement {kind!r}; expected one of {sorted(policies)}"
        )
    return policies[kind](n_replicas)
