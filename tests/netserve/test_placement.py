"""Placement policies: the sharding functor and its ownership contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.store import ColumnarSketchStore, StoreShard
from repro.errors import ServiceError
from repro.netserve import (
    FULL_RANGE,
    ReplicatedPlacement,
    ScatterPlacement,
    make_placement,
)

N_SUBJECTS = 12


def store_of(values: np.ndarray, trials: int = 3) -> ColumnarSketchStore:
    """A columnar store whose every trial holds ``values`` (one subject each)."""
    values = np.asarray(values, dtype=np.uint64)
    subjects = np.arange(values.size, dtype=np.uint64) % N_SUBJECTS
    keys = [np.unique((values << np.uint64(32)) | subjects) for _ in range(trials)]
    return ColumnarSketchStore.from_trial_keys(keys, N_SUBJECTS)


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_placement("scatter", 3), ScatterPlacement)
        assert isinstance(make_placement("replicate", 2), ReplicatedPlacement)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown placement"):
            make_placement("consistent-hash", 3)

    def test_replica_count_must_be_positive(self):
        with pytest.raises(ServiceError):
            make_placement("scatter", 0)

    def test_describe_names_policy_and_size(self):
        desc = make_placement("replicate", 4).describe()
        assert desc == {"kind": "replicate", "replicas": 4}


class TestScatterPlacement:
    def test_bounds_require_plan_first(self):
        placement = ScatterPlacement(3)
        with pytest.raises(ServiceError, match="plan"):
            placement.bounds

    def test_plan_partitions_all_entries(self, rng):
        store = store_of(rng.integers(0, 1 << 20, size=400, dtype=np.uint64))
        placement = ScatterPlacement(4)
        shards = placement.plan(store)
        assert len(shards) == 4
        assert placement.bounds.shape == (5,)
        assert placement.bounds[0] == 0 and placement.bounds[-1] == 1 << 32
        assert sum(s.store.total_entries for s in shards) == store.total_entries

    def test_plan_derives_the_bounds_once(self, rng, monkeypatch):
        """One ``shard_bounds`` pass per plan; shard i spans bounds i..i+1."""
        import repro.core.store as store_mod

        calls = []
        real = store_mod.shard_bounds

        def counted(store, n_shards):
            calls.append(n_shards)
            return real(store, n_shards)

        monkeypatch.setattr(store_mod, "shard_bounds", counted)
        store = store_of(rng.integers(0, 1 << 20, size=400, dtype=np.uint64))
        placement = ScatterPlacement(4)
        shards = placement.plan(store)
        assert calls == [4]
        bounds = placement.bounds.tolist()
        assert [(s.lo, s.hi) for s in shards] == list(zip(bounds[:-1], bounds[1:]))

    def test_owner_of_agrees_with_shard_owns(self, rng):
        """The functor and the planned shards must never disagree on a key."""
        store = store_of(rng.integers(0, 1 << 16, size=300, dtype=np.uint64))
        placement = ScatterPlacement(4)
        shards = placement.plan(store)
        qv = rng.integers(0, 1 << 32, size=1000, dtype=np.uint64)
        owner = placement.owner_of(qv)
        assert ((owner >= 0) & (owner < 4)).all()
        for i, shard in enumerate(shards):
            assert np.array_equal(owner == i, shard.owns(qv))

    def test_owner_of_with_duplicate_boundaries(self):
        """Skewed values collapse interior bounds; ownership stays consistent.

        Every entry shares one sketch value, so the equal-frequency split
        degenerates: several shards own an empty ``[lo, lo)`` range.  The
        boundary value itself must map to the one shard whose range is
        non-empty — the same answer ``StoreShard.owns`` gives.
        """
        store = store_of(np.full(50, 7, dtype=np.uint64))
        placement = ScatterPlacement(4)
        shards = placement.plan(store)
        assert (np.diff(placement.bounds) >= 0).all()
        qv = np.array([0, 6, 7, 8, (1 << 32) - 1], dtype=np.uint64)
        owner = placement.owner_of(qv)
        for i, shard in enumerate(shards):
            assert np.array_equal(owner == i, shard.owns(qv))
        # the hot value is owned by exactly one shard, and that shard
        # holds every entry
        hot_owner = int(owner[2])
        assert shards[hot_owner].store.total_entries == store.total_entries


class TestReplicatedPlacement:
    def test_every_replica_owns_the_full_range(self, rng):
        store = store_of(rng.integers(0, 1 << 20, size=100, dtype=np.uint64))
        shards = ReplicatedPlacement(3).plan(store)
        assert len(shards) == 3
        for shard in shards:
            assert isinstance(shard, StoreShard)
            assert (shard.lo, shard.hi) == FULL_RANGE
            assert shard.store is store  # no copies: one store, N owners
