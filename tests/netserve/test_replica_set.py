"""ReplicaSet behaviour: placement parity, fault isolation, observability.

The load-bearing claim from the serving design: for either placement
policy, any replica count, seeded fault plans on the scatter lanes, and
even a sick replica with an open breaker, the set's results are
bit-identical to a sequential :class:`JEMMapper` over the same reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import JEMConfig, JEMMapper
from repro.errors import ServiceClosedError
from repro.netserve import ReplicaSet, make_placement
from repro.parallel.faults import FaultPlan, FaultSpec
from repro.service import ServiceConfig
from repro.service.health import OPEN
from repro.sketch import _native

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)

SERVICE = ServiceConfig(max_batch_size=8)


@pytest.fixture
def indexed(tiling_contigs):
    mapper = JEMMapper(CONFIG)
    mapper.index(tiling_contigs)
    return mapper


@pytest.fixture
def sequential(indexed, clean_reads):
    return indexed.map_reads(clean_reads)


def make_set(indexed, kind, n, **kwargs):
    kwargs.setdefault("service_config", SERVICE)
    return ReplicaSet(
        indexed.table, indexed.subject_names, CONFIG,
        placement=make_placement(kind, n), **kwargs,
    )


def assert_same_mapping(actual, expected):
    assert actual.segment_names == expected.segment_names
    assert np.array_equal(actual.subject, expected.subject)
    assert np.array_equal(actual.hit_count, expected.hit_count)


class TestPlacementParity:
    @pytest.mark.parametrize("kind", ["scatter", "replicate"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_bit_identical_to_sequential(
        self, indexed, clean_reads, sequential, kind, n
    ):
        with make_set(indexed, kind, n) as replica_set:
            result = replica_set.map_reads(clean_reads)
        assert_same_mapping(result, sequential)

    # a fault plan reaches only the scatter lanes: a replicate replica
    # maps each batch in one call
    @pytest.mark.parametrize("kind", ["scatter"])
    def test_bit_identical_under_seeded_fault_plan(
        self, indexed, clean_reads, sequential, kind
    ):
        for seed in (1, 2, 3):
            plan = FaultPlan.seeded(seed, 3, delay=0.001)
            with make_set(indexed, kind, 3, faults=plan) as replica_set:
                result = replica_set.map_reads(clean_reads)
            assert_same_mapping(result, sequential)

    def test_scatter_actually_scatters(self, indexed, clean_reads, sequential):
        with make_set(indexed, "scatter", 3) as replica_set:
            result = replica_set.map_reads(clean_reads)
            stats = replica_set.scatter_stats
            assert stats is not None and stats.scattered > 0
            assert stats.fallbacks == 0  # all owners healthy
        assert_same_mapping(result, sequential)

    def test_replicate_spreads_reads_across_replicas(
        self, indexed, clean_reads, sequential
    ):
        with make_set(indexed, "replicate", 3) as replica_set:
            result = replica_set.map_reads(clean_reads)
            served = [
                r.service.metrics.snapshot()["counters"]["requests_total"]
                for r in replica_set.replicas
            ]
        assert_same_mapping(result, sequential)
        assert all(count > 0 for count in served)  # round-robin reached all
        assert sum(served) == len(clean_reads)


class TestFusedPathParity:
    """The fused native kernel inside shard workers must not change bytes.

    Scatter placement reassembles per-shard partial votes in the
    gather stage; replicate placement serves whole reads per replica.
    Both must produce the same mapping whether the workers run the fused
    C kernel or the numpy oracle (REPRO_NO_NATIVE)."""

    @pytest.mark.parametrize("kind", ["scatter", "replicate"])
    def test_fused_and_numpy_workers_bit_identical(
        self, indexed, clean_reads, kind, monkeypatch
    ):
        with make_set(indexed, kind, 3) as replica_set:
            fused = replica_set.map_reads(clean_reads)
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        with make_set(indexed, kind, 3) as replica_set:
            oracle = replica_set.map_reads(clean_reads)
        assert_same_mapping(fused, oracle)


class TestSickReplicaIsolation:
    BREAKER = ServiceConfig(
        max_batch_size=8,
        breaker_failures=1, breaker_cooldown_batches=10_000,
    )

    def test_scatter_with_one_breaker_open_stays_exact(
        self, indexed, clean_reads, sequential
    ):
        with make_set(
            indexed, "scatter", 3, service_config=self.BREAKER
        ) as replica_set:
            sick = replica_set.replicas[1].service.breaker
            sick.record_failure()
            assert sick.state == OPEN
            result = replica_set.map_reads(clean_reads)
            assert replica_set.scatter_stats.fallbacks > 0
            health = replica_set.healthz()
            assert health["ready"]  # the set still serves exactly
        assert_same_mapping(result, sequential)

    def test_a_lane_fault_moves_its_replicas_gauges(
        self, indexed, clean_reads, sequential
    ):
        """A scatter owner's lane opens the breaker it shares with its
        replica: that replica's gauges say so without a health call."""
        crash = FaultPlan([FaultSpec("crash", "map", block=1, times=None)])
        with make_set(
            indexed, "scatter", 3, service_config=self.BREAKER, faults=crash
        ) as replica_set:
            result = replica_set.map_reads(clean_reads)
            snap = replica_set.replicas[1].service.metrics.snapshot()
        assert_same_mapping(result, sequential)
        assert snap["counters"]["breaker_open_total"] == 1
        assert snap["gauges"]["breaker_open"] == 1.0
        assert snap["gauges"]["ready"] == 0.0
        assert snap["gauges"]["shed_level"] == 1.0

    def test_replicate_routes_around_open_breaker(
        self, indexed, clean_reads, sequential
    ):
        with make_set(
            indexed, "replicate", 3, service_config=self.BREAKER
        ) as replica_set:
            sick = replica_set.replicas[0].service.breaker
            sick.record_failure()
            assert sick.state == OPEN
            result = replica_set.map_reads(clean_reads)
            served = [
                r.service.metrics.snapshot()["counters"]["requests_total"]
                for r in replica_set.replicas
            ]
        assert_same_mapping(result, sequential)
        # the sick replica would answer degraded, so it must see no reads
        assert served[0] == 0
        assert served[1] + served[2] == len(clean_reads)


class TestObservability:
    def test_metrics_are_labelled_by_replica(self, indexed):
        with make_set(indexed, "scatter", 2) as replica_set:
            snaps = [m.snapshot() for m in replica_set.metrics_registries()]
        labels = [s["labels"] for s in snaps]
        assert [l["replica"] for l in labels] == ["0", "1", "front"]
        assert all(l["placement"] == "scatter" for l in labels)
        # shard replicas advertise their owned key range
        for label in labels[:2]:
            assert label["key_range"].startswith("[0x")

    def test_aggregate_sums_across_replicas(self, indexed, clean_reads):
        with make_set(indexed, "replicate", 3) as replica_set:
            replica_set.map_reads(clean_reads)
            snapshot = replica_set.metrics_snapshot()
        aggregate = snapshot["aggregate"]
        per_replica = snapshot["replicas"]
        assert len(per_replica) == 3
        total = sum(
            s["counters"]["responses_total"] for s in per_replica
        )
        assert aggregate["counters"]["responses_total"] == total == len(clean_reads)
        # contributors are identifiable from the aggregate alone
        assert [r["replica"] for r in aggregate["replicas"]] == ["0", "1", "2"]

    def test_healthz_reports_placement_and_replicas(self, indexed):
        with make_set(indexed, "scatter", 3) as replica_set:
            health = replica_set.healthz()
        assert health["live"] and health["ready"]
        assert health["placement"] == {"kind": "scatter", "replicas": 3}
        assert health["replicas_ready"] == 3
        assert [h["replica"] for h in health["replicas"]] == [0, 1, 2]
        ranges = [h["key_range"] for h in health["replicas"]]
        assert ranges[0][0] == 0 and ranges[-1][1] == 1 << 32
        assert all(lo <= hi for lo, hi in ranges)
        assert health["scatter"] == {
            "scattered": 0, "fallbacks": 0, "mismatches": 0, "hedged": 0,
        }


class TestLifecycle:
    def test_drain_is_idempotent_and_closes_admission(
        self, indexed, clean_reads
    ):
        replica_set = make_set(indexed, "scatter", 2)
        replica_set.map_reads(clean_reads)
        replica_set.drain()
        assert replica_set.drained
        replica_set.drain()  # second drain is a no-op, not an error
        with pytest.raises(ServiceClosedError):
            replica_set.submit("r", "ACGT" * 300)


class TestSharing:
    """Replicas are threads of one process: they hold the index by reference."""

    def test_replicate_members_hold_the_root_object(
        self, indexed, clean_reads, monkeypatch
    ):
        opens = []
        real = _native.NativeKernels.map_open

        def spy(self, *args):
            opens.append(args)
            return real(self, *args)

        monkeypatch.setattr(_native.NativeKernels, "map_open", spy)
        with make_set(indexed, "replicate", 3) as replica_set:
            assert all(r.store is indexed.table for r in replica_set.replicas)
            replica_set.map_reads(clean_reads)
        # one store object, so one native context however many members map,
        # opened over the root's own per-trial columns
        assert len(opens) == (0 if _native.load() is None else 1)
        assert all(args[0] is indexed.table.values for args in opens)

    def test_scatter_shards_are_views_of_the_root(self, indexed):
        root = indexed.table
        with make_set(indexed, "scatter", 3) as replica_set:
            for replica in replica_set.replicas:
                store = replica.store
                assert store.total_entries > 0
                for t in range(root.trials):
                    if store.values[t].size:
                        assert np.shares_memory(store.values[t], root.values[t])
                        assert np.shares_memory(store.subjects[t], root.subjects[t])
