"""Fleet supervision: kill → detect → respawn → parity → re-admit.

The tentpole claims under test: a SIGKILL-style replica death never
changes mapping bytes (hedged fallback serves its shares meanwhile), the
supervisor detects the corpse and respawns it at the current generation,
re-admission requires a bit-identical parity probe, full scatter
throughput returns after repair — no permanent inline fallback — and
none of it publishes shared memory: replicas hold the index by reference.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import JEMConfig, JEMMapper
from repro.errors import ReproError, ServiceError
from repro.netserve import (
    FleetSupervisor,
    ReplicaSet,
    SupervisorConfig,
    make_placement,
)
from repro.parallel.shm import created_segment_names
from repro.seq.records import SequenceSet
from repro.service import ServiceConfig

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)

# cache off: every map must actually scatter, so the stats assertions
# below observe the lookup path rather than the front door's result cache
SERVICE = ServiceConfig(max_batch_size=8, cache_capacity=0)

#: deterministic fast-probe supervision for test-driven ticks
SUPERVISION = SupervisorConfig(
    probe_interval_s=0.05, probe_deadline_s=0.2, suspect_strikes=2
)


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


class TestKillDetectRespawn:
    def test_killed_scatter_replica_is_respawned_and_readmitted(
        self, indexed, clean_reads, sequential
    ):
        with make_set(indexed, "scatter", 3, hedge_timeout_s=0.2) as rs:
            supervisor = FleetSupervisor(rs, SUPERVISION)
            assert_same_mapping(rs.map_reads(clean_reads), sequential)

            rs.kill_replica(1)
            assert supervisor.probe(1) == "dead"
            # while the corpse is down, answers stay exact via fallback
            assert_same_mapping(rs.map_reads(clean_reads), sequential)

            verdicts = supervisor.tick()
            assert verdicts[1] == "dead"
            assert rs.respawns == 1
            assert supervisor.probe(1) == "healthy"

            # healthz narrates detection → respawn → re-admission
            health = rs.healthz()
            assert health["supervisor"]["respawns"] == 1
            assert health["supervisor"]["states"] == ["healthy"] * 3
            hops = [
                (t["from"], t["to"])
                for t in health["supervisor"]["transitions"]
                if t["replica"] == 1
            ]
            assert ("healthy", "respawning") in hops
            assert ("respawning", "healthy") in hops

            # full scatter throughput is restored: the respawned owner
            # serves its shares again, nothing stays inline-fallback
            before = rs.scatter_stats.as_dict()
            assert_same_mapping(rs.map_reads(clean_reads), sequential)
            after = rs.scatter_stats.as_dict()
            assert after["scattered"] > before["scattered"]
            assert after["fallbacks"] == before["fallbacks"]

    def test_respawn_metrics_are_observable(self, indexed, clean_reads):
        with make_set(indexed, "scatter", 3) as rs:
            supervisor = FleetSupervisor(rs, SUPERVISION)
            rs.kill_replica(0)
            supervisor.tick()
            snapshot = rs.metrics_snapshot()
            # the set counts the repair once; no registry of the
            # supervisor's own rides in the aggregation
            assert snapshot["aggregate"]["counters"]["replica_respawns_total"] == 1
            assert supervisor.status()["respawns"] == rs.respawns == 1
            assert [s["labels"]["replica"] for s in snapshot["replicas"]] == [
                "0", "1", "2", "front",
            ]

    def test_killed_replicate_member_is_respawned(
        self, indexed, clean_reads, sequential
    ):
        with make_set(indexed, "replicate", 3) as rs:
            supervisor = FleetSupervisor(rs, SUPERVISION)
            rs.kill_replica(0)
            # routing skips the corpse; the set still answers exactly
            assert_same_mapping(rs.map_reads(clean_reads), sequential)
            verdicts = supervisor.tick()
            assert verdicts[0] == "dead"
            assert rs.respawns == 1
            assert_same_mapping(rs.map_reads(clean_reads), sequential)
            served = [
                r.service.metrics.snapshot()["counters"]["requests_total"]
                for r in rs.replicas
            ]
            assert served[0] > 0  # the respawned member takes reads again


@pytest.mark.parametrize("kind", ["scatter", "replicate"])
class TestFleetMetrics:
    """With a supervisor attached, the ``metrics`` aggregate reads what
    ``health`` reads, and the respawn counter counts each replacement once."""

    def test_aggregate_ready_and_generation_match_health(self, indexed, kind):
        extra = SequenceSet.from_strings([("novel_contig", "ACGTTGCA" * 200)])
        with make_set(indexed, kind, 3) as rs:
            FleetSupervisor(rs, SUPERVISION)
            rs.add_contigs(extra)
            gauges = rs.metrics_snapshot()["aggregate"]["gauges"]
            health = rs.healthz()
        assert health["ready"] and gauges["ready"] == 1.0
        assert gauges["index_generation"] == rs.index_generation == 1

    def test_respawn_counter_equals_the_sets_replacements(self, indexed, kind):
        with make_set(indexed, kind, 3) as rs:
            supervisor = FleetSupervisor(rs, SUPERVISION)
            rs.kill_replica(0)
            supervisor.tick()
            repaired = rs.metrics_snapshot()["aggregate"]["counters"]
            rs.rolling_restart()
            restarted = rs.metrics_snapshot()["aggregate"]["counters"]
            assert supervisor.status()["respawns"] == 1
        assert repaired["replica_respawns_total"] == 1
        assert restarted["replica_respawns_total"] == rs.respawns == 4


class TestWedgeAndHedge:
    def test_wedged_owner_is_hedged_then_escalated(
        self, indexed, clean_reads, sequential
    ):
        with make_set(indexed, "scatter", 3, hedge_timeout_s=0.1) as rs:
            supervisor = FleetSupervisor(
                rs,
                SupervisorConfig(
                    probe_interval_s=0.05,
                    probe_deadline_s=0.05,
                    suspect_strikes=2,
                ),
            )
            rs.wedge_replica(2, seconds=30.0)
            # in-flight requests flow via hedged inline recompute, exact
            assert_same_mapping(rs.map_reads(clean_reads), sequential)
            stats = rs.scatter_stats.as_dict()
            assert stats["hedged"] > 0
            assert stats["fallbacks"] >= stats["hedged"]
            assert rs._frontdoor.metrics.hedged_requests_total.value > 0

            verdicts = supervisor.tick()
            assert verdicts[2] == "wedged"
            assert rs.respawns == 0  # one strike is not a conviction
            assert supervisor.status()["states"][2] == "suspect"
            verdicts = supervisor.tick()
            assert verdicts[2] == "wedged"
            assert rs.respawns == 1  # second strike escalates to respawn
            assert supervisor.probe(2) == "healthy"
            assert_same_mapping(rs.map_reads(clean_reads), sequential)

    def test_healthy_fleet_never_respawns(self, indexed, clean_reads):
        with make_set(indexed, "scatter", 3) as rs:
            supervisor = FleetSupervisor(rs, SUPERVISION)
            rs.map_reads(clean_reads)
            for _ in range(3):
                assert supervisor.tick() == ["healthy"] * 3
            assert rs.respawns == 0
            assert supervisor.status()["respawns"] == 0


class TestNoSharedMemory:
    @pytest.mark.parametrize("kind", ["scatter", "replicate"])
    def test_fleet_creates_no_segments(self, indexed, clean_reads, kind):
        before = created_segment_names()
        extra = SequenceSet.from_strings([("novel_contig", "ACGTTGCA" * 200)])
        with make_set(indexed, kind, 3) as rs:
            supervisor = FleetSupervisor(rs, SUPERVISION)
            assert created_segment_names() == before
            rs.add_contigs(extra)
            rs.flush_index()
            rs.compact_index()
            assert created_segment_names() == before
            rs.kill_replica(1)
            supervisor.tick()
            assert rs.respawns == 1
            assert created_segment_names() == before
            rs.rolling_restart()
            rs.map_reads(clean_reads)
            assert created_segment_names() == before


class TestRollingRestart:
    def test_rolling_restart_is_sequential_and_exact(
        self, indexed, clean_reads, sequential
    ):
        with make_set(indexed, "scatter", 3) as rs:
            assert_same_mapping(rs.map_reads(clean_reads), sequential)
            out = rs.rolling_restart()
            assert out["restarted"] == [0, 1, 2]
            assert rs.respawns == 3
            assert rs.healthz()["replicas_ready"] == 3  # full strength
            assert_same_mapping(rs.map_reads(clean_reads), sequential)
            health = rs.healthz()
            assert health["ready"] and health["generations_agree"]

    @pytest.mark.parametrize(
        "kind,n", [("replicate", 1), ("replicate", 2), ("scatter", 2)]
    )
    def test_rolling_restart_under_load_drops_no_read(
        self, indexed, clean_reads, sequential, kind, n
    ):
        """Make-before-break: each successor is admitted before its
        predecessor drains, so reads submitted throughout five restarts
        are all answered, exactly — a fleet of one included."""
        refused: list[BaseException] = []
        wrong: list[int] = []
        answered = [0]
        running = threading.Event()
        stop = threading.Event()

        with make_set(indexed, kind, n) as rs:

            def hammer(offset: int) -> None:
                j = offset
                while not stop.is_set():
                    j = (j + 1) % len(clean_reads)
                    try:
                        mapping = rs.submit(
                            clean_reads.names[j], clean_reads.codes_of(j)
                        ).result(30)
                    except ReproError as exc:
                        refused.append(exc)
                        continue
                    want = sequential.subject[2 * j:2 * j + 2].tolist()
                    if list(mapping.subject) != want:
                        wrong.append(j)
                    answered[0] += 1
                    running.set()

            threads = [
                threading.Thread(target=hammer, args=(k,), daemon=True)
                for k in range(3)
            ]
            # frequent thread switches: a submit that picked a member just
            # before the restart swapped it out must still find a door
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                assert running.wait(30.0)
                for _ in range(5):
                    assert rs.rolling_restart()["restarted"] == list(range(n))
            finally:
                stop.set()
                sys.setswitchinterval(interval)
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
            assert rs.respawns == 5 * n
        assert not refused, f"{len(refused)} reads refused, first: {refused[0]!r}"
        assert not wrong and answered[0] > 0

    def test_respawn_readopts_current_generation(self, indexed, clean_reads):
        extra = SequenceSet.from_strings(
            [("novel_contig", "ACGTTGCA" * 200)]
        )
        with make_set(indexed, "scatter", 3) as rs:
            rs.add_contigs(extra)
            generation = rs.index_generation
            assert generation >= 1
            rs.kill_replica(2)
            FleetSupervisor(rs, SUPERVISION).tick()
            assert rs.respawns == 1
            health = rs.healthz()
            assert health["generations_agree"]
            assert health["index_generation"] == generation
            # the respawned shard answers for the post-mutation index
            novel = rs.submit("probe", "ACGTTGCA" * 200).result(30)
            assert novel.subject_names[0] == "novel_contig"


class TestRespawnSafety:
    def test_respawn_on_drained_set_is_refused(self, indexed):
        rs = make_set(indexed, "scatter", 2)
        rs.drain()
        from repro.errors import ServiceClosedError

        with pytest.raises(ServiceClosedError):
            rs.respawn_replica(0)

    def test_respawn_budget_caps_crash_loops(self, indexed):
        with make_set(indexed, "scatter", 3) as rs:
            supervisor = FleetSupervisor(
                rs,
                SupervisorConfig(
                    probe_interval_s=0.05,
                    probe_deadline_s=0.2,
                    max_respawns=1,
                ),
            )
            rs.kill_replica(0)
            supervisor.tick()
            assert rs.respawns == 1
            rs.kill_replica(1)
            supervisor.tick()
            assert rs.respawns == 1  # budget spent: no second repair
            assert supervisor.status()["states"][1] == "dead"

    def test_wedge_requires_scatter(self, indexed):
        with make_set(indexed, "replicate", 2) as rs:
            with pytest.raises(ServiceError, match="scatter"):
                rs.wedge_replica(0, 1.0)

    def test_supervisor_thread_lifecycle(self, indexed):
        with make_set(indexed, "scatter", 2) as rs:
            with FleetSupervisor(rs, SUPERVISION) as supervisor:
                assert supervisor.running
            assert not supervisor.running


class TestLaneThreadLifetime:
    """A stalled worker must never outlive its lane.

    A lane wedged past ``close()``'s join would otherwise keep sleeping
    after the set drained, then wake with a task in hand long after its
    fleet is gone.  Kill and drain must bound the thread's lifetime.
    """

    @staticmethod
    def _lane_threads():
        return [
            t for t in threading.enumerate()
            if t.name.startswith("jem-lookup-") and t.is_alive()
        ]

    def test_killed_wedged_lane_exits_promptly(self, indexed, clean_reads):
        with make_set(indexed, "scatter", 3, hedge_timeout_s=0.05) as rs:
            rs.wedge_replica(1, seconds=600.0)
            # the wedged owner is now asleep holding an in-flight task
            rs.map_reads(clean_reads)
            lane = rs._lanes[1]
            rs.kill_replica(1)
            lane._thread.join(5.0)
            assert not lane._thread.is_alive(), "killed lane thread failed to exit"
            FleetSupervisor(rs, SUPERVISION).tick()
            assert rs.respawns == 1

    def test_drain_leaves_no_lane_thread_behind(self, indexed, clean_reads):
        rs = make_set(indexed, "scatter", 3, hedge_timeout_s=0.05)
        rs.wedge_replica(2, seconds=600.0)
        rs.map_reads(clean_reads)
        rs.drain()
        deadline = time.monotonic() + 5.0
        while self._lane_threads() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert self._lane_threads() == []
