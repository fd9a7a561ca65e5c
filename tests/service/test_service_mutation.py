"""Online index mutation through MappingService: generational reads.

The service-level contract of the LSM layer: mutations apply while the
service keeps answering, every response is computed **entirely** against
one index generation (never a mix), the result cache can never leak an
answer across generations, and the background watchdog performs flush /
compaction without disturbing in-flight batches.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from conftest import serve_session

from repro import JEMConfig, JEMMapper
from repro.core.lsm import MutableSketchStore
from repro.seq.records import SequenceSet
from repro.service import MappingService, ServiceConfig

CONFIG = JEMConfig(k=12, w=20, ell=300, trials=5, seed=17)

SERVICE = ServiceConfig(max_batch_size=4, max_wait_ms=1.0)


def _dna(rng, n: int) -> str:
    return "".join("ACGT"[c] for c in rng.integers(0, 4, size=n))


@pytest.fixture
def genome(rng):
    """Six 900bp contigs: long enough for both end segments to map home."""
    return {f"c{i}": _dna(rng, 900) for i in range(6)}


@pytest.fixture
def contigs(genome):
    return SequenceSet.from_strings(list(genome.items()))


def read_for(name: str, genome) -> tuple[str, str]:
    """A read that *is* its contig — both end segments must map to it."""
    return (f"read_{name}", genome[name])


def mapped_names(service, reads: SequenceSet) -> list[str | None]:
    """(prefix, suffix) labels per read, through the service."""
    futures = [
        service.submit(reads.names[i], reads[i].sequence)
        for i in range(len(reads))
    ]
    out: list[str | None] = []
    for future in futures:
        mapping = future.result(30.0)
        out.extend(mapping.subject_names)
    return out


def rebuilt_names(live_pairs, reads: SequenceSet) -> list[str | None]:
    mapper = JEMMapper(CONFIG)
    mapper.index(SequenceSet.from_strings(live_pairs))
    result = mapper.map_reads(reads)
    return [
        mapper.subject_names[s] if s >= 0 else None for s in result.subject
    ]


class TestMutationParity:
    @pytest.mark.parametrize("no_native", [False, True])
    def test_add_remove_compact_match_rebuild(
        self, genome, contigs, rng, no_native, monkeypatch
    ):
        if no_native:
            monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        new_name, new_seq = "n0", _dna(rng, 900)
        reads = SequenceSet.from_strings(
            [read_for("c0", genome), read_for("c3", genome),
             ("read_n0", new_seq)]
        )
        with MappingService.from_contigs(contigs, CONFIG, SERVICE) as service:
            assert service.index_generation == 0
            before = mapped_names(service, reads)
            assert before[:4] == ["c0", "c0", "c3", "c3"]

            stats = service.add_contigs(
                SequenceSet.from_strings([(new_name, new_seq)])
            )
            assert stats["generation"] == service.index_generation > 0
            service.remove_contigs(["c3"])
            service.flush_index()
            service.compact_index()

            got = mapped_names(service, reads)
            live = [(n, s) for n, s in genome.items() if n != "c3"]
            live.append((new_name, new_seq))
            want = rebuilt_names(live, reads)
            assert got == want
            assert got[:2] == ["c0", "c0"]
            assert "c3" not in got
            assert got[4:] == [new_name, new_name]

    def test_cache_never_leaks_across_generations(self, genome, contigs):
        """The same read, before and after a removal, answers differently."""
        reads = SequenceSet.from_strings([read_for("c2", genome)])
        with MappingService.from_contigs(contigs, CONFIG, SERVICE) as service:
            first = mapped_names(service, reads)
            assert first == ["c2", "c2"]
            # prime the cache: an identical resubmit is a hit
            mapped_names(service, reads)
            assert service.metrics.cache_hits_total.value >= 1
            service.remove_contigs(["c2"])
            after = mapped_names(service, reads)
            assert "c2" not in after

    def test_mutating_a_static_index_wraps_it_in_place(self, contigs, rng):
        """First mutation on a bundle-loaded store goes mutable, no rebuild."""
        with MappingService.from_contigs(contigs, CONFIG, SERVICE) as service:
            assert not isinstance(service._mapper.table, MutableSketchStore)
            service.add_contigs(
                SequenceSet.from_strings([("w0", _dna(rng, 900))])
            )
            assert isinstance(service._mapper.table, MutableSketchStore)
            assert service.index_generation == 1

    def test_store_stats_and_healthz_report_generation(self, genome, contigs, rng):
        with MappingService.from_contigs(contigs, CONFIG, SERVICE) as service:
            stats = service.store_stats()
            assert stats["generation"] == 0
            assert stats["segments"] == 1
            service.add_contigs(
                SequenceSet.from_strings([("h0", _dna(rng, 900))])
            )
            stats = service.store_stats()
            assert stats["generation"] == 1
            assert stats["memtable_entries"] > 0
            health = service.healthz()
            assert health["index_generation"] == 1
            snap = service.metrics.snapshot()
            assert snap["gauges"]["index_generation"] == 1.0
            assert snap["counters"]["mutations_total"] == 1


class TestGenerationIsolation:
    def test_sustained_load_no_mixed_generation_responses(
        self, genome, contigs, rng
    ):
        """ISSUE acceptance: mutate under load; every response whole.

        Each read is byte-identical to one contig, so within any single
        generation its two end segments either both map to that contig
        (live) or neither does (removed/never-added).  A split answer
        would prove a response straddled a generation swap.
        """
        late = {f"n{i}": _dna(rng, 900) for i in range(3)}
        world = {**genome, **late}
        violations: list[tuple[str, tuple]] = []
        errors: list[BaseException] = []
        answered = [0]
        stop = threading.Event()

        with MappingService.from_contigs(contigs, CONFIG, SERVICE) as service:

            def hammer(tseed: int) -> None:
                trng = np.random.default_rng(tseed)
                names = list(world)
                while not stop.is_set():
                    target = names[int(trng.integers(0, len(names)))]
                    try:
                        future = service.submit(
                            f"read_{target}", world[target]
                        )
                        mapping = future.result(30.0)
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return
                    prefix, suffix = mapping.subject_names
                    if (prefix == target) != (suffix == target):
                        violations.append((target, mapping.subject_names))
                    answered[0] += 1

            threads = [
                threading.Thread(target=hammer, args=(100 + i,), daemon=True)
                for i in range(3)
            ]
            for t in threads:
                t.start()
            # the mutation schedule runs while the hammers are going
            for name, seq in late.items():
                service.add_contigs(SequenceSet.from_strings([(name, seq)]))
                time.sleep(0.05)
            service.remove_contigs(["c1"])
            time.sleep(0.05)
            service.flush_index()
            service.remove_contigs(["c4", "n1"])
            time.sleep(0.05)
            service.compact_index()
            time.sleep(0.2)
            stop.set()
            for t in threads:
                t.join(timeout=30.0)

            assert not errors, errors[:1]
            assert not violations, violations[:5]
            assert answered[0] > 0
            # and the settled index answers exactly like a rebuild
            live = [
                (n, s) for n, s in world.items()
                if n not in ("c1", "c4", "n1")
            ]
            reads = SequenceSet.from_strings(
                [read_for(n, world) for n in world]
            )
            assert mapped_names(service, reads) == rebuilt_names(live, reads)


class TestAutoMaintenance:
    def test_memtable_flush_threshold_seals_segments(self, contigs, rng):
        config = ServiceConfig(
            max_batch_size=4, max_wait_ms=1.0, memtable_flush_entries=1
        )
        with MappingService.from_contigs(contigs, CONFIG, config) as service:
            service.add_contigs(
                SequenceSet.from_strings([("a0", _dna(rng, 900))])
            )
            stats = service.store_stats()
            assert stats["memtable_entries"] == 0
            assert stats["segments"] == 2
            assert service.metrics.snapshot()["counters"]["flushes_total"] == 1

    def test_watchdog_compacts_past_segment_limit(self, contigs, rng):
        config = ServiceConfig(
            max_batch_size=4, max_wait_ms=1.0,
            watchdog_interval_ms=5.0,
            memtable_flush_entries=1, compact_segments=2,
        )
        with MappingService.from_contigs(contigs, CONFIG, config) as service:
            for i in range(2):
                service.add_contigs(
                    SequenceSet.from_strings([(f"g{i}", _dna(rng, 900))])
                )
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if service.store_stats()["segments"] == 1:
                    break
                time.sleep(0.01)
            stats = service.store_stats()
            assert stats["segments"] == 1
            assert stats["tombstones"] == 0
            counters = service.metrics.snapshot()["counters"]
            assert counters["compactions_total"] >= 1


class TestServeLoopOps:
    """Mutations over the wire of a stdio session on a bare service (the
    fleet's, over TCP, are in ``tests/netserve/test_mutation.py``)."""

    def run_session(self, service, messages) -> list[dict]:
        return serve_session("stdio", service, messages)

    def test_mutation_ops_over_the_pipe_protocol(self, genome, contigs, rng):
        new_seq = _dna(rng, 900)
        with MappingService.from_contigs(contigs, CONFIG, SERVICE) as service:
            replies = self.run_session(service, [
                {"op": "stats"},
                {"op": "map", "id": 0, "name": "r0", "seq": new_seq},
                {"op": "add_contigs", "names": ["p0"], "seqs": [new_seq]},
                {"op": "map", "id": 1, "name": "r0", "seq": new_seq},
                {"op": "remove_contigs", "names": ["c5"]},
                {"op": "flush"},
                {"op": "compact"},
                {"op": "stats"},
            ])
        by_op = {}
        maps = []
        for reply in replies:
            if "results" in reply:
                maps.append(reply)
            else:
                by_op.setdefault(reply["op"], []).append(reply)
        assert by_op["stats"][0]["generation"] == 0
        assert by_op["add_contigs"][0]["generation"] == 1
        assert by_op["stats"][-1]["generation"] == 4
        assert by_op["stats"][-1]["stats"]["segments"] == 1
        # before the add the read is unmapped; after, both ends hit p0
        assert [r["contig"] for r in maps[0]["results"]] == [None, None]
        assert [r["contig"] for r in maps[1]["results"]] == ["p0", "p0"]

    def test_bad_mutation_is_an_error_reply_not_a_crash(self, contigs):
        with MappingService.from_contigs(contigs, CONFIG, SERVICE) as service:
            replies = self.run_session(service, [
                {"op": "remove_contigs", "names": ["ghost"]},
                {"op": "stats"},
            ])
        assert "error" in replies[0]
        assert replies[1]["op"] == "stats"  # session survived
