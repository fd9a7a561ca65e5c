"""Online index mutation across a ReplicaSet: swap protocol, fail-closed.

Mutations land on the set-level LSM handle and the resulting generation
is installed everywhere at once — adopted wholesale by every replica
(replicate) or re-sharded behind fresh lookup lanes (scatter).  These
tests pin the swap contract: answers match a monolithic rebuild on both
placements and both lookup paths, a lane stamped with the wrong
generation is refused (served inline instead — fail closed, never a
mixed answer), and the TCP front door drives the same mutations through
the shared NDJSON protocol.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import TRANSPORTS, serve_session

from repro import JEMConfig, JEMMapper
from repro.core.lsm import MutableSketchStore
from repro.core.persist import load_index
from repro.netserve import ReplicaSet, make_placement
from repro.seq.records import SequenceSet
from repro.service import ServiceConfig

CONFIG = JEMConfig(k=12, w=20, ell=300, trials=5, seed=17)

SERVICE = ServiceConfig(max_batch_size=8, max_wait_ms=1.0)


def _dna(rng, n: int) -> str:
    return "".join("ACGT"[c] for c in rng.integers(0, 4, size=n))


@pytest.fixture
def genome(rng):
    return {f"c{i}": _dna(rng, 900) for i in range(6)}


@pytest.fixture
def indexed(genome):
    mapper = JEMMapper(CONFIG)
    mapper.index(SequenceSet.from_strings(list(genome.items())))
    return mapper


def make_set(indexed, kind, n, **kwargs):
    kwargs.setdefault("service_config", SERVICE)
    return ReplicaSet(
        indexed.table, indexed.subject_names, CONFIG,
        placement=make_placement(kind, n), **kwargs,
    )


def labels_of(replica_set, world: dict) -> list[str | None]:
    """(prefix, suffix) contig labels for one full-contig read per name."""
    futures = [
        (replica_set.submit(f"read_{name}", seq))
        for name, seq in world.items()
    ]
    out: list[str | None] = []
    for future in futures:
        out.extend(future.result(30.0).subject_names)
    return out


def rebuilt_labels(live_pairs, world: dict) -> list[str | None]:
    mapper = JEMMapper(CONFIG)
    mapper.index(SequenceSet.from_strings(live_pairs))
    reads = SequenceSet.from_strings(
        [(f"read_{n}", s) for n, s in world.items()]
    )
    result = mapper.map_reads(reads)
    return [
        mapper.subject_names[s] if s >= 0 else None for s in result.subject
    ]


def mutate(replica_set, late: dict, removed: list[str]) -> None:
    for name, seq in late.items():
        replica_set.add_contigs(SequenceSet.from_strings([(name, seq)]))
    replica_set.remove_contigs(removed)
    replica_set.flush_index()
    replica_set.compact_index()


class TestPlacementMutationParity:
    @pytest.mark.parametrize("kind", ["replicate", "scatter"])
    @pytest.mark.parametrize("no_native", [False, True])
    def test_mutated_set_matches_rebuild(
        self, indexed, genome, rng, kind, no_native, monkeypatch
    ):
        if no_native:
            monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        late = {f"n{i}": _dna(rng, 900) for i in range(2)}
        world = {**genome, **late}
        with make_set(indexed, kind, 3) as replica_set:
            before = labels_of(replica_set, world)
            # new contigs unknown, removed ones still live
            assert before[-4:] == [None, None, None, None]
            assert "c1" in before

            mutate(replica_set, late, ["c1"])
            assert replica_set.index_generation > 0

            got = labels_of(replica_set, world)
            live = [(n, s) for n, s in world.items() if n != "c1"]
            assert got == rebuilt_labels(live, world)
            assert "c1" not in got
            assert got[-4:] == ["n0", "n0", "n1", "n1"]

    def test_scatter_keeps_scattering_after_swap(self, indexed, genome, rng):
        """Post-swap lanes carry the new generation; no permanent fallback."""
        late = {"n0": _dna(rng, 900)}
        world = {**genome, **late}
        with make_set(indexed, "scatter", 3) as replica_set:
            mutate(replica_set, late, ["c2"])
            stats = replica_set.scatter_stats
            base_scattered = stats.scattered
            got = labels_of(replica_set, world)
            assert stats.scattered > base_scattered
            assert stats.mismatches == 0
            live = [(n, s) for n, s in world.items() if n != "c2"]
            assert got == rebuilt_labels(live, world)


class TestFailClosed:
    def test_wrong_generation_lane_is_refused_not_mixed(
        self, indexed, genome, rng
    ):
        """A lane stamped with a stale generation serves nothing.

        Its share falls back to the root store of the *current*
        generation, so the answers stay bit-identical — the mismatch
        only shows up in the stats and costs front-end CPU.
        """
        late = {"n0": _dna(rng, 900)}
        world = {**genome, **late}
        with make_set(indexed, "scatter", 3) as replica_set:
            mutate(replica_set, late, ["c3"])
            replica_set._lanes[0].generation += 17  # simulate a mis-wired swap
            got = labels_of(replica_set, world)
            stats = replica_set.scatter_stats
            assert stats.mismatches > 0
            live = [(n, s) for n, s in world.items() if n != "c3"]
            assert got == rebuilt_labels(live, world)
            assert replica_set.healthz()["generations_agree"] is True

    @pytest.mark.parametrize("kind", ["replicate", "scatter"])
    def test_healthz_reports_agreeing_generations(
        self, indexed, genome, rng, kind
    ):
        late = {"n0": _dna(rng, 900)}
        with make_set(indexed, kind, 3) as replica_set:
            health = replica_set.healthz()
            assert health["index_generation"] == 0
            assert health["generations_agree"] is True

            mutate(replica_set, late, ["c0"])

            health = replica_set.healthz()
            assert health["index_generation"] == replica_set.index_generation
            assert health["generations_agree"] is True
            for rep in health["replicas"]:
                assert rep["index_generation"] == health["index_generation"]
            if kind == "scatter":
                assert health["scatter"]["mismatches"] == 0
            stats = replica_set.store_stats()
            assert stats["generation"] == health["index_generation"]
            assert stats["segments"] == 1  # compacted


# -- TCP front door ----------------------------------------------------------


class TestFrontendMutations:
    def test_mutation_ops_over_tcp(self, indexed, genome, rng):
        new_seq = _dna(rng, 900)
        probe = {"op": "map", "name": "r0", "seq": new_seq}
        with make_set(indexed, "scatter", 3) as replica_set:
            # one pipelined script: a mutation is a barrier in its session,
            # so each read sees exactly the mutations sent before it
            stats, first, added, second, removed, third, _drained = serve_session(
                "tcp", replica_set, [
                    {"op": "stats"},
                    {**probe, "id": 0},
                    {"op": "add_contigs", "names": ["p0"], "seqs": [new_seq]},
                    {**probe, "id": 1},
                    {"op": "remove_contigs", "names": ["p0"]},
                    {**probe, "id": 2},
                ],
            )
            assert replica_set.index_generation == 2
        assert stats["generation"] == 0
        assert [r["contig"] for r in first["results"]] == [None, None]
        assert added["op"] == "add_contigs" and added["generation"] == 1
        assert [r["contig"] for r in second["results"]] == ["p0", "p0"]
        assert removed["generation"] == 2
        assert "p0" not in [r["contig"] for r in third["results"]]

    def test_bad_mutation_op_is_an_error_reply(self, indexed):
        with make_set(indexed, "replicate", 2) as replica_set:
            replies = serve_session("tcp", replica_set, [
                {"op": "remove_contigs", "names": ["ghost"]},
                {"op": "stats"},  # session must survive the error
            ])
        assert "error" in replies[0]
        assert replies[1]["op"] == "stats"


class TestDurableMutations:
    """Every mutation op acknowledged over the wire is in the ``.lsm``
    directory the server was given — whichever transport, whichever fleet."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("kind,n", [("replicate", 1), ("scatter", 2)])
    def test_acknowledged_mutations_survive_a_restart(
        self, tmp_path, indexed, genome, rng, transport, kind, n
    ):
        new_seq = _dna(rng, 900)
        run_dir = str(tmp_path / "idx.lsm")
        MutableSketchStore.create(
            run_dir, CONFIG, base_store=indexed.table,
            subject_names=indexed.subject_names,
        ).close()
        served = load_index(run_dir)
        with ReplicaSet(
            served.table, served.subject_names, CONFIG,
            placement=make_placement(kind, n), service_config=SERVICE,
        ) as replica_set:
            replies = serve_session(transport, replica_set, [
                {"op": "add_contigs", "names": ["p0"], "seqs": [new_seq]},
                {"op": "remove_contigs", "names": ["c0"]},
                {"op": "flush"},
                {"op": "add_contigs", "names": ["p1"], "seqs": [genome["c0"]]},
            ])
            health = replica_set.healthz()
        served.table.close()
        assert [r.get("generation") for r in replies[:4]] == [1, 2, 3, 4]
        assert health["index_generation"] == 4 and health["generations_agree"]

        reopened = load_index(run_dir)  # the server is gone: only the directory
        assert reopened.table.generation == 4
        reads = SequenceSet.from_strings([("r_new", new_seq), ("r_c0", genome["c0"])])
        result = reopened.map_reads(reads)
        labels = [
            reopened.subject_names[s] if s >= 0 else None for s in result.subject
        ]
        # the added contig maps; the removed one's read now finds its
        # re-added copy (still in the WAL, not yet flushed), never c0
        assert labels == ["p0", "p0", "p1", "p1"]
        reopened.table.close()
