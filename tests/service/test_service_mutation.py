"""Online index mutation behind ``jem serve``'s default backend.

A plain ``jem serve`` fronts a replicate x1 :class:`ReplicaSet`; the set
owns the mutable index and its one service only reads.  These tests pin
what a session relies on: a mutated index answers exactly like a rebuild
(native and pure-numpy paths), the mutation ops drive it over the wire
protocol, and a bad mutation is an in-band error that leaves the session
serving.  The same contracts on both fleets are in
``tests/netserve/test_mutation.py``.
"""

from __future__ import annotations

import pytest
from conftest import serve_fleet, serve_session

from repro import JEMConfig, JEMMapper
from repro.seq.records import SequenceSet
from repro.service import ServiceConfig

CONFIG = JEMConfig(k=12, w=20, ell=300, trials=5, seed=17)

SERVICE = ServiceConfig(max_batch_size=4)


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


def mapped_names(backend, reads: SequenceSet) -> list[str | None]:
    """(prefix, suffix) labels per read, through the backend."""
    futures = [
        backend.submit(reads.names[i], reads[i].sequence)
        for i in range(len(reads))
    ]
    out: list[str | None] = []
    for future in futures:
        out.extend(future.result(30.0).subject_names)
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
        with serve_fleet(contigs, CONFIG, SERVICE) as fleet:
            assert fleet.index_generation == 0
            before = mapped_names(fleet, reads)
            assert before[:4] == ["c0", "c0", "c3", "c3"]

            stats = fleet.add_contigs(
                SequenceSet.from_strings([(new_name, new_seq)])
            )
            assert stats["generation"] == fleet.index_generation > 0
            fleet.remove_contigs(["c3"])
            fleet.flush_index()
            fleet.compact_index()

            got = mapped_names(fleet, reads)
            live = [(n, s) for n, s in genome.items() if n != "c3"]
            live.append((new_name, new_seq))
            want = rebuilt_names(live, reads)
            assert got == want
            assert got[:2] == ["c0", "c0"]
            assert "c3" not in got
            assert got[4:] == [new_name, new_name]


class TestServeLoopOps:
    """Mutations over the wire of one session on the default fleet."""

    def test_mutation_ops_over_the_pipe_protocol(self, genome, contigs, rng):
        new_seq = _dna(rng, 900)
        with serve_fleet(contigs, CONFIG, SERVICE) as fleet:
            replies = serve_session(fleet, [
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
        with serve_fleet(contigs, CONFIG, SERVICE) as fleet:
            replies = serve_session(fleet, [
                {"op": "remove_contigs", "names": ["ghost"]},
                {"op": "stats"},
            ])
        assert "error" in replies[0]
        assert replies[1]["op"] == "stats"  # session survived
