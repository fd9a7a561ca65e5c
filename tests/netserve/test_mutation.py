"""Online index mutation: the ReplicaSet is the one owner of a served index.

Mutations land on the set-level LSM handle and the resulting generation
is installed everywhere at once — adopted wholesale by every replica
(replicate) or re-sharded behind fresh lookup lanes (scatter); the
replica services only read.  These tests pin the contract on both
fleets: answers match a monolithic rebuild, every response is computed
against exactly one generation, the result cache never answers across
generations, only an explicit flush or compact seals or folds the index,
the mutation counters are the set's, a lane stamped
with the wrong generation is refused (served inline instead — fail
closed, never a mixed answer), and a TCP session drives the same
mutations through the NDJSON protocol.
"""

from __future__ import annotations

import shutil
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import serve_session

from repro import JEMConfig, JEMMapper
from repro.core.lsm import MutableSketchStore
from repro.core.persist import load_index
from repro.core.store import DictSketchStore
from repro.netserve import ReplicaSet, make_placement
from repro.seq import random_codes
from repro.seq.records import SequenceSet, SequenceSetBuilder
from repro.service import ServiceConfig
from repro.sketch.jem import subject_sketch_pairs

CONFIG = JEMConfig(k=12, w=20, ell=300, trials=5, seed=17)

SERVICE = ServiceConfig(max_batch_size=8)

#: the fleets every folded contract runs on: the default one (what a
#: plain ``jem serve`` runs) and a key-range fleet
FLEETS = [("replicate", 1), ("scatter", 2)]


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


def counts(replica_set) -> tuple[int, int, int]:
    """The set's (mutations, flushes, compactions) from its aggregate."""
    counters = replica_set.metrics_snapshot()["aggregate"]["counters"]
    return (
        counters["mutations_total"],
        counters["flushes_total"],
        counters["compactions_total"],
    )


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
                replica_set, [
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
            replies = serve_session(replica_set, [
                {"op": "remove_contigs", "names": ["ghost"]},
                {"op": "stats"},  # session must survive the error
            ])
        assert "error" in replies[0]
        assert replies[1]["op"] == "stats"


class TestDurableMutations:
    """Every mutation op acknowledged over the wire is in the ``.lsm``
    directory the server was given — whichever fleet."""

    @pytest.mark.parametrize("kind,n", [("replicate", 1), ("scatter", 2)])
    def test_acknowledged_mutations_survive_a_restart(
        self, tmp_path, indexed, genome, rng, kind, n
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
            replies = serve_session(replica_set, [
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


def oracle_of(handle: MutableSketchStore, world: dict) -> DictSketchStore:
    """The dict oracle over ``handle``'s live contigs, each sketched at its id."""
    family = CONFIG.hash_family()
    per_trial = [[] for _ in range(CONFIG.trials)]
    for name in handle.live_subject_names:
        pairs = subject_sketch_pairs(
            SequenceSet.from_strings([(name, world[name])]), CONFIG.k, CONFIG.w,
            CONFIG.ell, family, subject_id_offset=handle.subject_names.index(name),
        )
        for t, keys in enumerate(pairs):
            per_trial[t].append(keys)
    keys = [np.sort(np.concatenate(chunks)) for chunks in per_trial]
    return DictSketchStore(keys, len(handle.subject_names))


def assert_same_lookups(store, oracle: DictSketchStore) -> None:
    for t in range(CONFIG.trials):
        queries = np.concatenate(
            [oracle.values_of_trial(t), np.array([0, 1 << 31], dtype=np.uint64)]
        )
        got, want = store.lookup_trial(t, queries), oracle.lookup_trial(t, queries)
        assert np.array_equal(got.query_index, want.query_index)
        assert np.array_equal(got.subjects, want.subjects)


class TestFoldOnce:
    """Scatter folds each published generation into its root at install;
    a flush or compaction that follows reuses that root and builds none."""

    def test_flush_and_compact_keep_the_root_the_install_built(
        self, tmp_path, indexed, genome, rng
    ):
        late = {"n0": _dna(rng, 900)}
        world = {**genome, **late}
        run_dir = str(tmp_path / "idx.lsm")
        MutableSketchStore.create(
            run_dir, CONFIG, base_store=indexed.table,
            subject_names=indexed.subject_names,
        ).close()
        served = load_index(run_dir)
        handle = served.table
        with ReplicaSet(
            handle, served.subject_names, CONFIG,
            placement=make_placement("scatter", 2), service_config=SERVICE,
        ) as replica_set:
            replica_set.add_contigs(SequenceSet.from_strings(list(late.items())))
            replica_set.remove_contigs(["c1"])
            root = replica_set._root
            assert not handle.current.is_clean
            for step, op in enumerate((replica_set.flush_index, replica_set.compact_index)):
                op()
                assert replica_set._root is root
                oracle = oracle_of(handle, world)
                assert_same_lookups(handle.current, oracle)
                # what the directory holds now reopens to the same answers
                copy = str(tmp_path / f"after_{step}.lsm")
                shutil.copytree(run_dir, copy)
                with MutableSketchStore.open(copy) as reopened:
                    assert reopened.generation == handle.generation
                    assert_same_lookups(reopened.current, oracle)
            assert handle.current.is_clean and handle.current.segments[0] is root
            assert labels_of(replica_set, world) == rebuilt_labels(
                [(n, s) for n, s in world.items() if n != "c1"], world
            )
        handle.close()


def _wide_contigs(genome_bp: int) -> SequenceSet:
    """Sixteen random contigs of ``genome_bp`` bases in all: the index
    grows with the bases while the contig count (names, ids) stays put."""
    rng = np.random.default_rng(7)
    builder = SequenceSetBuilder()
    for i in range(16):
        builder.add(f"w{i:02d}", random_codes(genome_bp // 16, rng))
    return builder.build()


class TestMutationMemory:
    """A mutation allocates its delta, not a copy of the index.

    The slope, not the ratio: each further byte of index raises the
    tracemalloc peak of a durable fleet's ``flush_index`` and
    ``compact_index`` by at most the bound.  Folding the generation again
    at every flush and compaction, and reading the new segment file back
    in 1 MiB pieces, read ≈ 0.4 / 2.8 (scatter flush / compact) and 1.7
    (replicate compact) at these sizes.  The default config's 30 trials:
    the segment writer holds one trial's stacked columns at a time.
    """

    @staticmethod
    def peaks(tmp_path, kind: str, n: int, genome_bp: int) -> tuple[int, int, int]:
        """``(index bytes, flush peak, compact peak)`` after an add and a remove."""
        config = JEMConfig()
        contigs = _wide_contigs(genome_bp)
        mapper = JEMMapper(config, threads=1)
        mapper.index(contigs)
        handle = MutableSketchStore.create(
            str(tmp_path / f"{kind}_{genome_bp}.lsm"), config,
            base_store=mapper.table, subject_names=contigs.names,
        )
        with handle, ReplicaSet(
            handle, contigs.names, config,
            placement=make_placement(kind, n), service_config=SERVICE,
        ) as replica_set:
            replica_set.add_contigs(SequenceSet.from_strings([("late", "ACGT" * 400)]))
            replica_set.remove_contigs([contigs.names[0]])
            index_bytes = handle.nbytes
            tracemalloc.start()
            try:
                replica_set.flush_index()
                _, flush_peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                replica_set.compact_index()
                _, compact_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return index_bytes, flush_peak, compact_peak

    def slopes(self, tmp_path, kind: str, n: int) -> tuple[float, float]:
        self.peaks(tmp_path, kind, n, 100_000)  # imports and one-time caches
        small = self.peaks(tmp_path, kind, n, 1_000_000)
        large = self.peaks(tmp_path, kind, n, 3_000_000)
        grown = large[0] - small[0]
        return (large[1] - small[1]) / grown, (large[2] - small[2]) / grown

    def test_scatter_flush_and_compact_reuse_the_install_fold(self, tmp_path):
        flush, compact = self.slopes(tmp_path, "scatter", 2)
        assert flush <= 0.1 and compact <= 0.1, (flush, compact)

    def test_replicate_compaction_holds_one_fold(self, tmp_path):
        _, compact = self.slopes(tmp_path, "replicate", 1)
        assert compact <= 1.3, compact


# -- one owner, both fleets --------------------------------------------------


class TestGenerations:
    """What a generation swap promises on either fleet."""

    @pytest.mark.parametrize("kind,n", FLEETS)
    def test_static_index_is_wrapped_once_and_services_only_read(
        self, indexed, rng, kind, n
    ):
        """The set decides mutability at construction, not on first use."""
        with make_set(indexed, kind, n) as replica_set:
            handle = replica_set._mutable
            assert isinstance(handle, MutableSketchStore)
            replica_set.add_contigs(
                SequenceSet.from_strings([("w0", _dna(rng, 900))])
            )
            assert replica_set._mutable is handle
            assert replica_set.index_generation == 1
            for replica in replica_set.replicas:
                table = replica.service._mapper.table
                assert not isinstance(table, MutableSketchStore)
                assert replica.service.index_generation == 1

    @pytest.mark.parametrize("kind,n", FLEETS)
    def test_cache_never_leaks_across_generations(self, indexed, genome, kind, n):
        """The same read, before and after a removal, answers differently."""
        world = {"c2": genome["c2"]}
        with make_set(indexed, kind, n) as replica_set:
            assert labels_of(replica_set, world) == ["c2", "c2"]
            labels_of(replica_set, world)  # an identical resubmit is a hit
            aggregate = replica_set.metrics_snapshot()["aggregate"]
            assert aggregate["counters"]["cache_hits_total"] >= 1
            replica_set.remove_contigs(["c2"])
            assert "c2" not in labels_of(replica_set, world)

    @pytest.mark.parametrize("kind,n", FLEETS)
    def test_store_stats_health_and_metrics_report_generation(
        self, indexed, rng, kind, n
    ):
        with make_set(indexed, kind, n) as replica_set:
            stats = replica_set.store_stats()
            assert stats["generation"] == 0 and stats["segments"] == 1
            replica_set.add_contigs(
                SequenceSet.from_strings([("h0", _dna(rng, 900))])
            )
            stats = replica_set.store_stats()
            assert stats["generation"] == 1
            assert stats["memtable_entries"] > 0
            assert replica_set.healthz()["index_generation"] == 1
            aggregate = replica_set.metrics_snapshot()["aggregate"]
            assert aggregate["gauges"]["index_generation"] == 1.0
            assert counts(replica_set) == (1, 0, 0)

    @pytest.mark.parametrize("kind,n", FLEETS)
    def test_sustained_load_no_mixed_generation_responses(
        self, indexed, genome, rng, kind, n
    ):
        """Mutate under load; every response whole.

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

        with make_set(indexed, kind, n) as replica_set:

            def hammer(tseed: int) -> None:
                trng = np.random.default_rng(tseed)
                names = list(world)
                while not stop.is_set():
                    target = names[int(trng.integers(0, len(names)))]
                    try:
                        mapping = replica_set.submit(
                            f"read_{target}", world[target]
                        ).result(30.0)
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
                replica_set.add_contigs(SequenceSet.from_strings([(name, seq)]))
                time.sleep(0.05)
            replica_set.remove_contigs(["c1"])
            time.sleep(0.05)
            replica_set.flush_index()
            replica_set.remove_contigs(["c4", "n1"])
            time.sleep(0.05)
            replica_set.compact_index()
            time.sleep(0.2)
            stop.set()
            for t in threads:
                t.join(timeout=30.0)

            assert not errors, errors[:1]
            assert not violations, violations[:5]
            assert answered[0] > 0
            # and the settled index answers exactly like a rebuild
            live = [
                (n, s) for n, s in world.items() if n not in ("c1", "c4", "n1")
            ]
            assert labels_of(replica_set, world) == rebuilt_labels(live, world)


class TestExplicitMaintenance:
    """A mutation publishes its generation and nothing more: only the
    ``flush`` and ``compact`` a caller sends seal the memtable or fold the
    segments."""

    @pytest.mark.parametrize("kind,n", FLEETS)
    def test_only_flush_and_compact_maintain(self, indexed, rng, kind, n):
        late = {f"g{i}": _dna(rng, 900) for i in range(2)}
        with make_set(indexed, kind, n) as replica_set:
            for pair in late.items():
                stats = replica_set.add_contigs(SequenceSet.from_strings([pair]))
            assert stats["memtable_entries"] > 0 and stats["segments"] == 1
            assert counts(replica_set) == (2, 0, 0)
            assert replica_set.flush_index()["segments"] == 2
            assert replica_set.compact_index()["segments"] == 1
            assert counts(replica_set) == (2, 1, 1)
            assert labels_of(replica_set, late) == ["g0", "g0", "g1", "g1"]


class TestWireMutations:
    """Both fleets mutate the same way over the wire: one script."""

    @pytest.mark.parametrize("kind,n", FLEETS)
    def test_mutation_ops_over_the_wire(self, indexed, rng, kind, n):
        new_seq = _dna(rng, 900)
        with make_set(indexed, kind, n) as replica_set:
            replies = serve_session(replica_set, [
                {"op": "stats"},
                {"op": "map", "id": 0, "name": "r0", "seq": new_seq},
                {"op": "add_contigs", "names": ["p0"], "seqs": [new_seq]},
                {"op": "map", "id": 1, "name": "r0", "seq": new_seq},
                {"op": "remove_contigs", "names": ["c5"]},
                {"op": "remove_contigs", "names": ["ghost"]},
                {"op": "flush"},
                {"op": "compact"},
                {"op": "stats"},
            ])
        by_op: dict[str, list[dict]] = {}
        maps = []
        for reply in replies:
            if "results" in reply:
                maps.append(reply)
            else:
                by_op.setdefault(reply["op"], []).append(reply)
        assert by_op["stats"][0]["generation"] == 0
        assert by_op["add_contigs"][0]["generation"] == 1
        # a bad mutation is an in-band error; the session keeps serving
        assert "error" in by_op["remove_contigs"][1]
        assert by_op["stats"][-1]["generation"] == 4
        assert by_op["stats"][-1]["stats"]["segments"] == 1
        # before the add the read is unmapped; after, both ends hit p0
        assert [r["contig"] for r in maps[0]["results"]] == [None, None]
        assert [r["contig"] for r in maps[1]["results"]] == ["p0", "p0"]
        assert replies[-1]["op"] == "drained"
