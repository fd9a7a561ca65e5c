"""LSM mutable index: mutate ≡ rebuild parity, durability, chaos recovery.

The load-bearing claim of the log-structured layer: for any schedule of
``add_contigs`` / ``remove_contigs`` / ``flush`` / ``compact``, the
resident index is **bit-identical** — same packed keys, same lookups,
same mapping — to a monolithic :class:`JEMMapper` rebuild over the live
contigs with the same subject ids.  That holds on the numpy oracle and
the fused native path alike, across a close/reopen of the durable form
(manifest + WAL-suffix replay), and across a SIGKILL at any WAL record
boundary drawn by a seeded :class:`ChaosPlan`.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import JEMConfig, JEMMapper, load_index, save_index
from repro.core.lsm import (
    MANIFEST_NAME,
    WAL_NAME,
    IndexGeneration,
    MutableSketchStore,
    store_stats,
)
from repro.core.store import ColumnarSketchStore, DictSketchStore
from repro.errors import IndexCorruptError, MappingError, SketchError
from repro.resilience.chaos import ChaosPlan
from repro.resilience.checkpoint import CheckpointLog
from repro.seq.records import SequenceSet
from repro.sketch.jem import subject_sketch_pairs

CONFIG = JEMConfig(k=12, w=20, ell=300, trials=5, seed=17)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _dna(rng, n: int) -> str:
    return "".join("ACGT"[c] for c in rng.integers(0, 4, size=n))


def _contig_pairs(rng, count: int, length: int = 900, prefix: str = "c"):
    return [(f"{prefix}{i}", _dna(rng, length)) for i in range(count)]


class Model:
    """Test-side mirror of id allocation: names in add order, removed ids.

    Subject ids are allocation order and never reused — the invariant the
    reference below leans on to predict the exact packed keys.
    """

    def __init__(self) -> None:
        self.contigs: list[tuple[str, str]] = []
        self.removed: set[int] = set()

    def add(self, pairs) -> None:
        self.contigs.extend(pairs)

    def remove(self, name: str) -> None:
        for i, (n, _) in enumerate(self.contigs):
            if n == name and i not in self.removed:
                self.removed.add(i)
                return
        raise AssertionError(f"model: {name} not live")

    def live(self):
        return [
            (i, n, s)
            for i, (n, s) in enumerate(self.contigs)
            if i not in self.removed
        ]

    def live_names(self):
        return [n for _, n, _ in self.live()]


def expected_trial_keys(model: Model, cfg: JEMConfig = CONFIG) -> list[np.ndarray]:
    """Ground truth: per-contig sketches at the allocated ids, merged sorted."""
    family = cfg.hash_family()
    per_trial: list[list[np.ndarray]] = [[] for _ in range(cfg.trials)]
    for sid, name, seq in model.live():
        pairs = subject_sketch_pairs(
            SequenceSet.from_strings([(name, seq)]),
            cfg.k, cfg.w, cfg.ell, family, subject_id_offset=sid,
        )
        for t, arr in enumerate(pairs):
            per_trial[t].append(arr)
    return [
        np.sort(np.concatenate(chunks)) if chunks else np.empty(0, np.uint64)
        for chunks in per_trial
    ]


def assert_key_parity(handle: MutableSketchStore, model: Model) -> None:
    want = expected_trial_keys(model)
    for t in range(CONFIG.trials):
        assert np.array_equal(handle.trial_keys(t), want[t]), f"trial {t} diverged"
    assert handle.live_subject_names == model.live_names()


def assert_one_array_a_side(store) -> None:
    """Every trial's value (subject) column is a view of one shared array."""
    for side in (store.values, store.subjects):
        owner = side[0].base
        assert owner is not None and all(column.base is owner for column in side)
        assert all(np.shares_memory(column, owner) for column in side if column.size)


def assert_mapping_parity(handle: MutableSketchStore, model: Model, reads) -> None:
    """Map through the handle vs a monolithic rebuild; compare by name."""
    live = model.live()
    if not live:
        return
    adopted = JEMMapper(CONFIG)
    adopted.adopt_store(handle, handle.subject_names)
    got = adopted.map_reads(reads)
    rebuilt = JEMMapper(CONFIG)
    rebuilt.index(SequenceSet.from_strings([(n, s) for _, n, s in live]))
    want = rebuilt.map_reads(reads)
    got_names = [
        adopted.subject_names[s] if s >= 0 else None for s in got.subject
    ]
    want_names = [
        rebuilt.subject_names[s] if s >= 0 else None for s in want.subject
    ]
    assert got_names == want_names
    assert np.array_equal(got.hit_count, want.hit_count)


def seeded_handle(rng, count: int = 4):
    """An in-memory handle wrapping a statically built base index."""
    pairs = _contig_pairs(rng, count)
    base = SequenceSet.from_strings(pairs)
    mapper = JEMMapper(CONFIG)
    mapper.index(base)
    handle = MutableSketchStore.in_memory(
        CONFIG, base_store=mapper.table, subject_names=base.names
    )
    model = Model()
    model.add(pairs)
    return handle, model


def reads_over(model: Model, rng, extra: int = 2) -> SequenceSet:
    """Reads whose ends land on live contigs, plus unmappable noise."""
    pairs = [(f"r_{n}", s) for _, n, s in model.live()]
    pairs += [(f"noise{i}", _dna(rng, 700)) for i in range(extra)]
    return SequenceSet.from_strings(pairs)


class TestMutateEqualsRebuild:
    """Satellite 3: random schedules, bit-identical on both lookup paths."""

    @pytest.mark.parametrize("no_native", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_schedule_parity(self, seed, no_native, monkeypatch):
        if no_native:
            monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        rng = np.random.default_rng(seed)
        handle, model = seeded_handle(rng)
        next_id = 0
        for _ in range(10):
            op = rng.choice(["add", "remove", "flush", "compact"])
            if op == "add":
                pairs = _contig_pairs(rng, 1, prefix=f"x{seed}_{next_id}_")
                next_id += 1
                handle.add_contigs(SequenceSet.from_strings(pairs))
                model.add(pairs)
            elif op == "remove":
                live = model.live_names()
                if len(live) > 1:
                    victim = live[int(rng.integers(0, len(live)))]
                    handle.remove_contigs([victim])
                    model.remove(victim)
            elif op == "flush":
                handle.flush()
            else:
                handle.compact()
            assert_key_parity(handle, model)
        assert_mapping_parity(handle, model, reads_over(model, rng))

    def test_incremental_adds_equal_monolithic_index(self, rng):
        """Adding one contig at a time from empty ≡ indexing the whole set."""
        pairs = _contig_pairs(rng, 5)
        handle = MutableSketchStore.in_memory(CONFIG)
        for pair in pairs:
            handle.add_contigs(SequenceSet.from_strings([pair]))
        mapper = JEMMapper(CONFIG)
        mapper.index(SequenceSet.from_strings(pairs))
        for t in range(CONFIG.trials):
            assert np.array_equal(handle.trial_keys(t), mapper.table.trial_keys(t))
        assert handle.subject_names == [n for n, _ in pairs]

    def test_remove_then_compact_drops_entries(self, rng):
        handle, model = seeded_handle(rng)
        before = store_stats(handle)
        handle.remove_contigs(["c1"])
        model.remove("c1")
        mid = store_stats(handle)
        assert mid["tombstones"] == 1
        assert mid["live_subjects"] == before["live_subjects"] - 1
        assert_key_parity(handle, model)
        handle.compact()
        after = store_stats(handle)
        assert after["tombstones"] == 0
        assert after["segments"] == 1
        assert after["total_entries"] < before["total_entries"]
        # removal is permanent: folding the tombstones away at compaction
        # must not resurrect the subject in the liveness count
        assert after["live_subjects"] == before["live_subjects"] - 1
        assert handle.current.is_clean
        assert_key_parity(handle, model)

    def test_generations_are_immutable_snapshots(self, rng):
        """A captured generation keeps answering from its own state."""
        handle, model = seeded_handle(rng)
        old = handle.current
        old_keys = [old.trial_keys(t).copy() for t in range(CONFIG.trials)]
        handle.remove_contigs(["c0"])
        handle.add_contigs(
            SequenceSet.from_strings(_contig_pairs(rng, 1, prefix="late"))
        )
        handle.compact()
        assert handle.generation > old.generation
        for t in range(CONFIG.trials):
            assert np.array_equal(old.trial_keys(t), old_keys[t])
        assert isinstance(handle.current, IndexGeneration)

    def test_a_dirty_generation_is_folded_once(self, rng):
        """``as_columnar`` of a dirty generation is built at its first call
        and reused; a flush hands the fold to the generation it publishes
        (the live entries do not change), and compaction seals that fold."""
        handle, model = seeded_handle(rng)
        late = _contig_pairs(rng, 1, prefix="late")
        handle.add_contigs(SequenceSet.from_strings(late))
        model.add(late)
        handle.remove_contigs(["c0"])
        model.remove("c0")
        dirty = handle.current
        folded = dirty.as_columnar()
        assert folded is dirty.as_columnar()
        assert all(folded is not seg for seg in dirty.segments)
        flushed = handle.flush()
        assert not flushed.is_clean and flushed.as_columnar() is folded
        assert handle.compact().segments[0] is folded
        assert_key_parity(handle, model)

    def test_compact_of_an_empty_index_is_a_no_op(self):
        handle = MutableSketchStore.in_memory(JEMConfig())
        before = handle.current
        assert handle.compact() is before
        assert handle.generation == 0 and handle.flush() is before

    def test_duplicate_and_missing_names_rejected(self, rng):
        handle, _ = seeded_handle(rng)
        with pytest.raises(MappingError, match="already in the index"):
            handle.add_contigs(
                SequenceSet.from_strings([("c0", _dna(rng, 900))])
            )
        with pytest.raises(MappingError, match="not in the index"):
            handle.remove_contigs(["ghost"])

    def test_removed_name_is_reusable_with_fresh_id(self, rng):
        handle, model = seeded_handle(rng)
        handle.remove_contigs(["c2"])
        model.remove("c2")
        replacement = [("c2", _dna(rng, 900))]
        handle.add_contigs(SequenceSet.from_strings(replacement))
        model.add(replacement)
        assert handle.subject_names.count("c2") == 2  # old id stays allocated
        assert_key_parity(handle, model)


class TestStoreStats:
    def test_plain_store_reports_single_segment(self, rng):
        mapper = JEMMapper(CONFIG)
        mapper.index(SequenceSet.from_strings(_contig_pairs(rng, 3)))
        stats = store_stats(mapper.table)
        assert stats["generation"] == 0
        assert stats["segments"] == 1
        assert stats["memtable_entries"] == 0
        assert stats["total_entries"] == mapper.table.total_entries

    def test_mutable_store_reports_shape(self, rng):
        handle, _ = seeded_handle(rng)
        handle.add_contigs(
            SequenceSet.from_strings(_contig_pairs(rng, 1, prefix="m"))
        )
        stats = store_stats(handle)
        assert stats["generation"] == 1
        assert stats["memtable_entries"] > 0
        assert isinstance(handle.current.memtable, ColumnarSketchStore)
        assert stats["nbytes"]["total"] >= stats["nbytes"]["segments"]


class TestDictStoreOrder:
    def test_unsorted_subject_run_rejected(self):
        """Lookups honour the sorted-subject merge contract.

        The LSM merge (concat + lexsort) and the columnar layout both
        assume every value's run comes back subject-ascending; the
        memtable store enforces it by refusing keys that are not sorted
        by (value, subject), so an unsorted run is unrepresentable.
        """
        keys = [
            np.array([(5 << 32) | 9, (5 << 32) | 2, (7 << 32) | 4], dtype=np.uint64)
        ]
        with pytest.raises(SketchError):
            DictSketchStore(keys, 10)
        store = DictSketchStore([np.sort(keys[0])], 10)
        hits = store.lookup_trial(0, np.array([5, 7], dtype=np.uint64))
        assert np.array_equal(hits.query_index, [0, 0, 1])
        assert np.array_equal(hits.subjects, [2, 9, 4])


class TestDurability:
    def seeded_durable(self, rng, tmp_path):
        pairs = _contig_pairs(rng, 4)
        base = SequenceSet.from_strings(pairs)
        mapper = JEMMapper(CONFIG)
        mapper.index(base)
        run_dir = str(tmp_path / "idx")
        handle = MutableSketchStore.create(
            run_dir, CONFIG, base_store=mapper.table, subject_names=base.names
        )
        model = Model()
        model.add(pairs)
        return run_dir, handle, model

    def test_reopen_after_flush_and_compact(self, rng, tmp_path):
        run_dir, handle, model = self.seeded_durable(rng, tmp_path)
        extra = _contig_pairs(rng, 2, prefix="d")
        with handle:
            handle.add_contigs(SequenceSet.from_strings(extra))
            model.add(extra)
            handle.remove_contigs(["c1"])
            model.remove("c1")
            handle.flush()
            handle.compact()
            generation = handle.generation
        with MutableSketchStore.open(run_dir) as reopened:
            assert reopened.generation == generation
            assert reopened.current.is_clean
            assert_key_parity(reopened, model)
            # the segment file was read into one array a side, held once
            assert_one_array_a_side(reopened.current.segments[0])

    def test_compact_of_an_empty_directory_writes_nothing(self, tmp_path):
        """No segment file, no WAL record, no generation bump — as an empty flush."""
        run_dir = str(tmp_path / "empty")
        with MutableSketchStore.create(run_dir, CONFIG) as handle:
            before = handle.current
            assert handle.compact() is before
        assert os.listdir(os.path.join(run_dir, "segments")) == []
        with open(os.path.join(run_dir, MANIFEST_NAME)) as fh:
            manifest = json.load(fh)
        assert manifest["generation"] == 0 and manifest["segments"] == []
        assert CheckpointLog(os.path.join(run_dir, WAL_NAME)).replay() == []
        with MutableSketchStore.open(run_dir) as reopened:
            assert reopened.generation == 0

    @pytest.mark.parametrize("damage", ["bitflip", "missing"])
    def test_damaged_manifest_segment_is_refused_typed(self, rng, tmp_path, damage):
        run_dir, handle, _ = self.seeded_durable(rng, tmp_path)
        handle.close()
        with open(os.path.join(run_dir, MANIFEST_NAME)) as fh:
            seg_path = os.path.join(run_dir, json.load(fh)["segments"][0]["file"])
        if damage == "missing":
            os.unlink(seg_path)
        else:
            with open(seg_path, "r+b") as fh:
                fh.seek(os.path.getsize(seg_path) // 2)
                byte = fh.read(1)
                fh.seek(-1, os.SEEK_CUR)
                fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(IndexCorruptError, match="missing or fails its CRC"):
            MutableSketchStore.open(run_dir)

    def test_reopen_replays_wal_suffix_without_flush(self, rng, tmp_path):
        """Adds and removes that never flushed must survive via the WAL."""
        run_dir, handle, model = self.seeded_durable(rng, tmp_path)
        extra = _contig_pairs(rng, 2, prefix="w")
        with handle:
            handle.add_contigs(SequenceSet.from_strings(extra))
            model.add(extra)
            handle.remove_contigs(["c0"])
            model.remove("c0")
        with MutableSketchStore.open(run_dir) as reopened:
            assert_key_parity(reopened, model)
            assert_mapping_parity(reopened, model, reads_over(model, rng))

    def test_load_index_dispatches_to_mutable_directory(self, rng, tmp_path):
        run_dir, handle, model = self.seeded_durable(rng, tmp_path)
        with handle:
            handle.compact()
        mapper = load_index(run_dir)
        want = expected_trial_keys(model)
        for t in range(CONFIG.trials):
            assert np.array_equal(mapper.table.trial_keys(t), want[t])


    def test_segments_are_stored_and_deflated_ones_still_reopen(self, rng, tmp_path):
        """Segment files are written stored; a directory whose segments an
        earlier commit deflated (same members, per-segment CRC over the file
        bytes) opens to the same index and takes a stored segment next to them."""
        run_dir, handle, model = self.seeded_durable(rng, tmp_path)
        extra = _contig_pairs(rng, 2, prefix="d")
        with handle:
            handle.add_contigs(SequenceSet.from_strings(extra))
            model.add(extra)
            handle.flush()
        manifest_path = os.path.join(run_dir, MANIFEST_NAME)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert len(manifest["segments"]) == 2
        for meta in manifest["segments"]:
            seg_path = os.path.join(run_dir, meta["file"])
            with zipfile.ZipFile(seg_path) as zf:
                assert {m.compress_type for m in zf.infolist()} == {zipfile.ZIP_STORED}
            # rewrite it the way np.savez_compressed did before
            with np.load(seg_path) as data:
                members = {key: data[key] for key in data.files}
            np.savez_compressed(seg_path, **members)
            with open(seg_path, "rb") as fh:
                meta["crc32"] = zlib.crc32(fh.read()) & 0xFFFFFFFF
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        more = _contig_pairs(rng, 1, prefix="e")
        with MutableSketchStore.open(run_dir) as reopened:
            assert_key_parity(reopened, model)
            reopened.add_contigs(SequenceSet.from_strings(more))
            model.add(more)
            reopened.flush()
        with MutableSketchStore.open(run_dir) as again:
            assert store_stats(again)["segments"] == 3
            assert_key_parity(again, model)


class TestBundleMigration:
    def test_v3_bundle_loads_as_generation_zero(self, rng, tmp_path):
        pairs = _contig_pairs(rng, 4)
        mapper = JEMMapper(CONFIG)
        mapper.index(SequenceSet.from_strings(pairs))
        bundle = str(tmp_path / "bundle.npz")
        save_index(mapper, bundle)
        handle = MutableSketchStore.from_bundle(bundle)
        assert handle.generation == 0
        assert handle.subject_names == mapper.subject_names
        for t in range(CONFIG.trials):
            assert np.array_equal(
                handle.trial_keys(t), mapper.table.trial_keys(t)
            )
        assert handle.current.is_clean

    def test_v3_bundle_migrates_to_durable_v4(self, rng, tmp_path):
        pairs = _contig_pairs(rng, 4)
        mapper = JEMMapper(CONFIG)
        mapper.index(SequenceSet.from_strings(pairs))
        bundle = str(tmp_path / "bundle.npz")
        save_index(mapper, bundle)
        run_dir = str(tmp_path / "migrated")
        model = Model()
        model.add(pairs)
        extra = _contig_pairs(rng, 1, prefix="post")
        with MutableSketchStore.from_bundle(bundle, run_dir=run_dir) as handle:
            handle.add_contigs(SequenceSet.from_strings(extra))
            model.add(extra)
        with MutableSketchStore.open(run_dir) as reopened:
            assert_key_parity(reopened, model)


#: Deterministic mutation schedule the chaos child walks; every step is
#: guarded so a replayed prefix is recognised and skipped — running the
#: script twice (kill, then clean) must land on the same final state.
CHAOS_CHILD = textwrap.dedent(
    """
    import json, os, sys
    sys.path.insert(0, sys.argv[3])
    from repro import JEMConfig, JEMMapper
    from repro.core.lsm import MANIFEST_NAME, MutableSketchStore
    from repro.seq.records import SequenceSet

    run_dir, payload_path = sys.argv[1], sys.argv[2]
    payload = json.load(open(payload_path))
    cfg = JEMConfig(**payload["config"])
    if os.path.exists(os.path.join(run_dir, MANIFEST_NAME)):
        handle = MutableSketchStore.open(run_dir)
    else:
        base = SequenceSet.from_strings([tuple(p) for p in payload["base"]])
        mapper = JEMMapper(cfg)
        mapper.index(base)
        handle = MutableSketchStore.create(
            run_dir, cfg, base_store=mapper.table, subject_names=base.names
        )
    with handle:
        for name, seq in payload["extra"]:
            if name not in handle.subject_names:
                handle.add_contigs(SequenceSet.from_strings([(name, seq)]))
        for name in payload["remove"]:
            if handle.is_live(name):
                handle.remove_contigs([name])
        handle.flush()
        if not handle.current.is_clean:
            handle.compact()
    print("DONE", handle.generation)
    """
)


class TestChaosRecovery:
    """SIGKILL at a seeded WAL-record boundary; reopen replays; rerun completes."""

    def run_child(self, script, run_dir, payload, env_overlay):
        env = {**os.environ, **env_overlay}
        env["PYTHONPATH"] = os.path.abspath(SRC)
        return subprocess.run(
            [sys.executable, script, run_dir, payload, os.path.abspath(SRC)],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def chaos_case(self, rng, tmp_path, prefix, remove):
        """Files for one CHAOS_CHILD run and the model it must converge on."""
        base = _contig_pairs(rng, 3)
        extra = _contig_pairs(rng, 2, prefix=prefix)
        model = Model()
        model.add(base)
        model.add(extra)
        model.remove(remove)
        payload = {
            "config": {"k": CONFIG.k, "w": CONFIG.w, "ell": CONFIG.ell,
                       "trials": CONFIG.trials, "seed": CONFIG.seed},
            "base": base, "extra": extra, "remove": [remove],
        }
        payload_path = str(tmp_path / "payload.json")
        with open(payload_path, "w") as fh:
            json.dump(payload, fh)
        script = str(tmp_path / "chaos_child.py")
        with open(script, "w") as fh:
            fh.write(CHAOS_CHILD)
        return script, str(tmp_path / "idx"), payload_path, model

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_kill_resume_converges(self, seed, rng, tmp_path):
        script, run_dir, payload_path, model = self.chaos_case(rng, tmp_path, "k", "c1")

        # the schedule appends 5 WAL records: 2 adds, 1 remove, flush, compact
        plan = ChaosPlan.seeded(seed, total_units=5)
        first = self.run_child(script, run_dir, payload_path, plan.env())
        assert first.returncode == -signal.SIGKILL, first.stderr

        second = self.run_child(script, run_dir, payload_path, {})
        assert second.returncode == 0, second.stderr
        assert second.stdout.startswith("DONE")

        with MutableSketchStore.open(run_dir) as recovered:
            assert recovered.current.is_clean
            assert_key_parity(recovered, model)
            assert_mapping_parity(recovered, model, reads_over(model, rng))

    @pytest.mark.parametrize("kill_after", [1, 2, 3, 4, 5])
    def test_kill_at_every_record_reopens_to_one_state(self, kill_after, rng, tmp_path):
        """SIGKILL right after each WAL record in turn — the flush and the
        compact included, whose stored segment file is on disk by then:
        whatever survived opens, opens again to the same keys, and the rerun
        converges on the model."""
        script, run_dir, payload_path, model = self.chaos_case(rng, tmp_path, "k", "c1")

        overlay = {"REPRO_CHAOS_KILL_AFTER": str(kill_after)}
        first = self.run_child(script, run_dir, payload_path, overlay)
        assert first.returncode == -signal.SIGKILL, first.stderr

        def survived():
            with MutableSketchStore.open(run_dir) as handle:
                keys = [handle.trial_keys(t) for t in range(CONFIG.trials)]
                return handle.generation, handle.subject_names, keys

        generation, names, keys = survived()
        again = survived()
        assert again[:2] == (generation, names)
        assert all(np.array_equal(a, b) for a, b in zip(again[2], keys))

        second = self.run_child(script, run_dir, payload_path, {})
        assert second.returncode == 0, second.stderr
        with MutableSketchStore.open(run_dir) as recovered:
            assert recovered.current.is_clean
            assert_key_parity(recovered, model)

    def test_torn_tail_is_discarded_on_replay(self, rng, tmp_path):
        """Explicit torn-write kill: the half-frame must not poison replay."""
        script, run_dir, payload_path, model = self.chaos_case(rng, tmp_path, "t", "c0")

        overlay = {"REPRO_CHAOS_KILL_AFTER": "2:torn"}
        first = self.run_child(script, run_dir, payload_path, overlay)
        assert first.returncode == -signal.SIGKILL, first.stderr

        second = self.run_child(script, run_dir, payload_path, {})
        assert second.returncode == 0, second.stderr

        with MutableSketchStore.open(run_dir) as recovered:
            assert_key_parity(recovered, model)


class DurableLSMMachine(RuleBasedStateMachine):
    """add / remove / flush / compact / reopen in any order on a durable handle.

    After every step the current generation is held to a
    :class:`DictSketchStore` rebuilt from the surviving contigs' keys: its
    lookups match, its fold equals ``from_trial_keys`` of the merged keys
    bit for bit, and a fold of a dirty generation is born flat.
    """

    def __init__(self) -> None:
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="lsm-machine-")
        self.run_dir = os.path.join(self.tmp, "idx")
        self.handle: MutableSketchStore | None = None
        self.model = Model()
        self.added = 0

    def teardown(self) -> None:
        if self.handle is not None:
            self.handle.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _pairs(self, count: int, seed: int):
        rng = np.random.default_rng(seed)
        pairs = [(f"m{self.added + i}", _dna(rng, 600)) for i in range(count)]
        self.added += count
        return pairs

    @initialize(base=st.integers(min_value=0, max_value=3), seed=st.integers(0, 2**32 - 1))
    def create(self, base, seed):
        if not base:
            self.handle = MutableSketchStore.create(self.run_dir, CONFIG)
            return
        pairs = self._pairs(base, seed)
        contigs = SequenceSet.from_strings(pairs)
        mapper = JEMMapper(CONFIG)
        mapper.index(contigs)
        self.handle = MutableSketchStore.create(
            self.run_dir, CONFIG, base_store=mapper.table, subject_names=contigs.names
        )
        self.model.add(pairs)

    @rule(count=st.integers(min_value=1, max_value=2), seed=st.integers(0, 2**32 - 1))
    def add(self, count, seed):
        pairs = self._pairs(count, seed)
        self.handle.add_contigs(SequenceSet.from_strings(pairs))
        self.model.add(pairs)

    @rule(data=st.data())
    def remove(self, data):
        live = self.model.live_names()
        if live:
            victim = data.draw(st.sampled_from(live))
            self.handle.remove_contigs([victim])
            self.model.remove(victim)

    @rule()
    def flush(self):
        before = self.handle.current
        after = self.handle.flush()
        assert after.memtable is None
        assert len(after.segments) == len(before.segments) + (before.memtable is not None)
        if before.trials and not after.is_clean:  # the fold moves with the entries
            assert after.as_columnar() is before.as_columnar()

    @rule()
    def compact(self):
        before = self.handle.current
        after = self.handle.compact()
        if before.trials:
            assert after.is_clean and after.generation == before.generation + 1
            # the invariant folded ``before`` after the last step: reused, not rebuilt
            assert after.segments[0] is before.as_columnar()
        else:  # nothing to fold: as an empty flush, no new generation
            assert after is before

    @rule()
    def reopen(self):
        generation = self.handle.generation
        self.handle.close()
        self.handle = MutableSketchStore.open(self.run_dir)
        assert self.handle.generation == generation

    @invariant()
    def matches_the_rebuild(self):
        if self.handle is None:
            return
        current = self.handle.current
        keys = expected_trial_keys(self.model)
        n_subjects = len(self.model.contigs)
        assert current.n_subjects == n_subjects
        assert self.handle.live_subject_names == self.model.live_names()
        assert current.memtable is None or isinstance(current.memtable, ColumnarSketchStore)
        oracle = DictSketchStore(keys, n_subjects)
        for t in range(CONFIG.trials):
            # every stored value, plus values no contig carries
            queries = np.concatenate(
                [oracle.values_of_trial(t), np.array([0, 1 << 31], dtype=np.uint64)]
            )
            got, want = current.lookup_trial(t, queries), oracle.lookup_trial(t, queries)
            assert np.array_equal(got.query_index, want.query_index)
            assert np.array_equal(got.subjects, want.subjects)
        if current.trials == 0:  # nothing was ever stored: there is nothing to fold
            return
        before = None if current.is_clean else list(current.segments)
        folded = current.as_columnar()
        rebuilt = ColumnarSketchStore.from_trial_keys(keys, n_subjects)
        assert folded.n_subjects == rebuilt.n_subjects
        for t in range(CONFIG.trials):
            assert np.array_equal(folded.values[t], rebuilt.values[t])
            assert np.array_equal(folded.subjects[t], rebuilt.subjects[t])
        if before is not None:  # a real fold: written once, one array a side
            assert all(folded is not seg for seg in before)
            assert_one_array_a_side(folded)


TestDurableLSMMachine = DurableLSMMachine.TestCase
TestDurableLSMMachine.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
