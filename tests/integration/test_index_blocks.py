"""Blocks == whole: the index build sketches contigs one bounded block at a time
(the paper's S1–S3 in sequence) and must write what a whole-set build writes —
member for member, name for name — wherever the blocks are cut."""

from __future__ import annotations

import gzip
import os
import shutil
import weakref

import numpy as np
import pytest

from repro.cli import main
from repro.core import JEMConfig, JEMMapper, load_index, save_index, streaming
from repro.core.engine import MappingEngine, PipelineConfig
from repro.core.streaming import iter_batches, iter_records
from repro.errors import MappingError
from repro.seq import SequenceSet, decode, random_codes, read_fasta, write_fasta

CFG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)
CONFIG_ARGV = ["--k", "12", "--w", "20", "--ell", "500", "--trials", "6", "--seed", "99"]

#: a budget that cuts the file below in the middle, right between the two
#: contigs that sketch to nothing
MID_CUT = 6_000
BUDGETS = pytest.mark.parametrize("budget", [1, MID_CUT, None], ids=["one-each", "mid-cut", "default"])
NATIVE = pytest.mark.parametrize("no_native", [False, True], ids=["native", "numpy"])


@pytest.fixture(scope="module")
def contigs_path(tmp_path_factory):
    """Twelve contigs: one shorter than k closing the first MID_CUT block, an
    all-``n`` one opening the second, another of each last in the file, and
    one contig longer than the budget (a block alone)."""
    rng = np.random.default_rng(18)
    plan = [
        ("c0", 3_000), ("c1", 2_990), ("tiny", 5), ("all_n", 40), ("c2", 2_500),
        ("long", 20_000), ("c3", 1_800), ("c4", 2_200), ("c5", 900),
        ("c6", 3_100), ("all_n2", 700), ("tiny2", 11),
    ]
    pairs = [
        (name, "n" * size if name.startswith("all_n") else decode(random_codes(size, rng)))
        for name, size in plan
    ]
    path = tmp_path_factory.mktemp("blocks") / "contigs.fasta"
    write_fasta(str(path), SequenceSet.from_strings(pairs))
    return str(path)


def _members(path: str) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def _assert_same_bundle(got: str, want: str) -> None:
    a, b = _members(got), _members(want)
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].dtype == b[name].dtype and np.array_equal(a[name], b[name]), name


def _whole_bundle(contigs_path: str, out: str) -> str:
    mapper = JEMMapper(CFG)
    mapper.index(read_fasta(contigs_path))
    return save_index(mapper, out)


def test_the_mid_cut_falls_between_the_contigs_that_sketch_to_nothing(contigs_path):
    blocks = list(iter_batches(iter_records(contigs_path), MID_CUT))
    assert [b.names for b in blocks[:3]] == [["c0", "c1", "tiny"], ["all_n", "c2"], ["long"]]
    assert sum(len(b) for b in blocks) == 12
    assert [len(b) for b in iter_batches(iter_records(contigs_path), 1)] == [1] * 12
    assert [len(b) for b in iter_batches(iter_records(contigs_path))] == [12]


@NATIVE
@BUDGETS
def test_index_partitioned_over_blocks_equals_whole_set_index(
    contigs_path, budget, no_native, monkeypatch
):
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    whole = JEMMapper(CFG)
    whole.index(read_fasta(contigs_path))
    blocked = JEMMapper(CFG)
    blocked.index_partitioned(iter_batches(iter_records(contigs_path), budget))
    assert blocked.subject_names == whole.subject_names
    assert blocked.table.n_subjects == whole.table.n_subjects == 12
    for t in range(CFG.trials):
        assert np.array_equal(blocked.table.trial_keys(t), whole.table.trial_keys(t))


@NATIVE
@BUDGETS
def test_jem_index_bundle_equals_whole_set_bundle(
    contigs_path, budget, no_native, monkeypatch, tmp_path
):
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    want = _whole_bundle(contigs_path, str(tmp_path / "whole.npz"))
    if budget is not None:
        monkeypatch.setattr(streaming, "BATCH_BASES", budget)
    got = str(tmp_path / "blocks.npz")
    assert main(["index", "-s", contigs_path, "-o", got, *CONFIG_ARGV]) == 0
    _assert_same_bundle(got, want)
    assert load_index(got).subject_names == load_index(want).subject_names


def test_jem_index_reads_gzip_in_blocks(contigs_path, monkeypatch, tmp_path):
    zipped = str(tmp_path / "contigs.fasta.gz")
    with open(contigs_path, "rb") as src, gzip.open(zipped, "wb") as dst:
        shutil.copyfileobj(src, dst)
    want = _whole_bundle(contigs_path, str(tmp_path / "whole.npz"))
    monkeypatch.setattr(streaming, "BATCH_BASES", MID_CUT)
    got = str(tmp_path / "gz.npz")
    assert main(["index", "-s", zipped, "-o", got, *CONFIG_ARGV]) == 0
    _assert_same_bundle(got, want)


@BUDGETS
def test_mutable_directory_built_in_blocks_equals_whole_set_seed(
    contigs_path, budget, monkeypatch, tmp_path
):
    """`jem index --mutable -s`: the seed segment and the manifest's names and
    entry count are those of a whole-set build."""
    import json

    from repro.core.lsm import MutableSketchStore

    whole = JEMMapper(CFG)
    whole.index(read_fasta(contigs_path))
    with MutableSketchStore.create(
        str(tmp_path / "whole.lsm"), CFG,
        base_store=whole.table, subject_names=whole.subject_names,
    ):
        pass
    if budget is not None:
        monkeypatch.setattr(streaming, "BATCH_BASES", budget)
    got = tmp_path / "blocks.lsm"
    assert main(["index", "--mutable", "-s", contigs_path, "-o", str(got), *CONFIG_ARGV]) == 0
    _assert_same_bundle(
        str(got / "segments" / "seg_000000.npz"),
        str(tmp_path / "whole.lsm" / "segments" / "seg_000000.npz"),
    )
    manifests = [
        json.loads((d / "manifest.json").read_text()) for d in (got, tmp_path / "whole.lsm")
    ]
    for manifest in manifests:  # the container's zip timestamps enter the file CRC
        for segment in manifest["segments"]:
            del segment["crc32"]
    assert manifests[0] == manifests[1]


def test_a_checkpointed_build_writes_the_plain_bundle(contigs_path, tmp_path):
    """A `--checkpoint-dir` build commits smaller blocks than a plain one (at
    least `MIN_UNITS` for the file's size) and writes the same bundle; the
    same command run again, which loads every block, writes it again."""
    plain = str(tmp_path / "plain.npz")
    assert main(["index", "-s", contigs_path, "-o", plain, *CONFIG_ARGV]) == 0
    run_dir = str(tmp_path / "run")
    checkpointed = str(tmp_path / "checkpointed.npz")
    argv = ["index", "-s", contigs_path, "-o", checkpointed,
            "--checkpoint-dir", run_dir, *CONFIG_ARGV]
    assert main(argv) == 0
    assert len(list((tmp_path / "run" / "units").iterdir())) >= 2
    _assert_same_bundle(checkpointed, plain)
    os.unlink(checkpointed)
    assert main(argv) == 0
    _assert_same_bundle(checkpointed, plain)


def test_no_partitions_and_empty_contig_sets_are_typed_errors(tmp_path, capsys):
    mapper = JEMMapper(CFG)
    with pytest.raises(MappingError, match="empty contig set"):
        mapper.index_partitioned(iter([]))
    with pytest.raises(MappingError, match="empty contig set"):
        mapper.index_partitioned(iter([SequenceSet.empty(), SequenceSet.empty()]))
    with pytest.raises(MappingError, match="empty contig set"):
        mapper.index(SequenceSet.empty())
    assert not mapper.is_indexed
    empty = tmp_path / "empty.fasta"
    empty.write_text("")
    assert main(["index", "-s", str(empty), "-o", str(tmp_path / "idx.npz"), *CONFIG_ARGV]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "empty contig set" in err
    assert not (tmp_path / "idx.npz").exists()


@pytest.mark.parametrize("checkpointed", [False, True], ids=["plain", "checkpointed"])
def test_index_build_frees_each_blocks_codes_before_its_s2(
    contigs_path, tmp_path, monkeypatch, checkpointed
):
    """S2 reads only a block's minimizer intervals: when its kernel runs,
    nothing — the reader generator, the build loop, the sketch thunk a
    checkpoint is handed — keeps the block's codes alive."""
    from repro.core import mapper as mapper_mod

    buffers, kernel_calls = [], []
    real_cut, real_kernel = streaming._cut_blocks, mapper_mod.subject_kernel

    def track(batch: SequenceSet) -> SequenceSet:
        buffers.append(weakref.ref(batch.buffer))
        return batch

    def kernel(*args, **kwargs):
        assert buffers[-1]() is None, f"block {len(buffers) - 1}'s codes are alive in S2"
        kernel_calls.append(len(buffers))
        return real_kernel(*args, **kwargs)

    monkeypatch.setattr(streaming, "BATCH_BASES", MID_CUT)
    monkeypatch.setattr(streaming, "_cut_blocks", lambda blocks, size: map(track, real_cut(blocks, size)))
    monkeypatch.setattr(mapper_mod, "subject_kernel", kernel)
    argv = ["index", "-s", contigs_path, "-o", str(tmp_path / "idx.npz"), *CONFIG_ARGV]
    if checkpointed:
        argv += ["--checkpoint-dir", str(tmp_path / "run")]
    assert main(argv) == 0
    assert len(buffers) >= 4 and kernel_calls == list(range(1, len(buffers) + 1))


def test_engine_builds_from_the_file_without_holding_the_contig_set(
    contigs_path, monkeypatch, tmp_path
):
    """`load_subjects(path)` only remembers the path: the jem path — the build,
    then a whole `map_file`, on any thread count — never reads the contig set
    into memory."""
    rng = np.random.default_rng(5)
    contigs = read_fasta(contigs_path)
    reads = SequenceSet.from_strings(
        [(f"r{i}", decode(contigs.codes_of(5)[s : s + 1_500]))
         for i, s in enumerate(rng.integers(0, 18_000, size=8).tolist())]
    )
    reads_path = str(tmp_path / "reads.fasta")
    write_fasta(reads_path, reads)
    monkeypatch.setattr(streaming, "BATCH_BASES", MID_CUT)

    engine = MappingEngine(PipelineConfig(jem=CFG)).load_subjects(contigs_path)
    assert engine._subjects is None
    mapper = engine.mapper
    assert engine._subjects is None
    results = list(engine.map_file(reads_path))
    assert engine._subjects is None
    assert engine.subject_names == contigs.names

    whole = MappingEngine(PipelineConfig(jem=CFG)).use_subjects(contigs)
    want = whole.mapper.map_reads(reads)
    assert np.array_equal(np.concatenate([r.subject for r in results]), want.subject)
    assert int((want.subject == 5).sum()) == len(want)  # every end maps to `long`
    for t in range(CFG.trials):
        assert np.array_equal(mapper.table.trial_keys(t), whole.mapper.table.trial_keys(t))

    # the callers that need sequences read the file on first touch
    assert engine.subjects.names == contigs.names
    assert np.array_equal(engine.subjects.buffer, contigs.buffer)
    threaded = MappingEngine(PipelineConfig(jem=CFG, processes=2)).load_subjects(contigs_path)
    results = list(threaded.map_file(reads_path))  # -p 2 is two kernel threads, same loop
    assert threaded._subjects is None
    assert np.array_equal(np.concatenate([r.subject for r in results]), want.subject)
    other = MappingEngine(PipelineConfig(jem=CFG, mapper="minhash")).load_subjects(contigs_path)
    assert other.mapper.subject_names == contigs.names
    with pytest.raises(MappingError, match="no contig sequences"):
        MappingEngine(PipelineConfig(jem=CFG)).mapper
