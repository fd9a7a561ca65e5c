"""The index and the mapping are the same at every thread count.

``JEMMapper(threads=...)`` and ``REPRO_NATIVE_THREADS`` choose how many
threads each block's S1 and S2 are split over, and into how many ranges of
segments — S1 then S4 each, one per thread — a read batch is cut; the
per-trial keys of an index built over 1, 2 and 5 blocks, the arrays
``map_file`` returns and the TSV body ``jem map`` writes must equal the
one-thread run's and the oracles'.  With one thread — a one-CPU affinity
mask — no helper thread is ever created.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.core import JEMConfig, JEMMapper
from repro.core.streaming import iter_batches, map_file
from repro.seq import SequenceSet, decode, random_codes, write_fasta
from repro.sketch import _native

CFG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)
THREADS = [1, 2, 3, 7]


@pytest.fixture(autouse=True)
def tiny_shares(monkeypatch):
    """Inputs of a few kilobases are cut as tier L's megabases are."""
    monkeypatch.setattr(_native, "MIN_THREAD_BASES", 1)
    monkeypatch.setattr(_native, "MIN_THREAD_ENTRIES", 1)
    monkeypatch.setattr(_native, "MIN_THREAD_MAP_BASES", 1)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Contigs tiling a 30-kb genome (one shorter than k, one all-``n``, one
    empty), and reads from it whose last batch is empty-handed: all ``n``."""
    rng = np.random.default_rng(7)
    genome = random_codes(30_000, rng)
    pairs = [(f"c{i}", decode(genome[lo : lo + 2_600])) for i, lo in enumerate(range(0, 30_000, 2_500))]
    pairs[3:3] = [("tiny", "acgta"), ("all_n", "n" * 900), ("empty", "")]
    contigs = SequenceSet.from_strings(pairs)
    reads = [
        (f"r{i}", decode(genome[lo : lo + 4_000]))
        for i, lo in enumerate(rng.integers(0, 26_000, size=14).tolist())
    ]
    reads += [("n0", "n" * 3_000), ("n1", "n" * 2_000)]
    path = tmp_path_factory.mktemp("threads") / "reads.fasta"
    write_fasta(str(path), SequenceSet.from_strings(reads))
    return contigs, str(path)


def blocks_of(contigs: SequenceSet, n_blocks: int) -> list[SequenceSet]:
    budget = -(-contigs.total_bases // n_blocks)
    blocks = list(iter_batches(iter(contigs), budget))
    assert len(blocks) >= n_blocks
    return blocks


def trial_keys(mapper: JEMMapper) -> list[np.ndarray]:
    return [mapper.table.trial_keys(t) for t in range(CFG.trials)]


def mapped(mapper: JEMMapper, path: str):
    results = list(map_file(mapper, path, ell=CFG.ell, batch_bases=9_000))
    assert len(results) >= 5 and results[-1].n_mapped == 0  # the all-n batch came last
    return (
        [name for r in results for name in r.segment_names],
        np.concatenate([r.subject for r in results]),
        np.concatenate([r.hit_count for r in results]),
    )


@pytest.mark.parametrize("n_blocks", [1, 2, 5])
def test_index_partitioned_is_the_same_at_every_thread_count(world, monkeypatch, n_blocks):
    contigs, _ = world
    blocks = blocks_of(contigs, n_blocks)
    one = JEMMapper(CFG, threads=1)
    one.index_partitioned(blocks)
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    oracle = JEMMapper(CFG)
    oracle.index(contigs)
    monkeypatch.delenv("REPRO_NO_NATIVE")
    want = trial_keys(oracle)
    for got, expect in zip(trial_keys(one), want):
        assert np.array_equal(got, expect)
    for threads in THREADS:
        by_argument = JEMMapper(CFG, threads=threads)
        by_argument.index_partitioned(blocks)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
        by_environment = JEMMapper(CFG)
        by_environment.index_partitioned(iter(blocks))
        monkeypatch.delenv("REPRO_NATIVE_THREADS")
        for mapper in (by_argument, by_environment):
            assert mapper.subject_names == contigs.names
            for got, expect in zip(trial_keys(mapper), want):
                assert got.dtype == expect.dtype and np.array_equal(got, expect)


def test_map_file_is_the_same_at_every_thread_count(world, monkeypatch):
    contigs, reads_path = world
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    oracle = JEMMapper(CFG)
    oracle.index(contigs)
    want = mapped(oracle, reads_path)
    monkeypatch.delenv("REPRO_NO_NATIVE")
    assert (want[1] >= 0).sum() >= 20
    for threads in THREADS:
        mapper = JEMMapper(CFG, threads=threads)
        mapper.index(contigs)
        got = mapped(mapper, reads_path)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
        from_environment = JEMMapper(CFG)
        from_environment.adopt_store(mapper.table, mapper.subject_names)
        also = mapped(from_environment, reads_path)
        monkeypatch.delenv("REPRO_NATIVE_THREADS")
        for names, subject, hits in (got, also):
            assert names == want[0]
            assert np.array_equal(subject, want[1]) and np.array_equal(hits, want[2])


def test_a_read_batch_is_cut_into_one_s1_then_s4_range_per_thread(world, monkeypatch):
    """The parity above is of a split that happened: every batch of the file
    goes to ``thread_map`` as ``threads`` ranges — fewer when it has fewer
    segments, one when the store cannot map fused — on one open context."""
    contigs, reads_path = world
    calls = []
    real = _native.thread_map

    def spy(fn, items, threads):
        if getattr(fn, "__name__", "") == "map_range":
            calls.append((len(items), threads))
        return real(fn, items, threads)

    monkeypatch.setattr(_native, "thread_map", spy)
    mapper = JEMMapper(CFG, threads=3)
    mapper.index(contigs)
    results = list(map_file(mapper, reads_path, ell=CFG.ell, batch_bases=9_000))
    if _native.load() is None:
        assert set(calls) == {(1, 1)}
        return
    assert calls == [(min(3, len(r)), 3) for r in results] and (3, 3) in calls
    assert mapper.table._ctx is not None
    calls.clear()
    oracle_store = JEMMapper(CFG, threads=3, store_kind="dict")
    oracle_store.index(contigs)
    again = list(map_file(oracle_store, reads_path, ell=CFG.ell, batch_bases=9_000))
    assert set(calls) == {(1, 1)}  # no fused entry point: nothing to hand a thread
    for got, want in zip(again, results):
        assert np.array_equal(got.subject, want.subject)
        assert np.array_equal(got.hit_count, want.hit_count)


def test_jem_map_writes_the_same_tsv_body_at_every_thread_count(world, tmp_path, monkeypatch):
    from repro.cli import main

    contigs, reads_path = world
    contigs_path, index_path = tmp_path / "contigs.fasta", tmp_path / "i.npz"
    write_fasta(str(contigs_path), contigs)
    flags = ["--k", "12", "--w", "20", "--ell", "500", "--trials", "6"]
    assert main(["index", "-s", str(contigs_path), "-o", str(index_path), *flags]) == 0

    def body(label: str) -> list[str]:
        out = tmp_path / f"{label}.tsv"
        assert main(["map", "-q", reads_path, "--index", str(index_path), "-o", str(out)]) == 0
        return [line for line in out.read_text().splitlines() if not line.startswith("#")]

    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    want = body("numpy")
    monkeypatch.delenv("REPRO_NO_NATIVE")
    assert len(want) == 1 + 32 and sum("\tc" in line for line in want) >= 20  # header + rows
    for threads in THREADS:
        monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
        assert body(f"t{threads}") == want


def test_one_thread_creates_no_thread(world, monkeypatch):
    """At one thread every path is the inline one."""
    contigs, reads_path = world

    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was created")

    monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
    monkeypatch.setattr(threading, "Thread", no_threads)
    mapper = JEMMapper(CFG)
    mapper.index_partitioned(blocks_of(contigs, 2))
    assert mapped(mapper, reads_path)[1].size == 32


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks here")
def test_under_a_one_cpu_mask_the_cli_round_never_starts_a_thread(world, tmp_path):
    """`taskset -c 0 jem index` + `jem map`: thread_count() is 1, so neither
    worker threads nor anything to hand work to them exists at any moment."""
    contigs, reads_path = world
    contigs_path = tmp_path / "contigs.fasta"
    write_fasta(str(contigs_path), contigs)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = f"""
import os, sys, threading
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from repro.sketch import _native
_native.MIN_THREAD_BASES = _native.MIN_THREAD_ENTRIES = _native.MIN_THREAD_MAP_BASES = 1
peak = [threading.active_count()]
real = threading.Thread.start
def start(self):
    real(self)
    peak[0] = max(peak[0], threading.active_count())
threading.Thread.start = start
from repro.cli import main
flags = ["--k", "12", "--w", "20", "--ell", "500", "--trials", "6"]
assert main(["index", "-s", {str(contigs_path)!r}, "-o", {str(tmp_path / "i.npz")!r}, *flags]) == 0
assert main(["map", "-q", {reads_path!r}, "--index", {str(tmp_path / "i.npz")!r},
             "-o", {str(tmp_path / "o.tsv")!r}]) == 0
print(_native.thread_count(), peak[0], threading.active_count())
"""
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("REPRO_NATIVE_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-3:] == ["1", "1", "1"]
    if _native.load() is not None:
        assert (tmp_path / "o.tsv").read_text().splitlines()[0].endswith("threads=1]")
