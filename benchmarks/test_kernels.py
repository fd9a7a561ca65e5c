"""Micro-benchmarks of the hot kernels (pytest-benchmark, multiple rounds).

These time the primitives that dominate the end-to-end runs: minimizer
extraction, JEM subject sketching, query sketching, table lookup and hit
counting — useful for spotting regressions independent of dataset noise.
"""

import numpy as np
import pytest

from repro.core import JEMConfig, JEMMapper, count_hits_vectorised, extract_end_segments
from repro.seq import random_codes
from repro.seq.records import SequenceSet
from repro.sketch import (
    HashFamily,
    canonical_kmer_ranks,
    minimizers,
    query_sketch_values,
    query_sketch_values_reference,
    subject_sketch_pairs,
    subject_sketch_pairs_reference,
)

CFG = JEMConfig(k=16, w=100, ell=1000, trials=30, seed=5)


@pytest.fixture(scope="module")
def genome():
    return random_codes(2_000_000, np.random.default_rng(0))


@pytest.fixture(scope="module")
def contigs(genome):
    pieces = []
    pos = 0
    i = 0
    rng = np.random.default_rng(1)
    while pos < genome.size - 4000:
        ln = int(rng.integers(1_500, 4_000))
        pieces.append((f"c{i}", genome[pos : pos + ln]))
        pos += ln
        i += 1
    names = [n for n, _ in pieces]
    offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum([c.size for _, c in pieces], out=offsets[1:])
    return SequenceSet(np.concatenate([c for _, c in pieces]), offsets, names)


@pytest.fixture(scope="module")
def reads(genome):
    rng = np.random.default_rng(2)
    from repro.seq import SequenceSetBuilder

    builder = SequenceSetBuilder()
    for i in range(300):
        start = int(rng.integers(0, genome.size - 10_000))
        builder.add(f"r{i}", genome[start : start + 10_000],
                    {"ref_start": start, "ref_end": start + 10_000, "ref_strand": 1})
    return builder.build()


@pytest.fixture(scope="module")
def family():
    return CFG.hash_family()


def test_bench_kmer_packing(benchmark, genome):
    result = benchmark(canonical_kmer_ranks, genome[:500_000], 16)
    assert result[0].size == 500_000 - 15


def test_bench_minimizer_extraction(benchmark, genome):
    ml = benchmark(minimizers, genome[:500_000], 16, 100)
    assert len(ml) > 0


def test_bench_subject_sketching(benchmark, contigs, family):
    keys = benchmark.pedantic(
        subject_sketch_pairs, args=(contigs, CFG.k, CFG.w, CFG.ell, family),
        rounds=2, iterations=1,
    )
    assert len(keys) == CFG.trials


def test_bench_subject_sketching_reference(benchmark, contigs, family):
    """Pre-PR per-trial S2 path; compare against test_bench_subject_sketching."""
    keys = benchmark.pedantic(
        subject_sketch_pairs_reference, args=(contigs, CFG.k, CFG.w, CFG.ell, family),
        rounds=2, iterations=1,
    )
    assert len(keys) == CFG.trials


def test_bench_query_sketching(benchmark, reads, family):
    segments, _ = extract_end_segments(reads, CFG.ell)
    sketches = benchmark.pedantic(
        query_sketch_values, args=(segments, CFG.k, CFG.w, family), rounds=3, iterations=1
    )
    assert sketches.values.shape[0] == CFG.trials


def test_bench_query_sketching_reference(benchmark, reads, family):
    """Pre-PR per-trial S4 path; compare against test_bench_query_sketching."""
    segments, _ = extract_end_segments(reads, CFG.ell)
    sketches = benchmark.pedantic(
        query_sketch_values_reference, args=(segments, CFG.k, CFG.w, family),
        rounds=3, iterations=1,
    )
    assert sketches.values.shape[0] == CFG.trials


def test_bench_query_kernel_numpy_fallback(benchmark, reads, family, monkeypatch):
    """The batched numpy path (compiled fast path disabled via kill switch)."""
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    segments, _ = extract_end_segments(reads, CFG.ell)
    sketches = benchmark.pedantic(
        query_sketch_values, args=(segments, CFG.k, CFG.w, family), rounds=3, iterations=1
    )
    assert sketches.values.shape[0] == CFG.trials


def test_bench_end_to_end_mapping(benchmark, contigs, reads):
    mapper = JEMMapper(CFG)
    mapper.index(contigs)

    def run():
        return mapper.map_reads(reads)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.n_mapped > 0.9 * len(result)


def test_bench_fused_map(benchmark, contigs, reads):
    """Fused native S4 over the columnar store: sketch → lookup → vote in
    one C pass; compare against test_bench_fused_map_numpy_fallback."""
    mapper = JEMMapper(CFG)
    mapper.index(contigs)
    segments, _ = extract_end_segments(reads, CFG.ell)
    result = benchmark.pedantic(
        mapper.map_segments, args=(segments,), rounds=3, iterations=1
    )
    assert result.n_mapped > 0


def test_bench_fused_map_numpy_fallback(benchmark, contigs, reads, monkeypatch):
    """The same mapping with the kill switch on — the numpy parity-oracle
    path the fused kernel must stay bit-identical to."""
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    mapper = JEMMapper(CFG)
    mapper.index(contigs)
    segments, _ = extract_end_segments(reads, CFG.ell)
    result = benchmark.pedantic(
        mapper.map_segments, args=(segments,), rounds=3, iterations=1
    )
    assert result.n_mapped > 0


def test_bench_hit_counting(benchmark, contigs, reads, family):
    mapper = JEMMapper(CFG)
    table = mapper.index(contigs)
    segments, _ = extract_end_segments(reads, CFG.ell)
    sketches = query_sketch_values(segments, CFG.k, CFG.w, family)
    hits = benchmark.pedantic(
        count_hits_vectorised, args=(table, sketches.values),
        kwargs={"query_mask": sketches.has}, rounds=3, iterations=1,
    )
    assert hits.n_mapped > 0
