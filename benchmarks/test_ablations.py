"""Ablation benchmarks for JEM-mapper's design choices (see DESIGN.md §5)."""

import pytest
from conftest import run_once

from repro.bench import (
    ablation_counter,
    ablation_segments,
    ablation_topx,
    ablation_window,
)
from repro.bench.ablations import (
    ablation_error_rate,
    ablation_ingredients,
    ablation_kmer,
    ablation_seeds,
    ablation_threshold,
)


def assert_topx_recovers(data):
    """Recall@x is monotone up to the all-candidates ceiling, and top-3
    recovers at least a fifth of the gap between recall@1 and the ceiling:
    the misses no trial votes for at all (short true contigs, no shared
    sketch value) are beyond any x."""
    recall, ceiling = data["recall"], data["ceiling"]
    assert all(b >= a - 1e-9 for a, b in zip([*recall, ceiling], [*recall[1:], ceiling]))
    gap_1 = ceiling - recall[0]
    assert gap_1 > 0, f"no best-hit miss left for top-x to recover: {recall}, {ceiling}"
    gap_3 = ceiling - recall[data["x"].index(3)]
    assert gap_1 - gap_3 >= 0.2 * gap_1, f"top-3 recovered too little: {recall}, {ceiling}"


def test_ablation_topx(ctx, benchmark):
    """Top-x reporting recovers recall (Section IV-C's proposed extension)."""
    out = run_once(benchmark, ablation_topx, ctx)
    print("\n" + out.text)
    assert_topx_recovers(out.data)


def test_topx_bound_fails_a_topx_that_recovers_nothing():
    """The bound bites: recall@x stuck at human_chr7's recall@1 at scale
    0.01 (99.33) under its measured ceiling (99.39) fails it."""
    flat = {"x": (1, 2, 3, 5), "recall": [99.33] * 4, "ceiling": 99.39}
    with pytest.raises(AssertionError, match="top-3 recovered too little"):
        assert_topx_recovers(flat)


def test_ablation_segments(ctx, benchmark):
    """End segments: scaffolding yield + less work at equal quality (III-B.1)."""
    out = run_once(benchmark, ablation_segments, ctx)
    print("\n" + out.text)
    seg, whole = out.data["segments"], out.data["whole"]
    # quality stays in the paper's regime
    assert seg.precision > 0.95 and seg.recall > 0.90
    # advantage (a): segments recover contig links, one-best-hit cannot
    assert out.data["links"] > 0
    # advantage (b): far fewer bases are sketched (reads >> 2*ell here)
    assert out.data["seg_bases"] < 0.5 * out.data["whole_bases"]
    # and the measured query step is cheaper despite twice the query count
    assert out.data["seg_time"] < out.data["whole_time"] * 1.1


def test_ablation_window(ctx, benchmark):
    """Smaller w = denser sketches = bigger index; quality stays high across w."""
    out = run_once(benchmark, ablation_window, ctx)
    print("\n" + out.text)
    entries = out.data["entries"]
    # index size strictly shrinks as the window grows
    assert all(b < a for a, b in zip(entries, entries[1:])), entries
    # the paper's operating point (w=100) keeps precision/recall high
    i100 = out.data["w"].index(100)
    assert out.data["precision"][i100] > 95.0
    assert out.data["recall"][i100] > 90.0


def test_ablation_threshold(ctx, benchmark):
    """Raising the hit threshold trades recall for precision."""
    out = run_once(benchmark, ablation_threshold, ctx)
    print("\n" + out.text)
    reports = out.data["reports"]
    precisions = [r.precision for r in reports]
    recalls = [r.recall for r in reports]
    mapped = [r.n_mapped for r in reports]
    # mapped count and recall are non-increasing in the threshold
    assert all(b <= a for a, b in zip(mapped, mapped[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(recalls, recalls[1:]))
    # precision at the strictest threshold >= at the loosest
    assert precisions[-1] >= precisions[0] - 1e-9
    # threshold 1 is the default behaviour: everything sketchable maps
    assert reports[0].n_mapped >= reports[-1].n_mapped


def test_ablation_counter(ctx, benchmark):
    """Lazy counter and vectorised groupby agree; vectorised is faster."""
    out = run_once(benchmark, ablation_counter, ctx)
    print("\n" + out.text)
    assert out.data["identical"]
    assert out.data["t_vectorised"] < out.data["t_lazy"]


def test_ablation_ingredients(ctx, benchmark):
    """Intervals — not winnowing — are JEM's recall mechanism."""
    out = run_once(benchmark, ablation_ingredients, ctx)
    print("\n" + out.text)
    jem = out.data["JEM (intervals)"]
    classical = out.data["classical MinHash"]
    mini = out.data["minimizer MinHash"]
    # at a low trial budget JEM clearly beats both whole-sequence schemes
    assert jem.recall > classical.recall + 0.05
    assert jem.recall > mini.recall + 0.05
    # winnowing alone does NOT close the gap: the minimizer variant stays
    # in classical MinHash territory, far from JEM
    assert abs(mini.recall - classical.recall) < 0.5 * (jem.recall - classical.recall)


def test_ablation_error_rate(ctx, benchmark):
    """JEM holds through HiFi-grade errors and collapses at CLR/ONT rates."""
    out = run_once(benchmark, ablation_error_rate, ctx)
    print("\n" + out.text)
    rates = out.data["error_rates"]
    recall = out.data["recall"]
    hifi = recall[rates.index(0.001)]
    # HiFi regime (0.1%): near-perfect recall
    assert hifi > 90.0
    # degrades gracefully: still usable at 1% (corrected-read territory)
    assert recall[rates.index(0.01)] > 70.0
    # clearly broken down at 12% (raw first-generation long reads)
    assert recall[rates.index(0.12)] < hifi - 20.0
    # precision holds throughout (spurious collisions stay rare)
    assert min(out.data["precision"]) > 90.0


def test_ablation_seeds(ctx, benchmark):
    """Fig. 5's conclusions hold for every dataset replicate."""
    out = run_once(benchmark, ablation_seeds, ctx)
    print("\n" + out.text)
    for i in range(len(out.data["seeds"])):
        assert out.data["jem_precision"][i] > 95.0
        assert out.data["jem_recall"][i] > 90.0
        assert out.data["mashmap_precision"][i] > 95.0
    # the two mappers stay within a few points on every replicate
    import numpy as np

    gaps = np.abs(
        np.array(out.data["jem_recall"]) - np.array(out.data["mashmap_recall"])
    )
    assert gaps.max() < 5.0


def test_ablation_kmer(ctx, benchmark):
    """The paper's k=16 keeps precision high; every swept k stays usable."""
    out = run_once(benchmark, ablation_kmer, ctx)
    print("\n" + out.text)
    i16 = out.data["k"].index(16)
    assert out.data["precision"][i16] > 95.0
    assert out.data["recall"][i16] > 90.0
    # no swept k collapses (the genome is small; k>=10 stays specific)
    assert min(out.data["precision"]) > 80.0
