"""Ablations of JEM-mapper's design choices.

The paper motivates three design decisions (Section III-B) and sketches a
fourth as future work; each gets a controlled experiment:

* ``ablation_topx``     — report top-x hits: how much of the recall gap the
  best-hit restriction causes is recovered at x = 2, 3, 5 (Section IV-C).
* ``ablation_segments`` — map *end segments* vs the *whole read* as one
  query: the paper argues whole-read sketches select k-mers outside the
  overlap with a (shorter) contig, hurting recall.
* ``ablation_window``   — minimizer window w: density vs quality vs
  index size ("reduces work ... qualitative robustness", Section III-B.2).
* ``ablation_counter``  — the lazy-update counter array vs the vectorised
  groupby (Section III-C implementation note): identical output, different
  constant factors.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..core.hitcounter import count_hits_lazy, count_hits_vectorised
from ..core.mapper import JEMMapper
from ..core.segments import extract_end_segments
from ..eval.metrics import evaluate_mapping, recall_at_x
from ..eval.report import render_series, render_table
from ..eval.truth import build_benchmark
from ..sketch.jem import query_sketch_values
from .experiments import BenchContext, ExperimentOutput, _finish

__all__ = [
    "ablation_topx",
    "ablation_segments",
    "ablation_window",
    "ablation_counter",
    "ablation_threshold",
    "ablation_kmer",
    "ablation_ingredients",
    "ablation_seeds",
    "ablation_error_rate",
    "ABLATIONS",
]


def ablation_topx(
    ctx: BenchContext, *, xs: tuple[int, ...] = (1, 2, 3, 5)
) -> ExperimentOutput:
    """Recall@x on a repeat-rich input — the Section IV-C recovery claim."""
    name = ctx.pick(("human_chr7",))[0]
    ds = ctx.dataset(name)
    cfg = ctx.config
    segments, infos, bench = __prepare(ds, cfg)
    mapper = JEMMapper(cfg)
    mapper.index(ds.contigs)
    recalls = []
    for x in xs:
        hits = mapper.map_segments_topx(segments, x=x)
        recalls.append(100 * recall_at_x(hits, bench))
    text = render_series(
        f"Ablation — recall@x with top-x hit reporting on {name} (scale={ctx.scale:g})",
        "x", xs, {"recall %": recalls}, fmt="{:.2f}",
    )
    return _finish(ctx, ExperimentOutput("ablation_topx", text, {"x": xs, "recall": recalls}))


def __prepare(ds, cfg):
    segments, infos = extract_end_segments(ds.reads, cfg.ell)
    bench = build_benchmark(segments, ds.contigs, ds.genome, k=cfg.k)
    return segments, infos, bench


def ablation_segments(ctx: BenchContext) -> ExperimentOutput:
    """End segments (ℓ = 1000) vs whole-read queries (Section III-B.1).

    The paper's two stated advantages of end segments are measured head to
    head: (a) *scaffolding yield* — a read whose prefix and suffix map to
    two different contigs witnesses a contig link, which one whole-read
    best hit can never provide; (b) *work* — only 2ℓ bases per read are
    sketched instead of the full ~10 kbp.
    """
    name = ctx.pick(("b_splendens",))[0]
    ds = ctx.dataset(name)
    cfg = ctx.config
    mapper = JEMMapper(cfg)
    mapper.index(ds.contigs)

    # (a) the paper's scheme: prefix/suffix end segments
    segments, infos, bench = __prepare(ds, cfg)
    t0 = time.perf_counter()
    seg_result = mapper.map_segments(segments, infos)
    seg_time = time.perf_counter() - t0
    seg_quality = evaluate_mapping(seg_result, bench)
    links = 0
    for r in range(len(ds.reads)):
        a, b = int(seg_result.subject[2 * r]), int(seg_result.subject[2 * r + 1])
        if a >= 0 and b >= 0 and a != b:
            links += 1

    # (b) whole reads as single queries; truth intervals = the whole read
    t0 = time.perf_counter()
    whole_result = mapper.map_segments(ds.reads)
    whole_time = time.perf_counter() - t0
    whole_bench = build_benchmark(ds.reads, ds.contigs, ds.genome, k=cfg.k)
    whole_quality = evaluate_mapping(whole_result, whole_bench)

    seg_bases = int(segments.total_bases)
    whole_bases = int(ds.reads.total_bases)
    rows = [
        ["end segments", f"{100 * seg_quality.precision:.2f}",
         f"{100 * seg_quality.recall:.2f}", str(links), f"{seg_bases:,}",
         f"{seg_time:.3f}"],
        ["whole reads", f"{100 * whole_quality.precision:.2f}",
         f"{100 * whole_quality.recall:.2f}", "0", f"{whole_bases:,}",
         f"{whole_time:.3f}"],
    ]
    text = render_table(
        f"Ablation — end-segment queries vs whole-read queries on {name} "
        f"(scale={ctx.scale:g})",
        ["query mode", "precision %", "recall %", "contig links", "bases sketched",
         "map seconds"],
        rows,
    )
    return _finish(
        ctx,
        ExperimentOutput(
            "ablation_segments",
            text,
            {"segments": seg_quality, "whole": whole_quality,
             "seg_time": seg_time, "whole_time": whole_time,
             "links": links, "seg_bases": seg_bases, "whole_bases": whole_bases},
        ),
    )


def ablation_window(
    ctx: BenchContext, *, windows: tuple[int, ...] = (20, 50, 100, 200)
) -> ExperimentOutput:
    """Minimizer window sweep: quality, index size and indexing time vs w."""
    name = ctx.pick(("human_chr7",))[0]
    ds = ctx.dataset(name)
    precision, recall, entries, idx_time = [], [], [], []
    segments = infos = bench = None
    for w in windows:
        cfg = replace(ctx.config, w=w)
        if bench is None:
            segments, infos, bench = __prepare(ds, cfg)
        mapper = JEMMapper(cfg)
        t0 = time.perf_counter()
        table = mapper.index(ds.contigs)
        idx_time.append(time.perf_counter() - t0)
        q = evaluate_mapping(mapper.map_segments(segments, infos), bench)
        precision.append(100 * q.precision)
        recall.append(100 * q.recall)
        entries.append(table.total_entries)
    text = render_series(
        f"Ablation — minimizer window w on {name} (scale={ctx.scale:g})",
        "w", windows,
        {
            "precision %": precision,
            "recall %": recall,
            "table entries": [float(e) for e in entries],
            "index seconds": idx_time,
        },
        fmt="{:,.4g}",
    )
    return _finish(
        ctx,
        ExperimentOutput(
            "ablation_window", text,
            {"w": windows, "precision": precision, "recall": recall,
             "entries": entries, "index_seconds": idx_time},
        ),
    )


def ablation_counter(ctx: BenchContext) -> ExperimentOutput:
    """Lazy-update counter (paper's Section III-C) vs vectorised groupby."""
    name = ctx.pick(("c_elegans",))[0]
    ds = ctx.dataset(name)
    cfg = ctx.config
    mapper = JEMMapper(cfg)
    table = mapper.index(ds.contigs)
    segments, _infos = extract_end_segments(ds.reads, cfg.ell)
    sketches = query_sketch_values(segments, cfg.k, cfg.w, cfg.hash_family())
    # keep the lazy reference affordable: cap the query count
    n = min(len(segments), 300)
    values = sketches.values[:, :n]
    mask = sketches.has[:n]
    t0 = time.perf_counter()
    lazy = count_hits_lazy(table, values, query_mask=mask)
    t_lazy = time.perf_counter() - t0
    t0 = time.perf_counter()
    vec = count_hits_vectorised(table, values, query_mask=mask)
    t_vec = time.perf_counter() - t0
    identical = bool(np.array_equal(lazy.subject, vec.subject))
    rows = [
        ["lazy counter (paper)", f"{t_lazy:.4f}", f"{n / t_lazy:,.0f}"],
        ["vectorised groupby", f"{t_vec:.4f}", f"{n / t_vec:,.0f}"],
    ]
    text = render_table(
        f"Ablation — hit-counting strategy on {name}, {n} queries "
        f"(identical output: {identical})",
        ["strategy", "seconds", "queries/s"],
        rows,
    )
    return _finish(
        ctx,
        ExperimentOutput(
            "ablation_counter", text,
            {"t_lazy": t_lazy, "t_vectorised": t_vec, "identical": identical, "n": n},
        ),
    )


def ablation_threshold(
    ctx: BenchContext, *, thresholds: tuple[int, ...] = (1, 2, 3, 5, 10, 15)
) -> ExperimentOutput:
    """Hit-count confidence threshold: the precision/recall tradeoff curve."""
    from ..eval.metrics import threshold_sweep

    name = ctx.pick(("human_chr7",))[0]
    ds = ctx.dataset(name)
    cfg = ctx.config
    segments, infos, bench = __prepare(ds, cfg)
    mapper = JEMMapper(cfg)
    mapper.index(ds.contigs)
    result = mapper.map_segments(segments, infos)
    reports = threshold_sweep(result, bench, thresholds)
    text = render_series(
        f"Ablation — hit-count threshold on {name} (T={cfg.trials}, scale={ctx.scale:g})",
        "min hits", thresholds,
        {
            "precision %": [100 * r.precision for r in reports],
            "recall %": [100 * r.recall for r in reports],
            "mapped": [float(r.n_mapped) for r in reports],
        },
        fmt="{:,.4g}",
    )
    return _finish(
        ctx,
        ExperimentOutput(
            "ablation_threshold", text,
            {"thresholds": thresholds, "reports": reports},
        ),
    )


def ablation_kmer(
    ctx: BenchContext, *, ks: tuple[int, ...] = (10, 12, 14, 16)
) -> ExperimentOutput:
    """k-mer size sweep: specificity vs sensitivity.

    Short k-mers repeat by chance (4^10 ≈ 10^6), inflating spurious
    collisions on larger genomes; k = 16 (the paper's choice) makes random
    collisions negligible at these scales.  The benchmark is rebuilt per k
    because the >= k-overlap rule depends on it.
    """
    name = ctx.pick(("human_chr7",))[0]
    ds = ctx.dataset(name)
    precision, recall = [], []
    for k in ks:
        cfg = replace(ctx.config, k=k)
        segments, infos = extract_end_segments(ds.reads, cfg.ell)
        bench = build_benchmark(segments, ds.contigs, ds.genome, k=cfg.k)
        mapper = JEMMapper(cfg)
        mapper.index(ds.contigs)
        q = evaluate_mapping(mapper.map_segments(segments, infos), bench)
        precision.append(100 * q.precision)
        recall.append(100 * q.recall)
    text = render_series(
        f"Ablation — k-mer size on {name} (scale={ctx.scale:g})",
        "k", ks,
        {"precision %": precision, "recall %": recall},
        fmt="{:.2f}",
    )
    return _finish(
        ctx,
        ExperimentOutput(
            "ablation_kmer", text, {"k": ks, "precision": precision, "recall": recall}
        ),
    )


def ablation_ingredients(ctx: BenchContext) -> ExperimentOutput:
    """Which ingredient matters: minimizers alone, or the ℓ-intervals?

    Three schemes share everything (k, T, hash family, hit counting) and
    differ only in the subject sketch base set:

    * classical MinHash — bottom-1 over *all* k-mers (Broder);
    * minimizer MinHash — bottom-1 over the (w, k)-minimizer set;
    * JEM — bottom-1 per ℓ-interval of the minimizer list.

    If JEM's win came from winnowing alone, the middle scheme would match
    it; the paper's position-constrained intervals are the actual recall
    mechanism, so the middle scheme stays near classical MinHash.
    """
    from ..baselines.classical_minhash import ClassicalMinHashMapper

    name = ctx.pick(("b_splendens",))[0]
    ds = ctx.dataset(name)
    # a low trial budget makes the contrast sharp (cf. Fig. 6 at T=10)
    cfg = ctx.config.with_trials(min(ctx.config.trials, 10))
    segments, infos, bench = __prepare(ds, cfg)
    rows = []
    data: dict = {}
    schemes = [
        ("classical MinHash", ClassicalMinHashMapper(cfg)),
        ("minimizer MinHash", ClassicalMinHashMapper(cfg, use_minimizers=True)),
        ("JEM (intervals)", JEMMapper(cfg)),
    ]
    for label, mapper in schemes:
        mapper.index(ds.contigs)
        q = evaluate_mapping(mapper.map_segments(segments, infos), bench)
        rows.append([label, f"{100 * q.precision:.2f}", f"{100 * q.recall:.2f}"])
        data[label] = q
    text = render_table(
        f"Ablation — sketch ingredients on {name} (T={cfg.trials}, scale={ctx.scale:g})",
        ["scheme", "precision %", "recall %"],
        rows,
    )
    return _finish(ctx, ExperimentOutput("ablation_ingredients", text, data))


def ablation_seeds(
    ctx: BenchContext, *, seeds: tuple[int, ...] = (1, 2, 3)
) -> ExperimentOutput:
    """Robustness: do the quality conclusions survive dataset resampling?

    The whole pipeline (genome → short reads → assembly → HiFi reads →
    benchmark → both mappers) is regenerated under different seeds; the
    Fig. 5 conclusions must hold for every replicate, not just the one the
    headline tables happen to use.
    """
    from ..eval.datasets import load_or_generate
    from ..eval.pipeline import run_mappers

    name = ctx.pick(("c_elegans",))[0]
    rows = []
    jem_p, jem_r, mm_p, mm_r = [], [], [], []
    for seed in seeds:
        ds = load_or_generate(name, scale=ctx.scale, seed=seed, cache_dir=ctx.cache_dir)
        res = run_mappers(ds, ctx.config, mappers=("jem", "mashmap"))
        j, m = res["jem"].quality, res["mashmap"].quality
        jem_p.append(100 * j.precision)
        jem_r.append(100 * j.recall)
        mm_p.append(100 * m.precision)
        mm_r.append(100 * m.recall)
        rows.append(
            [str(seed), f"{jem_p[-1]:.2f}", f"{jem_r[-1]:.2f}",
             f"{mm_p[-1]:.2f}", f"{mm_r[-1]:.2f}"]
        )
    rows.append(
        ["mean±std",
         f"{np.mean(jem_p):.2f}±{np.std(jem_p):.2f}",
         f"{np.mean(jem_r):.2f}±{np.std(jem_r):.2f}",
         f"{np.mean(mm_p):.2f}±{np.std(mm_p):.2f}",
         f"{np.mean(mm_r):.2f}±{np.std(mm_r):.2f}"]
    )
    text = render_table(
        f"Ablation — seed robustness on {name} (scale={ctx.scale:g})",
        ["seed", "JEM prec %", "JEM recall %", "Mashmap prec %", "Mashmap recall %"],
        rows,
    )
    return _finish(
        ctx,
        ExperimentOutput(
            "ablation_seeds", text,
            {"seeds": seeds, "jem_precision": jem_p, "jem_recall": jem_r,
             "mashmap_precision": mm_p, "mashmap_recall": mm_r},
        ),
    )


def ablation_error_rate(
    ctx: BenchContext,
    *,
    error_rates: tuple[float, ...] = (0.001, 0.005, 0.01, 0.03, 0.06, 0.12),
) -> ExperimentOutput:
    """Read-accuracy sensitivity: why the paper scopes to HiFi.

    Reads are resimulated from one genome at increasing error rates, from
    HiFi (0.1 %) up to first-generation long-read territory (12 %, the
    ONT/PacBio-CLR regime the paper's introduction contrasts against).
    A single trial collision suffices for a best hit, so recall degrades
    far more gracefully than per-k-mer survival (1-e)^16 suggests — it
    holds into the mid-single digits and only breaks down near raw
    long-read error rates, quantifying (and slightly generalising) the
    paper's HiFi scoping.
    """
    from ..simulate import ErrorModel, HiFiProfile, simulate_hifi_reads

    name = ctx.pick(("c_elegans",))[0]
    ds = ctx.dataset(name)
    cfg = ctx.config
    mapper = JEMMapper(cfg)
    mapper.index(ds.contigs)
    precision, recall = [], []
    for rate in error_rates:
        model = ErrorModel(
            substitution=rate * 0.6, insertion=rate * 0.2, deletion=rate * 0.2
        )
        reads = simulate_hifi_reads(
            ds.genome,
            HiFiProfile(coverage=5.0, median_length=10_000, errors=model),
            np.random.default_rng(ctx.seed + 77),
        )
        segments, infos = extract_end_segments(reads, cfg.ell)
        bench = build_benchmark(segments, ds.contigs, ds.genome, k=cfg.k)
        q = evaluate_mapping(mapper.map_segments(segments, infos), bench)
        precision.append(100 * q.precision)
        recall.append(100 * q.recall)
    text = render_series(
        f"Ablation — read error rate on {name} (scale={ctx.scale:g})",
        "error rate", [f"{100 * e:g}%" for e in error_rates],
        {"precision %": precision, "recall %": recall},
        fmt="{:.2f}",
    )
    return _finish(
        ctx,
        ExperimentOutput(
            "ablation_error_rate", text,
            {"error_rates": error_rates, "precision": precision, "recall": recall},
        ),
    )


ABLATIONS = {
    "ablation_topx": ablation_topx,
    "ablation_segments": ablation_segments,
    "ablation_window": ablation_window,
    "ablation_counter": ablation_counter,
    "ablation_threshold": ablation_threshold,
    "ablation_kmer": ablation_kmer,
    "ablation_ingredients": ablation_ingredients,
    "ablation_seeds": ablation_seeds,
    "ablation_error_rate": ablation_error_rate,
}
