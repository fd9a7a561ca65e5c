"""One experiment per table/figure of the paper's evaluation (Section IV).

Every ``exp_*`` function regenerates one artifact: it runs the relevant
workload, renders a plain-text table shaped like the paper's, writes it to
``<results_dir>/<name>.txt`` and returns the underlying numbers so the
benchmark suite can assert the *shape* findings (who wins, how curves
move).  Scale is configurable; absolute seconds are this implementation's,
not the paper cluster's (see EXPERIMENTS.md for the comparison discipline).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..align import segment_identity
from ..core.config import JEMConfig
from ..core.segments import extract_end_segments
from ..eval.datasets import DATASETS, LARGE_DATASETS, Dataset, load_or_generate
from ..eval.pipeline import prepare_benchmark, run_mappers
from ..eval.report import render_series, render_table
from ..parallel.costmodel import CostModel
from ..parallel.driver import run_parallel_jem
from ..seq.stats import set_stats

__all__ = [
    "BenchContext",
    "ExperimentOutput",
    "ThreadScalingModel",
    "exp_table1",
    "exp_table2",
    "exp_fig5",
    "exp_fig6",
    "exp_fig7",
    "exp_fig8",
    "exp_fig9",
    "exp_kernels",
    "exp_serve",
    "exp_serve_concurrent",
    "exp_store",
    "EXPERIMENTS",
]

#: Process counts of Table II / Figs. 7-8.
P_VALUES = (4, 8, 16, 32, 64)

#: Trial counts of the Fig. 6 sweep.
TRIALS_SWEEP = (5, 10, 20, 30, 50, 100, 150)


@dataclass(frozen=True)
class ThreadScalingModel:
    """Amdahl-style model of Mashmap's shared-memory multithreading.

    The paper runs Mashmap with 64 threads; this host has one core, so the
    64-thread runtime is modelled from the measured sequential runtime as

        T(t) = T_seq * (serial_fraction + (1 - serial_fraction) / (t * efficiency))

    with a serial fraction (index construction, output) and a per-thread
    efficiency typical of memory-bound mapping workloads.  Both constants
    are documented inputs, not fit to the paper's numbers.
    """

    serial_fraction: float = 0.05
    efficiency: float = 0.7

    def threaded_time(self, sequential_seconds: float, threads: int) -> float:
        par = (1.0 - self.serial_fraction) / (threads * self.efficiency)
        return sequential_seconds * (self.serial_fraction + par)


@dataclass(frozen=True)
class BenchContext:
    """Shared knobs for every experiment run."""

    scale: float = 1.0 / 400.0
    seed: int = 1
    cache_dir: str = ".dataset_cache"
    results_dir: str = "results"
    datasets: tuple[str, ...] | None = None  # None = experiment default
    config: JEMConfig = field(default_factory=JEMConfig)
    cost_model: CostModel = field(default_factory=CostModel)
    thread_model: ThreadScalingModel = field(default_factory=ThreadScalingModel)

    @classmethod
    def from_env(cls, **overrides) -> "BenchContext":
        """Context honouring REPRO_BENCH_SCALE / REPRO_BENCH_DATASETS."""
        kwargs: dict = {}
        if "REPRO_BENCH_SCALE" in os.environ:
            kwargs["scale"] = float(os.environ["REPRO_BENCH_SCALE"])
        if "REPRO_BENCH_DATASETS" in os.environ:
            kwargs["datasets"] = tuple(os.environ["REPRO_BENCH_DATASETS"].split(","))
        kwargs.update(overrides)
        return cls(**kwargs)

    def pick(self, default: tuple[str, ...]) -> tuple[str, ...]:
        if self.datasets is None:
            return default
        return tuple(n for n in self.datasets if n in default) or default[:1]

    def dataset(self, name: str) -> Dataset:
        return load_or_generate(
            name, scale=self.scale, seed=self.seed, cache_dir=self.cache_dir
        )


def _jsonable(obj):
    """Best-effort conversion of experiment data to JSON-safe values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    return str(obj)


@dataclass
class ExperimentOutput:
    """Rendered text plus the raw numbers of one experiment."""

    name: str
    text: str
    data: dict
    context: dict = field(default_factory=dict)
    elapsed_seconds: float | None = None

    def save(self, results_dir: str) -> str:
        os.makedirs(results_dir, exist_ok=True)
        path = os.path.join(results_dir, f"{self.name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text + "\n")
        return path

    def save_bench_json(self, out_dir: str = ".") -> str:
        """Write the machine-readable ``BENCH_<name>.json`` trajectory file.

        Every experiment emits one: name, run configuration, wall time,
        and the raw numbers behind the rendered table — so runs are
        diffable across commits without parsing text tables.
        """
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"BENCH_{self.name}.json")
        payload = {
            "name": self.name,
            "config": _jsonable(self.context),
            "elapsed_seconds": self.elapsed_seconds,
            "data": _jsonable(self.data),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return path


def _finish(ctx: BenchContext, out: ExperimentOutput) -> ExperimentOutput:
    out.context = {
        "scale": ctx.scale,
        "seed": ctx.seed,
        "datasets": ctx.datasets,
        "jem_config": ctx.config,
    }
    out.save(ctx.results_dir)
    return out


# -- Table I -----------------------------------------------------------------


def exp_table1(ctx: BenchContext) -> ExperimentOutput:
    """Input statistics per dataset (contigs >= 500 bp, HiFi reads)."""
    names = ctx.pick(tuple(DATASETS))
    rows = []
    data: dict = {}
    for name in names:
        ds = ctx.dataset(name)
        cs = set_stats(ds.contigs, min_length=500)
        rs = set_stats(ds.reads)
        rows.append(
            [
                DATASETS[name].organism,
                f"{ds.genome.size:,}",
                f"{cs.count:,}",
                f"{cs.total_bases:,}",
                f"{cs.mean_length:,.0f} ± {cs.std_length:,.0f}",
                f"{rs.count:,}",
                f"{rs.total_bases:,}",
                f"{rs.mean_length:,.0f} ± {rs.std_length:,.0f}",
            ]
        )
        data[name] = {"contigs": cs, "reads": rs, "genome_length": int(ds.genome.size)}
    text = render_table(
        f"Table I — input data sets (scale={ctx.scale:g})",
        [
            "Input", "Genome bp", "No. contigs (>=500bp)", "Subject bp",
            "Contig len (avg±std)", "No. reads", "Query bp", "Read len (avg±std)",
        ],
        rows,
    )
    return _finish(ctx, ExperimentOutput("table1", text, data))


# -- Table II ------------------------------------------------------------------


def exp_table2(ctx: BenchContext) -> ExperimentOutput:
    """Strong scaling of JEM-mapper vs Mashmap with 64 threads."""
    names = ctx.pick(LARGE_DATASETS)
    rows = []
    data: dict = {}
    for name in names:
        ds = ctx.dataset(name)
        jem_times = {}
        for p in P_VALUES:
            # best-of-2 damps scheduler noise on millisecond-scale runs
            jem_times[p] = min(
                run_parallel_jem(
                    ds.contigs, ds.reads, ctx.config, p=p, cost_model=ctx.cost_model
                ).total_time
                for _ in range(2)
            )
        res = run_mappers(ds, ctx.config, mappers=("jem", "mashmap"))
        jem_seq = res["jem"].total_seconds
        mm_seq = res["mashmap"].total_seconds
        mm_t64 = ctx.thread_model.threaded_time(mm_seq, 64)
        speedup = mm_t64 / jem_times[64] if jem_times[64] > 0 else float("inf")
        rows.append(
            [DATASETS[name].organism]
            + [f"{jem_times[p]:.3f}" for p in P_VALUES]
            + [f"{mm_t64:.3f}", f"{speedup:.2f}x", f"{mm_seq / jem_seq:.2f}x"]
        )
        data[name] = {
            "jem": jem_times,
            "jem_seq": jem_seq,
            "mashmap_seq": mm_seq,
            "mashmap_t64": mm_t64,
            "speedup_vs_mashmap": speedup,
            "seq_speedup_vs_mashmap": mm_seq / jem_seq,
        }
    text = render_table(
        f"Table II — parallel runtimes in seconds (scale={ctx.scale:g}; "
        "JEM modelled over p simulated ranks, Mashmap t=64 via thread model)",
        ["Input"] + [f"JEM p={p}" for p in P_VALUES]
        + ["Mashmap t=64", "JEM speedup (p=64)", "JEM speedup (seq)"],
        rows,
    )
    return _finish(ctx, ExperimentOutput("table2", text, data))


# -- Fig. 5 --------------------------------------------------------------------


def exp_fig5(ctx: BenchContext) -> ExperimentOutput:
    """Precision and recall of JEM-mapper vs Mashmap on the simulated inputs."""
    names = ctx.pick(tuple(n for n in DATASETS if not DATASETS[n].is_real_like))
    rows = []
    data: dict = {}
    for name in names:
        ds = ctx.dataset(name)
        res = run_mappers(ds, ctx.config, mappers=("jem", "mashmap"))
        j, m = res["jem"].quality, res["mashmap"].quality
        rows.append(
            [
                DATASETS[name].organism,
                f"{100 * j.precision:.2f}", f"{100 * j.recall:.2f}",
                f"{100 * m.precision:.2f}", f"{100 * m.recall:.2f}",
            ]
        )
        data[name] = {"jem": j, "mashmap": m}
    text = render_table(
        f"Fig. 5 — mapping quality, JEM-mapper vs Mashmap (scale={ctx.scale:g})",
        ["Input", "JEM prec %", "JEM recall %", "Mashmap prec %", "Mashmap recall %"],
        rows,
    )
    return _finish(ctx, ExperimentOutput("fig5", text, data))


# -- Fig. 6 --------------------------------------------------------------------


def exp_fig6(
    ctx: BenchContext, *, trials_sweep: tuple[int, ...] = TRIALS_SWEEP
) -> ExperimentOutput:
    """Effect of the number of trials T on JEM vs classical MinHash."""
    name = ctx.pick(("b_splendens",))[0]
    ds = ctx.dataset(name)
    base = ctx.config.with_trials(max(trials_sweep))
    segments, infos, bench = prepare_benchmark(ds, base)
    series: dict[str, list[float]] = {
        "jem_precision": [], "jem_recall": [],
        "minhash_precision": [], "minhash_recall": [],
    }
    for trials in trials_sweep:
        cfg = ctx.config.with_trials(trials)
        res = run_mappers(
            ds, cfg, mappers=("jem", "minhash"),
            benchmark=bench, segments=segments, infos=infos,
        )
        series["jem_precision"].append(100 * res["jem"].quality.precision)
        series["jem_recall"].append(100 * res["jem"].quality.recall)
        series["minhash_precision"].append(100 * res["minhash"].quality.precision)
        series["minhash_recall"].append(100 * res["minhash"].quality.recall)
    text = render_series(
        f"Fig. 6 — quality vs number of trials T on {DATASETS[name].organism} "
        f"(scale={ctx.scale:g})",
        "T", trials_sweep, series, fmt="{:.2f}",
    )
    return _finish(
        ctx, ExperimentOutput("fig6", text, {"trials": trials_sweep, **series})
    )


# -- Fig. 7 --------------------------------------------------------------------


def exp_fig7(ctx: BenchContext) -> ExperimentOutput:
    """(a) runtime breakdown at p=16; (b) query throughput vs p."""
    names = ctx.pick(LARGE_DATASETS)
    breakdown_rows = []
    throughput: dict[str, list[float]] = {}
    data: dict = {"breakdown": {}, "throughput": {}, "n_segments": {}}
    for name in names:
        ds = ctx.dataset(name)
        # best-of-3 per step: damps scheduler/GC noise on ms-scale timings
        candidates = [
            run_parallel_jem(
                ds.contigs, ds.reads, ctx.config, p=16, cost_model=ctx.cost_model
            ).steps.breakdown()
            for _ in range(3)
        ]
        b = {key: min(c[key] for c in candidates) for key in candidates[0]}
        total = sum(b.values())
        breakdown_rows.append(
            [DATASETS[name].organism]
            + [f"{b[key]:.3f} ({100 * b[key] / total:.0f}%)" for key in b]
        )
        data["breakdown"][name] = b
        thr = []
        for p in P_VALUES:
            # best-of-2: the throughput is n_segments / max-rank map time,
            # which is noisy when per-rank times reach the millisecond floor
            thr.append(
                max(
                    run_parallel_jem(
                        ds.contigs, ds.reads, ctx.config, p=p, cost_model=ctx.cost_model
                    ).query_throughput
                    for _ in range(2)
                )
            )
        throughput[DATASETS[name].organism] = thr
        data["throughput"][name] = dict(zip(P_VALUES, thr))
        data["n_segments"][name] = 2 * len(ds.reads)
    text_a = render_table(
        f"Fig. 7a — runtime breakdown by step at p=16, seconds (scale={ctx.scale:g})",
        ["Input", "input_load", "subject_sketch", "sketch_gather", "query_map"],
        breakdown_rows,
    )
    text_b = render_series(
        "Fig. 7b — querying throughput (segments/sec) vs p",
        "p", P_VALUES, throughput, fmt="{:,.0f}",
    )
    return _finish(ctx, ExperimentOutput("fig7", text_a + "\n\n" + text_b, data))


# -- Fig. 8 --------------------------------------------------------------------


def exp_fig8(ctx: BenchContext) -> ExperimentOutput:
    """Computation vs communication fraction for two large inputs."""
    names = ctx.pick(("human_chr7", "b_splendens"))
    data: dict = {}
    sections = []
    for name in names:
        ds = ctx.dataset(name)
        comp, comm = [], []
        for p in P_VALUES:
            run = run_parallel_jem(
                ds.contigs, ds.reads, ctx.config, p=p, cost_model=ctx.cost_model
            )
            frac = run.steps.comm_fraction
            comm.append(100 * frac)
            comp.append(100 * (1 - frac))
        data[name] = {"p": P_VALUES, "comm_pct": comm, "comp_pct": comp}
        sections.append(
            render_series(
                f"Fig. 8 — computation vs communication %, {DATASETS[name].organism} "
                f"(scale={ctx.scale:g})",
                "p", P_VALUES,
                {"computation %": comp, "communication %": comm},
                fmt="{:.1f}",
            )
        )
    return _finish(ctx, ExperimentOutput("fig8", "\n\n".join(sections), data))


# -- Fig. 9 --------------------------------------------------------------------


def exp_fig9(ctx: BenchContext, *, max_pairs: int = 400) -> ExperimentOutput:
    """Percent-identity histogram of JEM mappings on the real-like data set."""
    name = ctx.pick(("o_sativa_chr8",))[0]
    ds = ctx.dataset(name)
    res = run_mappers(ds, ctx.config, mappers=("jem",))
    mapping = res["jem"].result
    segments, _ = extract_end_segments(ds.reads, ctx.config.ell)
    mapped = np.flatnonzero(mapping.mapped_mask)
    rng = np.random.default_rng(ctx.seed)
    if mapped.size > max_pairs:
        mapped = rng.choice(mapped, size=max_pairs, replace=False)
    identities = np.array(
        [
            segment_identity(
                segments.codes_of(int(i)), ds.contigs.codes_of(int(mapping.subject[i]))
            )
            for i in mapped
        ]
    )
    bins = [0, 50, 80, 90, 95, 98, 100.0001]
    labels = ["<50", "50-80", "80-90", "90-95", "95-98", "98-100"]
    counts, _ = np.histogram(identities, bins=bins)
    pct = 100 * counts / identities.size
    text = render_table(
        f"Fig. 9 — percent identity of {identities.size} sampled JEM mappings on "
        f"{DATASETS[name].organism} (scale={ctx.scale:g})",
        ["identity bin %"] + labels,
        [["fraction of mappings %"] + [f"{v:.1f}" for v in pct]],
    )
    data = {
        "identities": identities,
        "bins": dict(zip(labels, counts.tolist())),
        "frac_ge_95": float((identities >= 95).mean()),
        "quality": res["jem"].quality,
    }
    return _finish(ctx, ExperimentOutput("fig9", text, data))


# -- Kernel batching -----------------------------------------------------------


def exp_kernels(ctx: BenchContext, *, repeats: int = 5) -> ExperimentOutput:
    """Batched multi-trial kernels vs the retained per-trial reference.

    Times the S2 kernel (``subject_kernel``) and the S4 kernel
    (``query_kernel``) against their per-trial ``*_reference``
    implementations on one dataset's pre-extracted minimizer intervals —
    minimizer extraction is identical on both sides, so it is hoisted out
    of the timed region to keep the comparison about the kernels.  Each
    side is min-over-``repeats``.  Bit-identity is asserted end to end on
    the public entry points (extraction included) and the parity bits land
    in the JSON so CI can gate on them.  The speedup is the whole point of
    the batched kernels, so regressions show up as a falling ``speedup``
    field in ``BENCH_kernels.json`` across commits.  The JSON also records
    which backend the batched side ran on (``native`` when the compiled
    fast path is available, else ``numpy``) since the two have different
    expected speedup floors.
    """
    from ..sketch.jem import (
        _subject_minimizer_block,
        query_kernel,
        query_kernel_reference,
        query_minimizer_concat,
        query_sketch_values,
        query_sketch_values_reference,
        subject_kernel,
        subject_kernel_reference,
        subject_sketch_pairs,
        subject_sketch_pairs_reference,
    )
    from ..sketch import _native

    name = ctx.pick(("e_coli",))[0]
    ds = ctx.dataset(name)
    cfg = ctx.config
    family = cfg.hash_family()
    backend = "native" if _native.load() is not None else "numpy"
    segments, _ = extract_end_segments(ds.reads, cfg.ell)

    def _timed(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def best(fn) -> float:
        return min(_timed(fn) for _ in range(repeats))

    # end-to-end parity on the public entry points (extraction included)
    subj_batched = subject_sketch_pairs(ds.contigs, cfg.k, cfg.w, cfg.ell, family)
    subj_reference = subject_sketch_pairs_reference(
        ds.contigs, cfg.k, cfg.w, cfg.ell, family
    )
    subject_parity = all(
        np.array_equal(a, b) for a, b in zip(subj_batched, subj_reference)
    )
    q_batched = query_sketch_values(segments, cfg.k, cfg.w, family)
    q_reference = query_sketch_values_reference(segments, cfg.k, cfg.w, family)
    query_parity = bool(
        np.array_equal(q_batched.has, q_reference.has)
        and np.array_equal(
            q_batched.values[:, q_batched.has],
            q_reference.values[:, q_reference.has],
        )
    )

    # timed region: the kernels only, over shared pre-extracted intervals
    s_values, s_positions, s_owner = _subject_minimizer_block(
        ds.contigs, cfg.k, cfg.w, cfg.ell
    )
    s_ends = np.searchsorted(s_positions, s_positions + cfg.ell, side="right")
    s_ids = s_owner.astype(np.uint64)
    t_subj_batched = best(lambda: subject_kernel(s_values, s_ends, s_ids, family))
    t_subj_reference = best(
        lambda: subject_kernel_reference(s_values, s_ends, s_ids, family)
    )

    _, _, q_values, q_starts = query_minimizer_concat(segments, cfg.k, cfg.w)
    t_query_batched = best(lambda: query_kernel(q_values, q_starts, family))
    t_query_reference = best(
        lambda: query_kernel_reference(q_values, q_starts, family)
    )

    subject_speedup = t_subj_reference / t_subj_batched if t_subj_batched > 0 else float("inf")
    query_speedup = t_query_reference / t_query_batched if t_query_batched > 0 else float("inf")

    # -- fused end-to-end S4: sketch + lookup + vote ------------------------
    # Two numpy baselines bracket the fused kernel.  The *reference* is the
    # faithful per-trial pipeline the other rows also gate against:
    # per-trial sketch (query_kernel_reference) + the paper's lazy-update
    # vote (count_hits_lazy) — the retained parity oracle.  The *vectorised*
    # baseline is the best batched numpy path (numpy query_kernel +
    # count_hits_vectorised), i.e. what actually runs under REPRO_NO_NATIVE;
    # it is recorded alongside so the fused win over the already-optimised
    # path is visible, not just the win over the oracle.  The fused side is
    # one native map_block call over the same pre-extracted minimizer
    # block.  Parity is asserted on the final BestHits against both
    # baselines — the strongest gate, since it covers sketch, lookup and
    # vote at once.
    from ..core.hitcounter import (
        count_hits_fused,
        count_hits_lazy,
        count_hits_vectorised,
    )
    from ..core.store import ColumnarSketchStore
    from ..sketch._native import thread_count

    store = ColumnarSketchStore.from_trial_keys(subj_batched, len(ds.contigs))
    q_has, q_nonempty, qq_values, qq_starts = query_minimizer_concat(
        segments, cfg.k, cfg.w
    )
    n_seg = len(segments)

    def sketch_reference():
        sk = np.zeros((family.size, n_seg), dtype=np.uint64)
        if q_nonempty.size:
            sk[:, q_nonempty] = query_kernel_reference(qq_values, qq_starts, family)
        return sk

    def e2e_reference():
        return count_hits_lazy(
            store, sketch_reference(), min_hits=cfg.min_hits, query_mask=q_has
        )

    def e2e_vectorised():
        os.environ["REPRO_NO_NATIVE"] = "1"
        try:
            sk = np.zeros((family.size, n_seg), dtype=np.uint64)
            if q_nonempty.size:
                sk[:, q_nonempty] = query_kernel(qq_values, qq_starts, family)
        finally:
            del os.environ["REPRO_NO_NATIVE"]
        return count_hits_vectorised(
            store, sk, min_hits=cfg.min_hits, query_mask=q_has
        )

    t_e2e_reference = best(e2e_reference)
    t_e2e_vectorised = best(e2e_vectorised)
    hits_reference = e2e_reference()
    hits_vectorised = e2e_vectorised()

    end_to_end: dict = {
        "reference_seconds": t_e2e_reference,
        "vectorised_seconds": t_e2e_vectorised,
        "n_segments": n_seg,
        "min_hits": cfg.min_hits,
        "default_threads": thread_count(),
        "fused_seconds": None,
        "speedup": None,
        "speedup_vs_vectorised": None,
        "parity": None,
        "threads": {},
    }
    e2e_rows: list[list[str]] = []
    if backend == "native":
        def e2e_fused(threads: int):
            return count_hits_fused(
                store, qq_values, qq_starts, family, min_hits=cfg.min_hits,
                n_queries=n_seg, nonempty=q_nonempty, threads=threads,
            )

        hits_fused = e2e_fused(thread_count())
        fused_parity = bool(
            hits_fused is not None
            and np.array_equal(hits_fused.subject, hits_reference.subject)
            and np.array_equal(hits_fused.count, hits_reference.count)
            and np.array_equal(hits_fused.subject, hits_vectorised.subject)
            and np.array_equal(hits_fused.count, hits_vectorised.count)
        )
        t_fused_default = best(lambda: e2e_fused(thread_count()))
        e2e_speedup = (
            t_e2e_reference / t_fused_default if t_fused_default > 0 else float("inf")
        )
        end_to_end.update(
            fused_seconds=t_fused_default,
            speedup=e2e_speedup,
            speedup_vs_vectorised=(
                t_e2e_vectorised / t_fused_default
                if t_fused_default > 0
                else float("inf")
            ),
            parity=fused_parity,
        )
        # thread scaling: bit-identical output, wall-clock per thread count
        scaling_counts = sorted({1, 2, thread_count()})
        t_one = None
        for nt in scaling_counts:
            t_nt = best(lambda nt=nt: e2e_fused(nt))
            if t_one is None:
                t_one = t_nt
            end_to_end["threads"][str(nt)] = {
                "seconds": t_nt,
                "speedup_vs_1": t_one / t_nt if t_nt > 0 else float("inf"),
            }
        e2e_rows = [
            ["fused map (S4 e2e)", f"{t_e2e_reference:.4f}", f"{t_fused_default:.4f}",
             f"{e2e_speedup:.2f}x", "yes" if fused_parity else "NO"],
            ["fused vs numpy-vect", f"{t_e2e_vectorised:.4f}", f"{t_fused_default:.4f}",
             f"{end_to_end['speedup_vs_vectorised']:.2f}x",
             "yes" if fused_parity else "NO"],
        ]

    rows = [
        ["subject sketch (S2)", f"{t_subj_reference:.4f}", f"{t_subj_batched:.4f}",
         f"{subject_speedup:.2f}x", "yes" if subject_parity else "NO"],
        ["query sketch (S4)", f"{t_query_reference:.4f}", f"{t_query_batched:.4f}",
         f"{query_speedup:.2f}x", "yes" if query_parity else "NO"],
        *e2e_rows,
    ]
    text = render_table(
        f"Kernel batching — {DATASETS[name].organism}, T={cfg.trials} "
        f"(scale={ctx.scale:g}, {backend} backend, min of {repeats} runs)",
        ["kernel", "per-trial (s)", "batched (s)", "speedup", "bit-identical"],
        rows,
    )
    data = {
        "dataset": name,
        "backend": backend,
        "trials": cfg.trials,
        "n_contigs": len(ds.contigs),
        "n_segments": len(segments),
        "subject": {
            "reference_seconds": t_subj_reference,
            "batched_seconds": t_subj_batched,
            "speedup": subject_speedup,
            "parity": subject_parity,
        },
        "query": {
            "reference_seconds": t_query_reference,
            "batched_seconds": t_query_batched,
            "speedup": query_speedup,
            "parity": query_parity,
        },
        "end_to_end": end_to_end,
    }
    return _finish(ctx, ExperimentOutput("kernels", text, data))


# -- Fault-injection smoke -----------------------------------------------------


def exp_faults(ctx: BenchContext) -> ExperimentOutput:
    """Recovery-overhead smoke: seeded fault plans must not change output.

    Runs the simulated S1–S4 driver on one dataset at p=8 under several
    seeded recoverable fault plans and reports, per seed, the faults that
    fired, the modelled recovery time, and whether the mapping stayed
    bit-identical to the fault-free run — a fast regression tripwire for
    the recovery machinery's overhead and correctness.
    """
    from ..parallel.faults import FaultPlan
    from ..parallel.retry import RetryPolicy

    name = ctx.pick(("e_coli",))[0]
    ds = ctx.dataset(name)
    p = 8
    baseline = run_parallel_jem(
        ds.contigs, ds.reads, ctx.config, p=p, cost_model=ctx.cost_model
    )
    policy = RetryPolicy(base_delay=0.005, max_delay=0.05)
    rows = []
    data: dict = {"dataset": name, "p": p, "seeds": {}}
    for seed in (1, 2, 3, 4):
        plan = FaultPlan.seeded(seed, p, delay=0.02)
        run = run_parallel_jem(
            ds.contigs, ds.reads, ctx.config, p=p,
            cost_model=ctx.cost_model, faults=plan, retry=policy,
        )
        identical = bool(
            np.array_equal(run.mapping.subject, baseline.mapping.subject)
            and np.array_equal(run.mapping.hit_count, baseline.mapping.hit_count)
            and run.mapping.segment_names == baseline.mapping.segment_names
        )
        rows.append([
            str(seed),
            str(plan.total_fired),
            f"{run.recovery_time:.4f}",
            str(run.steps.gather_retries),
            "yes" if identical else "NO",
        ])
        data["seeds"][seed] = {
            "faults_fired": plan.total_fired,
            "recovery_time": run.recovery_time,
            "gather_retries": run.steps.gather_retries,
            "identical": identical,
        }
    text = render_table(
        f"Fault-injection smoke — {DATASETS[name].organism}, p={p}",
        ["seed", "faults fired", "recovery (s)", "gather retries", "output identical"],
        rows,
    )
    return _finish(ctx, ExperimentOutput("faults", text, data))


# -- Service throughput --------------------------------------------------------


def exp_serve(
    ctx: BenchContext, *, n_batches: int = 5, passes: int = 2
) -> ExperimentOutput:
    """Resident mapping service vs repeated one-shot ``jem map``.

    The one-shot baseline re-indexes the contigs for every arriving batch
    (exactly what ``jem map -s contigs.fasta`` does per invocation); the
    service builds the index once, then streams the same arrival schedule
    through the admission queue, micro-batcher, and result cache.  The
    stream is played ``passes`` times, so the later passes are pure
    duplicates — the cache-hit regime of a production mapper.  Reported
    throughput counts every read of every pass for both sides, and the
    service output is verified bit-identical to the one-shot mapping.
    """
    from ..core.mapper import JEMMapper
    from ..service import MappingService, ServiceConfig

    name = ctx.pick(("e_coli",))[0]
    ds = ctx.dataset(name)
    bounds = np.linspace(0, len(ds.reads), n_batches + 1).astype(np.int64)
    batches = [
        ds.reads.slice(int(bounds[b]), int(bounds[b + 1]))
        for b in range(n_batches)
        if bounds[b] < bounds[b + 1]
    ]
    total_reads = passes * len(ds.reads)

    # one-shot: every batch pays index load + map, like a fresh CLI run
    t0 = time.perf_counter()
    oneshot_results = []
    for _ in range(passes):
        for batch in batches:
            mapper = JEMMapper(ctx.config)
            mapper.index(ds.contigs)
            oneshot_results.append(mapper.map_reads(batch))
    oneshot_seconds = time.perf_counter() - t0

    # service: index resident, batched, cached
    service_config = ServiceConfig(max_batch_size=64, max_wait_ms=1.0)
    t0 = time.perf_counter()
    service = MappingService.from_contigs(ds.contigs, ctx.config, service_config)
    service_results = []
    for _ in range(passes):
        for batch in batches:
            service_results.append(service.map_reads(batch))
    service.drain()
    service_seconds = time.perf_counter() - t0

    identical = all(
        s.segment_names == o.segment_names
        and np.array_equal(s.subject, o.subject)
        and np.array_equal(s.hit_count, o.hit_count)
        for s, o in zip(service_results, oneshot_results)
    )
    snapshot = service.metrics.snapshot()
    oneshot_tp = total_reads / oneshot_seconds if oneshot_seconds > 0 else 0.0
    service_tp = total_reads / service_seconds if service_seconds > 0 else 0.0
    speedup = service_tp / oneshot_tp if oneshot_tp > 0 else float("inf")
    latency = snapshot["histograms"]["request_latency_seconds"]
    rows = [
        ["one-shot (reindex per batch)", f"{oneshot_seconds:.3f}",
         f"{oneshot_tp:,.0f}", "-", "-", "-", "-"],
        ["service (resident+batch+cache)", f"{service_seconds:.3f}",
         f"{service_tp:,.0f}", f"{1000 * latency['p50']:.1f}",
         f"{1000 * latency['p95']:.1f}", f"{1000 * latency['p99']:.1f}",
         f"{100 * snapshot['cache_hit_ratio']:.0f}%"],
    ]
    text = render_table(
        f"Service throughput — {DATASETS[name].organism}, {total_reads} reads "
        f"({passes} passes x {len(batches)} batches, scale={ctx.scale:g}); "
        f"speedup {speedup:.1f}x, output identical: {'yes' if identical else 'NO'}",
        ["mode", "wall (s)", "reads/s", "lat p50 (ms)", "lat p95 (ms)",
         "lat p99 (ms)", "cache hits"],
        rows,
    )
    data = {
        "dataset": name,
        "n_reads": total_reads,
        "passes": passes,
        "n_batches": len(batches),
        "oneshot_seconds": oneshot_seconds,
        "service_seconds": service_seconds,
        "oneshot_reads_per_s": oneshot_tp,
        "service_reads_per_s": service_tp,
        "speedup": speedup,
        "identical": identical,
        "service_config": service_config,
        "metrics": snapshot,
    }
    return _finish(ctx, ExperimentOutput("serve", text, data))


# -- Concurrent serving --------------------------------------------------------


def exp_serve_concurrent(
    ctx: BenchContext,
    *,
    replica_counts: tuple[int, ...] = (1, 2, 4),
    n_batches: int = 5,
    passes: int = 2,
    repeats: int = 7,
    overload_factor: int = 10,
) -> ExperimentOutput:
    """Replicated serving scale-up over the single-service baseline.

    Same workload and service configuration as :func:`exp_serve`'s
    service mode (so the 1-replica row reproduces ``BENCH_serve.json``'s
    ``service_reads_per_s``), scaled out over N replicas.

    This host has one core, so — like the Mashmap thread model — replica
    scaling is *modelled from isolated measurements* rather than timed
    concurrently: the front-end routes each replica an equal contiguous
    share of the stream (affinity routing, so repeated reads hit the same
    replica's cache), each replica's busy time is the min-of-``repeats``
    wall of streaming its whole share through a fresh service once per
    pass, and the modelled wall is the slowest replica's busy time.  The
    *real* concurrent path is exercised separately on the same stream —
    batched arrivals and all — through
    :class:`~repro.netserve.ReplicaSet` under both placement policies,
    and its output is verified bit-identical to the sequential mapper —
    the correctness half of the claim is never modelled.

    An overload phase then offers ``overload_factor`` x the measured
    baseline throughput at the replicated front door and reads the
    aggregate p99: admission control must hold the tail to roughly a full
    queue's worth of service time instead of letting it grow with the
    offered backlog.
    """
    from ..core.mapper import JEMMapper
    from ..errors import ServiceOverloadError
    from ..netserve import ReplicaSet, make_placement
    from ..service import MappingService, ServiceConfig
    from ..service.metrics import aggregate_metrics

    name = ctx.pick(("e_coli",))[0]
    ds = ctx.dataset(name)
    n_reads = len(ds.reads)
    batch_bounds = np.linspace(0, n_reads, n_batches + 1).astype(np.int64)
    total_reads = passes * n_reads
    service_config = ServiceConfig(max_batch_size=64, max_wait_ms=1.0)

    jem = JEMMapper(ctx.config)
    jem.index(ds.contigs)
    batches = [
        ds.reads.slice(int(batch_bounds[b]), int(batch_bounds[b + 1]))
        for b in range(n_batches)
        if batch_bounds[b] < batch_bounds[b + 1]
    ]
    sequential = [jem.map_reads(batch) for batch in batches]

    def same(a, b) -> bool:
        return bool(
            a.segment_names == b.segment_names
            and np.array_equal(a.subject, b.subject)
            and np.array_equal(a.hit_count, b.hit_count)
        )

    # Modelled scale-up: per-replica busy time in isolation, wall = max.
    # Repeats are interleaved round-robin across every (count, replica)
    # cell so a transient host stall lands on one round of many cells
    # rather than on every repeat of one cell — min-per-cell then removes
    # it instead of skewing one configuration's whole measurement.
    cells = []
    for n in replica_counts:
        replica_bounds = np.linspace(0, n_reads, n + 1).astype(np.int64)
        for i in range(n):
            cells.append((n, i, ds.reads.slice(
                int(replica_bounds[i]), int(replica_bounds[i + 1])
            )))
    walls: dict[tuple[int, int], list[float]] = {}
    cell_p99s: dict[tuple[int, int], list[float]] = {}
    for _round in range(repeats):
        for n, i, share in cells:
            service = MappingService(jem, service_config)
            t0 = time.perf_counter()
            for _ in range(passes):
                service.map_reads(share)
            walls.setdefault((n, i), []).append(time.perf_counter() - t0)
            snapshot = service.metrics.snapshot()
            cell_p99s.setdefault((n, i), []).append(
                snapshot["histograms"]["request_latency_seconds"]["p99"]
            )
            service.drain()
    per_count: dict[int, dict] = {}
    for n in replica_counts:
        busy = [min(walls[(n, i)]) for i in range(n)]
        p99s = [min(cell_p99s[(n, i)]) for i in range(n)]
        wall = max(busy)
        per_count[n] = {
            "per_replica_busy_s": busy,
            "modelled_wall_s": wall,
            "reads_per_s": total_reads / wall if wall > 0 else 0.0,
            "steady_p99_ms": 1000.0 * max(p99s),
        }
    baseline_tp = per_count[replica_counts[0]]["reads_per_s"]
    for n in replica_counts:
        per_count[n]["speedup"] = (
            per_count[n]["reads_per_s"] / baseline_tp if baseline_tp > 0 else 0.0
        )

    # real concurrent path: both placements, output bit-identical
    real: dict[str, dict] = {}
    for kind in ("replicate", "scatter"):
        for n in replica_counts:
            if n == 1 and kind == "scatter":
                continue
            with ReplicaSet(
                jem.table, jem.subject_names, ctx.config,
                placement=make_placement(kind, n),
                service_config=service_config,
            ) as replica_set:
                t0 = time.perf_counter()
                results = [
                    replica_set.map_reads(batch)
                    for _ in range(passes)
                    for batch in batches
                ]
                wall = time.perf_counter() - t0
            identical = all(
                same(got, sequential[j % len(batches)])
                for j, got in enumerate(results)
            )
            real[f"{kind}_x{n}"] = {
                "wall_s": wall,
                "identical": identical,
            }

    # overload: distinct (uncacheable) reads offered as fast as the host
    # can submit them, against the uncached sustainable rate.  Admission
    # control must pin the tail to queue depth x service time — shedding
    # the rest — instead of letting latency grow with the offered backlog.
    n_max = max(replica_counts)
    attempts = overload_factor * n_reads
    burst = []
    for j in range(attempts):
        mutated = ds.reads.codes_of(j % n_reads).copy()
        mutated[j % mutated.size] = (mutated[j % mutated.size] + 1) % 4
        burst.append((f"burst_{j}", mutated))
    overload_config = dataclasses.replace(
        service_config, cache_capacity=0, queue_capacity=32
    )
    sustained_walls: list[float] = []
    for _rep in range(repeats):
        uncached = MappingService(jem, overload_config)
        t0 = time.perf_counter()
        uncached.map_reads(ds.reads)
        sustained_walls.append(time.perf_counter() - t0)
        uncached.drain()
    sustained_tp = n_reads / min(sustained_walls)
    with ReplicaSet(
        jem.table, jem.subject_names, ctx.config,
        placement=make_placement("replicate", n_max),
        service_config=overload_config,
    ) as replica_set:
        futures = []
        shed = 0
        t0 = time.perf_counter()
        for read_name, read_codes in burst:
            try:
                futures.append(replica_set.submit(read_name, read_codes))
            except ServiceOverloadError:
                shed += 1
        submit_wall = time.perf_counter() - t0
        for future in futures:
            future.result(300.0)
        aggregate = aggregate_metrics(replica_set.metrics_registries())
    offered_rate = attempts / submit_wall if submit_wall > 0 else float("inf")
    overload_p99 = aggregate["histograms"]["request_latency_seconds"]["p99"]
    # every replica's queue can be full at once on this one-core host, so
    # the admissible tail is the whole set's queued work, with 2x slack
    p99_bound_s = 2.0 * n_max * overload_config.queue_capacity / sustained_tp
    overload = {
        "attempts": attempts,
        "accepted": len(futures),
        "shed": shed,
        "sustained_reads_per_s": sustained_tp,
        "offered_reads_per_s": offered_rate,
        "offered_over_sustained": offered_rate / sustained_tp,
        "p99_ms": 1000.0 * overload_p99,
        "p99_bound_ms": 1000.0 * p99_bound_s,
        "held": bool(overload_p99 <= p99_bound_s),
    }

    targets = {2: 1.7, 4: 3.0}
    targets_met = {
        str(n): bool(per_count[n]["speedup"] >= target)
        for n, target in targets.items()
        if n in per_count
    }
    rows = []
    for n in replica_counts:
        entry = per_count[n]
        verified = real.get(f"replicate_x{n}")
        rows.append([
            str(n),
            f"{entry['modelled_wall_s']:.3f}",
            f"{entry['reads_per_s']:,.0f}",
            f"{entry['speedup']:.2f}x",
            f">={targets[n]:.1f}x" if n in targets else "-",
            f"{entry['steady_p99_ms']:.1f}",
            "-" if verified is None else ("yes" if verified["identical"] else "NO"),
        ])
    text = render_table(
        f"Concurrent serving — {DATASETS[name].organism}, {total_reads} reads "
        f"({passes} passes, scale={ctx.scale:g}); modelled replica scale-up, "
        f"overload p99 {overload['p99_ms']:.1f} ms at "
        f"{overload['offered_over_sustained']:.0f}x offered "
        f"({'held' if overload['held'] else 'NOT HELD'})",
        ["replicas", "wall (s)", "reads/s", "speedup", "target",
         "p99 (ms)", "identical"],
        rows,
    )
    data = {
        "dataset": name,
        "n_reads": total_reads,
        "passes": passes,
        "n_batches": len(batches),
        "baseline_reads_per_s": baseline_tp,
        "replicas": {str(n): per_count[n] for n in replica_counts},
        "targets": {str(n): t for n, t in targets.items()},
        "targets_met": targets_met,
        "real_concurrent": real,
        "overload": overload,
        "service_config": service_config,
    }
    return _finish(ctx, ExperimentOutput("serve_concurrent", text, data))


# -- Sketch-store layouts ------------------------------------------------------


def exp_store(ctx: BenchContext, *, repeats: int = 5) -> ExperimentOutput:
    """Columnar vs dict sketch store: resident bytes, lookup rate, parity.

    Builds both resident layouts from one dataset's trial keys, verifies
    that every trial's batch lookup is bit-identical between them, and
    measures resident memory plus batch-lookup throughput (all T trials of
    the full query sketch matrix, min-over-``repeats``).  The JSON records
    ``memory_ratio`` (dict bytes / columnar bytes) and ``throughput_ratio``
    (columnar lookups/s over dict lookups/s), so CI can gate on the
    columnar layout's headline claim: at least one of the two >= 2x.
    """
    from ..core.mapper import JEMMapper
    from ..core.store import DictSketchStore
    from ..sketch.jem import query_sketch_values

    name = ctx.pick(("e_coli",))[0]
    ds = ctx.dataset(name)
    cfg = ctx.config
    segments, _ = extract_end_segments(ds.reads, cfg.ell)

    columnar = JEMMapper(cfg).index(ds.contigs)
    dictstore = DictSketchStore(
        [columnar.trial_keys(t) for t in range(columnar.trials)],
        columnar.n_subjects,
    )

    sketches = query_sketch_values(segments, cfg.k, cfg.w, cfg.hash_family())
    queries = [sketches.values[t, sketches.has] for t in range(cfg.trials)]
    n_lookups = cfg.trials * int(sketches.has.sum())

    parity = all(
        np.array_equal(ch.query_index, dh.query_index)
        and np.array_equal(ch.subjects, dh.subjects)
        for t, qv in enumerate(queries)
        for ch, dh in ((columnar.lookup_trial(t, qv), dictstore.lookup_trial(t, qv)),)
    )

    def sweep(store) -> float:
        t0 = time.perf_counter()
        for t, qv in enumerate(queries):
            store.lookup_trial(t, qv)
        return time.perf_counter() - t0

    col_seconds = min(sweep(columnar) for _ in range(repeats))
    dict_seconds = min(sweep(dictstore) for _ in range(repeats))
    col_rate = n_lookups / col_seconds if col_seconds > 0 else float("inf")
    dict_rate = n_lookups / dict_seconds if dict_seconds > 0 else float("inf")
    memory_ratio = dictstore.nbytes / columnar.nbytes if columnar.nbytes else float("inf")
    throughput_ratio = col_rate / dict_rate if dict_rate > 0 else float("inf")

    rows = [
        ["columnar", f"{columnar.nbytes / 1e6:.2f}", f"{col_seconds:.4f}",
         f"{col_rate:,.0f}", "yes" if parity else "NO"],
        ["dict", f"{dictstore.nbytes / 1e6:.2f}", f"{dict_seconds:.4f}",
         f"{dict_rate:,.0f}", "(oracle)"],
    ]
    text = render_table(
        f"Sketch-store layouts — {DATASETS[name].organism}, T={cfg.trials} "
        f"(scale={ctx.scale:g}, min of {repeats} sweeps); memory "
        f"{memory_ratio:.1f}x smaller, lookups {throughput_ratio:.1f}x faster",
        ["store", "resident (MB)", "sweep (s)", "lookups/s", "bit-identical"],
        rows,
    )
    data = {
        "dataset": name,
        "trials": cfg.trials,
        "n_contigs": len(ds.contigs),
        "n_queries": int(sketches.has.sum()),
        "n_lookups": n_lookups,
        "columnar_bytes": int(columnar.nbytes),
        "dict_bytes": int(dictstore.nbytes),
        "columnar_seconds": col_seconds,
        "dict_seconds": dict_seconds,
        "columnar_lookups_per_s": col_rate,
        "dict_lookups_per_s": dict_rate,
        "memory_ratio": memory_ratio,
        "throughput_ratio": throughput_ratio,
        "parity": parity,
    }
    return _finish(ctx, ExperimentOutput("store", text, data))


def exp_mutation(ctx: BenchContext, *, repeats: int = 3) -> ExperimentOutput:
    """Online-mutation cost: lookup latency per index shape + compaction.

    Seeds a mutable LSM index from most of one dataset's contigs, streams
    the rest in online, and sweeps the full query batch against each
    resident shape the index passes through: the clean seed segment, the
    memtable-resident adds, four flushed delta segments, and the
    compacted fold.  Times the compaction itself, and checks the headline
    invariant twice — after all adds, and again after a removal +
    compaction, the packed keys are **bit-identical** to a monolithic
    rebuild over the live contigs.
    """
    from ..core.lsm import MutableSketchStore
    from ..core.mapper import JEMMapper
    from ..seq.records import SequenceSet
    from ..sketch.jem import query_sketch_values

    name = ctx.pick(("e_coli",))[0]
    ds = ctx.dataset(name)
    cfg = ctx.config
    segments, _ = extract_end_segments(ds.reads, cfg.ell)
    sketches = query_sketch_values(segments, cfg.k, cfg.w, cfg.hash_family())
    queries = [sketches.values[t, sketches.has] for t in range(cfg.trials)]
    n_lookups = cfg.trials * int(sketches.has.sum())

    def subset(indices) -> SequenceSet:
        return SequenceSet.from_records([ds.contigs[int(i)] for i in indices])

    n = len(ds.contigs)
    hold = max(4, n // 5)  # contigs streamed in online, in 4 batches
    batches = np.array_split(np.arange(n - hold, n), 4)
    base = subset(range(n - hold))
    seed_mapper = JEMMapper(cfg)
    seed_mapper.index(base)
    handle = MutableSketchStore.in_memory(
        cfg, base_store=seed_mapper.table, subject_names=base.names
    )

    def sweep() -> float:
        store = handle.current
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for t, qv in enumerate(queries):
                store.lookup_trial(t, qv)
            best = min(best, time.perf_counter() - t0)
        return best

    def shape_row(label: str) -> dict:
        gen = handle.current
        seconds = sweep()
        return {
            "shape": label,
            "segments": len(gen.segments),
            "memtable_entries": int(gen.memtable_entries),
            "seconds": seconds,
            "lookups_per_s": n_lookups / seconds if seconds > 0 else float("inf"),
        }

    shapes = [shape_row("clean seed")]
    handle.add_contigs(subset(batches[0]))
    shapes.append(shape_row("memtable adds"))
    handle.flush()
    for batch in batches[1:]:
        handle.add_contigs(subset(batch))
        handle.flush()
    shapes.append(shape_row("4 delta segments"))

    full_mapper = JEMMapper(cfg)
    full_mapper.index(ds.contigs)
    parity_full = all(
        np.array_equal(handle.trial_keys(t), full_mapper.table.trial_keys(t))
        for t in range(cfg.trials)
    )

    t0 = time.perf_counter()
    handle.compact()
    compact_seconds = time.perf_counter() - t0
    shapes.append(shape_row("compacted"))

    # removal parity: drop the final batch; survivor ids stay contiguous,
    # so a monolithic rebuild over the survivors allocates identical ids
    handle.remove_contigs([ds.contigs.names[int(i)] for i in batches[-1]])
    handle.compact()
    survivors = subset(range(n - len(batches[-1])))
    live_mapper = JEMMapper(cfg)
    live_mapper.index(survivors)
    parity_removed = all(
        np.array_equal(handle.trial_keys(t), live_mapper.table.trial_keys(t))
        for t in range(cfg.trials)
    )

    clean_s = shapes[0]["seconds"]
    rows = [
        [s["shape"], str(s["segments"]), str(s["memtable_entries"]),
         f"{s['seconds']:.4f}", f"{s['lookups_per_s']:,.0f}",
         f"{s['seconds'] / clean_s:.2f}x" if clean_s > 0 else "-"]
        for s in shapes
    ]
    text = render_table(
        f"Mutable-index shapes — {DATASETS[name].organism}, T={cfg.trials} "
        f"(scale={ctx.scale:g}, min of {repeats} sweeps); compaction "
        f"{compact_seconds:.3f}s, parity "
        f"{'yes' if parity_full and parity_removed else 'NO'}",
        ["shape", "segments", "memtable", "sweep (s)", "lookups/s", "vs clean"],
        rows,
    )
    data = {
        "dataset": name,
        "trials": cfg.trials,
        "n_contigs": n,
        "online_added": int(hold),
        "n_lookups": n_lookups,
        "shapes": shapes,
        "compact_seconds": compact_seconds,
        "final_generation": handle.generation,
        "parity": parity_full,
        "parity_after_removal": parity_removed,
    }
    return _finish(ctx, ExperimentOutput("mutation", text, data))


#: Experiment registry for the CLI.
EXPERIMENTS = {
    "table1": exp_table1,
    "table2": exp_table2,
    "fig5": exp_fig5,
    "fig6": exp_fig6,
    "fig7": exp_fig7,
    "fig8": exp_fig8,
    "fig9": exp_fig9,
    "kernels": exp_kernels,
    "faults": exp_faults,
    "serve": exp_serve,
    "serve_concurrent": exp_serve_concurrent,
    "store": exp_store,
    "mutation": exp_mutation,
}
