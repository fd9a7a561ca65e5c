"""One experiment per table/figure of the paper's evaluation (Section IV).

Every ``exp_*`` function regenerates one artifact: it runs the relevant
workload, renders a plain-text table shaped like the paper's, writes it to
``<results_dir>/<name>.txt`` and returns the underlying numbers so the
benchmark suite can assert the *shape* findings (who wins, how curves
move).  Scale is configurable; absolute seconds are this implementation's,
not the paper cluster's (see EXPERIMENTS.md for the comparison discipline).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..align import segment_identity
from ..core.config import JEMConfig
from ..core.segments import extract_end_segments
from ..eval.datasets import DATASETS, LARGE_DATASETS, Dataset, load_or_generate
from ..eval.pipeline import prepare_benchmark, run_mappers
from ..eval.report import render_series, render_table
from ..parallel.costmodel import CostModel, StepTimes
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
    "EXPERIMENTS",
]

#: Process counts of Table II / Figs. 7-8.
P_VALUES = (4, 8, 16, 32, 64)

#: Trial counts of the Fig. 6 sweep.
TRIALS_SWEEP = (5, 10, 20, 30, 50, 100, 150)


@dataclass(frozen=True)
class ThreadScalingModel:
    """Amdahl-style model of Mashmap's shared-memory multithreading.

    The paper runs Mashmap with 64 threads; this host has two vCPUs, so the
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


@dataclass
class ExperimentOutput:
    """Rendered text plus the raw numbers of one experiment."""

    name: str
    text: str
    data: dict

    def save(self, results_dir: str) -> str:
        os.makedirs(results_dir, exist_ok=True)
        path = os.path.join(results_dir, f"{self.name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text + "\n")
        return path


def _finish(ctx: BenchContext, out: ExperimentOutput) -> ExperimentOutput:
    out.save(ctx.results_dir)
    return out


def _best_steps(ctx: BenchContext, ds: Dataset) -> dict[int, StepTimes]:
    """Step times per p, S2/S4 seconds the per-rank best of 3 sweeps over p.

    A preempted vCPU inflates single ranks and a makespan is a maximum over
    ranks, so noise is damped rank by rank; one p's repeats are a sweep
    apart, where a burst of contention does not cover them all.
    """
    sweeps = [
        {
            p: run_parallel_jem(
                ds.contigs, ds.reads, ctx.config, p=p, cost_model=ctx.cost_model
            ).steps
            for p in P_VALUES
        }
        for _ in range(3)
    ]
    best = sweeps[0]
    for p in P_VALUES:
        best[p].sketch = np.min([sweep[p].sketch for sweep in sweeps], axis=0)
        best[p].map = np.min([sweep[p].map for sweep in sweeps], axis=0)
    return best


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
        jem_times = {p: s.total_time for p, s in _best_steps(ctx, ds).items()}
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
        steps = _best_steps(ctx, ds)
        b = steps[16].breakdown()
        total = sum(b.values())
        breakdown_rows.append(
            [DATASETS[name].organism]
            + [f"{b[key]:.3f} ({100 * b[key] / total:.0f}%)" for key in b]
        )
        data["breakdown"][name] = b
        thr = [2 * len(ds.reads) / float(steps[p].map.max()) for p in P_VALUES]
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
        for steps in _best_steps(ctx, ds).values():
            frac = steps.comm_fraction
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


#: Experiment registry for the CLI.
EXPERIMENTS = {
    "table1": exp_table1,
    "table2": exp_table2,
    "fig5": exp_fig5,
    "fig6": exp_fig6,
    "fig7": exp_fig7,
    "fig8": exp_fig8,
    "fig9": exp_fig9,
}
