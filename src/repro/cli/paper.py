"""The paper's commands: ``jem simulate`` (a Table I dataset to disk),
``jem eval`` (quality on a generated dataset), ``jem bench`` (a table or
figure of the evaluation) and ``jem datasets`` (the registry)."""

from __future__ import annotations

import argparse
import os
import time

from .common import MAPPER_KINDS, add_sketch_args, config_from

#: What the parser offers, spelled out so that building it imports neither
#: ``repro.bench`` nor ``repro.eval`` — the subcommands that use them do —
#: which was ~60 ms of every ``index`` / ``map`` / ``serve`` start.
#: ``tests/integration/test_cli.py`` holds the three equal to
#: ``ALL_EXPERIMENTS``, ``dataset_names()`` and ``DEFAULT_SCALE``.
EXPERIMENT_NAMES = (
    "table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9",
    "ablation_topx", "ablation_segments", "ablation_window",
    "ablation_counter", "ablation_threshold", "ablation_kmer",
    "ablation_ingredients", "ablation_seeds", "ablation_error_rate",
)
DATASET_NAMES = (
    "e_coli", "p_aeruginosa", "c_elegans", "d_busckii", "human_chr7",
    "human_chr8", "b_splendens", "o_sativa_chr8",
)
DEFAULT_SCALE = 0.005


def register_simulate(sub) -> None:
    p_sim = sub.add_parser("simulate", help="generate a Table I dataset to disk")
    p_sim.add_argument("dataset", choices=DATASET_NAMES)
    p_sim.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(run=_cmd_simulate)


def register(sub) -> None:
    """``eval``, ``bench`` and ``datasets``, which close the command list."""
    p_eval = sub.add_parser("eval", help="quality evaluation on a generated dataset")
    p_eval.add_argument("dataset", choices=DATASET_NAMES)
    p_eval.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p_eval.add_argument("--data-seed", type=int, default=0)
    p_eval.add_argument("--cache-dir", default=".dataset_cache")
    p_eval.add_argument(
        "--mappers", default="jem,mashmap",
        help=f"comma list from: {','.join(MAPPER_KINDS)}",
    )
    add_sketch_args(p_eval)
    p_eval.set_defaults(run=_cmd_eval)

    p_bench = sub.add_parser("bench", help="regenerate a paper table/figure")
    p_bench.add_argument("experiment", choices=[*EXPERIMENT_NAMES, "all"])
    p_bench.add_argument("--scale", type=float, default=None)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--datasets", default=None, help="comma list to restrict inputs")
    p_bench.add_argument("--cache-dir", default=".dataset_cache")
    p_bench.add_argument("--results-dir", default="results")
    p_bench.set_defaults(run=_cmd_bench)

    sub.add_parser("datasets", help="list the dataset registry").set_defaults(run=_cmd_datasets)


def _cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from ..eval.datasets import load_or_generate
    from ..seq.io_fasta import write_fasta
    from ..seq.io_fastq import write_fastq
    from ..seq.records import SequenceSet
    from ..seq.stats import set_stats

    dataset = load_or_generate(args.dataset, scale=args.scale, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    genome_path = os.path.join(args.out, f"{args.dataset}_genome.fasta")
    contig_path = os.path.join(args.out, f"{args.dataset}_contigs.fasta")
    reads_path = os.path.join(args.out, f"{args.dataset}_reads.fastq")
    write_fasta(
        genome_path,
        SequenceSet(
            dataset.genome,
            np.array([0, dataset.genome.size], dtype=np.int64),
            [f"{args.dataset}_reference"],
        ),
    )
    write_fasta(contig_path, dataset.contigs)
    write_fastq(reads_path, dataset.reads)
    print(f"genome : {genome_path} ({dataset.genome.size:,} bp)")
    print(f"contigs: {contig_path} ({set_stats(dataset.contigs).format_row()})")
    print(f"reads  : {reads_path} ({set_stats(dataset.reads).format_row()})")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from ..eval.datasets import load_or_generate
    from ..eval.pipeline import run_mappers

    dataset = load_or_generate(
        args.dataset, scale=args.scale, seed=args.data_seed, cache_dir=args.cache_dir
    )
    config = config_from(args)
    mappers = tuple(m.strip() for m in args.mappers.split(",") if m.strip())
    result = run_mappers(dataset, config, mappers=mappers)
    print(f"dataset {args.dataset}: genome={dataset.genome.size:,} bp, "
          f"{len(dataset.contigs)} contigs, {len(dataset.reads)} reads")
    for label, run in result.runs.items():
        print(run.quality.format_row(label)
              + f"  [index {run.index_seconds:.2f}s + map {run.map_seconds:.2f}s]")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from ..bench import ALL_EXPERIMENTS as EXPERIMENTS, BenchContext

    fields: dict = {
        "seed": args.seed,
        "cache_dir": args.cache_dir,
        "results_dir": args.results_dir,
    }
    if args.scale is not None:
        fields["scale"] = args.scale
    if args.datasets:
        fields["datasets"] = tuple(args.datasets.split(","))
    ctx = BenchContext(**fields)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        t0 = time.perf_counter()
        output = EXPERIMENTS[name](ctx)
        print(output.text)
        print(f"[{name}: {time.perf_counter() - t0:.1f}s; saved to "
              f"{os.path.join(ctx.results_dir, name + '.txt')}]\n")
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from ..eval.datasets import DATASETS

    print(f"{'name':<16} {'organism':<28} {'genome bp':>12} repeats")
    for name, spec in DATASETS.items():
        print(
            f"{name:<16} {spec.organism:<28} {spec.full_genome_length:>12,} "
            f"{spec.repeat_fraction:.0%} x {spec.repeat_length} bp "
            f"@ {spec.repeat_divergence:.1%} divergence"
        )
    return 0
