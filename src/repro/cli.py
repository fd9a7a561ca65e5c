"""Command-line interface: ``jem-mapper`` / ``python -m repro``.

Subcommands:

* ``simulate`` — generate one of the Table I datasets to FASTA/FASTQ files;
* ``map``      — map long reads (FASTA/FASTQ) to contigs (FASTA) and write
  a TSV of ⟨segment, contig, hits⟩, batch by batch as the reads are parsed
  (mapper: jem / mashmap / minhash / minimap-lite; ``-p N`` maps on N
  native kernel threads);
* ``store-stats`` — inspect a saved index (bundle or mutable directory):
  generation, segments, memtable, tombstones, byte breakdown;
* ``serve``    — long-lived mapping service speaking NDJSON over TCP
  (index resident, micro-batched, cached; see ``docs/serving.md``);
* ``client``   — drive a ``serve`` process from a FASTA/FASTQ file and
  write the same TSV as ``map``;
* ``chaos``    — seeded kill-resume chaos cycles against ``index``/``map``
  with output-parity verification (see ``docs/robustness.md``);
* ``eval``     — end-to-end quality evaluation on a generated dataset;
* ``bench``    — regenerate one (or all) of the paper's tables/figures;
* ``datasets`` — list the dataset registry.

``index`` and ``map`` accept ``--checkpoint-dir DIR`` to commit every
contig block / read batch of their streamed loop durably, and ``--resume
DIR`` to re-run the recorded invocation, skipping finished units — the
resumed output is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import TYPE_CHECKING

from . import __version__, _native_build
from .errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.config import JEMConfig
    from .core.engine import MappingEngine

__all__ = ["main", "build_parser"]

#: What the parser offers, spelled out so that building it imports neither
#: ``repro.bench`` nor ``repro.eval`` — the subcommands that use them do —
#: which was ~60 ms of every ``index`` / ``map`` / ``serve`` start — nor numpy
#: and the engine: :func:`main` starts a cold cache's kernel compile before
#: those imports, which every handler makes for itself.
#: ``tests/integration/test_cli.py`` holds the four equal to
#: ``ALL_EXPERIMENTS``, ``dataset_names()``, ``DEFAULT_SCALE`` and ``MAPPER_KINDS``.
_EXPERIMENT_NAMES = (
    "table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9",
    "ablation_topx", "ablation_segments", "ablation_window",
    "ablation_counter", "ablation_threshold", "ablation_kmer",
    "ablation_ingredients", "ablation_seeds", "ablation_error_rate",
)
_DATASET_NAMES = (
    "e_coli", "p_aeruginosa", "c_elegans", "d_busckii", "human_chr7",
    "human_chr8", "b_splendens", "o_sativa_chr8",
)
_DEFAULT_SCALE = 0.005
_MAPPER_KINDS = ("jem", "minhash", "mashmap", "minimap-lite")

#: The commands whose work runs in the compiled kernels.
_KERNEL_COMMANDS = ("index", "map", "serve")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """The sketch flags.  Each is unset unless given — ``JEMConfig``'s default
    then applies — so that next to ``--index`` a given one can be checked."""
    parser.add_argument("--k", type=int, help="k-mer size (default 16)")
    parser.add_argument("--w", type=int, help="minimizer window (default 100)")
    parser.add_argument("--ell", type=int, help="end-segment length (default 1000)")
    parser.add_argument("--trials", type=int, help="MinHash trials T (default 30)")
    parser.add_argument("--seed", type=int, help="hash-constant seed (default 20230157)")


def _sketch_flags(args: argparse.Namespace) -> dict[str, int]:
    """The sketch flags the user gave, by ``JEMConfig`` field."""
    from .core.engine import SKETCH_FLAGS

    return {n: getattr(args, n) for n in SKETCH_FLAGS if getattr(args, n, None) is not None}


def _sketch_argv(args: argparse.Namespace) -> list[str]:
    """The given sketch flags again, as a command line forwards them."""
    return [
        item for name, value in _sketch_flags(args).items() for item in (f"--{name}", str(value))
    ]


def _config_from(args: argparse.Namespace) -> JEMConfig:
    from .core.config import JEMConfig

    return JEMConfig(**_sketch_flags(args))


def _index_disagrees(args: argparse.Namespace, engine: MappingEngine) -> bool:
    """Whether a sketch flag given beside ``--index`` differs from the value
    the index was built with (then printed as an error: an index is mapped
    with its own parameters, so such a flag would be silently ignored)."""
    if not args.index:
        return False
    config = engine.mapper.config
    wrong = [
        f"--{name} {value} (the index has {name} = {getattr(config, name)})"
        for name, value in _sketch_flags(args).items() if value != getattr(config, name)
    ]
    if wrong:
        print(f"error: {'; '.join(wrong)}: an index maps with the sketch parameters "
              "it was built with; drop the flag or rebuild the index", file=sys.stderr)
    return bool(wrong)


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="commit every contig block and read batch durably "
                             "to DIR; a killed run restarted with the same "
                             "command (or --resume DIR) skips finished units")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="re-run the invocation recorded in DIR by an "
                             "earlier --checkpoint-dir run, loading its "
                             "completed units")


def _apply_resume(args: argparse.Namespace, command: str) -> argparse.Namespace:
    """Replace ``args`` with the invocation a ``--resume`` directory recorded."""
    if not getattr(args, "resume", None):
        return args
    from .errors import CheckpointError
    from .resilience import load_invocation

    payload = load_invocation(args.resume)
    if payload.get("command") != command:
        raise CheckpointError(
            f"{args.resume!r} was created by `jem {payload.get('command')}`, "
            f"not `jem {command}`"
        )
    resumed = argparse.Namespace(**payload["args"])
    resumed.command = command
    resumed.resume = None
    return resumed


def _invocation_payload(args: argparse.Namespace, command: str) -> dict:
    """Everything ``--resume`` needs to reconstruct this command line."""
    return {
        "command": command,
        "args": {
            k: v for k, v in vars(args).items() if k not in ("command", "resume")
        },
    }


@contextlib.contextmanager
def _checkpointed(
    args: argparse.Namespace, engine: MappingEngine, command: str, queries: str | None = None
):
    """Inside, ``engine``'s streamed loops commit their units to
    ``--checkpoint-dir`` (nothing happens without one); the invocation is
    recorded once the directory's manifest agrees."""
    if not args.checkpoint_dir:
        yield
        return
    from .resilience import checkpointed, save_invocation

    with checkpointed(engine, command, queries):
        save_invocation(args.checkpoint_dir, _invocation_payload(args, command))
        yield


def _engine_from(args: argparse.Namespace) -> MappingEngine:
    """Engine wired from ``--index`` or ``-s`` (shared by map/serve)."""
    from .core.engine import MappingEngine, PipelineConfig

    engine = MappingEngine(PipelineConfig.from_args(args))
    if getattr(args, "index", None):
        return engine.use_index(args.index)
    return engine.load_subjects(args.subjects)


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    """The knobs of the fleet ``serve`` fronts: batching, admission, caching,
    self-healing and index maintenance."""
    parser.add_argument("--max-batch", type=int, default=64,
                        help="most reads coalesced into one micro-batch (default 64)")
    parser.add_argument("--queue-capacity", type=int, default=1024,
                        help="admission queue bound; beyond it requests are "
                             "rejected with a retry-after hint (default 1024)")
    parser.add_argument("--cache-capacity", type=int, default=4096,
                        help="query-sketch LRU result cache entries; 0 disables "
                             "(default 4096)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the final metrics snapshot as JSON")
    parser.add_argument("--breaker-failures", type=int, default=0,
                        help="failed batches in the rolling window that trip "
                             "the circuit breaker into degraded reduced-trial "
                             "mapping (0 = breaker disabled, default)")
    parser.add_argument("--memtable-flush-entries", type=int, default=0,
                        help="auto-flush the mutable index's memtable once an "
                             "online add leaves this many entries in it "
                             "(0 = disabled, default)")
    parser.add_argument("--compact-segments", type=int, default=0,
                        help="most segments the mutable index keeps: a "
                             "mutation that leaves more compacts it "
                             "(0 = disabled, default)")


def _service_config_from(args: argparse.Namespace):
    from .service import ServiceConfig

    return ServiceConfig(
        max_batch_size=args.max_batch,
        queue_capacity=args.queue_capacity,
        cache_capacity=args.cache_capacity,
        breaker_failures=args.breaker_failures,
        memtable_flush_entries=args.memtable_flush_entries,
        compact_segments=args.compact_segments,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jem-mapper",
        description="JEM-mapper: parallel sketch-based mapping of long reads to contigs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a Table I dataset to disk")
    p_sim.add_argument("dataset", choices=_DATASET_NAMES)
    p_sim.add_argument("--scale", type=float, default=_DEFAULT_SCALE)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=".", help="output directory")

    p_index = sub.add_parser("index", help="build and save a JEM index from contigs")
    p_index.add_argument("-s", "--subjects", help="contigs FASTA")
    p_index.add_argument("-o", "--output", help="index file (.npz) or, with any "
                                               "mutable-index flag, a v4 directory")
    p_index.add_argument("--mutable", action="store_true",
                         help="write a mutable (format v4) index directory "
                              "instead of a .npz bundle; -o names the directory")
    p_index.add_argument("--from-index", default=None, metavar="BUNDLE",
                         help="seed the mutable directory at -o from an existing "
                              ".npz bundle (one-shot v3 -> v4 migration)")
    p_index.add_argument("--append", default=None, metavar="FASTA",
                         help="add these contigs to the mutable index at -o "
                              "(WAL-logged, crash-safe)")
    p_index.add_argument("--remove", default=None, metavar="NAMES",
                         help="comma list of contig names to tombstone in the "
                              "mutable index at -o")
    p_index.add_argument("--flush", action="store_true",
                         help="seal the mutable index's memtable into an "
                              "immutable on-disk segment")
    p_index.add_argument("--compact", action="store_true",
                         help="fold the mutable index into one clean segment "
                              "(drops tombstoned entries, restores the fused "
                              "lookup path)")
    _add_checkpoint_args(p_index)
    _add_config_args(p_index)

    p_stats = sub.add_parser(
        "store-stats",
        help="inspect a saved index: generation, segments, memtable, tombstones",
    )
    p_stats.add_argument("--index", required=True,
                         help="index bundle (.npz) or mutable index directory")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the stats block as JSON instead of text")

    p_map = sub.add_parser("map", help="map long reads to contigs")
    p_map.add_argument("-q", "--queries", help="long reads FASTA/FASTQ")
    p_map.add_argument("-s", "--subjects", help="contigs FASTA")
    p_map.add_argument("--index", help="saved JEM index (alternative to -s)")
    p_map.add_argument("-o", "--output", default="-", help="output TSV ('-' = stdout)")
    p_map.add_argument("--mapper", choices=_MAPPER_KINDS, default="jem")
    p_map.add_argument("-p", "--processes", type=int, default=None,
                       help="threads every native kernel (minimizers, sketch, "
                            "map) runs on (default: one per CPU, or "
                            "REPRO_NATIVE_THREADS; jem only)")
    # hidden and ignored: kept only because ledger/workloads.py's p2 leg still
    # passes `--backend process`, until ROADMAP item 1 drops it there
    p_map.add_argument("--backend", choices=("process",), help=argparse.SUPPRESS)
    p_map.add_argument("--paf", action="store_true",
                       help="write PAF with coordinates instead of the TSV "
                            "(requires -s, not --index)")
    p_map.add_argument("--on-error", choices=("raise", "skip"), default="raise",
                       help="input parser policy: abort on malformed records "
                            "or skip them with a counted warning")
    _add_checkpoint_args(p_map)
    _add_config_args(p_map)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived mapping service: NDJSON requests and responses over "
             "TCP (see docs/serving.md)",
    )
    p_serve.add_argument("--index", required=True,
                         help="saved JEM index: a bundle (.npz) or a mutable "
                              "index directory, as `jem index` writes them")
    p_serve.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                         help="TCP address to serve the NDJSON protocol on; "
                              "port 0 picks a free port, named in the stderr "
                              "banner (default 127.0.0.1:0)")
    p_serve.add_argument("--replicas", type=int, default=1,
                         help="mapping service workers (default 1)")
    p_serve.add_argument("--placement", choices=("scatter", "replicate"),
                         default="replicate",
                         help="replica index ownership: replicate = every "
                              "replica maps whole reads on the one shared "
                              "index through the fused kernel, round-robin; "
                              "scatter = key-range shards + central numpy "
                              "vote (default replicate)")
    p_serve.add_argument("--tenant-quota", type=int, default=None,
                         help="max in-flight maps per tenant tag across all "
                              "sessions (default: unlimited)")
    p_serve.add_argument("--probe-interval-ms", type=float, default=500.0,
                         help="supervisor heartbeat interval "
                              "(default 500; probe deadline is half of it)")
    p_serve.add_argument("--max-line-bytes", type=int, default=1 << 20,
                         help="longest accepted NDJSON request line; an "
                              "oversized line is skipped and answered with "
                              "a typed error (default 1MiB)")
    p_serve.add_argument("--idle-timeout", type=float, default=300.0,
                         metavar="SECONDS",
                         help="slow-loris guard: cut a connection that "
                              "completes no request line in this long (0 "
                              "disables, default 300)")
    _add_service_args(p_serve)

    p_client = sub.add_parser(
        "client",
        help="stream a FASTA/FASTQ file through a running `jem serve` "
             "and write the same TSV as `map`",
    )
    p_client.add_argument("-q", "--queries", required=True, help="long reads FASTA/FASTQ")
    p_client.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="address of a running `jem serve`")
    p_client.add_argument("-o", "--output", default="-", help="output TSV ('-' = stdout)")
    p_client.add_argument("--on-error", choices=("raise", "skip"), default="raise",
                          help="input parser policy")
    p_client.add_argument("--metrics-out", default=None, metavar="PATH",
                          help="write the server's metrics snapshot, from its "
                               "`drained` reply, as JSON")

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded kill-resume chaos cycles against index/map with "
             "output-parity verification (see docs/robustness.md)",
    )
    p_chaos.add_argument("target", choices=("index", "map", "serve"),
                         help="which surface to torture: a checkpointed "
                              "index/map run, or the supervised replica "
                              "fleet behind the network service")
    p_chaos.add_argument("-s", "--subjects", required=True, help="contigs FASTA")
    p_chaos.add_argument("-q", "--queries",
                         help="long reads FASTA/FASTQ (map and serve targets)")
    p_chaos.add_argument("--replicas", type=int, default=3,
                         help="scatter fleet size for the serve target "
                              "(default 3)")
    p_chaos.add_argument("--seeds", default="1,2,3,4,5",
                         help="comma list of chaos plan seeds (default 1,2,3,4,5)")
    p_chaos.add_argument("--workdir", default=None,
                         help="where per-seed run directories land "
                              "(default: a fresh temp dir)")
    p_chaos.add_argument("--keep", action="store_true",
                         help="keep the run directories for inspection")
    _add_config_args(p_chaos)

    p_eval = sub.add_parser("eval", help="quality evaluation on a generated dataset")
    p_eval.add_argument("dataset", choices=_DATASET_NAMES)
    p_eval.add_argument("--scale", type=float, default=_DEFAULT_SCALE)
    p_eval.add_argument("--data-seed", type=int, default=0)
    p_eval.add_argument("--cache-dir", default=".dataset_cache")
    p_eval.add_argument(
        "--mappers", default="jem,mashmap",
        help=f"comma list from: {','.join(_MAPPER_KINDS)}",
    )
    _add_config_args(p_eval)

    p_bench = sub.add_parser("bench", help="regenerate a paper table/figure")
    p_bench.add_argument("experiment", choices=[*_EXPERIMENT_NAMES, "all"])
    p_bench.add_argument("--scale", type=float, default=None)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--datasets", default=None, help="comma list to restrict inputs")
    p_bench.add_argument("--cache-dir", default=".dataset_cache")
    p_bench.add_argument("--results-dir", default="results")

    sub.add_parser("datasets", help="list the dataset registry")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from .eval.datasets import load_or_generate
    from .seq.io_fasta import write_fasta
    from .seq.io_fastq import write_fastq
    from .seq.records import SequenceSet
    from .seq.stats import set_stats

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


def _cmd_index(args: argparse.Namespace) -> int:
    from .core.engine import native_summary
    from .core.persist import save_index

    args = _apply_resume(args, "index")
    if (args.mutable or args.from_index or args.append or args.remove
            or args.flush or args.compact):
        return _cmd_index_mutable(args)
    if args.subjects is None or args.output is None:
        print("error: index requires -s/--subjects and -o/--output", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    engine = _engine_from(args)  # block by block from the file, as `jem map -s` builds it
    with _checkpointed(args, engine, "index"):
        mapper = engine.mapper
    table = mapper.table
    path = save_index(mapper, args.output)
    print(f"indexed {table.n_subjects} contigs in {time.perf_counter() - t0:.2f}s: "
          f"{table.total_entries:,} sketch entries ({table.nbytes / 1e6:.1f} MB) -> {path} "
          f"[{native_summary(mapper.threads)}]")
    return 0


def _format_store_stats(stats: dict) -> str:
    nbytes = stats["nbytes"]
    lines = [
        f"generation      : {stats['generation']}",
        f"segments        : {stats['segments']} "
        f"(entries: {', '.join(str(n) for n in stats['segment_entries']) or '-'})",
        f"memtable entries: {stats['memtable_entries']}",
        f"tombstones      : {stats['tombstones']}",
        f"contigs         : {stats['live_subjects']} live / "
        f"{stats['n_subjects']} allocated",
        f"total entries   : {stats['total_entries']:,}",
        f"bytes           : {nbytes['total']:,} "
        f"(segments {nbytes['segments']:,} + memtable {nbytes['memtable']:,})",
    ]
    return "\n".join(lines)


def _cmd_index_mutable(args: argparse.Namespace) -> int:
    """``jem index`` with any mutable-index flag: operate on a v4 directory."""
    from .core.lsm import MANIFEST_NAME, MutableSketchStore, store_stats

    if args.output is None:
        print("error: mutable index operations require -o/--output DIR",
              file=sys.stderr)
        return 2
    run_dir = args.output
    t0 = time.perf_counter()
    actions: list[str] = []
    if os.path.exists(os.path.join(run_dir, MANIFEST_NAME)):
        handle = MutableSketchStore.open(run_dir)
    elif args.from_index:
        handle = MutableSketchStore.from_bundle(args.from_index, run_dir=run_dir)
        actions.append(f"migrated {args.from_index} -> v4 directory")
    elif args.subjects:
        config = _config_from(args)
        mapper = _engine_from(args).mapper
        handle = MutableSketchStore.create(
            run_dir, config, base_store=mapper.table,
            subject_names=mapper.subject_names,
        )
        actions.append(f"indexed {len(mapper.subject_names)} contig(s)")
    else:
        print(f"error: no mutable index at {run_dir!r}; seed it with "
              "-s contigs.fasta or --from-index bundle.npz", file=sys.stderr)
        return 2
    with handle:
        if args.append:
            from .seq.io_fasta import read_fasta

            extra = read_fasta(args.append)
            handle.add_contigs(extra)
            actions.append(f"appended {len(extra)} contig(s)")
        if args.remove:
            names = [n.strip() for n in args.remove.split(",") if n.strip()]
            handle.remove_contigs(names)
            actions.append(f"removed {len(names)} contig(s)")
        if args.flush:
            handle.flush()
            actions.append("flushed memtable")
        if args.compact:
            handle.compact()
            actions.append("compacted")
        stats = store_stats(handle)
    did = "; ".join(actions) if actions else "no changes"
    print(f"{run_dir}: {did} in {time.perf_counter() - t0:.2f}s "
          f"(generation {stats['generation']}, {stats['segments']} segment(s), "
          f"{stats['memtable_entries']} memtable entries, "
          f"{stats['tombstones']} tombstone(s), "
          f"{stats['total_entries']:,} total entries)")
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    import json

    from .core.lsm import MutableSketchStore, store_stats
    from .core.persist import load_index

    if os.path.isdir(args.index):
        with MutableSketchStore.open(args.index) as handle:
            stats = store_stats(handle)
    else:
        mapper = load_index(args.index)
        stats = store_stats(mapper.table)
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(f"index           : {args.index}")
        print(_format_store_stats(stats))
    return 0


@contextlib.contextmanager
def _tsv_output(path: str):
    """The handle `jem map` writes: stdout for ``-``, else a file next to
    ``path`` that is renamed over it only when the body finishes — a run that
    fails after some batches leaves no plausible, truncated TSV behind."""
    if path == "-":
        yield sys.stdout
        return
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _cmd_map(args: argparse.Namespace) -> int:
    args = _apply_resume(args, "map")
    if args.queries is None:
        print("error: map requires -q/--queries", file=sys.stderr)
        return 2
    if (args.subjects is None) == (args.index is None):
        print("error: provide exactly one of -s/--subjects or --index", file=sys.stderr)
        return 2
    if args.paf and args.index is not None:
        print("error: --paf needs contig sequences; use -s", file=sys.stderr)
        return 2
    if args.checkpoint_dir and args.paf:
        print("error: --paf runs on whole sets and --checkpoint-dir commits the "
              "streamed batches; drop --paf or --checkpoint-dir", file=sys.stderr)
        return 2
    engine = _engine_from(args)
    if _index_disagrees(args, engine):
        return 2
    if args.paf:
        from .core.engine import read_sequences
        from .core.paf import write_paf
        from .core.segments import extract_end_segments

        config = engine.pipeline.jem
        subjects = engine.subjects  # coordinates need the sequences: read before indexing
        queries = read_sequences(args.queries, on_error=args.on_error)
        mapping = engine.mapper.map_reads(queries)
        segments, _ = extract_end_segments(queries, config.ell)
        n = write_paf(args.output, mapping, segments, subjects,
                      trials=config.trials, k=config.k)
        print(f"wrote {n} PAF records", file=sys.stderr)
        return 0
    mapped = total = 0
    with _checkpointed(args, engine, "map", args.queries), _tsv_output(args.output) as out:
        subject_names = engine.subject_names  # -s: builds the index, in units if checkpointed
        out.write(f"# jem-mapper {__version__} # {engine.describe()}\n")
        out.write("segment\tcontig\thits\n")
        for result in engine.map_file(args.queries):  # one batch at a time
            for name, sid, hits in zip(
                result.segment_names, result.subject.tolist(), result.hit_count.tolist()
            ):
                out.write(f"{name}\t{subject_names[sid] if sid >= 0 else '*'}\t{hits}\n")
            mapped += result.n_mapped
            total += len(result)
        out.write(engine.last_run.timing_line() + "\n")
    print(f"mapped {mapped}/{total} segments ({100 * mapped / max(total, 1):.1f}%)",
          file=sys.stderr)
    return 0


def _fleet_from(args: argparse.Namespace, engine: MappingEngine):
    """The replica fleet ``serve`` fronts."""
    from .netserve import ReplicaSet, make_placement

    return ReplicaSet.from_engine(
        engine, make_placement(args.placement, args.replicas),
        _service_config_from(args),
    )


def _import_asyncio_without_tls():
    """``asyncio``, imported the way CPython imports it on a build without
    OpenSSL: the server speaks plain NDJSON and never TLS, and ``asyncio``'s
    unconditional ``import ssl`` would otherwise map ``libcrypto`` and
    ``libssl`` (≈ 4.8 MB) into every server.  A ``None`` in ``sys.modules``
    makes that import fail, which ``asyncio`` handles by leaving TLS out; the
    placeholder goes right after, so a later ``import ssl`` still works (that
    process's ``asyncio`` stays without TLS).  A process that has already
    loaded either module keeps what it has."""
    blocked = "asyncio" not in sys.modules and "ssl" not in sys.modules
    if blocked:
        sys.modules["ssl"] = None
    try:
        import asyncio
    finally:
        if blocked:
            del sys.modules["ssl"]
    return asyncio


def _cmd_serve(args: argparse.Namespace) -> int:
    """``jem serve``: one NDJSON front-end over TCP in front of a replica
    fleet, until SIGINT or SIGTERM."""
    asyncio = _import_asyncio_without_tls()
    import json
    import signal

    from .netserve import FleetSupervisor, NetFrontend, SupervisorConfig, parse_hostport

    # a bad address fails before the index loads and the fleet's threads start
    host, port = parse_hostport(args.listen)
    t0 = time.perf_counter()
    backend = _fleet_from(args, _engine_from(args))
    interval_s = max(args.probe_interval_ms, 1.0) / 1000.0
    supervisor = FleetSupervisor(
        backend,
        SupervisorConfig(probe_interval_s=interval_s, probe_deadline_s=interval_s / 2.0),
    )
    frontend = NetFrontend(
        backend, host=host, port=port, tenant_quota=args.tenant_quota,
        max_line_bytes=args.max_line_bytes,
        idle_timeout_s=args.idle_timeout if args.idle_timeout > 0 else None,
    )

    async def listen() -> None:
        bound_host, bound_port = await frontend.start()
        # machine-parseable banner: CI and tests discover port 0 from it
        print(
            f"# jem-netserve listening on {bound_host}:{bound_port} "
            f"({backend.placement.kind} x{backend.placement.n_replicas}, "
            f"{len(backend.subject_names)} contigs, "
            f"ready in {time.perf_counter() - t0:.2f}s)",
            file=sys.stderr,
            flush=True,
        )
        supervisor.start()
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop_requested.set)

        def request_rolling_restart() -> None:
            # SIGHUP: replace one member at a time off the event loop, each
            # successor admitted before its predecessor drains
            def run() -> None:
                try:
                    out = backend.rolling_restart()
                    print(
                        f"# jem-netserve rolling restart done: "
                        f"replicas {out['restarted']}, "
                        f"generation {out['generation']}",
                        file=sys.stderr, flush=True,
                    )
                except Exception as exc:  # noqa: BLE001 - report, keep serving
                    print(
                        f"# jem-netserve rolling restart failed: {exc}",
                        file=sys.stderr, flush=True,
                    )
            loop.run_in_executor(None, run)

        if hasattr(signal, "SIGHUP"):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signal.SIGHUP, request_rolling_restart)
        await stop_requested.wait()
        await frontend.stop()

    try:
        asyncio.run(listen())
    finally:
        backend.drain()
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(backend.metrics_snapshot(), fh, indent=2)
    print("# jem-netserve stopped", file=sys.stderr)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """``jem client``: stream reads through a running ``serve`` and write the
    TSV ``map`` writes, then the summary."""
    import json

    from .core.engine import read_sequences
    from .netserve import parse_hostport
    from .service import SocketTransport, run_session

    host, port = parse_hostport(args.connect)
    queries = read_sequences(args.queries, on_error=args.on_error)
    t0 = time.perf_counter()
    stats = run_session(queries, SocketTransport.connect(host, port))
    elapsed = time.perf_counter() - t0
    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    mapped_segments = 0
    total_segments = 0
    try:
        out.write(f"# jem-mapper {__version__} # serve client: {elapsed:.3f}s wall\n")
        out.write("segment\tcontig\thits\n")
        for response in stats.responses:
            if "error" in response:
                print(f"warning: read {response.get('name', response.get('id'))!r} "
                      f"failed: {response['error']}", file=sys.stderr)
                continue
            for row in response["results"]:
                total_segments += 1
                contig = row["contig"] if row["contig"] is not None else "*"
                if row["contig"] is not None:
                    mapped_segments += 1
                out.write(f"{row['segment']}\t{contig}\t{row['hits']}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if args.metrics_out and stats.drained_reply is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(stats.drained_reply["metrics"], fh, indent=2)
    drained = stats.drained_reply is not None
    print(
        f"mapped {mapped_segments}/{total_segments} segments from "
        f"{len(queries)} reads in {elapsed:.2f}s "
        f"({len(queries) / elapsed:,.0f} reads/s); "
        f"{stats.retries} backpressure retries; "
        f"drain {'clean' if drained else 'MISSING'}",
        file=sys.stderr,
    )
    if not drained or stats.errors:
        return 1
    return 0


def _chaos_fingerprint(target: str, path: str):
    """What parity means per target: TSV body for map, content checksum
    for index (the npz container bytes legitimately differ run to run)."""
    import numpy as np

    from .resilience.chaos import read_tsv_body

    if target == "map":
        return read_tsv_body(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    with np.load(path, allow_pickle=False) as data:
        return int(data["checksum"])


def _cmd_chaos(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    from .errors import ChaosError
    from .resilience import ChaosPlan, run_kill_resume_cycle, unit_count

    if args.target in ("map", "serve") and args.queries is None:
        print(f"error: chaos {args.target} requires -q/--queries",
              file=sys.stderr)
        return 2
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        print(f"error: --seeds: {exc}", file=sys.stderr)
        return 2
    if not seeds:
        print("error: --seeds is empty", file=sys.stderr)
        return 2
    if args.target == "serve":
        return _chaos_serve(args, seeds)
    workdir = args.workdir or tempfile.mkdtemp(prefix="jem-chaos-")
    os.makedirs(workdir, exist_ok=True)

    def victim_argv(out: str, run_dir: str | None = None) -> list[str]:
        if args.target == "index":
            argv = ["index", "-s", args.subjects, "-o", out]
        else:
            argv = ["map", "-q", args.queries, "-s", args.subjects, "-o", out]
        argv += _sketch_argv(args)
        if run_dir is not None:
            argv += ["--checkpoint-dir", run_dir]
        return argv

    # one checkpoint record lands per completed unit: the contig blocks, and
    # for map the read batches after them
    total_units = unit_count(args.subjects)
    if args.target == "map":
        total_units += unit_count(args.queries)

    ext = ".npz" if args.target == "index" else ".tsv"
    ref_out = os.path.join(workdir, "reference" + ext)
    if main(victim_argv(ref_out)) != 0:  # uninterrupted parity reference
        print("error: reference run failed", file=sys.stderr)
        return 1
    reference = _chaos_fingerprint(args.target, ref_out)

    failures = 0
    for seed in seeds:
        run_dir = os.path.join(workdir, f"seed{seed}")
        os.makedirs(run_dir, exist_ok=True)
        out = os.path.join(run_dir, "output" + ext)
        plan = ChaosPlan.seeded(seed, total_units=total_units)
        try:
            cycle = run_kill_resume_cycle(
                victim_argv(out, run_dir), run_dir=run_dir, plan=plan,
                resume_argv=[args.target, "--resume", run_dir],
            )
        except ChaosError as exc:
            failures += 1
            print(f"seed {seed}: ERROR {exc}", file=sys.stderr)
            continue
        if not cycle.resumed_ok:
            failures += 1
            print(f"seed {seed}: FAIL resume rc={cycle.resume_returncode}\n"
                  f"{cycle.resume_stderr[-1000:]}", file=sys.stderr)
            continue
        story = (
            f"killed after record {plan.kill.after_records}"
            + (" (torn frame)" if plan.kill.kind == "torn_kill" else "")
            + f", {cycle.records_surviving} unit(s) survived"
            if cycle.killed
            else "finished before the kill point"
        )
        if cycle.damage_applied:
            story += "; " + "; ".join(cycle.damage_applied)
        parity = _chaos_fingerprint(args.target, out) == reference
        if not parity:
            failures += 1
        print(f"seed {seed}: {'ok' if parity else 'PARITY FAIL'} [{story}]")
    if not args.keep and args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    what = "index content checksum" if args.target == "index" else "mapping TSV body"
    print(f"{len(seeds) - failures}/{len(seeds)} chaos cycles reproduced the "
          f"uninterrupted {what}" + ("" if args.keep or args.workdir else
                                     " (run dirs removed; --keep to inspect)"))
    return 1 if failures else 0


def _chaos_serve(args: argparse.Namespace, seeds: list[int]) -> int:
    """``jem chaos serve``: seeded fleet torture with a parity gate.

    Per seed: draw a :class:`ServeChaosPlan`, kill/wedge replicas of a
    supervised scatter fleet while the reads stream through it, and pass
    only on byte-identical output, zero dropped accepted requests, a
    fully recovered fleet, restored scatter throughput, and no leaked
    shm segments.
    """
    from .core.engine import read_sequences
    from .errors import ChaosError
    from .resilience import ServeChaosPlan, run_serve_chaos
    from .seq.io_fasta import read_fasta

    config = _config_from(args)
    contigs = read_fasta(args.subjects, on_error="raise")
    reads = read_sequences(args.queries, on_error="raise")
    failures = 0
    for seed in seeds:
        plan = ServeChaosPlan.seeded(
            seed, n_replicas=args.replicas, total_reads=len(reads)
        )
        try:
            report = run_serve_chaos(
                contigs, reads, config, plan=plan, n_replicas=args.replicas,
            )
        except ChaosError as exc:
            failures += 1
            print(f"seed {seed}: ERROR {exc}", file=sys.stderr)
            continue
        if not report.ok:
            failures += 1
        print(f"seed {seed}: {report.story()}")
    print(
        f"{len(seeds) - failures}/{len(seeds)} serve-chaos cycles kept "
        f"{len(reads)} streamed reads byte-identical through kill/wedge "
        f"storms ({args.replicas} scatter replicas, supervised)"
    )
    return 1 if failures else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .eval.datasets import load_or_generate
    from .eval.pipeline import run_mappers

    dataset = load_or_generate(
        args.dataset, scale=args.scale, seed=args.data_seed, cache_dir=args.cache_dir
    )
    config = _config_from(args)
    mappers = tuple(m.strip() for m in args.mappers.split(",") if m.strip())
    result = run_mappers(dataset, config, mappers=mappers)
    print(f"dataset {args.dataset}: genome={dataset.genome.size:,} bp, "
          f"{len(dataset.contigs)} contigs, {len(dataset.reads)} reads")
    for label, run in result.runs.items():
        print(run.quality.format_row(label)
              + f"  [index {run.index_seconds:.2f}s + map {run.map_seconds:.2f}s]")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import ALL_EXPERIMENTS as EXPERIMENTS, BenchContext

    overrides: dict = {
        "seed": args.seed,
        "cache_dir": args.cache_dir,
        "results_dir": args.results_dir,
    }
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.datasets:
        overrides["datasets"] = tuple(args.datasets.split(","))
    ctx = BenchContext.from_env(**overrides)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        t0 = time.perf_counter()
        output = EXPERIMENTS[name](ctx)
        print(output.text)
        print(f"[{name}: {time.perf_counter() - t0:.1f}s; saved to "
              f"{os.path.join(ctx.results_dir, name + '.txt')}]\n")
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from .eval.datasets import DATASETS

    print(f"{'name':<16} {'organism':<28} {'genome bp':>12} repeats")
    for name, spec in DATASETS.items():
        print(
            f"{name:<16} {spec.organism:<28} {spec.full_genome_length:>12,} "
            f"{spec.repeat_fraction:.0%} x {spec.repeat_length} bp "
            f"@ {spec.repeat_divergence:.1%} divergence"
        )
    return 0


#: glibc's ``mallopt`` parameter, and its own default value of it.
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 128 << 10


def _return_freed_memory() -> None:
    """Pin glibc's mmap threshold at its default, 128 KiB, so every array of
    that size or more goes back to the kernel when it is freed.  Left to
    itself glibc raises the threshold to the size of each mmapped chunk
    freed (up to 32 MiB): after the first freed batch buffer every
    batch-sized array comes from the heap and stays resident, about 2.5 MB
    on each `jem` process's peak.  Setting the value switches that raise
    off.  The program's policy, not the library's: ``import repro`` leaves
    malloc alone, and off glibc this does nothing."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):  # no such name on this platform
        glibc = None
    if glibc:
        import ctypes

        ctypes.CDLL(None).mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def main(argv: list[str] | None = None) -> int:
    _return_freed_memory()
    args = build_parser().parse_args(argv)
    if args.command in _KERNEL_COMMANDS:
        # cold cache: the C compiler, a child process, works beside the
        # imports the handler is about to make; _native.load() collects it
        with contextlib.suppress(OSError):  # load() meets the same error, and warns
            _native_build.start()
    handlers = {
        "simulate": _cmd_simulate,
        "index": _cmd_index,
        "store-stats": _cmd_store_stats,
        "map": _cmd_map,
        "serve": _cmd_serve,
        "client": _cmd_client,
        "chaos": _cmd_chaos,
        "eval": _cmd_eval,
        "bench": _cmd_bench,
        "datasets": _cmd_datasets,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:  # expected failures: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
