"""``jem map``: map long reads to contigs, batch by batch as they are parsed."""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .. import __version__
from .common import (
    MAPPER_KINDS,
    add_checkpoint_args,
    add_sketch_args,
    checkpointed,
    engine_from,
    output,
    sketch_flags,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import MappingEngine


def register(sub) -> None:
    p_map = sub.add_parser("map", help="map long reads to contigs")
    p_map.add_argument("-q", "--queries", required=True, help="long reads FASTA/FASTQ")
    source = p_map.add_mutually_exclusive_group(required=True)
    source.add_argument("-s", "--subjects", help="contigs FASTA")
    source.add_argument("--index", help="saved JEM index (alternative to -s)")
    p_map.add_argument("-o", "--output", default="-", help="output TSV ('-' = stdout)")
    p_map.add_argument("--mapper", choices=MAPPER_KINDS, default="jem")
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
    add_checkpoint_args(p_map)
    add_sketch_args(p_map)
    p_map.set_defaults(run=_cmd_map)


def _index_disagrees(args: argparse.Namespace, engine: MappingEngine) -> bool:
    """Whether a sketch flag given beside ``--index`` differs from the value
    the index was built with (then printed as an error: an index is mapped
    with its own parameters, so such a flag would be silently ignored)."""
    if not args.index:
        return False
    config = engine.mapper.config
    wrong = [
        f"--{name} {value} (the index has {name} = {getattr(config, name)})"
        for name, value in sketch_flags(args).items() if value != getattr(config, name)
    ]
    if wrong:
        print(f"error: {'; '.join(wrong)}: an index maps with the sketch parameters "
              "it was built with; drop the flag or rebuild the index", file=sys.stderr)
    return bool(wrong)


def _cmd_map(args: argparse.Namespace) -> int:
    if args.paf and args.index is not None:
        print("error: --paf needs contig sequences; use -s", file=sys.stderr)
        return 2
    if args.checkpoint_dir and args.paf:
        print("error: --paf runs on whole sets and --checkpoint-dir commits the "
              "streamed batches; drop --paf or --checkpoint-dir", file=sys.stderr)
        return 2
    engine = engine_from(args)
    if _index_disagrees(args, engine):
        return 2
    if args.paf:
        from ..core.engine import read_sequences
        from ..core.paf import write_paf
        from ..core.segments import extract_end_segments

        config = engine.pipeline.jem
        subjects = engine.subjects  # coordinates need the sequences: read before indexing
        queries = read_sequences(args.queries, on_error=args.on_error)
        mapping = engine.mapper.map_reads(queries)
        segments, _ = extract_end_segments(queries, config.ell)
        with output(args.output) as out:
            n = write_paf(out, mapping, segments, subjects, trials=config.trials, k=config.k)
        print(f"wrote {n} PAF records", file=sys.stderr)
        return 0
    mapped = total = 0
    with checkpointed(args, engine, "map", args.queries), output(args.output) as out:
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
