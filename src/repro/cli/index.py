"""``jem index`` (build a bundle, or operate on a mutable index directory)
and ``jem store-stats``."""

from __future__ import annotations

import argparse
import os
import sys
import time

from .common import add_checkpoint_args, add_sketch_args, checkpointed, config_from, engine_from


def register(sub) -> None:
    p_index = sub.add_parser("index", help="build and save a JEM index from contigs")
    p_index.add_argument("-s", "--subjects", help="contigs FASTA")
    p_index.add_argument("-o", "--output", required=True,
                         help="index file (.npz) or, with any "
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
    add_checkpoint_args(p_index)
    add_sketch_args(p_index)
    p_index.set_defaults(run=_cmd_index)

    p_stats = sub.add_parser(
        "store-stats",
        help="inspect a saved index: generation, segments, memtable, tombstones",
    )
    p_stats.add_argument("--index", required=True,
                         help="index bundle (.npz) or mutable index directory")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the stats block as JSON instead of text")
    p_stats.set_defaults(run=_cmd_store_stats)


def _cmd_index(args: argparse.Namespace) -> int:
    from ..core.engine import native_summary
    from ..core.persist import save_index

    if (args.mutable or args.from_index or args.append or args.remove
            or args.flush or args.compact):
        return _cmd_index_mutable(args)
    if args.subjects is None:
        print("error: index requires -s/--subjects", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    engine = engine_from(args)  # block by block from the file, as `jem map -s` builds it
    with checkpointed(args, engine, "index"):
        mapper = engine.mapper
    table = mapper.table
    path = save_index(mapper, args.output)
    print(f"indexed {table.n_subjects} contigs in {time.perf_counter() - t0:.2f}s: "
          f"{table.total_entries:,} sketch entries ({table.nbytes / 1e6:.1f} MB) -> {path} "
          f"[{native_summary(mapper.threads)}]")
    return 0


def _cmd_index_mutable(args: argparse.Namespace) -> int:
    """``jem index`` with any mutable-index flag: operate on a v4 directory."""
    from ..core.lsm import MANIFEST_NAME, MutableSketchStore, store_stats

    run_dir = args.output
    t0 = time.perf_counter()
    actions: list[str] = []
    if os.path.exists(os.path.join(run_dir, MANIFEST_NAME)):
        handle = MutableSketchStore.open(run_dir)
    elif args.from_index:
        handle = MutableSketchStore.from_bundle(args.from_index, run_dir=run_dir)
        actions.append(f"migrated {args.from_index} -> v4 directory")
    elif args.subjects:
        config = config_from(args)
        mapper = engine_from(args).mapper
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
            from ..seq.io_fasta import read_fasta

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

    from ..core.lsm import MutableSketchStore, store_stats
    from ..core.persist import load_index

    if os.path.isdir(args.index):
        with MutableSketchStore.open(args.index) as handle:
            stats = store_stats(handle)
    else:
        stats = store_stats(load_index(args.index).table)
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    nbytes = stats["nbytes"]
    lines = [
        f"index           : {args.index}",
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
    print("\n".join(lines))
    return 0
