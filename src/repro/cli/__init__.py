"""Command-line interface: ``jem-mapper`` / ``python -m repro.cli``.

Subcommands, by the module that registers them (:mod:`.common` holds what
they share):

* :mod:`.index` — ``index`` builds and saves a JEM index from contigs, or
  operates on a mutable index directory; ``store-stats`` inspects a saved
  index (generation, segments, memtable, tombstones, byte breakdown);
* :mod:`.mapping` — ``map`` maps long reads (FASTA/FASTQ) to contigs
  (FASTA) and writes a TSV of ⟨segment, contig, hits⟩, batch by batch as the
  reads are parsed (mapper: jem / mashmap / minhash / minimap-lite; ``-p N``
  maps on N native kernel threads);
* :mod:`.serve` — ``serve`` is a long-lived mapping service speaking NDJSON
  over TCP (see ``docs/serving.md``); ``client`` drives one from a
  FASTA/FASTQ file and writes the same TSV as ``map``;
* :mod:`.paper` — ``simulate`` writes a Table I dataset, ``eval`` measures
  quality on one, ``bench`` regenerates the paper's tables/figures and
  ``datasets`` lists the registry.

``index`` and ``map`` accept ``--checkpoint-dir DIR`` to commit every
contig block / read batch of their streamed loop durably.  A killed run is
resumed by running the same command again: the directory's manifest
decides whether its finished units are reused (a different command, input
or sketch parameter is refused), and the resumed output is bit-identical
to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .. import __version__, _native_build
from ..errors import ReproError
from . import index, mapping, paper, serve

__all__ = ["main", "build_parser"]

#: The commands whose work runs in the compiled kernels.
_KERNEL_COMMANDS = ("index", "map", "serve")


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand, each registered by its module with its handler as
    ``run``.  Building it imports no numpy and no engine: :func:`main`
    starts a cold cache's kernel compile before those imports, which every
    handler makes for itself."""
    parser = argparse.ArgumentParser(
        prog="jem-mapper",
        description="JEM-mapper: parallel sketch-based mapping of long reads to contigs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    paper.register_simulate(sub)
    index.register(sub)
    mapping.register(sub)
    serve.register(sub)
    paper.register(sub)
    return parser


#: glibc's ``mallopt`` parameters, and the values set for them: the mmap
#: threshold's own default, and one arena.
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 128 << 10
_M_ARENA_MAX = -8


def _return_freed_memory() -> None:
    """Pin glibc's mmap threshold at its default, 128 KiB, so every array of
    that size or more goes back to the kernel when it is freed.  Left to
    itself glibc raises the threshold to the size of each mmapped chunk
    freed (up to 32 MiB): after the first freed batch buffer every
    batch-sized array comes from the heap and stays resident, about 2.5 MB
    on each `jem` process's peak.  Setting the value switches that raise
    off.  And keep every thread on the one main arena: kernel threads
    allocate what they return — S2's per-trial key lists, which a build
    holds until its merge — and in a thread's own arena those lists do not
    reuse the memory the main thread frees (`jem map -s … -p 2` over 24 Mbp
    of contigs peaked 5 MB higher).  The program's policy, not the
    library's: ``import repro`` leaves malloc alone, and off glibc this does
    nothing."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):  # no such name on this platform
        glibc = None
    if glibc:
        import ctypes

        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        libc.mallopt(_M_ARENA_MAX, 1)


def main(argv: list[str] | None = None) -> int:
    _return_freed_memory()
    args = build_parser().parse_args(argv)
    if args.command in _KERNEL_COMMANDS:
        # cold cache: the C compiler, a child process, works beside the
        # imports the handler is about to make; _native.load() collects it
        with contextlib.suppress(OSError):  # load() meets the same error, and warns
            _native_build.start()
    try:
        return args.run(args)
    except (ReproError, OSError) as exc:  # expected failures: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
