"""What more than one subcommand uses: the sketch and checkpoint flags, the
engine wiring and the output writer.  Like every module of the package it
imports neither numpy nor the engine at load; each function imports what
it runs."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import JEMConfig
    from ..core.engine import MappingEngine

#: ``MAPPER_KINDS``, spelled out so that building the parser does not import
#: the engine (``tests/integration/test_cli.py`` holds the two equal).
MAPPER_KINDS = ("jem", "minhash", "mashmap", "minimap-lite")

#: The ``PipelineConfig`` fields besides ``jem`` that a subcommand may set.
PIPELINE_FLAGS = ("mapper", "processes", "on_error", "checkpoint_dir")


def add_sketch_args(parser: argparse.ArgumentParser) -> None:
    """The sketch flags.  Each is unset unless given — ``JEMConfig``'s default
    then applies — so that next to ``--index`` a given one can be checked."""
    parser.add_argument("--k", type=int, help="k-mer size (default 16)")
    parser.add_argument("--w", type=int, help="minimizer window (default 100)")
    parser.add_argument("--ell", type=int, help="end-segment length (default 1000)")
    parser.add_argument("--trials", type=int, help="MinHash trials T (default 30)")
    parser.add_argument("--seed", type=int, help="hash-constant seed (default 20230157)")


def sketch_flags(args: argparse.Namespace) -> dict[str, int]:
    """The sketch flags the user gave, by ``JEMConfig`` field."""
    from ..core.engine import SKETCH_FLAGS

    return {n: getattr(args, n) for n in SKETCH_FLAGS if getattr(args, n, None) is not None}


def config_from(args: argparse.Namespace) -> JEMConfig:
    from ..core.config import JEMConfig

    return JEMConfig(**sketch_flags(args))


def add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="commit every contig block and read batch durably "
                             "to DIR; a killed run restarted with the same "
                             "command skips finished units")


def checkpointed(
    args: argparse.Namespace, engine: MappingEngine, command: str, queries: str | None = None
):
    """A context inside which ``engine``'s streamed loops commit their units
    to ``--checkpoint-dir`` (nothing happens without one).  The directory's
    manifest decides whether its units are this run's: a directory started
    by another command, or over other inputs or parameters, is refused."""
    if not args.checkpoint_dir:
        return contextlib.nullcontext()
    from ..resilience import checkpointed as run_checkpointed

    return run_checkpointed(engine, command, queries)


def engine_from(args: argparse.Namespace) -> MappingEngine:
    """Engine wired from ``--index`` or ``-s`` (shared by index/map/serve);
    a pipeline flag the subcommand lacks keeps ``PipelineConfig``'s default."""
    from ..core.engine import MappingEngine, PipelineConfig

    given = {name: getattr(args, name) for name in PIPELINE_FLAGS if hasattr(args, name)}
    engine = MappingEngine(PipelineConfig(jem=config_from(args), **given))
    if getattr(args, "index", None):
        return engine.use_index(args.index)
    return engine.load_subjects(args.subjects)


@contextlib.contextmanager
def output(path: str):
    """The handle every ``-o`` is written through: stdout for ``-``, else a
    file next to ``path`` that is renamed over it only when the body
    finishes — a run that fails or is interrupted mid-body leaves no
    plausible, truncated file behind."""
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
