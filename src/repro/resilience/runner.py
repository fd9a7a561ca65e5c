"""Checkpointed runs: the run manifest and the engine's unit hooks.

A ``--checkpoint-dir`` run is the streamed run.  ``jem index`` sketches its
contig blocks and ``jem map`` maps its read batches through the loops a plain
run takes; :func:`checkpointed` hands those loops the run directory's
:class:`CheckpointContext` as their per-unit hook, so block k is loaded from
``sketch_k`` and batch k from ``map_k`` when that unit is valid, and
committed when it is computed.  This module also pins a run's identity (its
:class:`RunManifest`): a killed run is resumed by running its command again,
and the manifest refuses a directory that another command, other inputs or
other parameters started.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..core.streaming import iter_file_batches, unit_bases
from ..errors import MappingError
from .checkpoint import CheckpointContext, RunManifest, fingerprint_file

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import MappingEngine

__all__ = ["checkpointed", "unit_count"]


def _manifest(
    engine: "MappingEngine", command: str, queries: str | None = None
) -> RunManifest:
    """A run's identity: the algorithm constants, each input file's
    fingerprint and the batch size its units are cut at.

    The thread count (``-p``) is left out: units are the same bits on any
    thread count, so a run may resume with a different one.
    """
    inputs: dict = {}
    units: dict = {}
    if engine._index_path is not None:
        config = engine.mapper.config  # what the index was built with
        inputs["index"] = fingerprint_file(engine._index_path)
    else:
        config = engine.pipeline.jem
        inputs["subjects"] = fingerprint_file(engine._subjects_path)
        units["sketch_bases"] = unit_bases(engine._subjects_path)
    if queries is not None:
        inputs["reads"] = fingerprint_file(queries)
        units["map_bases"] = unit_bases(queries)
    pipeline = {f"jem_{k}": v for k, v in dataclasses.asdict(config).items()}
    return RunManifest(command=command, pipeline=pipeline, units=units, inputs=inputs)


@contextlib.contextmanager
def checkpointed(
    engine: "MappingEngine", command: str, queries: str | None = None
) -> Iterator[CheckpointContext]:
    """Commit ``engine``'s index blocks, and ``queries``' read batches, to
    its run directory (``engine.pipeline.checkpoint_dir``) while inside.

    The manifest is installed, or verified, before any unit runs: a changed
    input or configuration — or a directory that cut whole sets into shards
    (manifest version 1) — raises :class:`~repro.errors.CheckpointError`
    rather than mixing units.
    """
    pipe = engine.pipeline
    if pipe.mapper != "jem":
        raise MappingError(
            f"checkpointed runs are jem-only; pipeline requests {pipe.mapper!r}"
        )
    if engine._index_path is None and engine._subjects_path is None:
        raise MappingError("a checkpointed run reads its contigs from a file or an index")
    with CheckpointContext(pipe.checkpoint_dir) as ctx:
        ctx.ensure_manifest(_manifest(engine, command, queries))
        engine.checkpoint = ctx
        try:
            yield ctx
        finally:
            engine.checkpoint = None


def unit_count(path: str) -> int:
    """How many units a checkpointed run cuts ``path`` into."""
    return sum(1 for _ in iter_file_batches(path, batch_bases=unit_bases(path)))

