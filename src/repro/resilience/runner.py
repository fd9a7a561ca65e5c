"""Checkpointed run orchestration: manifests, resume, and the CLI glue.

This module owns everything *above* the :class:`CheckpointContext`
primitive: building the :class:`RunManifest` that pins a run's identity,
routing the engine's execution modes through their checkpoint-aware
backends, the sharded checkpointed index build, and the ``invocation.json``
record that lets ``jem map --resume <dir>`` / ``jem index --resume <dir>``
reconstruct the original command line from nothing but the run directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import TYPE_CHECKING

from ..core.mapper import JEMMapper
from ..core.store import ColumnarSketchStore, merge_trial_keys
from ..errors import CheckpointError, MappingError
from ..parallel.partition import partition_bounds, partition_set
from ..seq.records import SequenceSet
from ..sketch.jem import subject_sketch_pairs
from .checkpoint import (
    CheckpointContext,
    RunManifest,
    atomic_write_bytes,
    fingerprint_file,
    fingerprint_sequences,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import JEMConfig
    from ..core.engine import EngineRun, MappingEngine, PipelineConfig

__all__ = [
    "pipeline_identity",
    "map_queries_checkpointed",
    "build_index_checkpointed",
    "save_invocation",
    "load_invocation",
    "INVOCATION_NAME",
]

INVOCATION_NAME = "invocation.json"

#: PipelineConfig fields that can change *what* a run computes (or whether
#: its recovery story is reproducible).  Scheduling knobs (timeout,
#: on_error) and the run directory itself are deliberately
#: excluded: two runs differing only in those are the same logical run.
_IDENTITY_FIELDS = (
    "mapper",
    "processes",
    "backend",
    "strict",
    "inject_faults",
)


def pipeline_identity(pipeline: "PipelineConfig") -> dict:
    """The manifest's view of a pipeline: every output-affecting field."""
    identity = {f: getattr(pipeline, f) for f in _IDENTITY_FIELDS}
    identity.update({f"jem_{k}": v for k, v in asdict(pipeline.jem).items()})
    return identity


def _merged_run(
    engine: "MappingEngine",
    outcome,
    reads: SequenceSet,
    read_parts: list[SequenceSet],
    bounds,
    *,
    mode: str,
    t0: float,
) -> "EngineRun":
    from ..core.engine import EngineRun
    from ..parallel.driver import _merge_rank_results, resolve_partial

    partial = resolve_partial(
        outcome.failed_blocks, read_parts, strict=engine.pipeline.strict
    )
    p = len(read_parts)
    surviving = [b for b in range(p) if outcome.rank_results[b] is not None]
    mapping = _merge_rank_results(
        [outcome.rank_results[b] for b in surviving],
        [int(bounds[b]) for b in surviving],
    )
    return EngineRun(mapping=mapping, **engine._telemetry(mode, t0, partial=partial))


def map_queries_checkpointed(
    engine: "MappingEngine", reads: SequenceSet, *, mode: str, t0: float
) -> "EngineRun":
    """Run one ``map_queries`` batch with durable unit checkpoints.

    The run directory (``engine.pipeline.checkpoint_dir``) is opened, its
    manifest installed or verified (a mismatched configuration or changed
    input raises :class:`~repro.errors.CheckpointError` rather than mixing
    incompatible units), and the batch is dispatched through the
    checkpoint-aware variant of the configured execution mode.  Completed
    S2/S4 units found in the directory are loaded, not recomputed — so the
    merged mapping is bit-identical to an uninterrupted run.
    """
    pipe = engine.pipeline
    assert pipe.checkpoint_dir is not None
    p = pipe.processes
    with CheckpointContext(pipe.checkpoint_dir) as ctx:
        if mode == "saved-index":
            if engine._index_path is None:  # pragma: no cover - defensive
                raise MappingError("saved-index engine lost its bundle path")
            mapper = engine.mapper
            if not isinstance(mapper, JEMMapper):  # pragma: no cover
                raise MappingError("checkpointed mapping requires a JEMMapper")
            ctx.ensure_manifest(
                RunManifest(
                    command="map",
                    pipeline=pipeline_identity(pipe),
                    units={"mode": "saved-index", "map_blocks": p},
                    inputs={
                        "reads": fingerprint_sequences(reads),
                        "index": fingerprint_file(engine._index_path),
                    },
                )
            )
            from ..parallel.driver import map_partitioned_queries

            read_parts = partition_set(reads, p)
            bounds = partition_bounds(reads.offsets, p)
            outcome = map_partitioned_queries(
                mapper.table,
                read_parts,
                mapper.config,
                faults=pipe.fault_plan(),
                checkpoint=ctx,
            )
            return _merged_run(
                engine, outcome, reads, read_parts, bounds, mode=mode, t0=t0
            )

        # the worker-process backend, or the simulated driver — also the
        # checkpointed path for processes == 1, where the inline fast path
        # has no unit boundaries to commit at
        ctx.ensure_manifest(
            RunManifest(
                command="map",
                pipeline=pipeline_identity(pipe),
                units={"mode": mode, "sketch_blocks": p, "map_blocks": p},
                inputs={
                    "subjects": fingerprint_sequences(engine.subjects),
                    "reads": fingerprint_sequences(reads),
                },
            )
        )
        return engine._map_whole_set(reads, mode, t0, checkpoint=ctx)


def build_index_checkpointed(
    subjects: SequenceSet,
    config: "JEMConfig",
    *,
    shards: int,
    run_dir: str,
    subjects_path: str | None = None,
) -> JEMMapper:
    """Sharded index build with one durable checkpoint per completed shard.

    Equivalent to :meth:`JEMMapper.index_partitioned` over a base-count
    partition into ``shards`` blocks — which that method documents as
    bit-identical to a one-shot :meth:`JEMMapper.index` — except each
    shard's sketch keys are committed to ``run_dir`` as they finish, and a
    resumed build loads finished shards instead of recomputing them.
    """
    if len(subjects) == 0:
        raise MappingError("cannot index an empty contig set")
    shards = max(1, min(int(shards), len(subjects)))
    family = config.hash_family()
    parts = partition_set(subjects, shards)
    with CheckpointContext(run_dir) as ctx:
        inputs = {"subjects": fingerprint_sequences(subjects)}
        if subjects_path is not None:
            inputs["subjects_file"] = fingerprint_file(subjects_path)
        ctx.ensure_manifest(
            RunManifest(
                command="index",
                pipeline={f"jem_{k}": v for k, v in asdict(config).items()},
                units={"mode": "index", "sketch_blocks": shards},
                inputs=inputs,
            )
        )
        shard_keys: list[list] = []
        offset = 0
        names: list[str] = []
        for s, part in enumerate(parts):
            saved = ctx.sketch_result(s)
            if saved is None:
                keys = subject_sketch_pairs(
                    part, config.k, config.w, config.ell, family,
                    subject_id_offset=offset,
                )
                ctx.save_sketch(s, keys)
            else:
                keys = saved
            offset += len(part)
            names.extend(part.names)
            shard_keys.append(keys)
    mapper = JEMMapper(config)
    mapper.adopt_store(
        ColumnarSketchStore.from_trial_keys(
            merge_trial_keys(shard_keys), n_subjects=offset
        ),
        names,
    )
    return mapper


# -- CLI resume records -------------------------------------------------------


def save_invocation(run_dir: str, payload: dict) -> str:
    """Persist the CLI arguments of a checkpointed run (atomic write).

    ``jem ... --resume <dir>`` reads this back to re-run the identical
    command without the operator re-typing (and possibly mistyping) it.
    """
    path = os.path.join(run_dir, INVOCATION_NAME)
    os.makedirs(run_dir, exist_ok=True)
    atomic_write_bytes(path, json.dumps(payload, indent=2, sort_keys=True).encode())
    return path


def load_invocation(run_dir: str) -> dict:
    """Read a run directory's saved CLI arguments; typed error when absent."""
    path = os.path.join(run_dir, INVOCATION_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise CheckpointError(
            f"{run_dir!r} has no {INVOCATION_NAME}; was this directory "
            "created by a --checkpoint-dir run?"
        ) from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"unreadable {path!r}: {exc}") from exc
