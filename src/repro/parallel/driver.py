"""Distributed-memory JEM-mapper driver — steps S1–S4 of the paper.

:func:`run_parallel_jem` is an **instrumented SPMD simulation**: every
rank's program is executed (sequentially, so per-rank compute times are
clean single-thread measurements) and the gather step's cost comes from
the measured communication volume through the :class:`CostModel`.  This is
what the strong-scaling experiments (Table II, Figs. 7–8) run, since the
host has two vCPUs, not 64 ranks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.config import JEMConfig
from ..core.mapper import MappingResult, map_segment_batch
from ..core.segments import SegmentInfo, extract_end_segments
from ..core.store import ColumnarSketchStore, merge_trial_keys
from ..errors import CommError
from ..seq.records import SequenceSet
from ..sketch.jem import subject_sketch_pairs
from .costmodel import CostModel, StepTimes
from .partition import partition_bounds, partition_set

__all__ = ["ParallelRunResult", "run_parallel_jem"]


@dataclass
class ParallelRunResult:
    """Outcome of a p-rank JEM-mapper run."""

    mapping: MappingResult
    steps: StepTimes
    p: int
    n_segments: int

    @property
    def total_time(self) -> float:
        """Modelled parallel runtime (compute makespan + gather)."""
        return self.steps.total_time

    @property
    def query_throughput(self) -> float:
        """Queries (segments) mapped per second of the query step (Fig. 7b)."""
        query_time = float(self.steps.map.max())
        return self.n_segments / query_time if query_time > 0 else 0.0


def _merge_rank_results(
    per_rank: list[MappingResult], read_offsets: list[int]
) -> MappingResult:
    """Concatenate per-rank mapping results, globalising read indices."""
    names: list[str] = []
    infos: list[SegmentInfo] = []
    subjects: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for result, base in zip(per_rank, read_offsets):
        names.extend(result.segment_names)
        infos.extend(
            SegmentInfo(read_index=si.read_index + base, kind=si.kind)
            for si in result.infos
        )
        subjects.append(result.subject)
        counts.append(result.hit_count)
    return MappingResult(
        segment_names=names,
        subject=np.concatenate(subjects) if subjects else np.empty(0, dtype=np.int64),
        hit_count=np.concatenate(counts) if counts else np.empty(0, dtype=np.int64),
        infos=infos,
    )


def run_parallel_jem(
    contigs: SequenceSet,
    reads: SequenceSet,
    config: JEMConfig | None = None,
    *,
    p: int = 4,
    cost_model: CostModel | None = None,
) -> ParallelRunResult:
    """Instrumented S1–S4 run on p simulated ranks.

    S1: block-partition subjects and queries by base count (load time from
    the I/O model).  S2: each rank sketches its subject block (measured).
    S3: Allgatherv union of the per-rank tables (volume measured, time from
    the cost model).  S4: each rank maps its query block against the global
    table (measured).  The merged mapping is identical to a sequential
    :class:`~repro.core.mapper.JEMMapper` run — a property the test suite
    asserts.
    """
    config = config if config is not None else JEMConfig()
    cost_model = cost_model if cost_model is not None else CostModel()
    if p < 1:
        raise CommError(f"p must be >= 1, got {p}")
    family = config.hash_family()

    # -- S1: load/partition --------------------------------------------------
    subject_parts = partition_set(contigs, p)
    read_parts = partition_set(reads, p)
    read_bounds = partition_bounds(reads.offsets, p)
    subject_offsets = [0] * p
    acc = 0
    for r in range(p):
        subject_offsets[r] = acc
        acc += len(subject_parts[r])
    load = np.array(
        [
            (subject_parts[r].total_bases + read_parts[r].total_bases)
            / cost_model.io_bandwidth
            for r in range(p)
        ]
    )

    # -- S2: sketch local subjects (measured per rank) ------------------------
    sketch_times = np.zeros(p)
    local_keys: list[list[np.ndarray]] = []
    for r in range(p):
        t0 = time.perf_counter()
        # a rank is one core: its measured time is what the cost model scales
        local_keys.append(subject_sketch_pairs(
            subject_parts[r], config.k, config.w, config.ell, family,
            subject_id_offset=subject_offsets[r], threads=1,
        ))
        sketch_times[r] = time.perf_counter() - t0

    # -- S3: Allgatherv the sketch tables -------------------------------------
    comm_bytes = int(sum(k.nbytes for keys in local_keys for k in keys))
    table = ColumnarSketchStore.from_trial_keys(
        merge_trial_keys(local_keys), n_subjects=len(contigs)
    )
    gather_comm = cost_model.allgatherv_time(p, comm_bytes)

    # -- S4: map local queries (measured per rank) ----------------------------
    map_times = np.zeros(p)
    rank_results: list[MappingResult] = []
    for r in range(p):
        t0 = time.perf_counter()
        if len(read_parts[r]) == 0:
            result = MappingResult(
                [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), []
            )
        else:
            segments, infos = extract_end_segments(read_parts[r], config.ell)
            # fused native when the table is columnar, numpy otherwise
            result = map_segment_batch(table, segments, config, family, infos)
        map_times[r] = time.perf_counter() - t0
        rank_results.append(result)

    mapping = _merge_rank_results(
        rank_results, [int(read_bounds[r]) for r in range(p)]
    )
    steps = StepTimes(
        load=load, sketch=sketch_times, map=map_times,
        gather_comm=gather_comm, comm_bytes=comm_bytes,
    )
    return ParallelRunResult(mapping=mapping, steps=steps, p=p, n_segments=len(mapping))
