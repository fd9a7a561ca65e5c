"""Distributed-memory JEM-mapper driver — steps S1–S4 of the paper.

:func:`run_parallel_jem` is an **instrumented SPMD simulation**: every
rank's program is executed (sequentially, so per-rank compute times are
clean single-thread measurements) and the gather step's cost comes from
the measured communication volume through the :class:`CostModel`.  This is
what the strong-scaling experiments (Table II, Figs. 7–8) run, since the
host has two vCPUs, not 64 ranks.

It accepts a :class:`~repro.parallel.faults.FaultPlan`.  Failure handling
follows one playbook:

1. a faulted S2/S4 work unit is retried on its own rank under the
   :class:`~repro.parallel.retry.RetryPolicy` (backoff accounted, not
   slept);
2. a unit whose rank is beyond saving is **re-dispatched** to a surviving
   rank;
3. corrupted/dropped gather payloads are detected by checksum and
   re-requested, their cost charged to the cost model;
4. an S4 unit that fails everywhere is fatal under ``strict=True``
   (:class:`~repro.errors.PartialResultError`), or degrades gracefully
   under ``strict=False`` into a :class:`~repro.parallel.faults.PartialResult`
   naming exactly the affected reads.  A lost S2 unit is always fatal:
   mapping against a silently incomplete index would corrupt *every*
   rank's results, not just one block's.

All recovery time lands in ``StepTimes`` so fault overhead shows up in the
Fig. 7/8-style breakdowns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.config import JEMConfig
from ..core.mapper import MappingResult, map_segment_batch
from ..core.segments import SegmentInfo, extract_end_segments
from ..core.store import ColumnarSketchStore, merge_trial_keys
from ..errors import CommError, FaultError, PartialResultError
from ..seq.records import SequenceSet
from ..sketch.jem import subject_sketch_pairs
from .costmodel import CostModel, StepTimes
from .faults import FaultPlan, PartialResult
from .partition import partition_bounds, partition_set
from .retry import RetryPolicy

__all__ = ["ParallelRunResult", "resolve_partial", "run_parallel_jem"]

#: Checksum-failed gathers are re-requested at most this many times.
MAX_GATHER_ATTEMPTS = 4


@dataclass
class ParallelRunResult:
    """Outcome of a p-rank JEM-mapper run."""

    mapping: MappingResult
    steps: StepTimes
    p: int
    n_segments: int
    partial: PartialResult | None = field(default=None)

    @property
    def total_time(self) -> float:
        """Modelled parallel runtime (compute makespan + gather + recovery)."""
        return self.steps.total_time

    @property
    def recovery_time(self) -> float:
        """Modelled seconds lost to fault recovery (0 on a clean run)."""
        return self.steps.recovery_time

    @property
    def complete(self) -> bool:
        """True when every query block survived (no graceful degradation)."""
        return self.partial is None

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


def _simulate_unit(
    plan: FaultPlan | None,
    policy: RetryPolicy,
    phase: str,
    *,
    block: int,
    exec_rank: int,
    stream: int,
    fn,
):
    """One S2/S4 work unit under the fault plan, recovery *accounted*.

    Returns ``(result_or_None, measured_seconds, recovery_seconds, cause)``.
    Injected straggler delays and retry backoff are added to the recovery
    account rather than slept — this is the simulation mode, so fault cost
    is modelled exactly like communication cost.
    """
    if plan is None:
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0, 0.0, None
    recovery = 0.0
    retries = 0
    cause: str | None = None
    measured = 0.0
    for attempt in range(policy.max_attempts):
        actions = plan.consume(phase, block=block, exec_rank=exec_rank)
        crash = None
        for spec in actions:
            if spec.kind == "straggler":
                recovery += spec.delay
            elif spec.kind in ("crash", "worker_death"):
                crash = spec
        if crash is None:
            t0 = time.perf_counter()
            result = fn()
            measured = time.perf_counter() - t0
            recovery += policy.total_backoff(retries, stream=stream)
            return result, measured, recovery, None
        cause = f"injected {crash.kind} ({phase} block {block} on rank {exec_rank})"
        if attempt < policy.max_attempts - 1:
            retries += 1
    recovery += policy.total_backoff(retries, stream=stream)
    return None, measured, recovery, cause


def resolve_partial(
    failed_blocks: dict[int, str],
    read_parts: list[SequenceSet],
    *,
    strict: bool,
) -> PartialResult | None:
    """Apply the strict/no-strict contract to unmappable query blocks.

    Strict mode raises :class:`~repro.errors.PartialResultError` naming
    every lost read; otherwise the same information is returned as a
    :class:`~repro.parallel.faults.PartialResult` (``None`` on a clean run).
    """
    if not failed_blocks:
        return None
    failed_reads = tuple(
        name for b in sorted(failed_blocks) for name in read_parts[b].names
    )
    if strict:
        raise PartialResultError(
            f"query block(s) {sorted(failed_blocks)} unmappable on every "
            f"rank ({len(failed_reads)} reads); rerun with strict=False "
            "to accept a partial mapping",
            failed_reads=failed_reads,
        )
    return PartialResult(
        failed_reads=failed_reads,
        failed_blocks=tuple(sorted(failed_blocks)),
        causes=dict(failed_blocks),
    )


def run_parallel_jem(
    contigs: SequenceSet,
    reads: SequenceSet,
    config: JEMConfig | None = None,
    *,
    p: int = 4,
    cost_model: CostModel | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    strict: bool = True,
) -> ParallelRunResult:
    """Instrumented S1–S4 run on p simulated ranks.

    S1: block-partition subjects and queries by base count (load time from
    the I/O model).  S2: each rank sketches its subject block (measured).
    S3: Allgatherv union of the per-rank tables (volume measured, time from
    the cost model).  S4: each rank maps its query block against the global
    table (measured).  The merged mapping is identical to a sequential
    :class:`~repro.core.mapper.JEMMapper` run — a property the test suite
    asserts, *including under any recoverable fault plan*.
    """
    config = config if config is not None else JEMConfig()
    cost_model = cost_model if cost_model is not None else CostModel()
    policy = retry if retry is not None else RetryPolicy()
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
    recovery = np.zeros(p)
    redispatches = 0

    # -- S2: sketch local subjects (measured per rank, retried on fault) ------
    def sketch_block(b: int):
        # a rank is one core: its measured time is what the cost model scales
        return lambda: subject_sketch_pairs(
            subject_parts[b], config.k, config.w, config.ell, family,
            subject_id_offset=subject_offsets[b], threads=1,
        )

    sketch_times = np.zeros(p)
    local_keys: list[list[np.ndarray] | None] = [None] * p
    sketch_failures: list[tuple[int, str]] = []
    for r in range(p):
        keys, dt, rec, cause = _simulate_unit(
            faults, policy, "sketch", block=r, exec_rank=r, stream=r, fn=sketch_block(r)
        )
        sketch_times[r] = dt
        recovery[r] += rec
        if keys is None:
            sketch_failures.append((r, cause or "unknown fault"))
        else:
            local_keys[r] = keys
    # Re-dispatch lost sketch blocks to surviving ranks.  A block no
    # survivor can sketch is fatal in every mode: an incomplete index
    # would silently corrupt all mappings, not one block's.
    for b, cause in sketch_failures:
        survivors = [r for r in range(p) if local_keys[r] is not None and r != b]
        for donor in survivors:
            keys, dt, rec, cause2 = _simulate_unit(
                faults, policy, "sketch",
                block=b, exec_rank=donor, stream=p + b, fn=sketch_block(b),
            )
            sketch_times[donor] += dt
            recovery[donor] += rec
            redispatches += 1
            if keys is not None:
                local_keys[b] = keys
                break
            cause = cause2 or cause
        if local_keys[b] is None:
            raise FaultError(
                f"subject block {b} unsketchable on every rank: {cause}"
            )

    # -- S3: Allgatherv the sketch tables -------------------------------------
    key_arrays: list[list[np.ndarray]] = [k for k in local_keys if k is not None]
    comm_bytes = int(sum(k.nbytes for keys in key_arrays for k in keys))
    rank_bytes = [int(sum(k.nbytes for k in keys)) for keys in key_arrays]
    table = ColumnarSketchStore.from_trial_keys(
        merge_trial_keys(key_arrays), n_subjects=len(contigs)
    )
    gather_comm = cost_model.allgatherv_time(p, comm_bytes)
    regather_comm = 0.0
    gather_retries = 0
    if faults is not None:
        for _attempt in range(MAX_GATHER_ATTEMPTS):
            bad = [
                r for r in range(p)
                if faults.consume("gather", block=r, exec_rank=r)
            ]
            if not bad:
                break
            # checksum mismatch detected: re-request exactly the bad payloads
            regather_comm += cost_model.allgatherv_time(
                p, sum(rank_bytes[r] for r in bad)
            )
            gather_retries += len(bad)
        else:
            raise CommError(
                f"gather payload failed integrity check {MAX_GATHER_ATTEMPTS} "
                "times (permanently corrupted link?)"
            )

    # -- S4: map local queries (measured per rank, retried / re-dispatched) ---
    def map_block(b: int):
        def _run() -> MappingResult:
            if len(read_parts[b]) == 0:
                return MappingResult(
                    [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), []
                )
            segments, infos = extract_end_segments(read_parts[b], config.ell)
            # fused native when the table is columnar, numpy otherwise
            return map_segment_batch(table, segments, config, family, infos)

        return _run

    map_times = np.zeros(p)
    map_recovery = np.zeros(p)
    rank_results: list[MappingResult | None] = [None] * p
    map_failures: list[tuple[int, str]] = []
    for r in range(p):
        result, dt, rec, cause = _simulate_unit(
            faults, policy, "map", block=r, exec_rank=r, stream=2 * p + r, fn=map_block(r)
        )
        map_times[r] = dt
        map_recovery[r] += rec
        if result is None:
            map_failures.append((r, cause or "unknown fault"))
        else:
            rank_results[r] = result
    # Re-dispatch lost query blocks; one no rank can map is a partial result.
    failed_blocks: dict[int, str] = {}
    for b, cause in map_failures:
        for donor in (r for r in range(p) if r != b):
            result, dt, rec, cause2 = _simulate_unit(
                faults, policy, "map",
                block=b, exec_rank=donor, stream=3 * p + b, fn=map_block(b),
            )
            map_times[donor] += dt
            map_recovery[donor] += rec
            redispatches += 1
            if result is not None:
                rank_results[b] = result
                break
            cause = cause2 or cause
        else:
            failed_blocks[b] = cause
    recovery += map_recovery
    partial = resolve_partial(failed_blocks, read_parts, strict=strict)

    surviving = [r for r in range(p) if rank_results[r] is not None]
    mapping = _merge_rank_results(
        [rank_results[r] for r in surviving],
        [int(read_bounds[r]) for r in surviving],
    )
    n_segments = len(mapping)
    steps = StepTimes(
        load=load, sketch=sketch_times, map=map_times,
        gather_comm=gather_comm, comm_bytes=comm_bytes,
        recovery=recovery, regather_comm=regather_comm,
        gather_retries=gather_retries,
    )
    return ParallelRunResult(
        mapping=mapping, steps=steps, p=p, n_segments=n_segments, partial=partial
    )
