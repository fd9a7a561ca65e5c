"""Process-based parallel execution of the JEM-mapper pipeline.

The in-process driver (:func:`~repro.parallel.driver.run_parallel_jem`)
*simulates* p ranks to measure per-rank costs; this module actually runs
the two data-parallel phases — subject sketching (S2) and query mapping
(S4) — across worker processes with ``multiprocessing``.  The gather (S3)
happens in the parent, playing the role of the Allgatherv root.  It is a
library backend, for runs where process isolation is the point (seeded
fault plans, the ledger's per-layer probe); ``jem map -p N`` maps
in-process on N kernel threads instead.

Execution is fault-tolerant.  Work units are dispatched in rounds through
a worker pool; a unit whose worker raises, dies hard (``os._exit``) or
exceeds the per-unit ``timeout`` (a dead ``multiprocessing`` worker never
posts its result — the timeout is how the parent notices) is re-dispatched
with exponential backoff under the :class:`~repro.parallel.retry.RetryPolicy`.
Because a timed-out slot may be occupied by a hung worker, the pool is
rebuilt after any timeout; ``multiprocessing`` itself respawns workers
that died.  A unit that fails every attempt is fatal for S2 (an incomplete
index corrupts every result), and for S4 either raises
:class:`~repro.errors.PartialResultError` (``strict=True``) or degrades
into a :class:`~repro.parallel.faults.PartialResult` naming exactly the
lost reads (``strict=False``).

Work units travel through POSIX shared memory (:mod:`~repro.parallel.shm`):
the contig set, the read set and the merged sketch table are published
once each; payloads are small descriptors and workers build numpy views
directly on the mapping — no per-rank copy of the table, no base buffers
in the pickle stream, and a rebuilt pool re-attaches to the same segments
by name.  Output equals the sequential mapper's bit for bit — the test
suite asserts it, including under any recoverable
:class:`~repro.parallel.faults.FaultPlan`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import numpy as np

from ..core.config import JEMConfig
from ..core.mapper import MappingResult, map_segment_batch
from ..core.segments import extract_end_segments
from ..core.store import ColumnarSketchStore, merge_trial_keys
from ..errors import CommError, FaultError, PartialResultError
from ..seq.records import SequenceSet
from ..sketch.jem import subject_sketch_pairs
from .driver import _merge_rank_results
from .faults import FaultPlan, PartialResult, RecoveryReport
from .partition import partition_bounds, partition_set
from .retry import RetryPolicy
from .shm import (
    SharedSeqBlock,
    SharedStore,
    release,
    share_sequence_set,
    share_store,
    sweep_orphan_segments,
)

__all__ = ["map_reads_multiprocess"]

#: Default per-work-unit deadline; how long a dead worker goes unnoticed.
DEFAULT_UNIT_TIMEOUT = 60.0

#: Kernel threads of a worker process.  The workers are the parallelism — one
#: per core — so each sketches and maps on one thread; left to the default,
#: N workers would start N x CPUs of them.
WORKER_KERNEL_THREADS = 1


def _apply_worker_faults(actions: tuple) -> None:
    """Execute parent-armed fault actions inside the worker process."""
    for action in actions:
        if action[0] == "die":
            os._exit(1)  # hard kill: no exception, no result — a real crash
        elif action[0] == "sleep":
            time.sleep(action[1])
        elif action[0] == "raise":
            raise FaultError(action[1])


def _sketch_worker(payload: tuple) -> list[np.ndarray]:
    """S2 on one subject block (executed in a worker process)."""
    subjects, config, offset, actions = payload
    _apply_worker_faults(actions)
    if isinstance(subjects, SharedSeqBlock):
        subjects = subjects.materialise()
    family = config.hash_family()
    return subject_sketch_pairs(  # one worker per core: one kernel thread each
        subjects, config.k, config.w, config.ell, family,
        subject_id_offset=offset, threads=WORKER_KERNEL_THREADS,
    )


def _map_worker(payload: tuple) -> MappingResult:
    """S4 on one read block against the gathered store."""
    reads, config, table, actions = payload
    _apply_worker_faults(actions)
    if isinstance(reads, SharedSeqBlock):
        reads = reads.materialise()
    if len(reads) == 0:
        return MappingResult(
            [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), []
        )
    # workers get a descriptor to attach; the p = 1 inline path the store itself
    if isinstance(table, SharedStore):
        table = table.materialise()
    segments, infos = extract_end_segments(reads, config.ell)
    return map_segment_batch(
        table, segments, config, config.hash_family(), infos,
        threads=WORKER_KERNEL_THREADS,
    )


def _block_ranges(bounds: np.ndarray) -> list[tuple[int, int]]:
    edges = bounds.tolist()
    return list(zip(edges[:-1], edges[1:]))


def _arm(plan: FaultPlan | None, phase: str, block: int, *, first: bool) -> tuple:
    """Consume the plan in the parent; ship the verdict to the worker.

    Fault state lives in the parent so retries see an *updated* plan; the
    worker only executes the pre-decided actions.  Re-dispatches use
    ``exec_rank=-1`` ("a fresh worker"), which rank-scoped faults do not
    match — modelling re-dispatch away from a bad worker.
    """
    if plan is None:
        return ()
    specs = plan.consume(phase, block=block, exec_rank=block if first else -1)
    actions = []
    for spec in specs:
        if spec.kind == "worker_death":
            actions.append(("die",))
        elif spec.kind == "straggler":
            actions.append(("sleep", spec.delay))
        elif spec.kind == "crash":
            actions.append(
                ("raise", f"injected crash: {phase} block {block}")
            )
    return tuple(actions)


def _run_phase(
    ctx,
    processes: int,
    worker,
    payloads: list[tuple],
    *,
    plan: FaultPlan | None,
    phase: str,
    policy: RetryPolicy,
    timeout: float | None,
    report: RecoveryReport,
) -> tuple[list, dict[int, str]]:
    """Dispatch work units in rounds with retry, backoff and re-dispatch.

    Returns ``(results, permanent_failures)`` where the failure dict maps
    unit index to the last cause.  The pool is rebuilt after any timeout
    (the slot may be held by a hung worker); dead workers are respawned by
    ``multiprocessing`` itself.
    """
    n = len(payloads)
    results: list = [None] * n
    attempts = [0] * n
    pending = list(range(n))
    failures: dict[int, str] = {}
    delays = {i: policy.delays(stream=i) for i in range(n)}
    # An idle ``Pool`` worker sits in ``inqueue.get()`` holding the queue's
    # reader lock; SIGKILLed there, the lock dies held and ``Pool.terminate``
    # deadlocks taking it.  This pool (and its rebuild below) is safe only
    # because injected deaths happen inside a task (``os._exit`` in
    # ``_apply_worker_faults``), never while idle — do not signal these
    # workers from outside.
    pool = ctx.Pool(processes)
    try:
        while pending:
            batch = []
            for idx in pending:
                actions = _arm(plan, phase, idx, first=attempts[idx] == 0)
                report.attempts += 1
                batch.append(
                    (idx, pool.apply_async(worker, (payloads[idx] + (actions,),)))
                )
            still: list[int] = []
            saw_timeout = False
            round_backoff = 0.0
            for idx, async_result in batch:
                t0 = time.perf_counter()
                try:
                    results[idx] = async_result.get(timeout)
                    continue
                except mp.TimeoutError:
                    cause = (
                        f"no result within {timeout}s (worker died or hung)"
                    )
                    saw_timeout = True
                except FaultError as exc:
                    cause = str(exc)
                except Exception as exc:  # noqa: BLE001 - worker-side failure
                    cause = repr(exc)
                report.recovery_seconds += time.perf_counter() - t0
                attempts[idx] += 1
                if attempts[idx] < policy.max_attempts:
                    still.append(idx)
                    report.redispatches += 1
                    round_backoff = max(round_backoff, next(delays[idx], 0.0))
                else:
                    failures[idx] = cause
            if saw_timeout:
                # the timed-out slot may still be occupied; start clean
                pool.terminate()
                pool.join()
                pool = ctx.Pool(processes)
            if still and round_backoff > 0:
                time.sleep(round_backoff)
                report.recovery_seconds += round_backoff
            pending = still
    finally:
        pool.terminate()
        pool.join()
    return results, failures


def map_reads_multiprocess(
    contigs: SequenceSet,
    reads: SequenceSet,
    config: JEMConfig | None = None,
    *,
    processes: int = 2,
    mp_context: str = "spawn",
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    strict: bool = True,
    timeout: float | None = DEFAULT_UNIT_TIMEOUT,
    report: RecoveryReport | None = None,
) -> MappingResult:
    """Full pipeline with worker-process parallelism; returns the mapping.

    ``processes`` is the worker count for both phases; the input is
    block-partitioned by base count exactly like the distributed driver;
    read-only blocks are published once in shared memory.  Pass a
    :class:`~repro.parallel.faults.RecoveryReport` to observe what the
    recovery machinery did (attempts, re-dispatches, recovery seconds,
    and — with ``strict=False`` — any :class:`PartialResult`).
    """
    config = config if config is not None else JEMConfig()
    policy = retry if retry is not None else RetryPolicy()
    report = report if report is not None else RecoveryReport()
    if processes < 1:
        raise CommError(f"processes must be >= 1, got {processes}")
    subject_index_bounds = partition_bounds(contigs.offsets, processes)
    subject_offsets = subject_index_bounds[:-1]
    read_parts = partition_set(reads, processes)
    read_index_bounds = partition_bounds(reads.offsets, processes)
    read_offsets = read_index_bounds[:-1]

    if processes == 1 and faults is None:
        local = _sketch_worker((contigs, config, 0, ()))
        store = ColumnarSketchStore.from_trial_keys(
            merge_trial_keys([local]), n_subjects=len(contigs)
        )
        result = _map_worker((read_parts[0], config, store, ()))
        return _merge_rank_results([result], [0])

    ctx = mp.get_context(mp_context)
    shared_refs: list[str] = []
    # reclaim segments leaked by an earlier hard-killed run before
    # publishing new ones (startup half of the orphan-sweep contract)
    sweep_orphan_segments()
    try:
        # S2: sketch subject blocks in parallel (with retry / re-dispatch)
        subject_blocks = share_sequence_set(
            contigs, "subjects", _block_ranges(subject_index_bounds)
        )
        shared_refs.append(subject_blocks[0].ref.name)
        sketch_jobs = [
            (subject_blocks[r], config, int(subject_offsets[r]))
            for r in range(processes)
        ]
        per_rank_keys, sketch_failures = _run_phase(
            ctx, processes, _sketch_worker, sketch_jobs,
            plan=faults, phase="sketch", policy=policy, timeout=timeout,
            report=report,
        )
        if sketch_failures:
            blocks = sorted(sketch_failures)
            raise FaultError(
                f"subject block(s) {blocks} unsketchable after "
                f"{policy.max_attempts} attempts: {sketch_failures[blocks[0]]}"
            )
        # S3: union in the parent (the Allgatherv root role)
        store = ColumnarSketchStore.from_trial_keys(
            merge_trial_keys(per_rank_keys), n_subjects=len(contigs)
        )
        # S4: map read blocks in parallel against the gathered store
        table = share_store(store)
        shared_refs.append(table.ref.name)
        read_blocks = share_sequence_set(reads, "reads", _block_ranges(read_index_bounds))
        shared_refs.append(read_blocks[0].ref.name)
        map_jobs = [(read_blocks[r], config, table) for r in range(processes)]
        rank_results, map_failures = _run_phase(
            ctx, processes, _map_worker, map_jobs,
            plan=faults, phase="map", policy=policy, timeout=timeout, report=report,
        )
    finally:
        for name in shared_refs:
            release(name)
    if map_failures:
        failed_reads = tuple(
            name for b in sorted(map_failures) for name in read_parts[b].names
        )
        if strict:
            raise PartialResultError(
                f"query block(s) {sorted(map_failures)} unmappable after "
                f"{policy.max_attempts} attempts ({len(failed_reads)} reads); "
                "rerun with strict=False to accept a partial mapping",
                failed_reads=failed_reads,
            )
        report.partial = PartialResult(
            failed_reads=failed_reads,
            failed_blocks=tuple(sorted(map_failures)),
            causes=dict(map_failures),
        )
    surviving = [r for r in range(processes) if rank_results[r] is not None]
    return _merge_rank_results(
        [rank_results[r] for r in surviving],
        [int(read_offsets[r]) for r in surviving],
    )
