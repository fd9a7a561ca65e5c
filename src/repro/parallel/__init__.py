"""Distributed-memory substrate: partitioning, cost model, driver, plus
the fault-injection / recovery machinery."""

from .costmodel import CostModel, StepTimes, modelled_runtime
from .driver import ParallelRunResult, run_parallel_jem
from .faults import (
    FAULT_KINDS,
    FAULT_PHASES,
    FaultPlan,
    FaultSpec,
    PartialResult,
    RecoveryReport,
)
from .mp_backend import map_reads_multiprocess
from .partition import partition_bounds, partition_imbalance, partition_set
from .retry import RetryPolicy, retry_call
from .shm import (
    SharedSeqBlock,
    ShmArrayRef,
    attach_arrays,
    release,
    release_all,
    share_arrays,
    share_sequence_set,
)

__all__ = [
    "CostModel",
    "StepTimes",
    "modelled_runtime",
    "ParallelRunResult",
    "run_parallel_jem",
    "map_reads_multiprocess",
    "ShmArrayRef",
    "SharedSeqBlock",
    "share_arrays",
    "attach_arrays",
    "share_sequence_set",
    "release",
    "release_all",
    "partition_bounds",
    "partition_imbalance",
    "partition_set",
    "FAULT_KINDS",
    "FAULT_PHASES",
    "FaultPlan",
    "FaultSpec",
    "PartialResult",
    "RecoveryReport",
    "RetryPolicy",
    "retry_call",
]
