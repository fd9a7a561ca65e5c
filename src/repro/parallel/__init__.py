"""Distributed-memory substrate: partitioning, cost model, driver, plus
the fault-injection / recovery machinery."""

from .._lazy import lazy_exports

#: Public name -> submodule that defines it, imported on first access (PEP 562):
#: ``jem serve`` reaches ``repro.parallel.partition`` through this file and
#: must not load multiprocessing, shared memory or the worker pool.
_EXPORTS = {
    "CostModel": ".costmodel",
    "StepTimes": ".costmodel",
    "ParallelRunResult": ".driver",
    "run_parallel_jem": ".driver",
    "map_reads_multiprocess": ".mp_backend",
    "ShmArrayRef": ".shm",
    "SharedSeqBlock": ".shm",
    "share_arrays": ".shm",
    "attach_arrays": ".shm",
    "share_sequence_set": ".shm",
    "release": ".shm",
    "release_all": ".shm",
    "partition_bounds": ".partition",
    "partition_imbalance": ".partition",
    "partition_set": ".partition",
    "FAULT_KINDS": ".faults",
    "FAULT_PHASES": ".faults",
    "FaultPlan": ".faults",
    "FaultSpec": ".faults",
    "PartialResult": ".faults",
    "RecoveryReport": ".faults",
    "RetryPolicy": ".retry",
    "retry_call": ".retry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
