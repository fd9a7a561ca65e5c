"""Crash safety and chaos engineering for the mapping pipeline.

Two cooperating pieces (see ``docs/robustness.md``):

* :mod:`~repro.resilience.checkpoint` — a durable, CRC32-framed
  :class:`CheckpointLog` plus :class:`RunManifest` identity records, so a
  run SIGKILLed mid-flight resumes from its last completed S2 shard or S4
  query block and still produces bit-identical output;
* :mod:`~repro.resilience.chaos` — a seeded, deterministic
  :class:`ChaosPlan` that kills live processes mid-unit, tears and
  corrupts checkpoint/index files, and drops shared-memory segments, with
  a kill→resume→verify cycle runner behind ``jem chaos``; its serve
  flavour (:class:`ServeChaosPlan` + :func:`run_serve_chaos`, ``jem
  chaos serve``) kills and wedges supervised replicas mid-load and gates
  on byte-identical serving output, full recovery, and zero shm leaks.
"""

from .chaos import (
    ChaosCycleResult,
    ChaosPlan,
    ChaosSpec,
    ServeChaosEvent,
    ServeChaosPlan,
    ServeChaosReport,
    run_kill_resume_cycle,
    run_serve_chaos,
)
from .checkpoint import (
    CheckpointContext,
    CheckpointLog,
    RunManifest,
    fingerprint_file,
    fingerprint_sequences,
)
from .runner import build_index_checkpointed, load_invocation, save_invocation

__all__ = [
    "CheckpointContext",
    "CheckpointLog",
    "RunManifest",
    "fingerprint_file",
    "fingerprint_sequences",
    "ChaosPlan",
    "ChaosSpec",
    "ChaosCycleResult",
    "run_kill_resume_cycle",
    "ServeChaosEvent",
    "ServeChaosPlan",
    "ServeChaosReport",
    "run_serve_chaos",
    "build_index_checkpointed",
    "save_invocation",
    "load_invocation",
]
