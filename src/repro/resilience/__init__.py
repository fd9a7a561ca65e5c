"""Crash safety and chaos engineering for the mapping pipeline.

Two cooperating pieces (see ``docs/robustness.md``):

* :mod:`~repro.resilience.checkpoint` — a durable, CRC32-framed
  :class:`CheckpointLog` plus :class:`RunManifest` identity records, so a
  run SIGKILLed mid-flight resumes from its last completed S2 contig block
  or S4 read batch and still produces bit-identical output;
* :mod:`~repro.resilience.chaos` — a seeded, deterministic
  :class:`ChaosPlan` that kills live processes mid-unit, tears and
  corrupts checkpoint/index files, and drops their temporary files, with
  a kill→resume→verify cycle runner behind ``jem chaos``; its serve
  flavour (:class:`ServeChaosPlan` + :func:`run_serve_chaos`, ``jem
  chaos serve``) kills and wedges supervised replicas mid-load and gates
  on byte-identical serving output, full recovery, and zero shm leaks.
"""

from .._lazy import lazy_exports

#: Public name -> submodule that defines it, imported on first access (PEP 562):
#: a process that reaches one piece through this file does not load the other.
_EXPORTS = {
    "CheckpointContext": ".checkpoint",
    "CheckpointLog": ".checkpoint",
    "RunManifest": ".checkpoint",
    "fingerprint_file": ".checkpoint",
    "ChaosPlan": ".chaos",
    "ChaosSpec": ".chaos",
    "ChaosCycleResult": ".chaos",
    "run_kill_resume_cycle": ".chaos",
    "ServeChaosEvent": ".chaos",
    "ServeChaosPlan": ".chaos",
    "ServeChaosReport": ".chaos",
    "run_serve_chaos": ".chaos",
    "checkpointed": ".runner",
    "unit_count": ".runner",
    "save_invocation": ".runner",
    "load_invocation": ".runner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
