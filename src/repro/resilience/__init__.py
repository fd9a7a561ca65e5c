"""Crash safety for the mapping pipeline (see ``docs/robustness.md``).

* :mod:`~repro.resilience.checkpoint` — a durable, CRC32-framed
  :class:`CheckpointLog` plus :class:`RunManifest` identity records, so a
  run SIGKILLed mid-flight resumes from its last completed S2 contig block
  or S4 read batch and still produces bit-identical output; its
  ``REPRO_CHAOS_KILL_AFTER`` hook lets a test kill a run at an exact
  checkpoint boundary;
* :mod:`~repro.resilience.runner` — hands a ``--checkpoint-dir`` run's
  streamed loops their per-unit hook.
"""

from .._lazy import lazy_exports

#: Public name -> submodule that defines it, imported on first access (PEP 562):
#: a process that reaches one piece through this file does not load the other.
_EXPORTS = {
    "CheckpointContext": ".checkpoint",
    "CheckpointLog": ".checkpoint",
    "RunManifest": ".checkpoint",
    "fingerprint_file": ".checkpoint",
    "checkpointed": ".runner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
