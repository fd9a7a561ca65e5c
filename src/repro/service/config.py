"""Tunables of the long-lived mapping service.

:class:`ServiceConfig` controls *scheduling* — how requests queue, batch,
and cache.  It is deliberately separate from
:class:`~repro.core.config.JEMConfig`, which controls *what* is computed:
no ServiceConfig setting may change mapping output, only when and how
fast it is produced (the determinism tests pin this down).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Scheduling, admission, and caching knobs.

    Attributes
    ----------
    max_batch_size:
        Most reads coalesced into one dispatched batch.
    queue_capacity:
        Bound on queued-but-unscheduled requests; a submit beyond it is
        rejected with :class:`~repro.errors.ServiceOverloadError` and a
        ``retry_after`` hint (admission control / backpressure).
    cache_capacity:
        Entries in the query-sketch LRU result cache; 0 disables caching.
    breaker_failures:
        Failed batches within ``breaker_window`` recorded batches that
        trip the circuit breaker into degraded reduced-trial mapping.
        ``0`` (the default) disables the breaker entirely — a clean or
        default-configured service can never change routing.
    breaker_window:
        Rolling window (in batches) the breaker counts failures over.
    breaker_cooldown_batches:
        Degraded batches served while open before a half-open probe of
        the primary path.
    memtable_flush_entries:
        Auto-flush threshold for a served mutable index: once an
        ``add_contigs`` leaves at least this many entries in the
        memtable, the :class:`~repro.netserve.ReplicaSet` flushes it into
        a sealed segment in the same mutation.  ``0`` (the default)
        disables auto-flush.
    compact_segments:
        Auto-compaction limit: the most segments a served mutable index
        keeps.  A mutation that leaves more folds the index into one
        compacted segment (restoring the fused read path) before its
        generation is published, under the same lock.  ``0`` (the
        default) disables auto-compaction.
    """

    max_batch_size: int = 64
    queue_capacity: int = 1024
    cache_capacity: int = 4096
    breaker_failures: int = 0
    breaker_window: int = 16
    breaker_cooldown_batches: int = 2
    memtable_flush_entries: int = 0
    compact_segments: int = 0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.queue_capacity < 1:
            raise ConfigError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.cache_capacity < 0:
            raise ConfigError(f"cache_capacity must be >= 0, got {self.cache_capacity}")
        if self.breaker_failures < 0:
            raise ConfigError(
                f"breaker_failures must be >= 0, got {self.breaker_failures}"
            )
        if self.breaker_window < 1:
            raise ConfigError(
                f"breaker_window must be >= 1, got {self.breaker_window}"
            )
        if self.breaker_cooldown_batches < 1:
            raise ConfigError(
                "breaker_cooldown_batches must be >= 1, got "
                f"{self.breaker_cooldown_batches}"
            )
        if self.memtable_flush_entries < 0:
            raise ConfigError(
                "memtable_flush_entries must be >= 0, got "
                f"{self.memtable_flush_entries}"
            )
        if self.compact_segments < 0:
            raise ConfigError(
                f"compact_segments must be >= 0, got {self.compact_segments}"
            )
