"""Dynamic micro-batch scheduler.

One daemon thread pulls requests off the admission queue and coalesces
them into batches, then hands each batch to the dispatch callable the
service provides.  Batching changes *when* work happens, never *what* is
computed: every read's mapping is independent of its batch mates, so any
grouping yields bit-identical results — the property the determinism
tests assert.

The batch window is decided here, from the last batch: one that found
company means load, so the next batch holds its first read open for
:data:`COALESCE_S` to gather more; after a lone read (and at start) the
next batch takes whatever is queued at once.  Dispatching at once under
load shrinks batches and costs throughput; a fixed window charges every
lone read the full wait.

A dispatch failure fails that batch's requests (their futures carry the
exception) but never kills the scheduler: the service keeps serving
subsequent batches.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence

from .queue import AdmissionQueue

__all__ = ["COALESCE_S", "MicroBatchScheduler"]

#: Seconds a batch's first read waits for company after a batch that held
#: two or more reads.
COALESCE_S = 2e-3


class MicroBatchScheduler:
    """Drains an :class:`AdmissionQueue` into dispatched micro-batches."""

    def __init__(
        self,
        queue: AdmissionQueue,
        dispatch: Callable[[Sequence], None],
        *,
        max_batch_size: int,
        on_batch_error: Callable[[Sequence, BaseException], None] | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self._queue = queue
        self._dispatch = dispatch
        self._max_batch_size = int(max_batch_size)
        self._on_batch_error = on_batch_error
        self._thread = threading.Thread(
            target=self._run, name="jem-service-scheduler", daemon=True
        )
        self.batches_dispatched = 0

    def start(self) -> None:
        self._thread.start()

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def join(self, timeout: float | None = None) -> None:
        """Wait for the scheduler to finish draining (queue must be closed)."""
        self._thread.join(timeout)

    def _run(self) -> None:
        wait_s = 0.0
        while True:
            batch = self._queue.take_batch(self._max_batch_size, wait_s)
            if not batch:
                return  # queue closed and drained
            wait_s = COALESCE_S if len(batch) > 1 else 0.0
            try:
                self._dispatch(batch)
            except BaseException as exc:  # noqa: BLE001 - must not kill the loop
                if self._on_batch_error is not None:
                    self._on_batch_error(batch, exc)
            else:
                self.batches_dispatched += 1
