"""Bounded admission queue.

The queue is the service's backpressure point: a submit beyond
``capacity`` is rejected *immediately* with
:class:`~repro.errors.ServiceOverloadError` carrying a ``retry_after``
estimate, instead of letting latency grow without bound (the
reject-with-retry-after contract, cf. HTTP 429/503).  Closing the queue
stops admission but lets the scheduler drain what was already accepted —
accepted work is never dropped on shutdown.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from typing import Generic, TypeVar

from ..errors import ServiceClosedError, ServiceOverloadError

__all__ = ["AdmissionQueue"]

T = TypeVar("T")


class AdmissionQueue(Generic[T]):
    """Thread-safe bounded FIFO with reject-on-full and drain-on-close.

    ``retry_after`` passed to :meth:`put` rides on the rejection error so
    the caller (the service, which knows its recent per-read service
    time) controls the hint without the queue knowing about timing.  It
    may be a plain float or a ``depth -> seconds`` callable; the callable
    form is evaluated *under the queue lock* with the true current depth,
    so concurrent producers (many network connections submitting at once)
    always get a hint derived from the depth at the moment of their own
    rejection — a float computed before ``put`` is stale by the time the
    lock is taken whenever another producer slipped in between.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._items: deque[T] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def put(
        self, item: T, *, retry_after: float | Callable[[int], float] = 0.0
    ) -> int:
        """Admit ``item`` or reject; returns the queue depth after admission.

        A callable ``retry_after`` receives the current depth (taken under
        the lock, so it is exact even with concurrent producers) and
        returns the hint in seconds.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is draining; no new requests accepted")
            if len(self._items) >= self.capacity:
                hint = (
                    retry_after(len(self._items))
                    if callable(retry_after)
                    else float(retry_after)
                )
                raise ServiceOverloadError(
                    f"admission queue full ({self.capacity} requests); "
                    f"retry in ~{hint:.3f}s",
                    retry_after=hint,
                )
            self._items.append(item)
            self._not_empty.notify()
            return len(self._items)

    def take_batch(self, max_size: int, max_wait_s: float) -> list[T]:
        """Next micro-batch: up to ``max_size`` items, coalesced for up to
        ``max_wait_s`` after the first item is available.

        Blocks while the queue is empty and open.  Returns an empty list
        only when the queue is closed and fully drained — the scheduler's
        exit signal.
        """
        with self._lock:
            while not self._items and not self._closed:
                self._not_empty.wait()
            if not self._items:
                return []  # closed and drained
            batch: list[T] = [self._items.popleft()]
            deadline = time.perf_counter() + max_wait_s
            while len(batch) < max_size:
                while not self._items:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or self._closed:
                        return batch
                    self._not_empty.wait(remaining)
                batch.append(self._items.popleft())
            return batch

    def close(self) -> None:
        """Stop admission; already-queued items remain to be drained."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def dump(self) -> list[T]:
        """Abort door: close *and* seize everything still queued.

        Unlike :meth:`close`, nothing is left for the scheduler to drain —
        the caller owns failing the seized items.  Used by the chaos kill
        path, where accepted work must die abruptly (but still typed)
        instead of completing.
        """
        with self._lock:
            self._closed = True
            items = list(self._items)
            self._items.clear()
            self._not_empty.notify_all()
            return items
