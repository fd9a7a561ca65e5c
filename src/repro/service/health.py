"""Self-healing machinery for the mapping service.

:class:`CircuitBreaker` is a rolling-window breaker over per-batch
outcomes, deliberately free of mapping knowledge.  A spike of batch
failures (the batch's S4 call raising) trips it **open**; while open the
service re-routes batches to the degraded reduced-trial mapping path, a
cheaper answer over a smaller store.  After a cooldown of degraded
batches the breaker goes **half-open** and lets exactly one batch probe
the primary path: success closes it (recovered), failure re-opens it.
All transitions are returned as events, and :func:`note_breaker` turns
each into the metrics it moves.

The breaker never changes mapping output on a healthy service: it only
routes *after* failures, and a breaker with ``failure_threshold`` 0 is
permanently closed.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN", "note_breaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Rolling-window circuit breaker over batch outcomes.

    ``failure_threshold`` failures within the last ``window`` recorded
    batches trip the breaker; ``0`` disables it entirely (it reports
    :data:`CLOSED` forever — the default service configuration, so clean
    runs cannot change behaviour).  ``cooldown_batches`` is how many
    batches are served degraded before a half-open probe of the primary
    path.

    Sustained failure also ratchets :attr:`shed_level`: every ``opened``
    transition sheds the degraded path's trial budget by another factor
    of two, every ``recovered`` transition restores one step — so a
    service that keeps flapping converges towards the cheapest possible
    (single-trial) degraded answer instead of oscillating at full cost.
    """

    def __init__(
        self,
        *,
        window: int = 16,
        failure_threshold: int = 0,
        cooldown_batches: int = 2,
        max_shed_level: int = 8,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if failure_threshold < 0:
            raise ValueError(
                f"failure_threshold must be >= 0, got {failure_threshold}"
            )
        if cooldown_batches < 1:
            raise ValueError(
                f"cooldown_batches must be >= 1, got {cooldown_batches}"
            )
        if max_shed_level < 1:
            raise ValueError(
                f"max_shed_level must be >= 1, got {max_shed_level}"
            )
        self.failure_threshold = int(failure_threshold)
        self.cooldown_batches = int(cooldown_batches)
        self.max_shed_level = int(max_shed_level)
        self._outcomes: deque[bool] = deque(maxlen=int(window))
        self._state = CLOSED
        self._degraded_since_open = 0
        self._shed_level = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.failure_threshold > 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def shed_level(self) -> int:
        """How aggressively the degraded path should shed work.

        0 while healthy; each ``"opened"`` transition steps it up (to at
        most ``max_shed_level``) and each ``"recovered"`` transition steps
        it back down — the stepwise T → T/2 → … → 1 ladder from ROADMAP
        item 5.  The mapping side interprets level *s* as "serve the
        first ``max(1, trials >> s)`` sketch trials".
        """
        with self._lock:
            return self._shed_level

    def decide(self) -> str:
        """Routing decision for the next batch: ``"primary"`` or ``"degraded"``.

        While open, each call counts one degraded batch; once the
        cooldown is spent the breaker moves to half-open and the *next*
        batch probes the primary path.
        """
        if not self.enabled:
            return "primary"
        with self._lock:
            if self._state == OPEN:
                if self._degraded_since_open >= self.cooldown_batches:
                    self._state = HALF_OPEN
                    return "primary"
                self._degraded_since_open += 1
                return "degraded"
            return "primary"

    def record_success(self) -> str | None:
        """Record a clean primary batch; returns ``"recovered"`` on close."""
        if not self.enabled:
            return None
        with self._lock:
            self._outcomes.append(True)
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._degraded_since_open = 0
                self._outcomes.clear()
                if self._shed_level > 0:
                    self._shed_level -= 1
                return "recovered"
            return None

    def record_failure(self) -> str | None:
        """Record a failed primary batch; returns ``"opened"`` on trip."""
        if not self.enabled:
            return None
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = OPEN
                self._degraded_since_open = 0
                if self._shed_level < self.max_shed_level:
                    self._shed_level += 1
                return "opened"
            self._outcomes.append(False)
            failures = sum(1 for ok in self._outcomes if not ok)
            if self._state == CLOSED and failures >= self.failure_threshold:
                self._state = OPEN
                self._degraded_since_open = 0
                if self._shed_level < self.max_shed_level:
                    self._shed_level += 1
                return "opened"
            return None


def note_breaker(metrics, breaker: CircuitBreaker, event: str | None) -> None:
    """Count ``event`` and write the gauges it moves: the one writer of
    ``breaker_open``, ``ready``, ``shed_level``, ``breaker_open_total`` and
    ``recovered_total``, for a service and the scatter lane sharing its
    breaker.  ``event`` is what ``record_success`` / ``record_failure``
    returned (None: nothing moved), or ``"started"`` / ``"stopped"``: a
    service is ready while it serves and its breaker is not open.
    """
    if event is None:
        return
    if event == "opened":
        metrics.breaker_open_total.inc()
    elif event == "recovered":
        metrics.recovered_total.inc()
    is_open = breaker.state == OPEN
    metrics.breaker_open.set(1.0 if is_open else 0.0)
    metrics.ready.set(0.0 if is_open or event == "stopped" else 1.0)
    metrics.shed_level.set(breaker.shed_level)
