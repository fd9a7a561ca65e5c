"""Fleet supervision: detect, respawn, and re-admit broken replicas.

The :class:`ReplicaSet` keeps serving *around* a dead member — hedged
retry re-computes the corpse's scatter shares inline from the root store
— but nothing in the set itself notices the corpse or restores full
scatter throughput.  That is the
:class:`FleetSupervisor`'s job, in a loop of three verdicts:

``probe → verdict → repair``
    Every ``probe_interval_s`` each replica is probed twice over: process
    liveness (is the lane's worker thread alive, is the service still
    admitting?) and a heartbeat lookup *through the lane* with a short
    deadline.  The verdicts:

    * ``healthy`` — answered in time; strikes reset.
    * ``sick`` — answered with a fault.  The replica's own circuit
      breaker owns this failure mode (quarantine, cooldown, half-open
      probe); the supervisor only watches.
    * ``wedged`` — alive but silent past the probe deadline.  One strike;
      ``suspect_strikes`` consecutive strikes escalate to dead, so a
      brief GC-style stall never triggers a pointless respawn.
    * ``dead`` — the lane or service is gone.  Repair is immediate.

Repair delegates to :meth:`ReplicaSet.respawn_replica`: rebuild the
member over the current root store — a fresh column view at the current
placement bounds and generation under scatter — and re-admit it only
after a bit-identical parity probe through its new lane.  Requests in
flight during the whole
episode are served via the router's hedged fallback — bit-identical by
construction — so recovery is zero-downtime *and* zero-drift.

The supervisor keeps its own labelled metrics registry (respawn counts
survive the per-replica registries, which die with their replica) and a
bounded transition history for ``healthz``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass

import numpy as np

from ..errors import ReproError, ServiceError
from ..service.metrics import ServiceMetrics

__all__ = ["FleetSupervisor", "SupervisorConfig"]

HEALTHY = "healthy"
SICK = "sick"
SUSPECT = "suspect"
WEDGED = "wedged"
DEAD = "dead"
RESPAWNING = "respawning"

#: Most state transitions ``healthz`` reports (the oldest fall off first).
HISTORY = 64


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for the supervision loop.

    ``probe_deadline_s`` bounds the heartbeat wait — it must stay well
    under ``probe_interval_s`` or probes of a wedged fleet pile up.
    ``suspect_strikes`` consecutive missed heartbeats escalate a wedged
    replica to dead.  ``max_respawns`` caps total repairs (0 = unlimited)
    so a persistently failing parity probe cannot crash-loop forever.
    """

    probe_interval_s: float = 0.5
    probe_deadline_s: float = 0.25
    suspect_strikes: int = 2
    max_respawns: int = 0

    def __post_init__(self) -> None:
        if self.probe_interval_s <= 0:
            raise ServiceError(
                f"probe_interval_s must be > 0, got {self.probe_interval_s}"
            )
        if self.probe_deadline_s <= 0:
            raise ServiceError(
                f"probe_deadline_s must be > 0, got {self.probe_deadline_s}"
            )
        if self.suspect_strikes < 1:
            raise ServiceError(
                f"suspect_strikes must be >= 1, got {self.suspect_strikes}"
            )
        if self.max_respawns < 0:
            raise ServiceError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )


class FleetSupervisor:
    """Keeps a :class:`ReplicaSet`'s members alive, exact, and re-admitted."""

    def __init__(self, replica_set, config: SupervisorConfig | None = None) -> None:
        self._set = replica_set
        self.config = config if config is not None else SupervisorConfig()
        self.metrics = ServiceMetrics(
            labels={
                "replica": "supervisor",
                "placement": replica_set.placement.kind,
            }
        )
        n = len(replica_set.replicas)
        self._states = [HEALTHY] * n
        self._strikes = [0] * n
        self._history: deque[dict] = deque(maxlen=HISTORY)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.ticks = 0
        self.respawn_failures = 0
        # the set surfaces supervisor status in healthz and folds this
        # registry into its fleet-wide metrics aggregation
        replica_set.supervisor = self
        replica_set._extra_registries.append(self.metrics)

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "FleetSupervisor":
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="jem-fleet-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.config.probe_interval_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover - the supervisor must not die
                pass

    # -- probing -------------------------------------------------------------

    def probe(self, i: int) -> str:
        """One replica's verdict: healthy / sick / wedged / dead."""
        replica = self._set.replicas[i]
        lanes = self._set._lanes
        lane = lanes[i] if lanes else None
        if replica.service.drained or (lane is not None and not lane.alive):
            return DEAD
        if lane is None:
            # replicate placement: no lookup path to heartbeat; process
            # liveness (above) is the whole verdict
            return HEALTHY
        # heartbeat: a one-value lookup through the lane, bounded by the
        # probe deadline — a wedged worker is alive but will miss it
        qv = np.array([replica.lo], dtype=np.uint64)
        try:
            future = lane.submit(0, qv)
        except ReproError:
            return DEAD  # admission refused: the lane is closing/closed
        try:
            future.result(self.config.probe_deadline_s)
        except FutureTimeout:
            return WEDGED
        except ReproError:
            return SICK
        return HEALTHY

    def _note(self, i: int, state: str, detail: str = "") -> None:
        with self._lock:
            if self._states[i] != state:
                self._history.append(
                    {
                        "replica": i,
                        "from": self._states[i],
                        "to": state,
                        "detail": detail,
                        "tick": self.ticks,
                    }
                )
            self._states[i] = state

    def _budget_left(self) -> bool:
        limit = self.config.max_respawns
        return limit == 0 or self.metrics.replica_respawns_total.value < limit

    def _repair(self, i: int, cause: str) -> None:
        if not self._budget_left():
            self._note(i, DEAD, f"{cause}; respawn budget exhausted")
            return
        self._note(i, RESPAWNING, cause)
        try:
            self._set.respawn_replica(i, graceful=False)
        except ReproError as exc:
            self.respawn_failures += 1
            self._note(i, DEAD, f"respawn failed: {exc}")
            return
        self.metrics.replica_respawns_total.inc()
        self._strikes[i] = 0
        self._note(i, HEALTHY, f"respawned after {cause}")

    def tick(self) -> list[str]:
        """One supervision pass; public so tests can drive it deterministically."""
        verdicts: list[str] = []
        for i in range(len(self._set.replicas)):
            verdict = self.probe(i)
            verdicts.append(verdict)
            if verdict == DEAD:
                self._repair(i, "dead: liveness probe failed")
            elif verdict == WEDGED:
                self._strikes[i] += 1
                if self._strikes[i] >= self.config.suspect_strikes:
                    self._repair(
                        i, f"wedged: {self._strikes[i]} missed heartbeats"
                    )
                else:
                    self._note(i, SUSPECT, "missed heartbeat")
            elif verdict == SICK:
                # the replica's breaker owns fault quarantine; strikes
                # reset because the member is demonstrably answering
                self._strikes[i] = 0
                self._note(i, SICK, "heartbeat answered with a fault")
            else:
                self._strikes[i] = 0
                self._note(i, HEALTHY)
        self.ticks += 1
        return verdicts

    def wait_healthy(self, timeout: float = 30.0) -> bool:
        """Block until every member probes healthy (True) or timeout (False)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(
                self.probe(i) == HEALTHY
                for i in range(len(self._set.replicas))
            ):
                return True
            time.sleep(0.02)
        return False

    # -- observability -------------------------------------------------------

    def status(self) -> dict:
        """Supervisor block for ``healthz``: states, strikes, history."""
        with self._lock:
            states = list(self._states)
            strikes = list(self._strikes)
            history = list(self._history)
        return {
            "running": self.running,
            "ticks": self.ticks,
            "states": states,
            "strikes": strikes,
            "respawns": int(self.metrics.replica_respawns_total.value),
            "respawn_failures": self.respawn_failures,
            "transitions": history,
        }
