"""Single-process, single-thread load generator over real TCP sockets.

One ``select`` loop drives every connection ("lane") of a run, so the
generator never competes with itself for the interpreter lock and its
own lateness is measurable.  A lane is a list of pre-encoded request
lines plus two rules: when a request is *due* (a schedule for an open
loop, "always" for a closed loop) and how many may be outstanding.  The
server answers each connection in request order, so the k-th response
line belongs to the k-th request; responses are kept raw and parsed
after the window, not while it is being timed.

The arithmetic the metrics rest on (:func:`percentile`,
:func:`window_rates`, the schedules) is kept free of I/O and is
unit-tested in ``ledger/tests``.
"""

from __future__ import annotations

import json
import select
import socket
import time
from collections.abc import Callable

import numpy as np

#: Stop waiting for stragglers this long after the last request was due.
DRAIN_GRACE_S = 5.0


# -- arithmetic ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear interpolation between order statistics."""
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(values, q))


def window_rates(times, start: float, window_s: float, n_windows: int) -> list[float]:
    """Events per second in each of ``n_windows`` back-to-back windows."""
    counts = [0] * n_windows
    for t in times:
        slot = int((t - start) // window_s)
        if 0 <= slot < n_windows:
            counts[slot] += 1
    return [c / window_s for c in counts]


def poisson_schedule(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets of a Poisson process of ``rate``/s over ``seconds``.

    Conditioned on its count (exactly ``round(rate * seconds)`` arrivals,
    which are then uniform order statistics), so two seeds offer the same
    number of requests and differ only in where the gaps fall.
    """
    n = int(round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, size=n))


def resend_plan(
    n_sends: int, share: float, lookback: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Which read each send carries when ``share`` of sends repeat a recent one.

    Returns (read index per send, number of distinct reads used).  A
    repeat re-sends the read of one of the previous ``lookback`` sends.
    """
    reads = np.empty(n_sends, dtype=np.int64)
    fresh = 0
    repeat = rng.random(n_sends) < share
    pick = rng.integers(1, lookback + 1, size=n_sends)
    for j in range(n_sends):
        if j and repeat[j]:
            reads[j] = reads[j - min(int(pick[j]), j)]
        else:
            reads[j] = fresh
            fresh += 1
    return reads, fresh


# -- wire ------------------------------------------------------------------------


def map_line(request_id: int, name: str, sequence: str) -> bytes:
    return (json.dumps({"op": "map", "id": request_id, "name": name,
                        "seq": sequence}) + "\n").encode("ascii")


def op_line(op: str, **fields) -> bytes:
    return (json.dumps({"op": op, **fields}) + "\n").encode("ascii")


def connect(address: tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(address, timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    return sock


class Lane:
    """One connection's requests and what came back.

    ``payload(i)`` is the i-th request line.  ``due`` holds absolute
    due times for an open loop, or None for "as soon as allowed"; ``limit``
    caps outstanding requests; ``count`` bounds the sends of a lane that
    has no schedule (None = until ``stop_at``).
    """

    def __init__(
        self,
        sock: socket.socket,
        payload: Callable[[int], bytes],
        *,
        due: np.ndarray | None = None,
        limit: int | None = None,
        count: int | None = None,
        stop_at: float | None = None,
    ) -> None:
        self.sock = sock
        self.payload = payload
        self.due = due
        self.limit = limit
        self.count = len(due) if due is not None else count
        self.stop_at = stop_at
        self.sent: list[float] = []
        self.received: list[float] = []
        self.lines: list[bytes] = []
        self._out = bytearray()
        self._in = bytearray()

    @property
    def outstanding(self) -> int:
        return len(self.sent) - len(self.received)

    def next_due(self, now: float) -> float | None:
        """When the next request may go out; None when none will (yet)."""
        i = len(self.sent)
        if self.count is not None and i >= self.count:
            return None
        if self.stop_at is not None and now >= self.stop_at:
            return None
        if self.limit is not None and self.outstanding >= self.limit:
            return None
        return float(self.due[i]) if self.due is not None else now

    @property
    def exhausted(self) -> bool:
        """No further request will ever be sent on this lane."""
        done_count = self.count is not None and len(self.sent) >= self.count
        done_time = self.stop_at is not None and time.perf_counter() >= self.stop_at
        return done_count or done_time

    def push(self, now: float) -> None:
        self._out += self.payload(len(self.sent))
        self.sent.append(now)
        self.flush()

    def flush(self) -> None:
        if not self._out:
            return
        try:
            n = self.sock.send(self._out)
        except BlockingIOError:
            return
        del self._out[:n]

    @property
    def wants_write(self) -> bool:
        return bool(self._out)

    def pull(self) -> None:
        try:
            chunk = self.sock.recv(1 << 18)
        except BlockingIOError:
            return
        now = time.perf_counter()
        if not chunk:
            raise ConnectionError("server closed the connection mid-run")
        self._in += chunk
        while True:
            nl = self._in.find(b"\n")
            if nl < 0:
                return
            self.lines.append(bytes(self._in[:nl]))
            self.received.append(now)
            del self._in[: nl + 1]

    def received_or_none(self) -> list[float | None]:
        """Receive time per request, None for the unanswered tail."""
        return list(self.received) + [None] * self.outstanding


def drive(lanes: list[Lane]) -> None:
    """Run every lane to completion (or until its stragglers time out)."""
    by_fd = {lane.sock.fileno(): lane for lane in lanes}
    give_up: float | None = None
    while True:
        now = time.perf_counter()
        wake = None
        for lane in lanes:
            while True:
                due = lane.next_due(now)
                if due is None:
                    break
                if due > now:
                    wake = due if wake is None else min(wake, due)
                    break
                lane.push(now)
                now = time.perf_counter()
        if all(lane.exhausted for lane in lanes):
            if not any(lane.outstanding for lane in lanes):
                return
            if give_up is None:
                give_up = now + DRAIN_GRACE_S
            elif now > give_up:
                return
            wake = give_up if wake is None else min(wake, give_up)
        timeout = 0.05 if wake is None else min(max(wake - now, 0.0), 0.05)
        writers = [lane.sock for lane in lanes if lane.wants_write]
        readable, writable, _ = select.select(
            [lane.sock for lane in lanes], writers, [], timeout
        )
        for sock in writable:
            by_fd[sock.fileno()].flush()
        for sock in readable:
            by_fd[sock.fileno()].pull()


def ask(sock: socket.socket, line: bytes, timeout: float = 60.0) -> dict:
    """One request, one reply, on an otherwise idle connection."""
    lane = Lane(sock, lambda _i: line, count=1, limit=1)
    deadline = time.perf_counter() + timeout
    lane.push(time.perf_counter())
    while not lane.lines:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError(f"no reply to {line[:60]!r} within {timeout}s")
        writers = [sock] if lane.wants_write else []
        readable, writable, _ = select.select([sock], writers, [], min(remaining, 0.05))
        if writable:
            lane.flush()
        if readable:
            lane.pull()
    return json.loads(lane.lines[0])
