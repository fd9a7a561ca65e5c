"""The arithmetic the metrics rest on: percentiles, windows, schedules, self time."""

import socket
import statistics
import threading
import time

import numpy as np
import pytest

from ledger import loadgen, trace


def test_percentile_interpolates_between_order_statistics():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert loadgen.percentile(values, 0) == 10.0
    assert loadgen.percentile(values, 50) == 30.0
    assert loadgen.percentile(values, 90) == pytest.approx(46.0)
    assert loadgen.percentile(values, 100) == 50.0
    assert loadgen.percentile([7.0], 90) == 7.0
    assert loadgen.percentile(list(reversed(values)), 25) == 20.0
    assert loadgen.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    with pytest.raises(ValueError):
        loadgen.percentile([], 50)


def test_window_rates_and_their_median():
    # 4 windows of 0.5 s starting at t=10: 2, 0, 3 and 1 events
    times = [10.0, 10.49, 11.0, 11.1, 11.2, 11.5, 9.9, 12.0]
    rates = loadgen.window_rates(times, 10.0, 0.5, 4)
    assert rates == [4.0, 0.0, 6.0, 2.0]  # events outside [10, 12) are dropped
    assert statistics.median(rates) == 3.0


def test_schedule_has_fixed_count_and_depends_on_seed_only():
    a = loadgen.poisson_schedule(150.0, 4.0, np.random.default_rng(5))
    b = loadgen.poisson_schedule(150.0, 4.0, np.random.default_rng(5))
    c = loadgen.poisson_schedule(150.0, 4.0, np.random.default_rng(6))
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()
    assert a.size == c.size == 600
    assert (np.diff(a) >= 0).all() and 0.0 <= a[0] and a[-1] < 4.0


def test_resend_plan_repeats_only_recent_reads():
    reads, fresh = loadgen.resend_plan(2000, 0.3, 100, np.random.default_rng(1))
    assert reads[0] == 0
    first_seen: dict[int, int] = {}
    repeats = 0
    for j, r in enumerate(reads.tolist()):
        if r in first_seen:
            repeats += 1
            assert r in reads[max(0, j - 100) : j]
        else:
            assert r == len(first_seen)  # fresh reads are used in order
            first_seen[r] = j
    assert fresh == len(first_seen)
    assert 0.25 < repeats / 2000 < 0.35


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = trace.Tracer()
    root = tracer.add("root", 0.0, 10.0)
    tracer.add("a", 1.0, 4.0, parent=root)
    tracer.add("b", 3.0, 6.0, parent=root)  # overlaps a: union is [1, 6]
    tracer.add("c", 9.0, 12.0, parent=root)  # clipped to the parent: [9, 10]
    tracer.add("elsewhere", 0.0, 10.0)  # not a child
    assert tracer.self_time(root) == pytest.approx(10.0 - 5.0 - 1.0)
    assert tracer.self_time(1) == pytest.approx(3.0)


class _EchoServer:
    """Answers each request line with its id after an optional initial stall."""

    def __init__(self, stall_s: float) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.stall_s = stall_s
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        with conn:
            time.sleep(self.stall_s)
            buffer = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    conn.sendall(line + b"\n")

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=5)


def test_open_loop_latency_counts_from_the_due_time():
    """A server stall is charged to every request it delayed, not just the first."""
    server = _EchoServer(stall_s=0.2)
    sock = loadgen.connect(server.address)
    try:
        t0 = time.perf_counter() + 0.02
        due = t0 + 0.02 * np.arange(10)  # 10 requests, 20 ms apart
        lane = loadgen.Lane(sock, lambda i: b'{"id": %d}\n' % i, due=due)
        loadgen.drive([lane])
    finally:
        sock.close()
        server.close()
    assert len(lane.received) == 10
    assert [int(line.split(b":")[1].strip(b" }")) for line in lane.lines] == list(range(10))
    latency = [r - d for r, d in zip(lane.received, due)]
    lateness = [s - d for s, d in zip(lane.sent, due)]
    # the generator kept its schedule although the server was not answering ...
    assert max(lateness) < 0.015 and min(lateness) >= 0.0
    # ... so request i waited for what was left of the stall: ~0.2 - 0.02 * i
    assert latency[0] > 0.15
    assert latency[5] == pytest.approx(0.2 - 0.02 * 5 - 0.02, abs=0.03)
    assert latency[0] > latency[4] > latency[8]


def test_closed_loop_lane_never_exceeds_its_limit():
    server = _EchoServer(stall_s=0.0)
    sock = loadgen.connect(server.address)
    peak = 0
    try:
        lane = loadgen.Lane(sock, lambda i: b'{"id": %d}\n' % i, limit=4, count=50)
        original = lane.push

        def push(now: float) -> None:
            nonlocal peak
            original(now)
            peak = max(peak, lane.outstanding)

        lane.push = push
        loadgen.drive([lane])
    finally:
        sock.close()
        server.close()
    assert len(lane.received) == 50 and peak == 4
