"""Unit tests for the service metrics registry."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest

from repro.service import Counter, Gauge, LatencyHistogram, ServiceMetrics
from repro.service.metrics import QUANTILES, percentile


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge()
        g.set(3.0)
        g.add(-1.5)
        assert g.value == 1.5


class TestLatencyHistogram:
    def test_empty_snapshot_is_all_zero(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["p50"] == snap["p95"] == snap["p99"] == 0.0

    def test_quantiles_on_known_values(self):
        h = LatencyHistogram()
        for v in range(1, 101):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["min"] == 1.0 and snap["max"] == 100.0
        assert snap["sum"] == pytest.approx(5050.0)
        assert snap["mean"] == pytest.approx(50.5)
        assert 50.0 <= snap["p50"] <= 51.0
        assert 94.0 <= snap["p95"] <= 96.0
        assert 98.0 <= snap["p99"] <= 100.0

    def test_window_bounds_reservoir_but_not_totals(self):
        h = LatencyHistogram(window=10)
        for v in range(1000):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 1000  # exact over the full stream
        assert snap["max"] == 999.0
        # quantiles come from the last 10 observations only
        assert snap["p50"] >= 990.0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            LatencyHistogram(window=0)


class TestServiceMetrics:
    def test_snapshot_is_json_serialisable(self):
        m = ServiceMetrics()
        m.requests_total.inc(3)
        m.queue_depth.set(2)
        m.queue_wait.observe(0.01)
        snap = json.loads(m.to_json())
        assert snap["counters"]["requests_total"] == 3
        assert snap["gauges"]["queue_depth"] == 2
        assert snap["histograms"]["queue_wait_seconds"]["count"] == 1

    def test_cache_hit_ratio(self):
        m = ServiceMetrics()
        assert m.cache_hit_ratio == 0.0
        m.cache_hits_total.inc(3)
        m.cache_misses_total.inc(1)
        assert m.cache_hit_ratio == pytest.approx(0.75)


class TestReservoir:
    """The float64 ring keeps what a ``deque(maxlen=window)`` of the same
    observations keeps, and its quantiles are ``np.percentile``'s."""

    def test_percentile_is_numpys_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in range(1, 5_001):
            values = np.sort(rng.lognormal(-7.0, 1.5, size=n))
            if n % 7 == 0:  # ties, zeros and a constant run
                values = np.sort(np.round(values, 3))
                values[: n // 2] = 0.0
            for q, _ in QUANTILES:
                assert percentile(values, q) == float(np.percentile(values, q)), (n, q)

    @pytest.mark.parametrize("window", [1, 3, 16])
    def test_ring_keeps_the_deques_window_across_wrap_around(self, window):
        histogram, recent = LatencyHistogram(window=window), deque(maxlen=window)
        for step in range(5 * window + 2):
            histogram.observe(step * 0.25)
            recent.append(step * 0.25)
            assert histogram._state()[4].tolist() == list(recent)
        snap = histogram.snapshot()
        ordered = np.sort(np.asarray(recent))
        for q, key in QUANTILES:
            assert snap[key] == float(np.percentile(ordered, q))

    @pytest.mark.parametrize("window", [1, 5, 64])
    def test_observe_many_equals_the_observe_loop(self, window):
        rng = np.random.default_rng(window)
        batches = [rng.exponential(1e-3, size=int(k)).tolist() for k in rng.integers(0, 3 * window, 40)]
        looped, batched = LatencyHistogram(window=window), LatencyHistogram(window=window)
        for batch in batches:
            for value in batch:
                looped.observe(value)
            batched.observe_many(batch)
            a, b = looped._state(), batched._state()
            assert a[:4] == b[:4]  # count, sum (added in order), min, max: exact
            assert a[4].tolist() == b[4].tolist()
        assert looped.snapshot() == batched.snapshot()

    def test_merged_snapshot_quantiles_are_numpys_over_the_pooled_reservoirs(self):
        rng = np.random.default_rng(3)
        histograms = [LatencyHistogram(window=50) for _ in range(3)]
        for h, n in zip(histograms, (0, 30, 120)):
            h.observe_many(rng.exponential(size=n).tolist())
        merged = LatencyHistogram.merged_snapshot(histograms)
        pooled = np.sort(np.concatenate([h._state()[4] for h in histograms]))
        assert pooled.size == 80 and merged["count"] == 150
        for q, key in QUANTILES:
            assert merged[key] == float(np.percentile(pooled, q))


#: A replicate fleet answering three maps, ``metrics`` and ``drained`` over
#: TCP; it exits with the ``numpy.ma`` modules it loaded (0 for none).
_SERVED_SESSION = r'''
import asyncio, json, random, socket, sys
from repro import JEMConfig, JEMMapper
from repro.netserve import NetFrontend, ReplicaSet, make_placement
from repro.seq import SequenceSet

rng = random.Random(5)
genome = "".join(rng.choice("ACGT") for _ in range(20_000))
contigs = SequenceSet.from_strings([(f"c{i}", genome[5_000 * i : 5_000 * (i + 1)]) for i in range(4)])
config = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)
mapper = JEMMapper(config)
mapper.index(contigs)
fleet = ReplicaSet(mapper.table, mapper.subject_names, config, placement=make_placement("replicate", 1))
requests = [{"op": "map", "id": i, "seq": genome[3_000 * i : 3_000 * i + 2_500]} for i in range(3)]
payload = "".join(json.dumps(r) + "\n" for r in [*requests, {"op": "metrics"}]).encode()

async def main():
    frontend = NetFrontend(fleet)
    address = await frontend.start()

    def client():
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            return sock.makefile("rb").read()

    raw = await asyncio.get_running_loop().run_in_executor(None, client)
    await frontend.stop()
    return raw

replies = [json.loads(line) for line in asyncio.run(main()).splitlines()]
fleet.drain()
assert [r.get("op", "map") for r in replies] == ["map"] * 3 + ["metrics", "drained"], replies
latency = replies[3]["aggregate"]["histograms"]["request_latency_seconds"]
assert latency["count"] == 3 and latency["p99"] >= latency["p50"] > 0, latency
sys.exit(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")) or 0)
'''


def served_session_loads(env: dict[str, str]) -> subprocess.CompletedProcess:
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return subprocess.run(
        [sys.executable, "-c", _SERVED_SESSION], env={**env, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )


def test_a_served_metrics_reply_imports_no_numpy_ma(monkeypatch):
    """``np.percentile`` imports ``numpy.ma`` (≈ 1.25 MB): a server that
    answers ``metrics`` and ``drained`` — the quantiles of every histogram
    — must not load it.  The server maps on the compiled kernels, as
    ``jem serve`` does."""
    from repro.sketch import _native

    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    if _native.load() is None:
        pytest.skip("the compiled kernels are unavailable")
    done = served_session_loads(dict(os.environ))
    assert done.returncode == 0, done.stderr


def test_a_server_on_the_numpy_route_imports_no_numpy_ma():
    """Nor on the numpy route (``REPRO_NO_NATIVE``, or no compiler): the S2
    oracle that builds its index dedupes by a sort and a run-boundary mask,
    as ``np.unique`` without ``return_counts`` would import ``numpy.ma``."""
    done = served_session_loads({**os.environ, "REPRO_NO_NATIVE": "1"})
    assert done.returncode == 0, done.stderr
