"""Asyncio TCP front-end: concurrent sessions, fairness, protocol parity.

The front-end runs in a background thread's event loop while test-side
clients drive real TCP connections through the same
:func:`~repro.service.protocol.run_session` the CLI uses — so these
tests exercise the exact client/server pairing shipped to users.
"""

from __future__ import annotations

import re
import threading
import time
from concurrent.futures import Future

import pytest
from conftest import connect_lines, serve_fleet, serve_session, serving

from repro import JEMConfig
from repro.netserve import parse_hostport
from repro.errors import ReproError
from repro.service import ServiceConfig
from repro.service.protocol import SocketTransport, run_session

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)

SERVICE = ServiceConfig(max_batch_size=8)


class TestParseHostport:
    def test_forms(self):
        assert parse_hostport("0.0.0.0:9000") == ("0.0.0.0", 9000)
        assert parse_hostport(":9000") == ("127.0.0.1", 9000)
        assert parse_hostport("9000") == ("127.0.0.1", 9000)

    def test_bad_port_rejected(self):
        # a port past 65535 would reach getaddrinfo, which wraps it
        for spec in ("localhost:http", "70000", ":-1", "[::1]:99999"):
            with pytest.raises(ReproError, match=f"bad listen address {re.escape(repr(spec))}"):
                parse_hostport(spec)

    @pytest.mark.parametrize("spec, expected", [
        ("[::1]:7000", ("::1", 7000)),
        ("[::]:0", ("::", 0)),
        ("[fe80::1]:80", ("fe80::1", 80)),
    ])
    def test_bracketed_ipv6_host(self, spec, expected):
        assert parse_hostport(spec) == expected

    @pytest.mark.parametrize("spec", ["::1", "fe80::1:7000", "[::1]", "[::1:7000"])
    def test_unbracketed_ipv6_host_refused(self, spec):
        with pytest.raises(ReproError, match="bad listen address"):
            parse_hostport(spec)


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def map_replies(stats):
    """The order-book view of a session: id/name/results per response."""
    return [
        {k: r.get(k) for k in ("id", "name", "results")} for r in stats.responses
    ]


class TestEndToEnd:
    @pytest.fixture
    def backend(self, tiling_contigs):
        replica_set = serve_fleet(
            tiling_contigs, CONFIG, SERVICE, kind="scatter", n=3
        )
        yield replica_set
        replica_set.drain()

    def test_concurrent_clients_bit_identical_to_single_session(
        self, backend, tiling_contigs, clean_reads
    ):
        """Two racing TCP clients each see exactly the one-session transcript."""
        # the single-session reference: one session over the default
        # fleet, what a plain `jem serve` runs
        with serve_fleet(tiling_contigs, CONFIG, SERVICE) as fleet:
            replies = serve_session(fleet, [
                {"op": "map", "id": i, "name": clean_reads.names[i],
                 "seq": clean_reads[i].sequence}
                for i in range(len(clean_reads))
            ])
        reference = [
            {k: r.get(k) for k in ("id", "name", "results")}
            for r in replies if "results" in r
        ]

        with serving(backend) as address:
            outcomes: dict[int, object] = {}

            def client(slot: int) -> None:
                transport = SocketTransport.connect(*address)
                outcomes[slot] = run_session(clean_reads, transport)

            threads = [
                threading.Thread(target=client, args=(slot,)) for slot in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)

        assert set(outcomes) == {0, 1}
        for stats in outcomes.values():
            assert stats.drained_reply is not None
            assert stats.errors == 0
            assert map_replies(stats) == reference

    def test_health_is_answered_immediately(self, backend):
        with serving(backend) as address:
            send, readline, close = connect_lines(address)
            send({"op": "health"})
            reply = readline()
            close()
        assert reply["op"] == "health"
        assert reply["ready"] and reply["live"]
        assert reply["placement"]["kind"] == "scatter"

    def test_metrics_op_returns_aggregate_and_replicas(
        self, backend, clean_reads
    ):
        with serving(backend) as address:
            send, readline, close = connect_lines(address)
            send({"op": "map", "id": 0, "name": clean_reads.names[0],
                  "seq": clean_reads[0].sequence})
            send({"op": "metrics"})
            first = readline()   # the map: metrics is ordered behind it
            second = readline()
            close()
        assert "results" in first
        assert second["op"] == "metrics"
        assert "aggregate" in second and "replicas" in second
        labels = [s["labels"]["replica"] for s in second["replicas"]]
        assert labels == ["0", "1", "2", "front"]

    def test_drain_reports_session_summary(self, backend, clean_reads):
        with serving(backend) as address:
            transport = SocketTransport.connect(*address)
            stats = run_session(clean_reads, transport)
        assert stats.drained_reply["mapped"] == len(clean_reads)
        assert stats.drained_reply["rejected"] == 0
        assert "aggregate" in stats.drained_reply["metrics"]

    def test_unknown_op_is_in_band(self, backend):
        with serving(backend) as address:
            send, readline, close = connect_lines(address)
            send({"op": "teleport"})
            reply = readline()
            close()
        assert "unknown op" in reply["error"]


class StubMapping:
    segment_names = ["read.pre"]
    subject_names = ["contig_0"]
    hit_count = [5]
    cached = False
    degraded = False


class StubBackend:
    """Futures the test completes by hand — exposes ordering and failures."""

    def __init__(self) -> None:
        self.futures: list[Future] = []
        self.names: list[str] = []

    def submit(self, name, seq, *, deadline_s=None) -> Future:
        future: Future = Future()
        self.futures.append(future)
        self.names.append(name)
        return future

    def healthz(self) -> dict:
        return {"live": True, "ready": True}

    def metrics_snapshot(self) -> dict:
        return {"aggregate": {}, "replicas": []}


class TestBatchFailure:
    def test_a_failed_batch_is_answered_in_band_and_the_session_goes_on(self):
        """Whatever exception fails a read's batch reaches that read's
        future: it is the read's error reply, and the reads behind it are
        still answered, then ``drained``."""
        backend = StubBackend()
        with serving(backend) as address:
            send, readline, close = connect_lines(address)
            send({"op": "map", "id": 0, "name": "r0", "seq": "ACGT"})
            send({"op": "map", "id": 1, "name": "r1", "seq": "ACGT"})
            assert wait_until(lambda: len(backend.futures) == 2)
            backend.futures[0].set_exception(RuntimeError("kernel fell over"))
            backend.futures[1].set_result(StubMapping())
            failed, mapped = readline(), readline()
            send({"op": "drain"})
            summary = readline()
            close()
        assert failed == {"id": 0, "name": "r0", "error": "RuntimeError: kernel fell over"}
        assert mapped["id"] == 1 and "results" in mapped
        assert summary["op"] == "drained"
        assert (summary["mapped"], summary["errors"]) == (1, 1)


class TestNoTenants:
    def test_a_tenant_tag_changes_no_reply(self, tiling_contigs, clean_reads):
        """There are no tenant quotas: a map carrying ``tenant`` gets the
        reply the same map gets without it."""
        read = {"op": "map", "id": 0, "name": clean_reads.names[0],
                "seq": clean_reads[0].sequence}
        uncached = ServiceConfig(max_batch_size=8, cache_capacity=0)
        with serve_fleet(tiling_contigs, CONFIG, uncached) as fleet:
            plain, tagged, drained = serve_session(fleet, [read, {**read, "tenant": "acme"}])
        assert "results" in plain and tagged == plain
        assert drained["op"] == "drained" and drained["rejected"] == 0


class TestFairness:
    def test_firehose_cannot_starve_a_trickle_client(self):
        """A trickle client's read is admitted and answered while a
        firehose connection holds 64 unresolved in-flight maps."""
        backend = StubBackend()
        with serving(backend, fair_chunk=1) as address:
            hose_send, _hose_read, hose_close = connect_lines(address)
            for i in range(64):
                hose_send({"op": "map", "id": i, "name": f"hose-{i}",
                           "seq": "ACGT"})
            trickle_send, trickle_read, trickle_close = connect_lines(address)
            trickle_send({"op": "map", "id": 999, "name": "trickle",
                          "seq": "ACGT"})
            assert wait_until(lambda: "trickle" in backend.names)
            backend.futures[backend.names.index("trickle")].set_result(
                StubMapping()
            )
            reply = trickle_read()
            assert reply["id"] == 999 and "results" in reply
            for i, future in enumerate(backend.futures):
                if backend.names[i] != "trickle":
                    future.set_result(StubMapping())
            trickle_close()
            hose_close()
