"""Protocol fuzzing: both NDJSON doors survive hostile and broken frames.

The contract under test — one malformed frame costs at most one typed
in-band error, never a session, and on the TCP door never *another
client's* session: the dispatcher task is shared, so before the broad
dispatch catch one connection's garbage ``seq`` killed every
connection's admissions.  Frames covered: truncated JSON, garbage bytes,
non-object lines, wrong-typed payload fields, oversized lines,
slow-loris half-lines, unknown ops, and admin/mutation ops interleaved
with maps.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import random
import socket
import string
import threading
import time

import pytest

from repro import JEMConfig, JEMMapper
from repro.netserve import NetFrontend, ReplicaSet, make_placement
from repro.service import MappingService, ServiceConfig, serve_loop
from repro.service.protocol import ADMIN_OPS, MUTATION_OPS

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)

SERVICE = ServiceConfig(max_batch_size=8, max_wait_ms=1.0)

#: frames that must each draw exactly one in-band error, session intact
MALFORMED_LINES = [
    '{"op": "map", "id": 0, "name": "r"',        # truncated JSON
    '{"op": "map", "seq": "ACGT"',               # truncated mid-object
    "{'op': 'ping'}",                            # single quotes
    "not json at all",
    '"just a string"',                           # valid JSON, not an object
    "[1, 2, 3]",                                 # valid JSON, wrong shape
    "42",
    "null",
    '{"op": "teleport"}',                        # unknown op
    '{"op": "frobnicate", "id": 9}',
]

#: map requests whose payload fields have hostile types — answered
#: in-band (an error echoing the id), never a dead session/dispatcher
HOSTILE_MAPS = [
    {"op": "map", "id": 100, "seq": 5},
    {"op": "map", "id": 101, "seq": {"nested": "object"}},
    {"op": "map", "id": 102, "seq": ["A", "C", "G", "T"]},
    {"op": "map", "id": 103, "seq": None},
    {"op": "map", "id": 104, "seq": "ACGT" * 200, "deadline_ms": "soon"},
]


def fuzz_lines(seed: int, n: int = 40) -> list[str]:
    """Seeded garbage: printable noise, brace soup, truncated objects."""
    rng = random.Random(seed)
    alphabet = string.printable.replace("\n", "").replace("\r", "")
    lines = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            lines.append("".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 80))))
        elif kind == 1:
            lines.append("{" * rng.randrange(1, 10) + "}" * rng.randrange(0, 5))
        else:
            whole = json.dumps({"op": "map", "id": rng.randrange(100),
                                "seq": "ACGT" * rng.randrange(1, 20)})
            lines.append(whole[: rng.randrange(1, len(whole) - 1)])
    return lines


@pytest.fixture
def indexed(tiling_contigs):
    mapper = JEMMapper(CONFIG)
    mapper.index(tiling_contigs)
    return mapper


def pipe_session(tiling_contigs, request_lines: list[str]) -> list[dict]:
    """One pipe-mode serve_loop over crafted lines → parsed responses."""
    with MappingService.from_contigs(tiling_contigs, CONFIG, SERVICE) as service:
        out = io.StringIO()
        serve_loop(service, io.StringIO("\n".join(request_lines) + "\n"), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


@contextlib.contextmanager
def serving(backend, **kwargs):
    """Run a NetFrontend on a fresh loop in a thread; yield its address."""
    loop = asyncio.new_event_loop()
    frontend = NetFrontend(backend, port=0, **kwargs)
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)

        async def main() -> None:
            await frontend.start()
            started.set()
            await frontend.serve_forever()

        loop.run_until_complete(main())
        loop.close()

    thread = threading.Thread(target=run, name="jem-fuzz-net", daemon=True)
    thread.start()
    assert started.wait(10.0), "frontend failed to start"
    try:
        yield frontend.address
    finally:
        asyncio.run_coroutine_threadsafe(frontend.stop(), loop).result(timeout=30.0)
        thread.join(timeout=30.0)


def connect_raw(address):
    """Raw socket session: (send_bytes, send_json, readline_json, close)."""
    sock = socket.create_connection(address, timeout=30.0)
    rfile = sock.makefile("rb", newline=b"\n")

    def send_bytes(payload: bytes) -> None:
        sock.sendall(payload)

    def send(obj: dict) -> None:
        sock.sendall((json.dumps(obj) + "\n").encode("utf-8"))

    def readline() -> dict:
        line = rfile.readline()
        assert line, "connection closed while a reply was expected"
        return json.loads(line)

    def close() -> None:
        rfile.close()
        sock.close()

    return send_bytes, send, readline, close


class TestPipeFuzz:
    def test_malformed_lines_each_answer_typed_and_session_survives(
        self, tiling_contigs, clean_reads
    ):
        probe = {"op": "map", "id": 999, "name": clean_reads.names[0],
                 "seq": clean_reads[0].sequence}
        replies = pipe_session(
            tiling_contigs, MALFORMED_LINES + [json.dumps(probe)]
        )
        errors = [r for r in replies if r.get("type") == "error"]
        assert len(errors) == len(MALFORMED_LINES)
        assert all("error" in r for r in errors)
        # after all that abuse, a well-formed read still maps
        mapped = [r for r in replies if r.get("id") == 999]
        assert len(mapped) == 1 and "results" in mapped[0]
        assert replies[-1]["op"] == "drained"

    def test_seeded_garbage_never_ends_the_session(self, tiling_contigs):
        for seed in (1, 2, 3):
            replies = pipe_session(
                tiling_contigs, fuzz_lines(seed) + [json.dumps({"op": "ping"})]
            )
            assert any(r.get("op") == "pong" for r in replies)
            assert replies[-1]["op"] == "drained"

    def test_hostile_map_payloads_answer_in_band(
        self, tiling_contigs, clean_reads
    ):
        probe = {"op": "map", "id": 999, "name": clean_reads.names[0],
                 "seq": clean_reads[0].sequence}
        replies = pipe_session(
            tiling_contigs,
            [json.dumps(m) for m in HOSTILE_MAPS] + [json.dumps(probe)],
        )
        for hostile in HOSTILE_MAPS:
            echo = [r for r in replies if r.get("id") == hostile["id"]]
            assert len(echo) == 1 and "error" in echo[0]
        assert any(r.get("id") == 999 and "results" in r for r in replies)

    def test_interleaved_ops_all_answered_in_order(
        self, tiling_contigs, clean_reads
    ):
        seq = clean_reads[0].sequence
        lines = [
            json.dumps({"op": "map", "id": 0, "seq": seq}),
            json.dumps({"op": "health"}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "map", "id": 1, "seq": seq}),
            json.dumps({"op": "ping"}),
            json.dumps({"op": "flush"}),
            json.dumps({"op": "map", "id": 2, "seq": seq}),
            json.dumps({"op": "metrics"}),
        ]
        replies = pipe_session(tiling_contigs, lines)
        ops = [r.get("op") for r in replies]
        for expected in ("health", "stats", "pong", "flush", "metrics", "drained"):
            assert expected in ops
        mapped = [r for r in replies if "results" in r]
        assert [r["id"] for r in mapped] == [0, 1, 2]
        # identical payloads must stay bit-identical around the chatter
        assert mapped[0]["results"] == mapped[1]["results"] == mapped[2]["results"]

    def test_restart_without_a_fleet_is_a_typed_refusal(self, tiling_contigs):
        assert "restart" in ADMIN_OPS and "restart" not in MUTATION_OPS
        replies = pipe_session(tiling_contigs, [json.dumps({"op": "restart"})])
        refusal = [r for r in replies if r.get("op") == "restart"]
        assert len(refusal) == 1
        assert "replica-set" in refusal[0]["error"]


class TestTCPFuzz:
    @pytest.fixture
    def backend(self, indexed):
        replica_set = ReplicaSet(
            indexed.table, indexed.subject_names, CONFIG,
            placement=make_placement("scatter", 2), service_config=SERVICE,
        )
        yield replica_set
        replica_set.drain()

    def test_garbage_then_valid_request_on_same_connection(
        self, backend, clean_reads
    ):
        with serving(backend) as address:
            _raw, send, readline, close = connect_raw(address)
            for line in MALFORMED_LINES:
                _raw((line + "\n").encode("utf-8", errors="replace"))
                reply = readline()
                assert reply.get("type") == "error"
            send({"op": "map", "id": 7, "name": clean_reads.names[0],
                  "seq": clean_reads[0].sequence})
            reply = readline()
            close()
        assert reply["id"] == 7 and "results" in reply

    def test_invalid_utf8_is_answered_not_fatal(self, backend):
        with serving(backend) as address:
            _raw, send, readline, close = connect_raw(address)
            _raw(b'{"op": "ping", "junk": "\xff\xfe\xfd"}\n')
            first = readline()
            send({"op": "ping"})
            second = readline()
            close()
        assert first.get("type") == "error"
        assert second == {"op": "pong"}

    def test_oversized_line_is_discarded_with_typed_error(self, backend):
        with serving(backend, max_line_bytes=1024) as address:
            _raw, send, readline, close = connect_raw(address)
            huge = json.dumps({"op": "map", "id": 0, "seq": "A" * 100_000})
            _raw((huge + "\n").encode("utf-8"))
            reply = readline()
            assert reply["type"] == "error" and "too long" in reply["error"]
            # the session resynchronised at the newline: still serving
            send({"op": "ping"})
            assert readline() == {"op": "pong"}
            close()

    def test_hostile_seq_cannot_kill_the_shared_dispatcher(
        self, backend, clean_reads
    ):
        """Regression: the dispatcher task is global, so before the broad
        dispatch catch one client's non-string ``seq`` raised out of
        ``submit`` and silently stopped admissions for every client."""
        with serving(backend) as address:
            _, send_a, read_a, close_a = connect_raw(address)
            _, send_b, read_b, close_b = connect_raw(address)
            for hostile in HOSTILE_MAPS:
                send_a(hostile)
                reply = read_a()
                assert reply.get("id") == hostile["id"] and "error" in reply
            # the other connection's admissions must still flow
            send_b({"op": "map", "id": 1, "name": clean_reads.names[0],
                    "seq": clean_reads[0].sequence})
            reply = read_b()
            close_a()
            close_b()
        assert reply["id"] == 1 and "results" in reply

    def test_slow_loris_is_cut_after_the_idle_deadline(self, backend):
        with serving(backend, idle_timeout_s=0.3) as address:
            _raw, _send, readline, close = connect_raw(address)
            t0 = time.monotonic()
            _raw(b'{"op": "pi')  # half a line, then silence
            reply = readline()
            close()
        assert reply["type"] == "error" and "idle timeout" in reply["error"]
        assert time.monotonic() - t0 < 10.0

    def test_truncated_frame_at_eof_drains_cleanly(self, backend):
        with serving(backend) as address:
            _raw, send, readline, close = connect_raw(address)
            send({"op": "ping"})
            assert readline() == {"op": "pong"}
            _raw(b'{"op": "map", "id": 3, "seq": "ACG')  # cut mid-frame
            sock_shutdown = close  # closing sends FIN: implicit drain
            sock_shutdown()
        # the server side must survive to serve the next connection
        with serving(backend) as address:
            _raw, send, readline, close = connect_raw(address)
            send({"op": "health"})
            assert readline()["ready"]
            close()

    def test_restart_op_rolls_the_fleet_and_stays_exact(
        self, backend, clean_reads
    ):
        probe = {"op": "map", "id": 0, "name": clean_reads.names[0],
                 "seq": clean_reads[0].sequence}
        with serving(backend) as address:
            _raw, send, readline, close = connect_raw(address)
            send(probe)
            before = readline()
            send({"op": "restart"})
            rolled = readline()
            send(probe)
            after = readline()
            close()
        assert rolled["op"] == "restart"
        assert rolled["restarted"] == [0, 1]
        assert backend.respawns == 2
        assert after["results"] == before["results"]
