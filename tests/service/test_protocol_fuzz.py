"""Protocol fuzzing: a session survives hostile and broken frames.

The contract under test — one malformed frame costs at most one typed
in-band error, never a session, and on a TCP server never *another
client's* session: the dispatcher task is shared, so before the broad
dispatch catch one connection's garbage ``seq`` killed every
connection's admissions.  Frames covered: truncated JSON, garbage bytes,
non-object lines, wrong-typed payload fields, oversized lines,
slow-loris half-lines, unknown ops, and admin/mutation ops interleaved
with maps.
"""

from __future__ import annotations

import json
import random
import string
import time

import pytest
from conftest import connect_lines, serve_fleet, serve_session, serving

from repro import JEMConfig
from repro.service import ServiceConfig
from repro.service.protocol import ADMIN_OPS, MUTATION_OPS

CONFIG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=99)

SERVICE = ServiceConfig(max_batch_size=8)

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

#: mutation requests with hostile payload shapes — same contract
HOSTILE_MUTATIONS = [
    {"op": "add_contigs", "names": 5, "seqs": 5},
    {"op": "add_contigs", "names": ["x"], "seqs": 7},
    {"op": "remove_contigs", "names": {"not": "a list"}},
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


def probe_of(clean_reads) -> dict:
    return {"op": "map", "id": 999, "name": clean_reads.names[0],
            "seq": clean_reads[0].sequence}


class TestTCPFuzz:
    """Hostile input one scripted session, or one of many connections,
    must survive."""

    @pytest.fixture
    def backend(self, tiling_contigs):
        with serve_fleet(
            tiling_contigs, CONFIG, SERVICE, kind="scatter", n=2
        ) as replica_set:
            yield replica_set

    def session(self, backend, lines, **frontend_kwargs) -> list[dict]:
        return serve_session(backend, lines, **frontend_kwargs)

    def test_malformed_lines_each_answer_typed_and_session_survives(
        self, backend, clean_reads
    ):
        replies = self.session(backend, MALFORMED_LINES + [probe_of(clean_reads)])
        errors = [r for r in replies if r.get("type") == "error"]
        assert len(errors) == len(MALFORMED_LINES)
        assert all("error" in r for r in errors)
        # after all that abuse, a well-formed read still maps
        mapped = [r for r in replies if r.get("id") == 999]
        assert len(mapped) == 1 and "results" in mapped[0]
        assert replies[-1]["op"] == "drained"

    def test_seeded_garbage_never_ends_the_session(self, backend):
        for seed in (1, 2, 3):
            replies = self.session(backend, fuzz_lines(seed) + [{"op": "ping"}])
            assert any(r.get("op") == "pong" for r in replies)
            assert replies[-1]["op"] == "drained"

    def test_hostile_map_payloads_answer_in_band(self, backend, clean_reads):
        replies = self.session(backend, HOSTILE_MAPS + [probe_of(clean_reads)])
        for hostile in HOSTILE_MAPS:
            echo = [r for r in replies if r.get("id") == hostile["id"]]
            assert len(echo) == 1 and "error" in echo[0]
        assert any(r.get("id") == 999 and "results" in r for r in replies)

    def test_hostile_mutation_payloads_answer_in_band(self, backend):
        replies = self.session(backend, HOSTILE_MUTATIONS + [{"op": "ping"}])
        assert all("error" in r for r in replies[:len(HOSTILE_MUTATIONS)])
        assert replies[-2:] == [{"op": "pong"}, replies[-1]]
        assert replies[-1]["op"] == "drained"

    def test_interleaved_ops_all_answered_in_order(self, backend, clean_reads):
        seq = clean_reads[0].sequence
        replies = self.session(backend, [
            {"op": "map", "id": 0, "seq": seq},
            {"op": "health"},
            {"op": "stats"},
            {"op": "map", "id": 1, "seq": seq},
            {"op": "ping"},
            {"op": "flush"},
            {"op": "map", "id": 2, "seq": seq},
            {"op": "metrics"},
        ])
        ordered = [r.get("op", "map") for r in replies if r.get("op") != "health"]
        assert ordered == [
            "map", "stats", "map", "pong", "flush", "map", "metrics", "drained",
        ]
        assert sum(r.get("op") == "health" for r in replies) == 1
        mapped = [r for r in replies if "results" in r]
        assert [r["id"] for r in mapped] == [0, 1, 2]
        # identical payloads must stay bit-identical around the chatter
        assert mapped[0]["results"] == mapped[1]["results"] == mapped[2]["results"]

    def test_invalid_utf8_is_answered_not_fatal(self, backend):
        replies = self.session(backend, [
            b'{"op": "ping", "junk": "\xff\xfe\xfd"}\n', {"op": "ping"},
        ])
        assert replies[0].get("type") == "error"
        assert replies[1] == {"op": "pong"}

    def test_oversized_line_is_discarded_with_typed_error(self, backend):
        huge = {"op": "map", "id": 0, "seq": "A" * 100_000}
        replies = self.session(
            backend, [huge, {"op": "ping"}], max_line_bytes=1024
        )
        assert replies[0]["type"] == "error" and "too long" in replies[0]["error"]
        # the session resynchronised at the newline: still serving
        assert replies[1] == {"op": "pong"}
        assert replies[-1]["op"] == "drained" and replies[-1]["mapped"] == 0

    def test_truncated_frame_at_eof_drains_cleanly(self, backend):
        replies = self.session(backend, [
            {"op": "ping"}, b'{"op": "map", "id": 3, "seq": "ACG',  # cut mid-frame
        ])
        # the error is answered off the ordered path: either may come first
        assert sorted(r.get("op", r.get("type")) for r in replies) == [
            "drained", "error", "pong",
        ]
        assert replies[-1]["op"] == "drained"
        # the backend survives to serve the next session
        assert self.session(backend, [{"op": "health"}])[0]["ready"]

    def test_garbage_then_valid_request_on_same_connection(
        self, backend, clean_reads
    ):
        """Lockstep: every malformed line is answered before the next is sent."""
        with serving(backend) as address:
            send, readline, close = connect_lines(address)
            for line in MALFORMED_LINES:
                send(line)
                assert readline().get("type") == "error"
            send(probe_of(clean_reads))
            reply = readline()
            close()
        assert reply["id"] == 999 and "results" in reply

    def test_hostile_seq_is_answered_and_sessions_admit_on(
        self, backend, clean_reads
    ):
        """One client's non-string ``seq`` raises out of ``submit`` while its
        session admits it: that map is answered in-band, and admissions go
        on for that session and every other."""
        with serving(backend) as address:
            send_a, read_a, close_a = connect_lines(address)
            send_b, read_b, close_b = connect_lines(address)
            for hostile in HOSTILE_MAPS:
                send_a(hostile)
                reply = read_a()
                assert reply.get("id") == hostile["id"] and "error" in reply
            # both connections' admissions still flow
            send_a(probe_of(clean_reads))
            reply_a = read_a()
            send_b(probe_of(clean_reads))
            reply = read_b()
            close_a()
            close_b()
        assert reply_a["id"] == 999 and "results" in reply_a
        assert reply["id"] == 999 and "results" in reply

    def test_slow_loris_is_cut_after_the_idle_deadline(self, backend):
        with serving(backend, idle_timeout_s=0.3) as address:
            send, readline, close = connect_lines(address)
            t0 = time.monotonic()
            send(b'{"op": "pi')  # half a line, then silence
            reply = readline()
            close()
        assert reply["type"] == "error" and "idle timeout" in reply["error"]
        assert time.monotonic() - t0 < 10.0

    def test_restart_op_rolls_the_fleet_and_stays_exact(
        self, backend, clean_reads
    ):
        assert "restart" in ADMIN_OPS and "restart" not in MUTATION_OPS
        probe = probe_of(clean_reads)
        with serving(backend) as address:
            send, readline, close = connect_lines(address)
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
