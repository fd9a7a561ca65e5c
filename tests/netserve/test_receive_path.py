"""The front-end's receive path: one buffer per connection, lines out of it.

Each connection is a :class:`~repro.netserve.frontend._Session` protocol:
the transport receives into views of the session's one buffer, and the
session cuts lines out of it.  These tests drive a session the way a
transport does — ``get_buffer``, write into the view, ``buffer_updated`` —
with the bytes cut at chosen places, and read what it admitted and queued
for its writer and what it answered from a recording transport.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from concurrent.futures import Future

import pytest
from conftest import serving

from repro.netserve import NetFrontend
from repro.netserve.frontend import RECV_BUFFER_BYTES, _Session
from repro.service import ReadMapping


class RecordingTransport:
    """What a session writes, and whether it would be read."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.reading = True
        self.closed = False

    def write(self, data: bytes) -> None:
        self.written += data

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def close(self) -> None:
        self.closed = True

    def is_closing(self) -> bool:
        return self.closed

    def replies(self) -> list[dict]:
        return [json.loads(line) for line in bytes(self.written).splitlines()]


class PendingBackend:
    """Map futures nobody completes until the test does."""

    def __init__(self) -> None:
        self.futures: list[Future] = []
        self.seqs: list[str] = []

    def submit(self, name, seq, *, deadline_s=None) -> Future:
        self.seqs.append(seq)
        self.futures.append(Future())
        return self.futures[-1]

    def healthz(self) -> dict:
        return {"live": True, "ready": True}

    def metrics_snapshot(self) -> dict:
        return {}


def receive(session: _Session, data: bytes, chunk: int | None = None) -> None:
    """Deliver ``data`` as a transport would, ``chunk`` bytes a receive at
    most (None: as much as each buffer view takes)."""
    while data:
        view = session.get_buffer(-1)
        assert len(view) > 0
        n = min(len(view), len(data), chunk or len(data))
        view[:n] = data[:n]
        session.buffer_updated(n)
        data = data[n:]


def run_session(scenario, **frontend_kwargs):
    """Run ``scenario(session, transport, frontend)`` on a session of a
    front-end; until the scenario awaits, its writer task has not run and
    what the session queued stays queued."""

    async def main():
        frontend = NetFrontend(PendingBackend(), **frontend_kwargs)
        session, transport = _Session(frontend), RecordingTransport()
        session.connection_made(transport)
        try:
            return await scenario(session, transport, frontend)
        finally:
            for task in list(frontend._handlers):
                task.cancel()

    return asyncio.run(main())


def parsed(session: _Session) -> list:
    """What the session admitted and queued for its writer, in order: a map
    as the id and sequence it submitted, any other op by its name."""
    seqs = iter(session._frontend.backend.seqs)
    out = []
    for entry in session.pending._queue:
        if entry[0] == "map":
            out.append((entry[1]["id"], next(seqs)))
        elif entry[0] == "ready":  # the only one these sessions queue: pong
            out.append({"pong": "ping"}[entry[1]["op"]])
        elif entry[0] == "mutation":
            out.append(entry[1])
        else:
            out.append(entry[0])  # metrics, drain
    return out


def queued(messages) -> list:
    """What :func:`parsed` reads once ``messages`` are parsed in order."""
    return [
        (m["id"], m["seq"]) if m.get("op", "map") == "map" else m["op"]
        for m in messages
    ]


def lines_of(messages) -> bytes:
    return b"".join(json.dumps(m).encode() + b"\n" for m in messages)


MESSAGES = [
    {"op": "map", "id": i, "name": f"r{i}", "seq": "ACGT" * (1 + 53 * i % 700)}
    for i in range(120)
] + [{"op": "ping"}, {"op": "metrics"}]


@pytest.mark.parametrize("chunk", [1, 7, 64, None], ids=["1", "7", "64", "whole-buffer"])
def test_lines_cut_anywhere_parse_to_the_same_messages(chunk):
    payload = lines_of(MESSAGES)
    assert len(payload) > 2 * RECV_BUFFER_BYTES  # the buffer wraps

    async def scenario(session, transport, _):
        receive(session, payload, chunk)
        return parsed(session), transport.replies()

    messages, replies = run_session(scenario)
    assert messages == queued(MESSAGES)
    assert replies == []


def test_get_buffer_hands_out_views_of_one_buffer():
    payload = lines_of(MESSAGES)

    async def scenario(session, _transport, _):
        owners = set()
        sizes = []
        for at in range(0, len(payload), 1000):
            view = session.get_buffer(-1)
            owners.add(id(view.obj))
            sizes.append(len(view))
            n = min(len(view), len(payload) - at, 1000)
            view[:n] = payload[at : at + n]
            session.buffer_updated(n)
        return owners, sizes, parsed(session)

    owners, sizes, messages = run_session(scenario)
    assert len(owners) == 1
    assert max(sizes) == RECV_BUFFER_BYTES
    assert messages == queued(MESSAGES)


@pytest.mark.parametrize("op", ["map", "add_contigs"])
def test_a_line_longer_than_the_buffer_is_parsed_and_the_buffer_shrinks_back(op):
    """The buffer grows for one long line and is back to its size once the
    line is parsed — also when the line is a mutation that holds the
    session, which then reads nothing until the mutation's reply is out."""
    long = {"op": op, "id": 7, "seq": "ACGT" * (3 * RECV_BUFFER_BYTES // 4)}
    after = {"op": "ping"}

    async def scenario(session, transport, _):
        sizes = []
        payload = lines_of([long])
        while payload:
            view = session.get_buffer(-1)
            sizes.append(len(view.obj))
            n = min(len(view), len(payload), 4096)
            view[:n] = payload[:n]
            session.buffer_updated(n)
            payload = payload[n:]
        parsed_long = (len(session._buf), session.held, parsed(session))
        session.release()
        receive(session, lines_of([after]))
        return max(sizes), parsed_long, parsed(session), transport.replies()

    grown, (size, held, first), messages, replies = run_session(scenario)
    assert grown > RECV_BUFFER_BYTES
    assert size == RECV_BUFFER_BYTES
    assert held == (op == "add_contigs") and first == queued([long])
    assert messages == queued([long, after])
    assert replies == []


@pytest.mark.parametrize("chunk", [7, 500, None], ids=["7", "500", "whole-buffer"])
def test_an_oversized_line_is_answered_in_band_and_the_session_serves_on(chunk):
    huge = {"op": "map", "id": 0, "seq": "A" * 5000}
    after = [{"op": "ping"}, {"op": "map", "id": 1, "seq": "ACGT"}]

    async def scenario(session, transport, _):
        receive(session, lines_of([huge, *after]), chunk)
        return parsed(session), transport.replies()

    messages, replies = run_session(scenario, max_line_bytes=1024)
    assert messages == queued(after)
    assert len(replies) == 1
    assert replies[0]["type"] == "error" and "line too long: limit is 1024" in replies[0]["error"]


def test_a_line_of_exactly_the_limit_is_served():
    message = {"op": "map", "id": 3, "seq": ""}
    line = json.dumps(message).encode()
    limit = len(line)

    async def scenario(session, transport, _):
        receive(session, line + b"\n" + line + b" \n", 3)
        return parsed(session), transport.replies()

    messages, replies = run_session(scenario, max_line_bytes=limit)
    assert messages == queued([message])
    assert len(replies) == 1 and "line too long" in replies[0]["error"]


def test_a_final_unterminated_line_is_served_then_the_input_ends():
    async def scenario(session, transport, _):
        receive(session, b'{"op": "ping"}\n{"op": "metrics"}', 5)
        before_eof = parsed(session)
        assert session.eof_received() is True  # replies still go out
        return before_eof, parsed(session), transport.replies()

    before_eof, messages, replies = run_session(scenario)
    assert before_eof == ["ping"]
    assert messages == ["ping", "metrics", "drain"]
    assert replies == []


def test_eof_in_the_middle_of_a_line_answers_it_and_drains():
    async def scenario(session, transport, _):
        receive(session, b'{"op": "ping"}\n{"op": "map", "id": 3, "seq": "AC')
        session.eof_received()
        return parsed(session), transport.replies()

    messages, replies = run_session(scenario)
    assert messages == ["ping", "drain"]
    assert len(replies) == 1 and replies[0]["error"].startswith("bad request line")


def test_eof_inside_an_oversized_line_ends_the_session_without_a_reply():
    async def scenario(session, transport, _):
        receive(session, b'{"op": "ping"}\n' + b"x" * 3000, 100)
        session.eof_received()
        return parsed(session), transport.replies()

    messages, replies = run_session(scenario, max_line_bytes=1024)
    assert messages == ["ping", "drain"]
    assert replies == []


def test_a_session_at_its_pending_cap_pauses_its_transport():
    maps = [{"op": "map", "id": i, "seq": "ACGT"} for i in range(6)]

    async def scenario(session, transport, frontend):
        receive(session, lines_of(maps[:4]))
        for _ in range(5):
            await asyncio.sleep(0)
        capped = (transport.reading, session.outstanding)
        # nothing more is parsed while capped, even what is already received
        receive(session, lines_of(maps[4:]))
        for _ in range(5):
            await asyncio.sleep(0)
        still = (transport.reading, len(frontend.backend.futures))
        answer = ReadMapping("r", (0, 0), (1, 1), ("c", "c"))
        for future in frontend.backend.futures:
            future.set_result(answer)
        for _ in range(50):
            await asyncio.sleep(0)
            if len(frontend.backend.futures) == 6:
                break
        resumed = (transport.reading, len(frontend.backend.futures))
        return capped, still, resumed

    capped, still, resumed = run_session(scenario, max_pending=4)
    assert capped == (False, 4)
    assert still == (False, 4)
    assert resumed == (True, 6)


def test_a_held_session_parses_nothing_behind_its_barrier():
    async def scenario(session, transport, _):
        receive(session, lines_of([{"op": "flush"}, {"op": "health"}, {"op": "ping"}]))
        held = (parsed(session), transport.reading, transport.replies())
        session.release()  # the flush reply is out
        return held, parsed(session), transport.reading, transport.replies()

    held, messages, reading, replies = run_session(scenario)
    assert held == (["flush"], False, [])
    assert messages == ["flush", "ping"]
    assert reading
    assert replies == [{"op": "health", "live": True, "ready": True}]


def wait_for(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


@pytest.mark.parametrize("cap", [1, 8])
def test_one_buffer_of_maps_admits_no_more_than_max_pending(cap):
    """A client that pipelines 2 x ``max_pending`` maps in one send has
    exactly ``max_pending`` of them submitted until replies go out; the
    rest are admitted as the session drains, and all are answered in
    order."""
    backend = PendingBackend()
    maps = [{"op": "map", "id": i, "name": f"r{i}", "seq": "ACGT"} for i in range(2 * cap)]
    answer = ReadMapping("r", (0, 0), (1, 1), ("c", "c"))
    with serving(backend, max_pending=cap) as address:
        with socket.create_connection(address, timeout=30.0) as sock:
            sock.sendall(lines_of(maps))
            assert wait_for(lambda: len(backend.futures) >= cap)
            time.sleep(0.2)  # time enough for anything more to be admitted
            admitted = len(backend.futures)
            with sock.makefile("rb") as rfile:
                for i in range(len(maps)):  # answer one map at a time
                    assert wait_for(lambda: len(backend.futures) > i)
                    backend.futures[i].set_result(answer)
                    reply = json.loads(rfile.readline())
                    assert reply["id"] == i and "results" in reply
    assert admitted == cap
    assert len(backend.futures) == len(maps)
