"""Asyncio front-end: the one server side of the NDJSON protocol.

Every session is a TCP connection behind ``jem serve``, and every one runs
the same connection handler, so a request line is parsed, routed, ordered
and answered in exactly one place.  One event loop multiplexes every
client:

* each connection's **session** (an :class:`asyncio.BufferedProtocol`)
  parses NDJSON lines out of its one receive buffer as they arrive, into
  the connection's intake queue (``health`` is answered immediately, off
  the ordered path, so probes never wait behind a slow batch);
* one global **dispatcher** task drains intakes round-robin, at most
  ``fair_chunk`` messages per connection per cycle — per-client fairness:
  a firehose client cannot starve a trickle client's admissions;
* a per-connection **writer** task emits responses *in request order*
  (the protocol's transcript-determinism contract), awaiting each
  mapping's completion as it reaches the head of the line.

Thread boundary: the backend (a :class:`~repro.netserve.ReplicaSet`)
completes each read's :class:`concurrent.futures.Future` on its
replicas' scheduler threads; ``add_done_callback`` +
``loop.call_soon_threadsafe`` bridge each completion to an
``asyncio.Future``, so no executor thread is parked per in-flight request.

Backpressure is layered: the admission queue rejects in-band with
``retry_after``, and a connection with ``max_pending`` unanswered maps
stops being read (TCP pushes back).

Hostile or broken clients are contained per frame, not per connection:
request lines are bounded by ``max_line_bytes`` (an oversized line is
discarded through its newline and answered with a typed ``error``
frame), a connection that cannot complete one line within
``idle_timeout_s`` is cut loose (slow-loris), and any exception a
malformed payload provokes during dispatch is answered in-band — the
shared dispatcher task serving every other connection never dies for
one client's garbage.  So is whatever exception fails a read's batch:
the session's writer answers it and the reads behind it, then ``drained``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import mmap
from collections import deque
from concurrent.futures import Future

from ..errors import ReproError, ServiceOverloadError
from ..service.protocol import (
    ADMIN_OPS,
    MUTATION_OPS,
    mutation_response,
    response_for_mapping,
)

__all__ = ["NetFrontend", "parse_hostport"]

#: Ops answered in the session's request order, through the dispatcher
#: (``health``, ``drain`` and unknown ops are handled by the session's parser).
_ORDERED_OPS = ("map", "ping", "metrics", *MUTATION_OPS, *ADMIN_OPS)

#: Messages the dispatcher drains from one connection per fairness cycle.
FAIR_CHUNK = 16

#: Unanswered maps a session may hold before the front-end stops reading
#: it.  Bounds server memory while still letting batches fill.
MAX_PENDING = 512

#: Longest accepted NDJSON request line.  Oversized lines are discarded
#: through their terminating newline and answered with a typed error —
#: the session survives.
MAX_LINE_BYTES = 1 << 20

#: Receive buffer of one connection: the transport reads into it, and it
#: grows past this only while one request line is longer.  Under the
#: 128 KiB mmap threshold ``jem serve`` pins, so it is heap, not a fresh
#: mapping a receive.
RECV_BUFFER_BYTES = 1 << 16

#: Per-connection read deadline: a client that cannot deliver one
#: complete line in this long (slow-loris) is disconnected.
IDLE_TIMEOUT_S = 300.0


def _error(detail: str, **extra) -> dict:
    """Typed in-band protocol error frame."""
    return {**extra, "type": "error", "error": detail}


def parse_hostport(spec: str, *, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """``HOST:PORT`` / ``[IPV6]:PORT`` / ``:PORT`` / ``PORT`` → (host, port)."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        host, port = default_host, spec
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    elif ":" in host:
        raise ReproError(
            f"bad listen address {spec!r}: write an IPv6 host in brackets, "
            "as in [::1]:7000"
        )
    if not host:
        host = default_host
    try:
        number = int(port)
    except ValueError as exc:
        raise ReproError(f"bad listen address {spec!r}: {exc}") from None
    # getaddrinfo would wrap a larger number modulo 65536, and bind() refuses it
    if not 0 <= number <= 65535:
        raise ReproError(f"bad listen address {spec!r}: port {number} is not in 0-65535")
    return host, number


class _Session(asyncio.BufferedProtocol):
    """One connection: line assembly in one receive buffer, and the state
    the dispatcher and the writer task share.

    The transport receives into :meth:`get_buffer`'s views of one
    anonymous :class:`mmap.mmap` of :data:`RECV_BUFFER_BYTES` (its pages
    are touched only as bytes arrive, where a ``bytearray`` is zeroed
    whole), which grows only while a
    single line is longer than it (up to ``max_line_bytes``) and shrinks
    back once that line is parsed; each complete line is copied out once,
    as the ``bytes`` ``json.loads`` reads.  Lines are parsed as they
    arrive, until one of three things holds the session: a mutation or
    admin op it has queued and not yet answered (the barrier), ``max_pending``
    unanswered maps, or a reply of its own waiting for the transport to
    drain.  While held the session parses nothing and the transport reads
    nothing, so TCP pushes back on the client.
    """

    def __init__(self, frontend: NetFrontend) -> None:
        self._frontend = frontend
        self._limit = frontend.max_line_bytes
        self._buf = mmap.mmap(-1, RECV_BUFFER_BYTES)
        self._view = memoryview(self._buf)
        self._start = 0  # first byte not yet parsed
        self._end = 0  # end of the received bytes
        self._discarding = False  # inside an oversized line, until its newline
        self._eof = False
        self._ended = False  # input over: `drain` op, EOF, idle timeout or loss
        self._capped = False  # max_pending unanswered maps (until half answered)
        self._reply_wait = False  # a reply of the parser's own waits for a drain
        self._write_paused = False
        self._drain_waiter: asyncio.Future | None = None
        self._idle: asyncio.TimerHandle | None = None
        self._waiting_since = 0.0
        self.transport: asyncio.Transport | None = None
        self.closed_future: asyncio.Future | None = None
        self.intake: deque = deque()
        #: ordered responses: ("map", header, afut) | ("ready", dict)
        #: | ("metrics",) | ("mutation", op, message) | ("drain",)
        self.pending: asyncio.Queue = asyncio.Queue()
        self.outstanding = 0  # dispatched maps not yet written
        self.mapped = 0
        self.errors = 0
        self.rejected = 0
        self.closed = False  # the dispatcher has taken this session's drain
        #: a mutation or admin op of this session is queued or running:
        #: nothing behind it is parsed until its reply is out
        self.held = False

    # -- asyncio protocol callbacks -------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        loop = asyncio.get_running_loop()
        self._loop = loop
        self.closed_future = loop.create_future()
        self._frontend._open(self)
        self._arm_idle()

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._end - self._start == len(self._buf):  # one unfinished line fills it
            self._move(min(2 * len(self._buf), self._limit + 1))
        elif self._start:  # the unfinished line goes to the front
            self._move(len(self._buf))
        return self._view[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._ended:  # nothing more is read: drop what still arrives
            return
        self._end += nbytes
        self._parse()

    def eof_received(self) -> bool:
        self._eof = True
        self._parse()
        return True  # keep the transport open: replies still go out

    def connection_lost(self, exc) -> None:
        self._end_input()
        self._wake_drain()
        if not self.closed_future.done():
            self.closed_future.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._wake_drain()
        if self._reply_wait:
            self._reply_wait = False
            self._resume()

    # -- line assembly --------------------------------------------------------

    def _move(self, size: int) -> None:
        """Put the unparsed bytes at the front of a buffer of ``size``."""
        kept = self._end - self._start
        if size != len(self._buf):
            buf = mmap.mmap(-1, size)
            buf[:kept] = self._view[self._start : self._end]
            self._buf, self._view = buf, memoryview(buf)
        elif kept:
            self._buf[:kept] = bytes(self._view[self._start : self._end])
        self._start, self._end = 0, kept

    def _blocked(self) -> bool:
        return self._ended or self.held or self._capped or self._reply_wait

    def _parse(self) -> None:
        """Handle every complete line in the buffer, until the session is held;
        at EOF, then the final unterminated line, then the end of input.  A
        buffer grown for a long line shrinks back as soon as that line is
        parsed: a held session reads nothing, so it would keep it through
        the mutation it waits on."""
        self._parse_lines()
        if len(self._buf) > RECV_BUFFER_BYTES and self._end - self._start < RECV_BUFFER_BYTES:
            self._move(RECV_BUFFER_BYTES)

    def _parse_lines(self) -> None:
        parsed = False
        while not self._blocked():
            nl = self._buf.find(b"\n", self._start, self._end)
            if self._discarding:
                if nl < 0:
                    self._start = self._end = 0
                    break
                self._start = nl + 1
                self._discarding = False
                self._reply(_error(f"line too long: limit is {self._limit} bytes"))
                continue
            if nl < 0:
                if self._end - self._start > self._limit:
                    # no newline within the limit: drop the line up to its end
                    self._discarding = True
                    self._start = self._end = 0
                break
            line = bytes(self._view[self._start : nl])
            too_long = nl - self._start > self._limit
            self._start = nl + 1
            parsed = True
            if too_long:
                self._reply(_error(f"line too long: limit is {self._limit} bytes"))
            else:
                self._line(line)
        if self._blocked():
            if not self._ended and not self._eof:
                self.transport.pause_reading()
            return
        if self._eof:  # a final unterminated line, then EOF = implicit drain
            if not self._discarding and self._end > self._start:
                line = bytes(self._view[self._start : self._end])
                self._start = self._end = 0
                self._line(line)
            self._end_input()
        elif parsed:
            self._waiting_since = self._loop.time()

    def _line(self, line: bytes) -> None:
        line = line.strip()
        if not line:
            return
        try:
            message = json.loads(line)
            op = message.get("op", "map")
        except (json.JSONDecodeError, AttributeError, UnicodeDecodeError) as exc:
            self._reply(_error(f"bad request line: {exc}"))
            return
        if op == "health":
            # immediate, off the ordered path: probes never queue
            self._reply({"op": "health", **self._frontend.backend.healthz()})
        elif op == "drain":
            self._end_input()
        elif op in _ORDERED_OPS:
            if op in MUTATION_OPS or op in ADMIN_OPS:
                self.held = True  # the barrier: parse nothing behind it
            self.intake.append(("msg", message))
            self._frontend._dispatch_wake.set()
        else:
            self._reply(_error(f"unknown op {op!r}"))

    def _reply(self, obj: dict) -> None:
        """Answer off the ordered path; parse nothing more until it drains."""
        self.send_json(obj)
        if self._write_paused:
            self._reply_wait = True

    def _end_input(self) -> None:
        if self._ended:
            return
        self._ended = True
        self._start = self._end = 0  # nothing more is parsed
        if self._idle is not None:
            self._idle.cancel()
            self._idle = None
        self.intake.append(("drain",))
        self._frontend._dispatch_wake.set()

    # -- holds and the idle deadline ------------------------------------------

    def cap(self) -> None:
        """``max_pending`` unanswered maps: stop reading."""
        self._capped = True
        if not self._eof and not self._ended:
            self.transport.pause_reading()

    def uncap(self) -> None:
        if self._capped:
            self._capped = False
            self._resume()

    def release(self) -> None:
        """The barrier's reply is out: parse and read on."""
        self.held = False
        self._resume()

    def _resume(self) -> None:
        if self._blocked():
            return
        self._parse()
        if not self._blocked():
            if not self._eof:
                self.transport.resume_reading()
            self._arm_idle()

    def _arm_idle(self) -> None:
        self._waiting_since = self._loop.time()
        if self._idle is None:
            self._idle = self._loop.call_at(
                self._waiting_since + self._frontend.idle_timeout_s, self._on_idle
            )

    def _on_idle(self) -> None:
        """Slow-loris: no complete line within the idle timeout of the
        session's last one (time held does not count) — cut it loose."""
        self._idle = None
        if self._blocked() or self._eof:
            return  # _resume re-arms
        timeout = self._frontend.idle_timeout_s
        due = self._waiting_since + timeout
        if self._loop.time() < due:
            self._idle = self._loop.call_at(due, self._on_idle)
            return
        self.send_json(_error(f"idle timeout: no complete request line in {timeout:g}s"))
        self._end_input()

    # -- writing ----------------------------------------------------------------

    def send_json(self, obj: dict) -> None:
        # whole lines only: off-path replies interleave safely with the
        # writer task's
        self.transport.write((json.dumps(obj) + "\n").encode("utf-8"))

    def _wake_drain(self) -> None:
        if self._drain_waiter is not None and not self._drain_waiter.done():
            self._drain_waiter.set_result(None)
        self._drain_waiter = None

    async def drain(self) -> None:
        """Wait until the transport takes more (or the connection is gone)."""
        if self._write_paused and not self.closed_future.done():
            self._drain_waiter = self._loop.create_future()
            await self._drain_waiter


class NetFrontend:
    """Serve the NDJSON protocol over a submit/healthz/metrics backend.

    ``backend`` needs ``submit(name, seq, *, deadline_s) -> Future``,
    ``healthz() -> dict``, ``metrics_snapshot() -> dict`` and the mutation
    surface of :func:`~repro.service.protocol.mutation_response` — a
    :class:`~repro.netserve.ReplicaSet`.  :meth:`start` binds and serves
    TCP connections until :meth:`stop`.
    """

    def __init__(
        self,
        backend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        fair_chunk: int = FAIR_CHUNK,
        max_pending: int = MAX_PENDING,
        max_line_bytes: int = MAX_LINE_BYTES,
        idle_timeout_s: float = IDLE_TIMEOUT_S,
    ) -> None:
        if max_line_bytes < 1:
            raise ReproError(f"max_line_bytes must be >= 1, got {max_line_bytes}")
        if idle_timeout_s <= 0:
            raise ReproError(f"idle_timeout_s must be > 0, got {idle_timeout_s}")
        self.backend = backend
        self.host = host
        self.port = int(port)
        self.fair_chunk = int(fair_chunk)
        self.max_pending = int(max_pending)
        self.max_line_bytes = int(max_line_bytes)
        self.idle_timeout_s = idle_timeout_s
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task] = set()
        self._connections: list[_Session] = []
        self._dispatch_wake = asyncio.Event()
        self._dispatcher: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Session(self), self.host, self.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="jem-net-dispatch"
        )
        return self.address

    async def stop(self, *, session_grace_s: float = 10.0) -> None:
        """Stop accepting, let open sessions finish their pending work."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            with contextlib.suppress(Exception):
                conn.transport.close()  # input ends, sessions drain out
        if self._handlers:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*list(self._handlers), return_exceptions=True),
                    session_grace_s,
                )
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher

    # -- connection handling -------------------------------------------------

    def _open(self, conn: _Session) -> None:
        """A new connection: its writer task, the session's lifetime."""
        self._connections.append(conn)
        task = asyncio.get_running_loop().create_task(self._session(conn))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _session(self, conn: _Session) -> None:
        try:
            await self._write_loop(conn)
        finally:
            self._connections.remove(conn)
            conn.transport.close()
            await conn.closed_future

    # -- fair dispatch -------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Round-robin drain across connection intakes — per-client fairness."""
        while True:
            progressed = False
            for conn in list(self._connections):
                for _ in range(self.fair_chunk):
                    if not conn.intake or conn.closed:
                        break
                    entry = conn.intake.popleft()
                    progressed = True
                    if entry[0] == "drain":
                        conn.closed = True
                        conn.pending.put_nowait(("drain",))
                        break
                    self._dispatch_message(conn, entry[1])
            if not progressed:
                self._dispatch_wake.clear()
                if not any(c.intake for c in self._connections if not c.closed):
                    await self._dispatch_wake.wait()

    def _dispatch_message(self, conn: _Session, message: dict) -> None:
        op = message.get("op", "map")
        if op == "ping":
            # ordered behind earlier maps: pong only after they are written
            conn.pending.put_nowait(("ready", {"op": "pong"}))
            return
        if op == "metrics":
            # snapshot taken at *write* time, after earlier maps resolved
            conn.pending.put_nowait(("metrics",))
            return
        if op in MUTATION_OPS or op in ADMIN_OPS:
            # a barrier in this session's order: the writer runs it once
            # every earlier reply is out (those reads resolved on the old
            # generation), and the session parsed nothing behind it (it
            # is held) until its own reply is out (later reads see the new
            # one).  Other sessions keep flowing; their in-flight maps keep
            # the generation they captured.
            conn.pending.put_nowait(("mutation", op, message))
            return
        header = {"id": message.get("id"), "name": message.get("name", "")}
        deadline_ms = message.get("deadline_ms")
        try:
            future = self.backend.submit(
                header["name"] or "read",
                message.get("seq", ""),
                deadline_s=(
                    float(deadline_ms) / 1000.0 if deadline_ms is not None else None
                ),
            )
        except ServiceOverloadError as exc:
            conn.rejected += 1
            refusal = {**header, "error": "overloaded", "retry_after": exc.retry_after}
        except ReproError as exc:
            conn.errors += 1
            refusal = {**header, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - one client's hostile payload
            # (e.g. a non-string "seq" or "deadline_ms") must answer in-band,
            # never kill the dispatcher task shared by every connection
            conn.errors += 1
            refusal = _error(f"bad request: {exc}", **header)
        else:
            conn.outstanding += 1
            if conn.outstanding >= self.max_pending:
                conn.cap()
            conn.pending.put_nowait(("map", header, self._bridge(future)))
            return
        conn.pending.put_nowait(("ready", refusal))

    def _bridge(self, future: Future) -> asyncio.Future:
        """Thread-side Future completion → loop-side asyncio.Future."""
        loop = asyncio.get_running_loop()
        afut: asyncio.Future = loop.create_future()

        def transfer(done: Future) -> None:
            try:
                result = done.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised loop-side
                loop.call_soon_threadsafe(self._complete, afut, None, exc)
            else:
                loop.call_soon_threadsafe(self._complete, afut, result, None)

        future.add_done_callback(transfer)
        return afut

    @staticmethod
    def _complete(afut: asyncio.Future, result, exc: BaseException | None) -> None:
        if afut.done():  # the session died while the mapping was in flight
            return
        if exc is not None:
            afut.set_exception(exc)
        else:
            afut.set_result(result)

    # -- ordered response writing --------------------------------------------

    async def _write_loop(self, conn: _Session) -> None:
        while True:
            entry = await conn.pending.get()
            if entry[0] == "drain":
                break
            if entry[0] == "ready":
                conn.send_json(entry[1])
            elif entry[0] == "metrics":
                conn.send_json({"op": "metrics", **self.backend.metrics_snapshot()})
            elif entry[0] == "mutation":
                _kind, op, message = entry
                try:
                    # blocking work (sketching, segment rebuild,
                    # re-sharding, rolling restart) runs off the loop
                    reply = await asyncio.get_running_loop().run_in_executor(
                        None, mutation_response, self.backend, op, message
                    )
                except Exception as exc:  # noqa: BLE001 - a hostile payload
                    # (a number for "names") or a failed WAL write answers
                    # in-band: a dead writer would hold the session forever
                    reply = _error(f"{type(exc).__name__}: {exc}", op=op)
                conn.send_json(reply)
                conn.release()
            else:
                _kind, header, afut = entry
                try:
                    mapping = await afut
                except Exception as exc:  # noqa: BLE001 - whatever failed the
                    # read's batch answers in-band: a dead writer would drop
                    # this reply, every one behind it and the `drained`
                    conn.send_json({**header, "error": (
                        str(exc) if isinstance(exc, ReproError)
                        else f"{type(exc).__name__}: {exc}"
                    )})
                    conn.errors += 1
                else:
                    conn.send_json(response_for_mapping(header, mapping))
                    conn.mapped += 1
                conn.outstanding -= 1
                if conn.outstanding < self.max_pending // 2:
                    conn.uncap()
            await conn.drain()
        # the dispatcher queues "drain" last: nothing is pending behind it
        conn.send_json({
            "op": "drained",
            "mapped": conn.mapped,
            "errors": conn.errors,
            "rejected": conn.rejected,
            "metrics": self.backend.metrics_snapshot(),
        })
        await conn.drain()
