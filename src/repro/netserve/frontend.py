"""Asyncio front-end: the one server side of the NDJSON protocol.

Every session is a TCP connection behind ``jem serve``, and every one runs
the same connection handler, so a request line is parsed, routed, ordered
and answered in exactly one place.  One event loop multiplexes every
client:

* a per-connection **reader** task parses NDJSON lines into the
  connection's intake queue (``health`` is answered immediately, off the
  ordered path, so probes never wait behind a slow batch);
* one global **dispatcher** task drains intakes round-robin, at most
  ``fair_chunk`` messages per connection per cycle — per-client fairness:
  a firehose client cannot starve a trickle client's admissions;
* a per-connection **writer** task emits responses *in request order*
  (the protocol's transcript-determinism contract), awaiting each
  mapping's completion as it reaches the head of the line.

Thread boundary: the backend (a :class:`~repro.netserve.ReplicaSet`)
completes futures on its replicas' scheduler threads;
``MapFuture.add_done_callback`` + ``loop.call_soon_threadsafe`` bridge
each completion to an ``asyncio.Future``, so no executor thread is
parked per in-flight request.

Backpressure is layered: the admission queue rejects in-band with
``retry_after``; a connection with ``max_pending`` unanswered maps stops
being read (TCP pushes back); an optional **per-tenant quota** caps
in-flight maps per ``tenant`` tag across all connections, rejecting the
excess in-band so one tenant cannot occupy the whole admission queue.

Hostile or broken clients are contained per frame, not per connection:
request lines are bounded by ``max_line_bytes`` (an oversized line is
discarded through its newline and answered with a typed ``error``
frame), a connection that cannot complete one line within
``idle_timeout_s`` is cut loose (slow-loris), and any exception a
malformed payload provokes during dispatch is answered in-band — the
shared dispatcher task serving every other connection never dies for
one client's garbage.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from collections import deque
from dataclasses import dataclass, field

from ..errors import ReproError, ServiceOverloadError
from ..service.protocol import (
    ADMIN_OPS,
    MUTATION_OPS,
    mutation_response,
    response_for_mapping,
)
from ..service.queue import MapFuture

__all__ = ["NetFrontend", "parse_hostport"]

#: Ops answered in the session's request order, through the dispatcher
#: (``health``, ``drain`` and unknown ops are handled by the reader).
_ORDERED_OPS = ("map", "ping", "metrics", *MUTATION_OPS, *ADMIN_OPS)

#: Messages the dispatcher drains from one connection per fairness cycle.
FAIR_CHUNK = 16

#: Unanswered maps a session may hold before the front-end stops reading
#: it.  Bounds server memory while still letting batches fill.
MAX_PENDING = 512

#: retry hint for tenant-quota rejections (the tenant's own responses
#: drain the quota, so a short client-side pause is enough).
TENANT_RETRY_S = 0.05

#: Longest accepted NDJSON request line.  Oversized lines are discarded
#: through their terminating newline and answered with a typed error —
#: the session survives.
MAX_LINE_BYTES = 1 << 20

#: Per-connection read deadline: a client that cannot deliver one
#: complete line in this long (slow-loris) is disconnected.
IDLE_TIMEOUT_S = 300.0


def _error(detail: str, **extra) -> dict:
    """Typed in-band protocol error frame."""
    return {**extra, "type": "error", "error": detail}


class _LineReader:
    """Bounded NDJSON line assembly over a raw :class:`asyncio.StreamReader`.

    ``StreamReader.readline`` raises once a line exceeds the stream limit
    and leaves the stream unusable, so one hostile frame would take the
    whole connection down.  This reader enforces ``max_line_bytes``
    itself: an oversized line is discarded through its terminating
    newline and reported as ``None``, letting the session answer with a
    typed in-band error and keep serving.
    """

    def __init__(self, reader: asyncio.StreamReader, max_line_bytes: int) -> None:
        self._reader = reader
        self._max = int(max_line_bytes)
        self._buf = bytearray()
        self._eof = False

    async def readline(self) -> bytes | None:
        """Next line (newline kept), ``b""`` at EOF, ``None`` if oversized."""
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[: nl + 1])
                del self._buf[: nl + 1]
                return None if nl > self._max else line
            if len(self._buf) > self._max:
                del self._buf[:]
                if await self._skip_to_newline():
                    return None
                return b""  # EOF inside the oversized line: session over
            if self._eof:
                line = bytes(self._buf)  # a final unterminated line, or b""
                del self._buf[:]
                return line
            chunk = await self._reader.read(65536)
            if not chunk:
                self._eof = True
            else:
                self._buf.extend(chunk)

    async def _skip_to_newline(self) -> bool:
        """Drop the rest of an oversized line; False when EOF comes first."""
        while True:
            chunk = await self._reader.read(65536)
            if not chunk:
                self._eof = True
                return False
            nl = chunk.find(b"\n")
            if nl >= 0:
                self._buf.extend(chunk[nl + 1:])
                return True


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


@dataclass
class _Connection:
    """Per-client state shared by the reader/dispatcher/writer tasks."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    intake: deque = field(default_factory=deque)
    #: ordered responses: ("map", header, afut, tenant) | ("ready", dict)
    #: | ("metrics",) | ("mutation", op, message) | ("drain",)
    pending: asyncio.Queue = field(default_factory=asyncio.Queue)
    outstanding: int = 0  # dispatched maps not yet written
    resume_read: asyncio.Event = field(default_factory=asyncio.Event)
    mapped: int = 0
    errors: int = 0
    rejected: int = 0
    closed: bool = False
    #: a mutation of this session is queued or running: nothing behind it
    #: is read or dispatched until its reply is out
    held: bool = False

    def send_json(self, obj: dict) -> None:
        # whole lines only: StreamWriter.write is a synchronous buffer
        # append, so health replies interleave safely with the writer task
        self.writer.write((json.dumps(obj) + "\n").encode("utf-8"))


class NetFrontend:
    """Serve the NDJSON protocol over a submit/healthz/metrics backend.

    ``backend`` needs ``submit(name, seq, *, deadline_s) -> MapFuture``,
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
        tenant_quota: int | None = None,
        fair_chunk: int = FAIR_CHUNK,
        max_pending: int = MAX_PENDING,
        max_line_bytes: int = MAX_LINE_BYTES,
        idle_timeout_s: float | None = IDLE_TIMEOUT_S,
    ) -> None:
        if tenant_quota is not None and tenant_quota < 1:
            raise ReproError(f"tenant_quota must be >= 1, got {tenant_quota}")
        if max_line_bytes < 1:
            raise ReproError(f"max_line_bytes must be >= 1, got {max_line_bytes}")
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise ReproError(
                f"idle_timeout_s must be > 0 or None, got {idle_timeout_s}"
            )
        self.backend = backend
        self.host = host
        self.port = int(port)
        self.tenant_quota = tenant_quota
        self.fair_chunk = int(fair_chunk)
        self.max_pending = int(max_pending)
        self.max_line_bytes = int(max_line_bytes)
        self.idle_timeout_s = idle_timeout_s
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task] = set()
        self._connections: list[_Connection] = []
        self._tenant_inflight: dict[str, int] = {}
        self._dispatch_wake = asyncio.Event()
        self._dispatcher: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
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
                conn.writer.close()  # readers see EOF, sessions drain out
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

    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection(reader=reader, writer=writer)
        conn.resume_read.set()
        self._connections.append(conn)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        writer_task = asyncio.create_task(self._write_loop(conn))
        try:
            await self._read_loop(conn)
        finally:
            conn.intake.append(("drain",))
            self._dispatch_wake.set()
            await writer_task
            self._connections.remove(conn)
            with contextlib.suppress(ConnectionError):
                conn.writer.close()
                await conn.writer.wait_closed()

    async def _read_loop(self, conn: _Connection) -> None:
        lines = _LineReader(conn.reader, self.max_line_bytes)
        while True:
            await conn.resume_read.wait()  # pending-cap backpressure
            try:
                if self.idle_timeout_s is not None:
                    line = await asyncio.wait_for(
                        lines.readline(), self.idle_timeout_s
                    )
                else:
                    line = await lines.readline()
            except asyncio.TimeoutError:
                # slow-loris: the client held the connection without ever
                # completing a request line — cut it loose
                conn.send_json(_error(
                    "idle timeout: no complete request line in "
                    f"{self.idle_timeout_s:g}s"
                ))
                await self._drain_writer(conn)
                return
            except ConnectionError:
                return
            if line is None:  # oversized, already discarded to its newline
                conn.send_json(_error(
                    f"line too long: limit is {self.max_line_bytes} bytes"
                ))
                await self._drain_writer(conn)
                continue
            if not line:  # EOF = implicit drain
                return
            line = line.strip()
            if not line:
                continue
            try:
                message = json.loads(line)
                op = message.get("op", "map")
            except (json.JSONDecodeError, AttributeError, UnicodeDecodeError) as exc:
                conn.send_json(_error(f"bad request line: {exc}"))
                continue
            if op == "health":
                # immediate, off the ordered path: probes never queue
                conn.send_json({"op": "health", **self.backend.healthz()})
                await self._drain_writer(conn)
            elif op == "drain":
                conn.intake.append(("drain",))
                self._dispatch_wake.set()
                return
            elif op in _ORDERED_OPS:
                conn.intake.append(("msg", message))
                self._dispatch_wake.set()
            else:
                conn.send_json(_error(f"unknown op {op!r}"))
                await self._drain_writer(conn)

    @staticmethod
    async def _drain_writer(conn: _Connection) -> None:
        with contextlib.suppress(ConnectionError):
            await conn.writer.drain()

    # -- fair dispatch -------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Round-robin drain across connection intakes — per-client fairness."""
        while True:
            progressed = False
            for conn in list(self._connections):
                for _ in range(self.fair_chunk):
                    if not conn.intake or conn.closed or conn.held:
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
                if not any(
                    c.intake for c in self._connections
                    if not (c.closed or c.held)
                ):
                    await self._dispatch_wake.wait()

    def _dispatch_message(self, conn: _Connection, message: dict) -> None:
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
            # generation), and nothing behind it is read or dispatched
            # until its own reply is (later reads see the new one).  Other
            # sessions keep flowing; their in-flight maps keep the
            # generation they captured.
            conn.held = True
            conn.resume_read.clear()
            conn.pending.put_nowait(("mutation", op, message))
            return
        header = {"id": message.get("id"), "name": message.get("name", "")}
        tenant = str(message.get("tenant", ""))
        if (
            self.tenant_quota is not None
            and self._tenant_inflight.get(tenant, 0) >= self.tenant_quota
        ):
            conn.pending.put_nowait((
                "ready",
                {**header, "error": "overloaded",
                 "retry_after": TENANT_RETRY_S, "tenant": tenant or None},
            ))
            conn.rejected += 1
            return
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
            self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
            conn.outstanding += 1
            if conn.outstanding >= self.max_pending:
                conn.resume_read.clear()
            conn.pending.put_nowait(("map", header, self._bridge(future), tenant))
            return
        conn.pending.put_nowait(("ready", refusal))

    def _bridge(self, future: MapFuture) -> asyncio.Future:
        """Thread-side MapFuture completion → loop-side asyncio.Future."""
        loop = asyncio.get_running_loop()
        afut: asyncio.Future = loop.create_future()

        def transfer(done: MapFuture) -> None:
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

    async def _write_loop(self, conn: _Connection) -> None:
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
                conn.held = False
                conn.resume_read.set()
                self._dispatch_wake.set()
            else:
                _kind, header, afut, tenant = entry
                try:
                    mapping = await afut
                except ReproError as exc:
                    conn.send_json({**header, "error": str(exc)})
                    conn.errors += 1
                else:
                    conn.send_json(response_for_mapping(header, mapping))
                    conn.mapped += 1
                self._tenant_inflight[tenant] = max(
                    0, self._tenant_inflight.get(tenant, 0) - 1
                )
                conn.outstanding -= 1
                if conn.outstanding < self.max_pending // 2 and not conn.held:
                    conn.resume_read.set()
            await self._drain_writer(conn)
        # the dispatcher queues "drain" last: nothing is pending behind it
        conn.send_json({
            "op": "drained",
            "mapped": conn.mapped,
            "errors": conn.errors,
            "rejected": conn.rejected,
            "metrics": self.backend.metrics_snapshot(),
        })
        await self._drain_writer(conn)
