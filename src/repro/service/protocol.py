"""Newline-delimited JSON protocol for ``jem serve`` / ``jem client``.

This module holds the wire contract's two ends that are *not* the server
state machine: the reply formatters (:func:`response_for_mapping`,
:func:`mutation_response`) and the client (:func:`run_session` over a
:class:`SocketTransport`).  The server side —
parse, route, order, answer — is :class:`repro.netserve.NetFrontend`,
the same code for every TCP connection of ``jem serve``;
``docs/serving.md`` is the protocol reference.

One JSON object per line, in both directions.  Requests:

* ``{"op": "map", "id": <any>, "name": "<read>", "seq": "ACGT..."}`` —
  map one read; the response echoes ``id`` and ``name`` and carries one
  result per end segment.  An optional ``"deadline_ms"`` propagates a
  per-request deadline into dispatch: a request still queued when it
  expires is shed and answered with a typed error instead of mapped.
  Responses carry ``"degraded": true`` when the circuit breaker routed
  the read through the single-trial fallback path.
* ``{"op": "ping"}`` → ``{"op": "pong"}``, ordered behind every earlier
  ``map`` of the session.
* ``{"op": "health"}`` → liveness/readiness/breaker state — answered
  immediately, off the ordered path, so probes are not blocked behind a
  slow batch.
* ``{"op": "metrics"}`` → ``{"op": "metrics", "aggregate": {...},
  "replicas": [...]}``, taken once every earlier ``map`` is answered.
* ``{"op": "add_contigs", "names": [...], "seqs": [...]}`` — add contigs
  to the resident index online; ``{"op": "remove_contigs", "names":
  [...]}`` tombstones contigs.  Both answer ``{"op": ..., "stats":
  {...}, "generation": N}`` in the session's response order.
* ``{"op": "flush"}`` / ``{"op": "compact"}`` — seal the memtable into a
  segment / fold the whole index into one compacted segment.
* ``{"op": "stats"}`` → the current store stats block (generation,
  segments, memtable entries, tombstones, nbytes breakdown).
* ``{"op": "restart"}`` — rolling restart of the fleet: each member is
  replaced in turn by a new one over the current index (parity-probed
  under scatter) that is admitted before the old one drains, so no read
  is refused.  Answers ``{"op": "restart", "restarted": [...], ...}``.
* ``{"op": "drain"}`` — finish everything the session submitted, answer
  ``{"op": "drained", "mapped", "errors", "rejected", "metrics"}`` and
  end the session.  The client's half-close (EOF) is an implicit drain.

Malformed frames (unparseable JSON, lines over ``--max-line-bytes``,
unknown ops, non-string payload fields) are answered with a typed
in-band ``{"type": "error", "error": ...}`` object; the session — and
every *other* session of the server — keeps serving.

Backpressure surfaces in-band: an admission rejection produces
``{"id": ..., "error": "overloaded", "retry_after": <seconds>}`` and the
client resubmits after the hinted delay.  Responses to ``map`` requests
are written in request order (deterministic transcripts), so a client
may pipeline as many requests as it likes, but must read concurrently.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field

from ..errors import ReproError
from ..seq.records import SequenceSet

__all__ = [
    "run_session",
    "response_for_mapping",
    "mutation_response",
    "MUTATION_OPS",
    "ADMIN_OPS",
    "SocketTransport",
    "ClientStats",
]

#: Index-mutation / introspection ops, executed through
#: :func:`mutation_response`.
MUTATION_OPS = ("add_contigs", "remove_contigs", "flush", "compact", "stats")

#: Fleet-administration ops; dispatched like mutations — ordered after
#: every read the session already submitted.
ADMIN_OPS = ("restart",)


def response_for_mapping(header: dict, mapping) -> dict:
    """Render one completed mapping as its wire response object.

    The single formatting path: a read's response bytes are identical
    whichever session and fleet answered it.
    """
    response = {
        **header,
        "results": [
            {"segment": seg, "contig": mapping.subject_names[i],
             "hits": mapping.hit_count[i]}
            for i, seg in enumerate(mapping.segment_names)
        ],
        "cached": mapping.cached,
    }
    if mapping.degraded:
        response["degraded"] = True
    return response


def _strings(message: dict, key: str) -> list[str]:
    """``message[key]`` as a list of strings (absent: empty).  Any other
    shape is refused: a JSON ``null`` must never become the name ``'None'``."""
    values = message.get(key) or []
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ReproError(f"{key} must be a list of strings")
    return values


def mutation_response(backend, op: str, message: dict) -> dict:
    """Execute one index-mutation/stats/restart op on ``backend``; render
    the reply.

    ``backend`` is the :class:`~repro.netserve.ReplicaSet` that owns the
    served index (``add_contigs`` / ``remove_contigs`` / ``flush_index``
    / ``compact_index`` / ``store_stats`` / ``rolling_restart``).  The
    single formatting path, like :func:`response_for_mapping`.
    """
    try:
        if op == "restart":
            return {"op": op, **backend.rolling_restart()}
        if op == "add_contigs":
            names = _strings(message, "names")
            seqs = _strings(message, "seqs")
            if not names or len(names) != len(seqs):
                raise ReproError(
                    "add_contigs needs parallel non-empty names/seqs lists"
                )
            stats = backend.add_contigs(
                SequenceSet.from_strings(list(zip(names, seqs)))
            )
        elif op == "remove_contigs":
            names = _strings(message, "names")
            if not names:
                raise ReproError("remove_contigs needs a non-empty names list")
            stats = backend.remove_contigs(names)
        elif op == "flush":
            stats = backend.flush_index()
        elif op == "compact":
            stats = backend.compact_index()
        elif op == "stats":
            stats = backend.store_stats()
        else:  # pragma: no cover - dispatchers only pass MUTATION_OPS
            raise ReproError(f"unknown mutation op {op!r}")
    except ReproError as exc:
        return {"op": op, "error": str(exc)}
    return {"op": op, "stats": stats, "generation": stats["generation"]}


class SocketTransport:
    """Client transport over a TCP connection to ``jem serve``."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._rfile = sock.makefile("r", encoding="utf-8", newline="\n")

    @classmethod
    def connect(
        cls, host: str, port: int, *, timeout: float = 10.0
    ) -> "SocketTransport":
        sock = socket.create_connection((host, port), timeout=timeout)
        # connect-timeout only: an established session may legitimately
        # idle while the server coalesces a batch.
        sock.settimeout(None)
        return cls(sock)

    def lines(self):
        return self._rfile

    def send_line(self, line: str) -> None:
        self._sock.sendall((line + "\n").encode("utf-8"))

    def close_send(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # already gone; the reader will see EOF regardless

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()


@dataclass
class ClientStats:
    """Outcome of one client run against a serve session."""

    responses: list[dict] = field(default_factory=list)
    retries: int = 0
    drained_reply: dict | None = None

    @property
    def mapped(self) -> int:
        return sum(1 for r in self.responses if "results" in r)

    @property
    def errors(self) -> int:
        return sum(1 for r in self.responses if "error" in r)


def run_session(
    reads: SequenceSet,
    transport,
    *,
    max_retries: int = 64,
    poll_s: float = 0.02,
    timeout: float = 600.0,
) -> ClientStats:
    """Drive one serve session over ``transport``: pipeline, honour backpressure.

    The session ``jem client`` runs over a :class:`SocketTransport`; any
    object with the same four methods carries it.  A reader thread collects responses
    concurrently (the server writes in request order; without it both
    sides could block on full buffers).  ``overloaded`` rejections are
    resubmitted after sleeping out the server's ``retry_after`` hint;
    periodic ``ping``\\ s force the server to flush whatever batches have
    completed.  Ends with a ``drain`` and returns every map response in
    read order plus the drained summary.
    """
    stats = ClientStats()
    results: dict[int, dict] = {}
    lock = threading.Lock()
    session_done = threading.Event()

    def reader() -> None:
        for line in transport.lines():
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue
            if message.get("op") == "drained":
                stats.drained_reply = message
                break
            if message.get("id") is not None:
                with lock:
                    results[message["id"]] = message
        session_done.set()

    threading.Thread(target=reader, daemon=True).start()

    def send(obj: dict) -> None:
        transport.send_line(json.dumps(obj))

    def send_read(i: int) -> None:
        send({"op": "map", "id": i, "name": reads.names[i],
              "seq": reads[i].sequence})

    for i in range(len(reads)):
        send_read(i)
    pending = set(range(len(reads)))
    # the retry budget is per read, not per session: under a tight quota a
    # pipelined burst rejects almost every read at once, and a shared
    # budget would be spent before any read converged on a slot
    retries_left = dict.fromkeys(pending, max_retries)
    deadline = time.monotonic() + timeout
    while pending and time.monotonic() < deadline:
        send({"op": "ping"})  # forces the server to flush completed batches
        time.sleep(poll_s)
        with lock:
            arrived = {i: results[i] for i in pending if i in results}
        for i, message in arrived.items():
            if message.get("error") == "overloaded" and retries_left[i] > 0:
                retries_left[i] -= 1
                stats.retries += 1
                time.sleep(float(message.get("retry_after", poll_s)))
                with lock:
                    results.pop(i, None)
                send_read(i)
            else:
                pending.discard(i)
    send({"op": "drain"})
    transport.close_send()
    session_done.wait(timeout=timeout)
    stats.responses = [results.get(i, {"id": i, "error": "no response"})
                       for i in range(len(reads))]
    transport.close()
    return stats
