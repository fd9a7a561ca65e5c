"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.seq import SequenceSet, decode, random_codes


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_genome(rng) -> np.ndarray:
    """A 20 kbp random genome as a code array."""
    return random_codes(20_000, rng)


@pytest.fixture
def tiling_contigs(small_genome) -> SequenceSet:
    """Contigs tiling the small genome with 100 bp overlaps."""
    pieces = []
    pos = 0
    idx = 0
    while pos < small_genome.size:
        end = min(pos + 2_000, small_genome.size)
        pieces.append((f"contig_{idx}", decode(small_genome[pos:end])))
        pos = end - 100 if end < small_genome.size else end
        idx += 1
    return SequenceSet.from_strings(pieces)


@pytest.fixture
def clean_reads(small_genome, rng) -> SequenceSet:
    """Error-free 5 kbp reads drawn from the small genome with truth coords."""
    from repro.seq import SequenceSetBuilder

    builder = SequenceSetBuilder()
    for i in range(20):
        start = int(rng.integers(0, small_genome.size - 5_000))
        builder.add(
            f"read_{i}",
            small_genome[start : start + 5_000],
            {"ref_start": start, "ref_end": start + 5_000, "ref_strand": 1},
        )
    return builder.build()


@pytest.fixture(scope="session")
def ci_world(tmp_path_factory) -> SimpleNamespace:
    """The files `jem simulate e_coli --scale 0.005 --seed 3` writes: the
    contigs FASTA and the reads FASTQ the chaos sweeps run on."""
    from repro.eval.datasets import load_or_generate
    from repro.seq.io_fasta import write_fasta
    from repro.seq.io_fastq import write_fastq

    dataset = load_or_generate("e_coli", scale=0.005, seed=3)
    out = tmp_path_factory.mktemp("ci_world")
    world = SimpleNamespace(
        contigs=str(out / "e_coli_contigs.fasta"), reads=str(out / "e_coli_reads.fastq")
    )
    write_fasta(world.contigs, dataset.contigs)
    write_fastq(world.reads, dataset.reads)
    return world


# -- serve-session harness: one NetFrontend over TCP -------------------------
# (imported by the protocol tests: ``from conftest import serve_session``)


def serve_fleet(contigs, jem_config, service_config=None, *, kind="replicate", n=1):
    """A :class:`~repro.netserve.ReplicaSet` over freshly indexed ``contigs``.

    The defaults build the replicate x1 fleet a plain ``jem serve`` runs.
    """
    from repro import JEMMapper
    from repro.netserve import ReplicaSet, make_placement

    mapper = JEMMapper(jem_config)
    mapper.index(contigs)
    return ReplicaSet(
        mapper.table, mapper.subject_names, jem_config,
        placement=make_placement(kind, n), service_config=service_config,
    )


@contextlib.contextmanager
def serving(backend, **kwargs):
    """Run a TCP NetFrontend on a fresh loop in a thread; yield its address."""
    from repro.netserve import NetFrontend

    loop = asyncio.new_event_loop()
    frontend = NetFrontend(backend, port=0, **kwargs)
    started = threading.Event()
    stopped = asyncio.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)

        async def main() -> None:
            await frontend.start()
            started.set()
            await stopped.wait()
            await frontend.stop()

        loop.run_until_complete(main())
        loop.close()

    thread = threading.Thread(target=run, name="jem-net-test", daemon=True)
    thread.start()
    assert started.wait(10.0), "frontend failed to start"
    try:
        yield frontend.address
    finally:
        loop.call_soon_threadsafe(stopped.set)
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "frontend thread failed to stop"


def _frame(line) -> bytes:
    """One request line: a dict (JSON-encoded) or a str, newline appended;
    ``bytes`` go out exactly as given — half-lines, garbage, no newline."""
    if isinstance(line, bytes):
        return line
    if isinstance(line, dict):
        line = json.dumps(line)
    return line.encode("utf-8", errors="replace") + b"\n"


def connect_lines(address):
    """A raw NDJSON socket session: (send, readline, close); ``send`` takes
    what :func:`_frame` takes."""
    sock = socket.create_connection(address, timeout=30.0)
    rfile = sock.makefile("rb", newline=b"\n")

    def send(frame) -> None:
        sock.sendall(_frame(frame))

    def readline() -> dict:
        line = rfile.readline()
        assert line, "connection closed while a reply was expected"
        return json.loads(line)

    def close() -> None:
        rfile.close()
        sock.close()

    return send, readline, close


def serve_session(backend, lines, **frontend_kwargs) -> list[dict]:
    """One scripted session: every line down one connection of a listening
    front-end, then EOF; every reply.  ``lines`` are what :func:`_frame`
    takes."""
    payload = b"".join(_frame(line) for line in lines)
    with serving(backend, **frontend_kwargs) as address:
        with socket.create_connection(address, timeout=30.0) as sock:
            def send() -> None:  # beside the read: neither side's buffer fills
                sock.sendall(payload)
                sock.shutdown(socket.SHUT_WR)

            sender = threading.Thread(target=send)
            sender.start()
            with sock.makefile("rb") as rfile:
                raw = rfile.read()  # to EOF: the server closes after `drained`
            sender.join(timeout=30.0)
    return [json.loads(line) for line in raw.splitlines()]
