"""``jem serve`` (an NDJSON mapping service over TCP in front of a replica
fleet) and ``jem client`` (stream a read file through a running ``serve``)."""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import TYPE_CHECKING

from .. import __version__
from .common import engine_from, output

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import MappingEngine


def register(sub) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="long-lived mapping service: NDJSON requests and responses over "
             "TCP (see docs/serving.md)",
    )
    p_serve.add_argument("--index", required=True,
                         help="saved JEM index: a bundle (.npz) or a mutable "
                              "index directory, as `jem index` writes them")
    p_serve.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                         help="TCP address to serve the NDJSON protocol on; "
                              "port 0 picks a free port, named in the stderr "
                              "banner (default 127.0.0.1:0)")
    p_serve.add_argument("--replicas", type=int, default=1,
                         help="mapping service workers (default 1)")
    p_serve.add_argument("--placement", choices=("scatter", "replicate"),
                         default="replicate",
                         help="replica index ownership: replicate = every "
                              "replica maps whole reads on the one shared "
                              "index through the fused kernel, round-robin; "
                              "scatter = key-range shards + central numpy "
                              "vote (default replicate)")
    p_serve.add_argument("--tenant-quota", type=int, default=None,
                         help="max in-flight maps per tenant tag across all "
                              "sessions (default: unlimited)")
    p_serve.add_argument("--probe-interval-ms", type=float, default=500.0,
                         help="supervisor heartbeat interval "
                              "(default 500; probe deadline is half of it)")
    # the fleet's batching, caching, self-healing and index maintenance
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="most reads coalesced into one micro-batch (default 64)")
    p_serve.add_argument("--cache-capacity", type=int, default=4096,
                         help="query-sketch LRU result cache entries; 0 disables "
                              "(default 4096)")
    p_serve.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="write the final metrics snapshot as JSON")
    p_serve.add_argument("--breaker-failures", type=int, default=0,
                         help="failed batches in the rolling window that trip "
                              "the circuit breaker into degraded reduced-trial "
                              "mapping (0 = breaker disabled, default)")
    p_serve.add_argument("--memtable-flush-entries", type=int, default=0,
                         help="auto-flush the mutable index's memtable once an "
                              "online add leaves this many entries in it "
                              "(0 = disabled, default)")
    p_serve.add_argument("--compact-segments", type=int, default=0,
                         help="most segments the mutable index keeps: a "
                              "mutation that leaves more compacts it "
                              "(0 = disabled, default)")
    p_serve.set_defaults(run=_cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="stream a FASTA/FASTQ file through a running `jem serve` "
             "and write the same TSV as `map`",
    )
    p_client.add_argument("-q", "--queries", required=True, help="long reads FASTA/FASTQ")
    p_client.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="address of a running `jem serve`")
    p_client.add_argument("-o", "--output", default="-", help="output TSV ('-' = stdout)")
    p_client.add_argument("--on-error", choices=("raise", "skip"), default="raise",
                          help="input parser policy")
    p_client.add_argument("--metrics-out", default=None, metavar="PATH",
                          help="write the server's metrics snapshot, from its "
                               "`drained` reply, as JSON")
    p_client.set_defaults(run=_cmd_client)


def _fleet_from(args: argparse.Namespace, engine: MappingEngine):
    """The replica fleet ``serve`` fronts."""
    from ..netserve import ReplicaSet, make_placement
    from ..service import ServiceConfig

    config = ServiceConfig(
        max_batch_size=args.max_batch,
        cache_capacity=args.cache_capacity,
        breaker_failures=args.breaker_failures,
        memtable_flush_entries=args.memtable_flush_entries,
        compact_segments=args.compact_segments,
    )
    return ReplicaSet.from_engine(engine, make_placement(args.placement, args.replicas), config)


def _import_asyncio_without_tls():
    """``asyncio``, imported the way CPython imports it on a build without
    OpenSSL: the server speaks plain NDJSON and never TLS, and ``asyncio``'s
    unconditional ``import ssl`` would otherwise map ``libcrypto`` and
    ``libssl`` (≈ 4.8 MB) into every server.  A ``None`` in ``sys.modules``
    makes that import fail, which ``asyncio`` handles by leaving TLS out; the
    placeholder goes right after, so a later ``import ssl`` still works (that
    process's ``asyncio`` stays without TLS).  A process that has already
    loaded either module keeps what it has."""
    blocked = "asyncio" not in sys.modules and "ssl" not in sys.modules
    if blocked:
        sys.modules["ssl"] = None
    try:
        import asyncio
    finally:
        if blocked:
            del sys.modules["ssl"]
    return asyncio


def _cmd_serve(args: argparse.Namespace) -> int:
    """``jem serve``: one NDJSON front-end over TCP in front of a replica
    fleet, until SIGINT or SIGTERM."""
    asyncio = _import_asyncio_without_tls()
    import json
    import signal

    from ..netserve import FleetSupervisor, NetFrontend, SupervisorConfig, parse_hostport
    from ..sketch import _native

    # a bad address fails before the index loads and the fleet's threads start
    host, port = parse_hostport(args.listen)
    t0 = time.perf_counter()
    engine = engine_from(args)
    # a cold cache's compile ends here, and this thread gets its whole CPU
    # mask back (repro._native_build), before the fleet starts the threads
    # that inherit it
    _native.load()
    backend = _fleet_from(args, engine)
    interval_s = max(args.probe_interval_ms, 1.0) / 1000.0
    supervisor = FleetSupervisor(
        backend,
        SupervisorConfig(probe_interval_s=interval_s, probe_deadline_s=interval_s / 2.0),
    )
    frontend = NetFrontend(backend, host=host, port=port, tenant_quota=args.tenant_quota)

    async def listen() -> None:
        bound_host, bound_port = await frontend.start()
        # machine-parseable banner: CI and tests discover port 0 from it
        print(
            f"# jem-netserve listening on {bound_host}:{bound_port} "
            f"({backend.placement.kind} x{backend.placement.n_replicas}, "
            f"{len(backend.subject_names)} contigs, "
            f"ready in {time.perf_counter() - t0:.2f}s)",
            file=sys.stderr,
            flush=True,
        )
        supervisor.start()
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop_requested.set)

        def request_rolling_restart() -> None:
            # SIGHUP: replace one member at a time off the event loop, each
            # successor admitted before its predecessor drains
            def run() -> None:
                try:
                    out = backend.rolling_restart()
                    print(
                        f"# jem-netserve rolling restart done: "
                        f"replicas {out['restarted']}, "
                        f"generation {out['generation']}",
                        file=sys.stderr, flush=True,
                    )
                except Exception as exc:  # noqa: BLE001 - report, keep serving
                    print(
                        f"# jem-netserve rolling restart failed: {exc}",
                        file=sys.stderr, flush=True,
                    )
            loop.run_in_executor(None, run)

        if hasattr(signal, "SIGHUP"):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signal.SIGHUP, request_rolling_restart)
        await stop_requested.wait()
        await frontend.stop()

    try:
        asyncio.run(listen())
    finally:
        backend.drain()
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(backend.metrics_snapshot(), fh, indent=2)
    print("# jem-netserve stopped", file=sys.stderr)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """``jem client``: stream reads through a running ``serve`` and write the
    TSV ``map`` writes, then the summary."""
    import json

    from ..core.engine import read_sequences
    from ..netserve import parse_hostport
    from ..service import SocketTransport, run_session

    host, port = parse_hostport(args.connect)
    queries = read_sequences(args.queries, on_error=args.on_error)
    t0 = time.perf_counter()
    stats = run_session(queries, SocketTransport.connect(host, port))
    elapsed = time.perf_counter() - t0
    mapped_segments = 0
    total_segments = 0
    with output(args.output) as out:
        out.write(f"# jem-mapper {__version__} # serve client: {elapsed:.3f}s wall\n")
        out.write("segment\tcontig\thits\n")
        for response in stats.responses:
            if "error" in response:
                print(f"warning: read {response.get('name', response.get('id'))!r} "
                      f"failed: {response['error']}", file=sys.stderr)
                continue
            for row in response["results"]:
                total_segments += 1
                contig = row["contig"] if row["contig"] is not None else "*"
                if row["contig"] is not None:
                    mapped_segments += 1
                out.write(f"{row['segment']}\t{contig}\t{row['hits']}\n")
    if args.metrics_out and stats.drained_reply is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(stats.drained_reply["metrics"], fh, indent=2)
    drained = stats.drained_reply is not None
    print(
        f"mapped {mapped_segments}/{total_segments} segments from "
        f"{len(queries)} reads in {elapsed:.2f}s "
        f"({len(queries) / elapsed:,.0f} reads/s); "
        f"{stats.retries} backpressure retries; "
        f"drain {'clean' if drained else 'MISSING'}",
        file=sys.stderr,
    )
    if not drained or stats.errors:
        return 1
    return 0
