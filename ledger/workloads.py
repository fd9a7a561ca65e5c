"""The four workloads.  Each takes a :class:`Context` and returns a :class:`Result`.

A workload generates its inputs from the seed, sets the programs up
(timed as ``setup_s``), runs them for ``seconds``, checks every answer
and reduces the samples to the metrics named in ``spec.py``.  With
``ctx.traced`` the window is halved and the outside-in layer waterfall
(``trace.py``) runs on the same inputs, against the same server.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np


from ledger import check, loadgen, procs, spec, trace
from ledger import inputs as inputs_mod

PACED_RATE = 75.0
SAT_CONNECTIONS = 2
SAT_OUTSTANDING = 32
SAT_WINDOWS = 6
#: the saturation pool, as a multiple of (result cache + reads in flight):
#: every connection takes its next read from one cursor over the pool, so
#: a read comes round again only after more newer reads than the LRU holds
SAT_POOL_MARGIN = 1.1
CHURN_RESEND_SHARE = 0.3
CHURN_LOOKBACK = 100
CHURN_ADMIN_PERIOD_S = 0.5
CHURN_DECOYS_PER_ADD = 16
CHURN_REMOVE_AFTER_CYCLES = 3
ONESHOT_READS = 3_000
ONESHOT_MIN_ROUNDS = 3
#: set-ups per run: one before the measured window, the rest after it
SETUP_REPEATS = 3
#: reads set aside for the door ladder of a traced run
LADDER_READS = 400


@dataclass
class Context:
    seed: int
    seconds: float
    traced: bool
    smoke: bool
    out_dir: str  # ledger/out/<run_id>/<workload>
    tracer: trace.Tracer | None = None

    @property
    def window_s(self) -> float:
        return self.seconds / 2 if self.traced else self.seconds

    @property
    def warm_s(self) -> float:
        return 0.5 if self.smoke else 2.0

    def tier(self, full: str) -> str:
        return "S" if self.smoke else full

    def log(self, name: str) -> str:
        return os.path.join(self.out_dir, name)


@dataclass
class Result:
    workload: str
    metrics: dict[str, float]
    tally: check.Tally
    problems: list[str] = field(default_factory=list)  # answers / exits: the run fails
    invalid: list[str] = field(default_factory=list)  # the instrument was the limit
    pinning: dict | None = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.tally.failed == 0


def _ladder_reads(ctx: Context) -> int:
    if not ctx.traced:
        return 0
    return LADDER_READS // 4 if ctx.smoke else LADDER_READS


def _quality_gate(result: Result) -> None:
    for name in ("precision", "recall"):
        if result.metrics[name] < spec.QUALITY_FLOOR:
            result.problems.append(
                f"{name} {result.metrics[name]:.4f} below {spec.QUALITY_FLOOR}"
            )


# -- oneshot-L ----------------------------------------------------------------


def run_oneshot(ctx: Context) -> Result:
    n_reads = 150 if ctx.smoke else ONESHOT_READS
    n_ladder = _ladder_reads(ctx)
    data = inputs_mod.make_inputs(ctx.tier("L"), ctx.seed, n_reads, procs.WORK_DIR)
    work = os.path.join(procs.WORK_DIR, "oneshot")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    index_path = os.path.join(work, "L.idx.npz")
    tsv_p1 = os.path.join(work, "p1.tsv")
    tsv_p2 = os.path.join(work, "p2.tsv")
    log = ctx.log("cli.log")
    tally = check.Tally()
    problems: list[str] = []
    legs: list[procs.CliRun] = []

    def leg(args: list[str]) -> procs.CliRun:
        run = procs.run_cli(args, log)
        legs.append(run)
        tally.add(None if run.returncode == 0 else "exit")
        if run.returncode != 0:
            problems.append(f"jem {' '.join(args[:1])} exited {run.returncode}; see {log}")
        return run

    index_args = ["index", "-s", data.contigs_path, "-o", index_path]
    map_args = ["map", "-q", data.reads_path, "--index", index_path, "-o", tsv_p1]

    def set_up() -> float:
        """Kernel compile into .work/native, then the warm-up round."""
        t0 = time.perf_counter()
        shutil.rmtree(procs.native_cache_dir(), ignore_errors=True)
        leg(index_args)
        leg(map_args)
        return time.perf_counter() - t0

    repeats = 1 if ctx.smoke or ctx.traced else SETUP_REPEATS
    setup_walls = [set_up()]

    index_walls: list[float] = []
    map_walls: list[float] = []
    bodies: list[list[str]] = []
    started = time.perf_counter()
    min_rounds = 1 if ctx.smoke or ctx.traced else ONESHOT_MIN_ROUNDS
    while len(map_walls) < min_rounds or (
        not ctx.traced and time.perf_counter() - started < ctx.window_s
    ):
        index_walls.append(leg(index_args).wall_s)
        map_walls.append(leg(map_args).wall_s)
        bodies.append(check.read_tsv(tsv_p1)[0])

    # the process backend only runs from contig sequences: with --index,
    # `jem map -p 2 --backend process` silently maps inline
    p2 = leg(["map", "-q", data.reads_path, "-s", data.contigs_path,
              "-p", "2", "--backend", "process", "-o", tsv_p2])
    setup_walls += [set_up() for _ in range(repeats - 1)]

    reference, contig_names = check.reference_answers(index_path, data.reads)
    if not problems:
        body_p1, answers_p1 = check.read_tsv(tsv_p1)
        body_p2, _ = check.read_tsv(tsv_p2)
        for body in bodies + [body_p2]:
            tally.add(None if body == body_p1 else "wrong", len(data.reads))
        if len(answers_p1) != len(reference):
            tally.add("missing", len(reference))
        else:
            for got, want in zip(answers_p1, reference):
                tally.add(None if got == want else "wrong")
    else:
        answers_p1 = reference  # never scored: the run has already failed

    contig_id = {name: i for i, name in enumerate(contig_names)}
    precision, recall = check.quality(
        data.truth(), np.arange(len(data.reads)), answers_p1, contig_id
    )
    metrics = {
        # quickest repeat, quickest round: interference on a shared host only
        # ever adds time to a run of identical subprocesses
        "setup_s": min(setup_walls),
        "index_s": min(index_walls),
        "map_reads_per_s": len(data.reads) / min(map_walls),
        "map_p2_reads_per_s": len(data.reads) / p2.wall_s,
        "peak_rss_mb": max(run.rss_mb for run in legs),
        "precision": precision,
        "recall": recall,
        "failed_frac": tally.failed_frac,
        "loadgen.inputs_s": data.seconds,
    }
    result = Result("oneshot-L", metrics, tally, problems)
    _quality_gate(result)
    if ctx.traced and result.correct:
        # no server ran yet: the ladder's TCP door gets a default one on this index
        ladder = data.reads.slice(n_reads - n_ladder, n_reads)
        with procs.pinned() as pin:
            with procs.Server(["--index", index_path], ctx.log("ladder-server.log"),
                              pin and pin["server_cpu"]) as server:
                sock = loadgen.connect(server.wait_ready())
                try:
                    health_before = loadgen.ask(sock, loadgen.op_line("health"))
                    metrics.update(trace.tcp_door(ctx.tracer, sock, server, ladder))
                    metrics.update(server_side(sock, health_before))
                finally:
                    sock.close()
        _waterfall(ctx, result, data, index_path, ladder, work, 1, "replicate")
    return result


def _waterfall(ctx: Context, result: Result, data, index_path: str, ladder,
               work: str, replicas: int, placement: str) -> None:
    """The in-process half of a traced run, folded into ``result``."""
    metrics = result.metrics
    metrics.update(trace.waterfall(
        ctx.tracer, data, index_path, ladder, work,
        replicas=replicas, placement=placement,
        tcp_door_ms=metrics["netserve.tcp_door_ms_p50"],
    ))
    result.invalid += trace.problems(metrics)


# -- served workloads -----------------------------------------------------------


def _serve_default(flag: str):
    """The default of a ``jem serve`` flag, asked of the program's own parser."""
    from repro.cli import build_parser

    return getattr(build_parser().parse_args(["serve", "--index", "-"]), flag)


@dataclass
class _Traffic:
    """What one served workload sends, fixed by (kind, seed, seconds)."""

    n_reads: int  # distinct reads the plan needs from the pool
    read_of_send: np.ndarray | None  # open loop: pool index per send
    offsets: np.ndarray | None  # open loop: due time per send, from window start - warm


def _plan_traffic(kind: str, ctx: Context) -> _Traffic:
    rng = np.random.default_rng([ctx.seed, 0x10AD])
    if kind == "sat":
        in_flight = SAT_CONNECTIONS * SAT_OUTSTANDING
        pool = int(SAT_POOL_MARGIN * (_serve_default("cache_capacity") + in_flight))
        return _Traffic(n_reads=300 if ctx.smoke else pool, read_of_send=None, offsets=None)
    # warm-up and window are scheduled apart so that every seed offers the
    # same number of reads inside the window
    offsets = np.concatenate([
        loadgen.poisson_schedule(PACED_RATE, ctx.warm_s, rng),
        ctx.warm_s + loadgen.poisson_schedule(PACED_RATE, ctx.window_s, rng),
    ])
    if kind == "churn":
        read_of_send, fresh = loadgen.resend_plan(
            offsets.size, CHURN_RESEND_SHARE, CHURN_LOOKBACK, rng
        )
    else:
        read_of_send, fresh = np.arange(offsets.size), offsets.size
    return _Traffic(n_reads=fresh, read_of_send=read_of_send, offsets=offsets)


@dataclass
class _AdminOp:
    line: bytes
    kind: str  # add | remove | flush | compact | probe
    expect_contig: str | None = None  # probe: the decoy it was cut from
    expect_hit: bool = False  # probe: must (True) / must not (False) map to it


def _plan_admin(ctx: Context) -> list[_AdminOp]:
    """Connection B of ``serve-churn-M``: one op per period, fixed cycle."""
    n_ops = int(ctx.window_s / CHURN_ADMIN_PERIOD_S)
    ops: list[_AdminOp] = []
    probes: dict[int, tuple[str, str]] = {}

    def emit(op: _AdminOp) -> None:
        ops.append(op)
        if len(ops) % 8 == 7:
            ops.append(_AdminOp(loadgen.op_line("compact"), "compact"))
        elif len(ops) % 4 == 3:
            ops.append(_AdminOp(loadgen.op_line("flush"), "flush"))

    def probe(batch: int, expect_hit: bool) -> _AdminOp:
        name, seq = probes[batch]
        line = loadgen.map_line(-(len(ops) + 1), f"probe_{batch}", seq)
        return _AdminOp(line, "probe", expect_contig=name, expect_hit=expect_hit)

    cycle = 0
    while len(ops) < n_ops:
        names, seqs = inputs_mod.decoy_contigs(ctx.seed, cycle, CHURN_DECOYS_PER_ADD)
        probes[cycle] = (names[0], seqs[0])
        emit(_AdminOp(loadgen.op_line("add_contigs", names=names, seqs=seqs), "add"))
        emit(probe(cycle, True))
        old = cycle - CHURN_REMOVE_AFTER_CYCLES
        if old >= 0:
            old_names, _ = inputs_mod.decoy_contigs(ctx.seed, old, CHURN_DECOYS_PER_ADD)
            emit(_AdminOp(loadgen.op_line("remove_contigs", names=old_names), "remove"))
            emit(probe(old, False))
        cycle += 1
    return ops[:n_ops]


def _check_admin(ops: list[_AdminOp], lane: loadgen.Lane, tally: check.Tally) -> list[float]:
    """Tally connection B's replies; returns the add_contigs round-trips (ms)."""
    mutate_ms: list[float] = []
    received = lane.received_or_none()
    for i, op in enumerate(ops):
        if i >= len(lane.sent) or received[i] is None:
            tally.add("missing")
            continue
        reply = json.loads(lane.lines[i])
        if "error" in reply:
            tally.add("overloaded" if reply["error"] == "overloaded" else "error")
        elif op.kind == "probe":
            contigs = [row["contig"] for row in reply.get("results", [])]
            hit = bool(contigs) and all(c == op.expect_contig for c in contigs)
            miss = op.expect_contig not in contigs
            tally.add(None if (hit if op.expect_hit else miss) else "wrong")
        else:
            tally.add(None)
            if op.kind == "add":
                mutate_ms.append(1e3 * (received[i] - lane.sent[i]))
    return mutate_ms


def server_side(sock, health_before: dict) -> dict[str, float]:
    """Layer metrics the server reports about itself (``metrics`` / ``health`` ops).

    Read after the timed window, over the wire, like any client could.
    """
    aggregate = loadgen.ask(sock, loadgen.op_line("metrics"))["aggregate"]
    health = loadgen.ask(sock, loadgen.op_line("health"))
    counters, histograms = aggregate["counters"], aggregate["histograms"]
    return {
        "service.queue_wait_ms_p50": 1e3 * histograms["queue_wait_seconds"]["p50"],
        "service.batch_size_mean": histograms["batch_size_reads"]["mean"],
        "service.map_ms_per_batch_p50": 1e3 * histograms["map_latency_seconds"]["p50"],
        "service.cache_hit_ratio": aggregate["cache_hit_ratio"],
        "service.rejected_total": counters["rejected_total"],
        "service.shed_total": counters["shed_total"],
        "service.degraded_total": counters["degraded_total"],
        "service.errors_total": counters["errors_total"],
        "netserve.hedged_total": counters["hedged_requests_total"],
        "netserve.generation_swaps": (
            health["index_generation"] - health_before["index_generation"]
        ),
    }


@dataclass
class _Window:
    """What came back from one served window, before it is scored."""

    t_open: float
    t_close: float
    map_lanes: list[tuple[loadgen.Lane, Callable[[int], int]]]  # (lane, read of send i)
    admin_lane: loadgen.Lane | None
    admin_ops: list[_AdminOp]
    server_cpu_s: float
    own_cpu_frac: float


def _drive_window(ctx: Context, kind: str, traffic: _Traffic, lines: list[bytes],
                  server: procs.Server, socks: list) -> _Window:
    """Send the workload's traffic; ``socks[0]`` is the connection set-up opened."""
    cpu0, wall0, own_cpu0 = server.cpu_seconds(), time.perf_counter(), time.process_time()
    t_start = wall0 + 0.05
    t_open = t_start + ctx.warm_s
    t_close = t_open + ctx.window_s
    admin_ops: list[_AdminOp] = []
    admin_lane = None
    map_lanes = []
    if kind == "sat":
        socks += [loadgen.connect(server.address) for _ in range(SAT_CONNECTIONS - 1)]
        cursor = itertools.count()  # one walk over the pool, shared by the lanes
        for sock in socks:
            carried: list[int] = []  # read of this lane's send i

            def payload(_i: int, carried: list[int] = carried) -> bytes:
                carried.append(1 + next(cursor) % traffic.n_reads)
                return lines[carried[-1]]
            lane = loadgen.Lane(sock, payload, limit=SAT_OUTSTANDING, stop_at=t_close)
            map_lanes.append((lane, carried.__getitem__))
    else:
        def read_of(i: int) -> int:
            return 1 + int(traffic.read_of_send[i])
        lane = loadgen.Lane(socks[0], lambda i: lines[read_of(i)],
                            due=t_start + traffic.offsets)
        map_lanes.append((lane, read_of))
        if kind == "churn":
            admin_ops = _plan_admin(ctx)
            socks.append(loadgen.connect(server.address))
            admin_lane = loadgen.Lane(
                socks[-1], lambda i: admin_ops[i].line, limit=1,
                due=t_open + CHURN_ADMIN_PERIOD_S * np.arange(len(admin_ops)),
            )
    loadgen.drive([lane for lane, _ in map_lanes] + ([admin_lane] if admin_lane else []))
    return _Window(
        t_open, t_close, map_lanes, admin_lane, admin_ops,
        server_cpu_s=server.cpu_seconds() - cpu0,
        own_cpu_frac=(time.process_time() - own_cpu0) / (time.perf_counter() - wall0),
    )


def run_served(ctx: Context, kind: str) -> Result:
    workload = f"serve-{kind}-M"
    traffic = _plan_traffic(kind, ctx)
    n_ladder = _ladder_reads(ctx)
    # pool layout: [0] warms each set-up, [1 : 1+n] is traffic, the tail feeds
    # the traced door ladder — no read is sent twice unless the plan says so
    data = inputs_mod.make_inputs(
        ctx.tier("M"), ctx.seed, 1 + traffic.n_reads + n_ladder, procs.WORK_DIR
    )
    reads = data.reads
    lines = [loadgen.map_line(i, reads.names[i], reads[i].sequence)
             for i in range(len(reads))]
    ladder = reads.slice(len(reads) - n_ladder, len(reads))
    work = os.path.join(procs.WORK_DIR, f"serve-{kind}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    mutable = kind == "churn"
    built = os.path.join(work, "M.lsm" if mutable else "M.idx.npz")
    served = os.path.join(work, "run.lsm") if mutable else built
    index_args = ["index", "-s", data.contigs_path, "-o", built]
    serve_args = ["--index", served]
    replicas, placement = 1, "replicate"  # what `jem serve --listen` defaults to
    if mutable:
        index_args.append("--mutable")
        replicas, placement = 2, "scatter"
        serve_args += ["--replicas", "2", "--placement", "scatter"]

    tally = check.Tally()
    problems: list[str] = []
    invalid: list[str] = []
    metrics: dict[str, float] = {}
    setup_walls: list[float] = []
    warm_replies: list[dict] = []
    servers: list[procs.Server] = []
    socks: list = []

    def set_up(cpu: int | None) -> None:
        """Kernel compile, ``jem index``, spawn, banner, first ``map`` answered."""
        t0 = time.perf_counter()
        shutil.rmtree(procs.native_cache_dir(), ignore_errors=True)
        shutil.rmtree(built, ignore_errors=True)
        indexed = procs.run_cli(index_args, ctx.log("cli.log"))
        tally.add(None if indexed.returncode == 0 else "exit")
        if indexed.returncode != 0:
            raise RuntimeError(f"jem index failed; see {ctx.log('cli.log')}")
        if mutable:  # the server appends to its directory: serve a copy
            shutil.rmtree(served, ignore_errors=True)
            shutil.copytree(built, served)
        servers.append(procs.Server(
            serve_args, ctx.log(f"server-{len(servers)}.log"), cpu))
        socks.append(loadgen.connect(servers[-1].wait_ready()))
        warm_replies.append(loadgen.ask(socks[-1], lines[0]))
        setup_walls.append(time.perf_counter() - t0)

    def tear_down() -> None:
        while socks:
            socks.pop().close()
        servers[-1].stop()

    with procs.pinned() as pin:
        cpu = pin and pin["server_cpu"]
        try:
            set_up(cpu)
            health_before = loadgen.ask(socks[0], loadgen.op_line("health"))
            window = _drive_window(ctx, kind, traffic, lines, servers[0], socks)
            metrics.update(server_side(socks[0], health_before))
            if ctx.traced:
                metrics.update(trace.tcp_door(ctx.tracer, socks[0], servers[0], ladder))
            tear_down()
            # the remaining set-ups come after the window, so that the three
            # span the run and a slow spell of the host need not cover them all
            for _ in range(0 if ctx.smoke or ctx.traced else SETUP_REPEATS - 1):
                set_up(cpu)
                tear_down()
        finally:
            for sock in socks:
                sock.close()
            for server in servers:
                server.stop()
    for server in servers:
        tally.add(None if server.returncode == 0 else "exit")
        if server.returncode != 0:
            problems.append(f"jem serve exited {server.returncode}; see {server.log_path}")

    # check every answer against an in-process map on the same index
    reference, contig_names = check.reference_answers(built, reads)
    for reply in warm_replies:
        tally.add(check.classify_response(reply, 0, reference[0]))
    t_open, t_close = window.t_open, window.t_close
    latencies_ms: list[float] = []
    lateness_ms: list[float] = []
    good_times: list[float] = []
    scored_reads: list[int] = []
    scored_answers: list[check.Answer] = []
    for lane, read_of in window.map_lanes:
        received = lane.received_or_none()
        for i, sent_at in enumerate(lane.sent):
            read = read_of(i)
            response = json.loads(lane.lines[i]) if received[i] is not None else None
            failure = check.classify_response(response, read, reference[read])
            tally.add(failure)
            if lane.due is None:  # closed loop: timed from the send, kept by arrival
                due = sent_at
                in_window = received[i] is not None and t_open <= received[i] < t_close
            else:
                due = float(lane.due[i])
                in_window = due >= t_open
                if in_window:
                    lateness_ms.append(1e3 * (sent_at - due))
            if in_window and failure is None:
                latencies_ms.append(1e3 * (received[i] - due))
                good_times.append(received[i])
                scored_reads.append(read)
                scored_answers.append(check.response_answer(response))
    mutate_ms = (_check_admin(window.admin_ops, window.admin_lane, tally)
                 if window.admin_lane else [])
    if not latencies_ms:
        raise RuntimeError(f"{workload}: no correct response in the window ({tally.describe()})")

    contig_id = {name: i for i, name in enumerate(contig_names)}
    precision, recall = check.quality(data.truth(), scored_reads, scored_answers, contig_id)
    n_answered = sum(len(lane.received) for lane, _ in window.map_lanes)
    metrics.update({
        "setup_s": min(setup_walls),  # the quickest: see run_oneshot
        "peak_rss_mb": servers[0].rss_mb,
        "precision": precision,
        "recall": recall,
        "failed_frac": tally.failed_frac,
        "netserve.server_cpu_s_per_kread": 1e3 * window.server_cpu_s / max(n_answered, 1),
        "netserve.tcp_p99_ms": loadgen.percentile(latencies_ms, 99),
        "netserve.tcp_max_ms": max(latencies_ms),
        "loadgen.cpu_frac": window.own_cpu_frac,
        "loadgen.inputs_s": data.seconds,
    })
    if kind == "sat":
        metrics["reads_per_s"] = statistics.median(loadgen.window_rates(
            good_times, t_open, ctx.window_s / SAT_WINDOWS, SAT_WINDOWS
        ))
    else:
        metrics["p50_ms"] = statistics.median(latencies_ms)
        metrics["p90_ms"] = loadgen.percentile(latencies_ms, 90)
    if kind == "churn":
        if not mutate_ms:
            raise RuntimeError(f"{workload}: no add_contigs answered ({tally.describe()})")
        metrics["mutate_ms"] = statistics.median(mutate_ms)
    if lateness_ms:
        metrics["loadgen.late_ms_p50"] = statistics.median(lateness_ms)
        metrics["loadgen.late_ms_p99"] = loadgen.percentile(lateness_ms, 99)
        if metrics["loadgen.late_ms_p50"] > spec.LATE_MS_P50_LIMIT:
            invalid.append(f"generator ran late: p50 {metrics['loadgen.late_ms_p50']:.2f} ms")
    if window.own_cpu_frac > spec.CPU_FRAC_LIMIT:
        invalid.append(f"generator used {window.own_cpu_frac:.0%} of its core")

    # the cache must be where the workload says it is (tier S is smaller
    # than the cache, so the smoke test's saturation pool does hit)
    hit_ratio = metrics["service.cache_hit_ratio"]
    if kind == "churn" and hit_ratio <= 0.1:
        problems.append(f"cache hit ratio {hit_ratio:.3f} <= 0.1 on the re-send workload")
    if kind != "churn" and hit_ratio > 0 and not (kind == "sat" and ctx.smoke):
        problems.append(f"cache hit ratio {hit_ratio:.4f} on a workload of unique reads")

    result = Result(workload, metrics, tally, problems, invalid, pinning=pin)
    _quality_gate(result)
    if ctx.traced and result.correct:
        _waterfall(ctx, result, data, built, ladder, work, replicas, placement)
    return result


RUNNERS = {
    "oneshot-L": run_oneshot,
    "serve-paced-M": lambda ctx: run_served(ctx, "paced"),
    "serve-sat-M": lambda ctx: run_served(ctx, "sat"),
    "serve-churn-M": lambda ctx: run_served(ctx, "churn"),
}
