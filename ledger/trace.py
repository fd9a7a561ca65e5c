"""The traced run: spans recorded from outside, around calls into each layer.

Nothing here touches ``src/`` — spans inside the program are a later
change (ROADMAP item 2).  A span is ``{name, start, end, parent,
request_id}``, kept in memory and written to ``spans.jsonl`` when the
run ends; a layer's self time is its duration minus the part its child
spans cover.

Two traces, both on the workload's own inputs:

* the **stage replay** walks the one-shot path stage by stage through
  the layers' public functions and must add up to an un-staged
  ``JEMMapper.map_reads`` / ``.index`` call on the same inputs;
* the **door ladder** sends the same reads, one outstanding at a time,
  through four doors — mapper, ``MappingService``, ``ReplicaSet``, TCP —
  and reports each door's p50 and the successive differences.

End-to-end numbers are never taken from a traced run.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time

import numpy as np

from ledger import inputs as inputs_mod
from ledger import loadgen, procs

from repro.core.engine import MappingEngine
from repro.core.hitcounter import count_hits_fused, count_hits_vectorised
from repro.core.lsm import MutableSketchStore
from repro.core.mapper import JEMMapper, MappingResult, map_segment_batch
from repro.core.persist import load_index, save_index
from repro.core.segments import extract_end_segments
from repro.core.store import build_store
from repro.netserve import ReplicaSet, make_placement
from repro.parallel.mp_backend import map_reads_multiprocess
from repro.seq.encode import encode
from repro.seq.io_fasta import read_fasta
from repro.seq.records import SequenceSet
from repro.service import MappingService, ServiceConfig, read_content_key
from repro.service.protocol import response_for_mapping
from repro.sketch import _native
from repro.sketch.jem import query_kernel, query_minimizer_concat, subject_sketch_pairs

#: decoy contigs in the mutable-index probe
PROBE_DECOYS = 16
#: reads used for the worker-process legs (each leg re-sketches every contig)
PARALLEL_READS = 400
#: how far the staged sum may sit from the un-staged call before the
#: waterfall is flagged as not adding up
STAGE_SUM_TOLERANCE = 0.05


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request_id=None) -> int:
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "request_id": request_id})
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, request_id=None):
        """Time the body; yields the span's id so children can point at it."""
        index = self.add(name, time.perf_counter(), float("nan"), parent, request_id)
        try:
            yield index
        finally:
            self.spans[index]["end"] = time.perf_counter()

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span["end"] - span["start"]

    def self_time(self, index: int) -> float:
        """Duration minus the part of the interval child spans cover."""
        parent = self.spans[index]
        children = sorted(
            (max(s["start"], parent["start"]), min(s["end"], parent["end"]))
            for s in self.spans if s["parent"] == index
        )
        covered = 0.0
        cursor = parent["start"]
        for start, end in children:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return (parent["end"] - parent["start"]) - covered

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}) + "\n")


def _per(total_s: float, n: int, scale: float = 1e6) -> float:
    return scale * total_s / max(n, 1)


# -- door 4: against the real server -------------------------------------------------


def tcp_door(tracer: Tracer, sock, server: procs.Server,
             reads: SequenceSet) -> dict[str, float]:
    """Door 4: closed loop, one outstanding, over the live server's socket."""
    samples_ms: list[float] = []
    cpu0 = server.cpu_seconds()
    with tracer.span("netserve.tcp_door") as root:
        for i in range(len(reads)):
            line = loadgen.map_line(10_000_000 + i, reads.names[i], reads[i].sequence)
            with tracer.span("netserve.tcp_request", root, request_id=i) as span:
                reply = loadgen.ask(sock, line)
            if "results" not in reply:
                raise RuntimeError(f"door ladder: TCP door refused a read: {reply}")
            samples_ms.append(1e3 * tracer.duration(span))
    cpu = server.cpu_seconds() - cpu0
    return {
        "netserve.tcp_door_ms_p50": statistics.median(samples_ms),
        # a served workload overwrites these three with its own window's
        "netserve.tcp_p99_ms": loadgen.percentile(samples_ms, 99),
        "netserve.tcp_max_ms": max(samples_ms),
        "netserve.server_cpu_s_per_kread": 1e3 * cpu / len(reads),
    }


# -- everything taken in-process --------------------------------------------------


def _write_tsv(path: str, result: MappingResult, names: list[str]) -> None:
    """The body ``jem map`` writes (cli._cmd_map), without its timing header."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("segment\tcontig\thits\n")
        for i in range(len(result)):
            sid = int(result.subject[i])
            label = names[sid] if sid >= 0 else "*"
            out.write(f"{result.segment_names[i]}\t{label}\t{int(result.hit_count[i])}\n")


#: a staged pass and an un-staged call are paired this many times, taking
#: turns to go first.  A pass lasts 0.2-1 s, so one scheduler hiccup is a
#: tenth of it: over 60 map pairs on this host the median ratio of any 7 in
#: a row strayed 7 % from 1, of any 15 in a row 3 %.
REPLAY_REPEATS = 15


def _staged_total(tracer: Tracer, spans: dict[str, int], keys: tuple[str, ...]) -> float:
    return sum(tracer.duration(spans[k]) for k in keys)


def _sum_ratio(tracer: Tracer, staged: list[dict[str, int]], whole: list[int],
               keys: tuple[str, ...]) -> float:
    """Median over the repeats of staged sum / the un-staged call next to it.

    A pass and the call right after it see the same host speed, which two
    picked from different repeats need not.
    """
    return statistics.median(
        _staged_total(tracer, s, keys) / tracer.duration(w) for s, w in zip(staged, whole)
    )


def _quietest(tracer: Tracer, staged: list[dict[str, int]],
              keys: tuple[str, ...]) -> dict[str, int]:
    """The repeat the stage metrics are read from (all stay in spans.jsonl)."""
    return min(staged, key=lambda spans: _staged_total(tracer, spans, keys))


def _replay_map(tracer: Tracer, data, mapper: JEMMapper, work: str) -> dict[str, float]:
    cfg, family = mapper.config, mapper.config.hash_family()
    stages = ("segments", "minimizers", "hits", "result")
    staged_runs: list[dict[str, int]] = []
    whole_runs: list[int] = []

    def staged():
        s: dict[str, int] = {}
        with tracer.span("replay.map") as root:
            with tracer.span("seq.read_fasta", root) as s["parse"]:
                reads = read_fasta(data.reads_path)
            with tracer.span("seq.extract_end_segments", root) as s["segments"]:
                segments, infos = extract_end_segments(reads, cfg.ell)
            with tracer.span("sketch.query_minimizer_concat", root) as s["minimizers"]:
                has, nonempty, values, starts = query_minimizer_concat(segments, cfg.k, cfg.w)
            with tracer.span("core.count_hits", root) as s["hits"]:
                hits = count_hits_fused(
                    mapper.table, values, starts, family,
                    min_hits=cfg.min_hits, n_queries=len(segments), nonempty=nonempty,
                )
                fused = hits is not None
                if not fused:
                    sketch = np.zeros((family.size, len(segments)), dtype=np.uint64)
                    sketch[:, nonempty] = query_kernel(values, starts, family)
                    hits = count_hits_vectorised(
                        mapper.table, sketch, min_hits=cfg.min_hits, query_mask=has
                    )
            with tracer.span("core.from_best_hits", root) as s["result"]:
                result = MappingResult.from_best_hits(segments.names, hits, infos)
            with tracer.span("core.tsv_write", root) as s["tsv"]:
                _write_tsv(os.path.join(work, "replay.tsv"), result, mapper.subject_names)
        staged_runs.append(s)
        return reads, has, nonempty, values, starts, fused, result

    def whole():
        # parsed afresh like the staged pass: reads straight out of the parser
        # map 2-4 % quicker than the same reads held since the run began
        reads = read_fasta(data.reads_path)
        with tracer.span("unstaged.map_reads") as span:
            mapped = mapper.map_reads(reads)
        whole_runs.append(span)
        return mapped

    for repeat in range(REPLAY_REPEATS):
        if repeat % 2:
            mapped = whole()
            reads, has, nonempty, values, starts, fused, result = staged()
        else:
            reads, has, nonempty, values, starts, fused, result = staged()
            mapped = whole()
        if not (np.array_equal(mapped.subject, result.subject)
                and np.array_equal(mapped.hit_count, result.hit_count)):
            raise RuntimeError("stage replay disagrees with JEMMapper.map_reads")
    ratio = _sum_ratio(tracer, staged_runs, whole_runs, stages)
    s = _quietest(tracer, staged_runs, stages)
    n_seg = 2 * len(reads)
    out = {
        "seq.fasta_parse_mb_per_s":
            os.path.getsize(data.reads_path) / 1e6 / tracer.duration(s["parse"]),
        "seq.segments_us_per_read": _per(tracer.duration(s["segments"]), len(reads)),
        "sketch.minimizers_us_per_segment": _per(tracer.duration(s["minimizers"]), n_seg),
        "sketch.minimizers_per_segment": values.size / max(n_seg, 1),
        "sketch.distinct_minimizer_ratio": np.unique(values).size / max(values.size, 1),
        "sketch.native_loaded": float(fused),
        "core.result_us_per_segment": _per(tracer.duration(s["result"]), n_seg),
        "core.tsv_write_us_per_segment": _per(tracer.duration(s["tsv"]), n_seg),
        "core.mapped_frac": result.mapped_fraction,
        "core.map_stage_sum_ratio": ratio,
    }

    # both hit counters on the same pre-extracted block, whichever path ran
    with tracer.span("sketch.query_kernel") as s_kernel:
        sketch = np.zeros((family.size, n_seg), dtype=np.uint64)
        sketch[:, nonempty] = query_kernel(values, starts, family)
    with tracer.span("core.count_hits_vectorised") as s_vec:
        count_hits_vectorised(mapper.table, sketch, min_hits=cfg.min_hits, query_mask=has)
    out["sketch.query_kernel_us_per_segment"] = _per(tracer.duration(s_kernel), n_seg)
    out["core.vectorised_us_per_segment"] = _per(tracer.duration(s_vec), n_seg)
    if fused:
        out["core.fused_us_per_segment"] = _per(tracer.duration(s["hits"]), n_seg)
    else:  # no compiler on this host: time the call that declined
        with tracer.span("core.count_hits_fused") as s_fused:
            count_hits_fused(mapper.table, values, starts, family, min_hits=cfg.min_hits)
        out["core.fused_us_per_segment"] = _per(tracer.duration(s_fused), n_seg)
    return out


def _replay_index(tracer: Tracer, data, mapper: JEMMapper, work: str) -> dict[str, float]:
    cfg, family = mapper.config, mapper.config.hash_family()
    contigs = data.contigs
    stages = ("sketch", "build")
    staged_runs: list[dict[str, int]] = []
    whole_runs: list[int] = []

    def staged():
        s: dict[str, int] = {}
        with tracer.span("replay.index") as root:
            with tracer.span("sketch.subject_sketch_pairs", root) as s["sketch"]:
                keys = subject_sketch_pairs(contigs, cfg.k, cfg.w, cfg.ell, family)
            with tracer.span("core.build_store", root) as s["build"]:
                store = build_store(mapper.store_kind, keys, n_subjects=len(contigs))
            staged_mapper = JEMMapper(cfg, store_kind=mapper.store_kind)
            staged_mapper.adopt_store(store, contigs.names)
            with tracer.span("core.save_index", root) as s["save"]:
                path = save_index(staged_mapper, os.path.join(work, "replay.idx.npz"))
            with tracer.span("core.load_index", root) as s["load"]:
                load_index(path)
        staged_runs.append(s)
        return store, path

    def whole() -> None:
        with tracer.span("unstaged.index") as span:
            JEMMapper(cfg, store_kind=mapper.store_kind).index(contigs)
        whole_runs.append(span)

    for repeat in range(REPLAY_REPEATS):
        if repeat % 2:
            whole()
            store, path = staged()
        else:
            store, path = staged()
            whole()
    ratio = _sum_ratio(tracer, staged_runs, whole_runs, stages)
    s = _quietest(tracer, staged_runs, stages)
    return {
        "sketch.subject_sketch_s": tracer.duration(s["sketch"]),
        "sketch.subject_mbp_per_s": contigs.total_bases / 1e6 / tracer.duration(s["sketch"]),
        "core.store_build_s": tracer.duration(s["build"]),
        "core.store_entries": float(store.total_entries),
        "core.store_mb": store.nbytes / 1e6,
        "core.persist_save_s": tracer.duration(s["save"]),
        "core.persist_load_s": tracer.duration(s["load"]),
        "core.index_file_mb": os.path.getsize(path) / 1e6,
        "core.index_stage_sum_ratio": ratio,
    }


def _doors(tracer: Tracer, mapper: JEMMapper, index_path: str, reads: SequenceSet,
           replicas: int, placement: str) -> dict[str, float]:
    """Doors 1-3 of the ladder plus the per-request costs around them."""
    n = len(reads)
    strings = [reads[i].sequence for i in range(n)]
    lines = [loadgen.map_line(i, reads.names[i], strings[i]) for i in range(n)]
    out: dict[str, float] = {}

    with tracer.span("service.json_loads") as span:
        messages = [json.loads(line) for line in lines]
    out["service.request_json_us_per_read"] = _per(tracer.duration(span), n)
    with tracer.span("seq.encode") as span:
        codes = [encode(message["seq"]) for message in messages]
    out["seq.encode_us_per_read"] = _per(tracer.duration(span), n)
    ell = mapper.config.ell
    with tracer.span("service.read_content_key") as span:
        for c in codes:
            read_content_key(c[: min(ell, c.size)], c[max(0, c.size - ell):])
    out["service.content_key_us_per_read"] = _per(tracer.duration(span), n)

    # doors 1-3, read by read: each read goes through every door before the
    # next one starts, so the doors are compared at the same host speed
    door_ms: dict[str, list[float]] = {"core": [], "service": [], "replica": []}
    submit_s = 0.0
    mappings = []
    engine = MappingEngine.from_index(index_path)
    with MappingService(mapper, ServiceConfig()) as service, ReplicaSet.from_engine(
        engine, make_placement(placement, replicas), ServiceConfig()
    ) as replica_set:
        for i in range(n):
            with tracer.span("core.door", request_id=i) as span:
                mapper.map_reads(reads.slice(i, i + 1))
            door_ms["core"].append(1e3 * tracer.duration(span))
            with tracer.span("service.door", request_id=i) as span:
                with tracer.span("service.submit", span, request_id=i) as inner:
                    future = service.submit(reads.names[i], strings[i])
                mappings.append(future.result(timeout=60))
            submit_s += tracer.duration(inner)
            door_ms["service"].append(1e3 * tracer.duration(span))
            with tracer.span("netserve.replica_door", request_id=i) as span:
                replica_set.submit(reads.names[i], strings[i]).result(timeout=60)
            door_ms["replica"].append(1e3 * tracer.duration(span))
    out["service.submit_us_per_read"] = _per(submit_s, n)
    with tracer.span("service.response_json") as span:
        for i, mapping in enumerate(mappings):
            json.dumps(response_for_mapping({"id": i, "name": reads.names[i]}, mapping))
    out["service.response_json_us_per_read"] = _per(tracer.duration(span), n)

    out["core.door_ms_p50"] = statistics.median(door_ms["core"])
    out["service.door_ms_p50"] = statistics.median(door_ms["service"])
    out["netserve.replica_door_ms_p50"] = statistics.median(door_ms["replica"])
    return out


def _lsm(tracer: Tracer, mapper: JEMMapper, reads: SequenceSet, seed: int) -> dict[str, float]:
    """Mutable-index operations on an in-memory copy of the index."""
    cfg = mapper.config
    family = cfg.hash_family()
    segments, _ = extract_end_segments(reads, cfg.ell)
    handle = MutableSketchStore.in_memory(
        cfg, base_store=mapper.table, subject_names=mapper.subject_names
    )
    with handle:
        with tracer.span("core.lsm.map_clean") as s_clean:
            map_segment_batch(handle.current, segments, cfg, family)
        names, seqs = inputs_mod.decoy_contigs(seed, 8_000, PROBE_DECOYS)
        decoys = SequenceSet.from_strings(zip(names, seqs))
        with tracer.span("core.lsm.add_contigs") as s_add:
            handle.add_contigs(decoys)
        with tracer.span("core.lsm.remove_contigs") as s_remove:
            handle.remove_contigs(names[: PROBE_DECOYS // 2])
        with tracer.span("core.lsm.map_dirty") as s_dirty:
            map_segment_batch(handle.current, segments, cfg, family)
        with tracer.span("core.lsm.flush") as s_flush:
            handle.flush()
        with tracer.span("core.lsm.compact") as s_compact:
            handle.compact()
    return {
        "core.lsm_add_ms_per_contig": _per(tracer.duration(s_add), PROBE_DECOYS, 1e3),
        "core.lsm_remove_ms": 1e3 * tracer.duration(s_remove),
        "core.lsm_flush_ms": 1e3 * tracer.duration(s_flush),
        "core.lsm_compact_ms": 1e3 * tracer.duration(s_compact),
        "core.lsm_dirty_ratio": tracer.duration(s_dirty) / tracer.duration(s_clean),
    }


def _parallel(tracer: Tracer, data, mapper: JEMMapper, work: str) -> dict[str, float]:
    cfg = mapper.config
    reads = data.reads.slice(0, min(PARALLEL_READS, len(data.reads)))
    with tracer.span("parallel.inline") as s_inline:
        inline = JEMMapper(cfg)
        inline.index(data.contigs)
        inline.map_reads(reads)
    with tracer.span("parallel.p1") as s_p1:
        map_reads_multiprocess(data.contigs, reads, cfg, processes=1)
    with tracer.span("parallel.p2") as s_p2:
        map_reads_multiprocess(data.contigs, reads, cfg, processes=2)
    out = {
        "parallel.p2_speedup": tracer.duration(s_p1) / tracer.duration(s_p2),
        "parallel.p1_overhead_ratio": tracer.duration(s_p1) / tracer.duration(s_inline),
    }
    startups = [
        procs.run_cli(["--version"], os.path.join(work, "trace-cli.log")).wall_s
        for _ in range(3)
    ]
    out["cli.startup_s"] = statistics.median(startups)
    return out


def waterfall(tracer: Tracer, data, index_path: str, ladder_reads: SequenceSet,
              work: str, *, replicas: int, placement: str,
              tcp_door_ms: float) -> dict[str, float]:
    """Stage replay + doors 1-3 + layer costs, in this process.

    ``tcp_door_ms`` is door 4's p50, taken earlier against the live server.
    """
    _native.load()  # compile/load outside any span
    mapper = load_index(index_path)
    mapper.map_reads(ladder_reads.slice(0, 1))  # first-call costs stay out of the spans
    out: dict[str, float] = {}
    out.update(_replay_map(tracer, data, mapper, work))
    out.update(_replay_index(tracer, data, mapper, work))
    out.update(_doors(tracer, mapper, index_path, ladder_reads, replicas, placement))
    out.update(_lsm(tracer, mapper, ladder_reads, data.seed))
    out.update(_parallel(tracer, data, mapper, work))
    # each door's own cost: its p50 minus the p50 of the door inside it
    out["service.self_ms_p50"] = out["service.door_ms_p50"] - out["core.door_ms_p50"]
    out["netserve.replica_self_ms_p50"] = (
        out["netserve.replica_door_ms_p50"] - out["service.door_ms_p50"]
    )
    out["netserve.frontend_self_ms_p50"] = (
        tcp_door_ms - out["netserve.replica_door_ms_p50"]
    )
    return out


def problems(metrics: dict[str, float]) -> list[str]:
    """Why a traced run cannot be trusted as a waterfall, if it cannot."""
    found = []
    for name in ("core.map_stage_sum_ratio", "core.index_stage_sum_ratio"):
        if abs(metrics[name] - 1.0) > STAGE_SUM_TOLERANCE:
            found.append(f"{name} = {metrics[name]:.3f}: the stages do not add up "
                         f"to the un-staged call within {STAGE_SUM_TOLERANCE:.0%}")
    ladder = ("core.door_ms_p50", "service.door_ms_p50",
              "netserve.replica_door_ms_p50", "netserve.tcp_door_ms_p50")
    for inner, outer in zip(ladder, ladder[1:]):
        if metrics[outer] < metrics[inner]:
            found.append(f"door ladder not monotone: {outer} {metrics[outer]:.3f} ms "
                         f"< {inner} {metrics[inner]:.3f} ms")
    return found
