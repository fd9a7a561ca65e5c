"""Process-kill chaos harness: real SIGKILLs, deterministic schedules.

:mod:`repro.parallel.faults` injects *in-band* compute faults — a work
unit raises, sleeps, or its worker exits.  This module injects the faults
that kill whole *runs*: the process is SIGKILLed mid-unit, checkpoint and
index files are torn or bit-flipped mid-write, leftover temporary files are
dropped.  Everything is driven by one seed, so a failing chaos cycle is
replayable exactly.

Determinism without races: instead of an external monitor trying to time
a kill, the victim kills **itself**.  The :class:`~.checkpoint.CheckpointLog`
honours two environment hooks — ``REPRO_CHAOS_KILL_AFTER=N`` (SIGKILL the
process right after its N-th durable log append) and ``REPRO_CHAOS_TORN=1``
(leave a half-written frame behind first).  A :class:`ChaosPlan` draws the
kill point and the post-mortem file damage from its seed;
:func:`run_kill_resume_cycle` executes one full cycle: run the victim
under the plan, confirm the SIGKILL, vandalise the run directory, resume,
and report what happened.  ``jem chaos`` wraps this in a parity check
against an uninterrupted run.

The *serve* flavour (:class:`ServeChaosPlan` + :func:`run_serve_chaos`,
``jem chaos serve``) tortures the network tier instead: replicas of a
supervised scatter fleet are killed and wedged mid-load while a client
streams reads, and the cycle passes only if every accepted read answers
byte-identically to an undisturbed reference, the supervisor restores
full scatter throughput, and no shm segment leaks.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from ..errors import ChaosError
from .checkpoint import (
    CHAOS_KILL_AFTER_ENV,
    CHAOS_TORN_ENV,
    LOG_NAME,
    CheckpointLog,
)

__all__ = [
    "DAMAGE_KINDS",
    "ChaosSpec",
    "ChaosPlan",
    "ChaosCycleResult",
    "apply_damage",
    "run_kill_resume_cycle",
    "read_tsv_body",
    "SERVE_CHAOS_KINDS",
    "ServeChaosEvent",
    "ServeChaosPlan",
    "ServeChaosReport",
    "run_serve_chaos",
]

#: Post-kill vandalism a plan may order on the run directory.
DAMAGE_KINDS = ("truncate_log", "corrupt_unit", "drop_tmp")


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos action.

    ``kill`` / ``torn_kill`` specs SIGKILL the victim after its
    ``after_records``-th checkpoint append (``torn_kill`` additionally
    leaves a half-written log frame).  Damage specs (:data:`DAMAGE_KINDS`)
    run *after* the kill, against the run directory the victim left
    behind.
    """

    kind: str
    after_records: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("kill", "torn_kill", *DAMAGE_KINDS):
            raise ChaosError(f"unknown chaos kind {self.kind!r}")
        if self.after_records < 1:
            raise ChaosError(f"after_records must be >= 1, got {self.after_records}")


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, replayable chaos schedule for one kill-resume cycle."""

    seed: int
    specs: tuple[ChaosSpec, ...]

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        total_units: int,
        max_damage: int = 2,
        torn_probability: float = 0.5,
    ) -> "ChaosPlan":
        """Draw a plan: one kill somewhere in the unit range, 0..n damage.

        ``total_units`` bounds the kill point (a checkpointed run appends
        one record per completed unit), so the SIGKILL lands at a real
        checkpoint boundary somewhere strictly inside the run.
        """
        if total_units < 1:
            raise ChaosError(f"total_units must be >= 1, got {total_units}")
        rng = np.random.default_rng(seed)
        kill_kind = "torn_kill" if rng.random() < torn_probability else "kill"
        specs = [
            ChaosSpec(kind=kill_kind, after_records=int(rng.integers(1, total_units + 1)))
        ]
        for _ in range(int(rng.integers(0, max_damage + 1))):
            specs.append(ChaosSpec(kind=str(rng.choice(DAMAGE_KINDS))))
        return cls(seed=seed, specs=tuple(specs))

    @property
    def kill(self) -> ChaosSpec | None:
        for spec in self.specs:
            if spec.kind in ("kill", "torn_kill"):
                return spec
        return None

    @property
    def damage(self) -> tuple[ChaosSpec, ...]:
        return tuple(s for s in self.specs if s.kind in DAMAGE_KINDS)

    def env(self) -> dict[str, str]:
        """Environment overlay arming the victim's self-kill hook."""
        kill = self.kill
        if kill is None:
            return {}
        overlay = {CHAOS_KILL_AFTER_ENV: str(kill.after_records)}
        if kill.kind == "torn_kill":
            overlay[CHAOS_TORN_ENV] = "1"
        return overlay


def apply_damage(run_dir: str, plan: ChaosPlan) -> list[str]:
    """Vandalise a (dead) run directory per the plan; returns what was done.

    Each action is deterministic in the plan seed: the same plan always
    truncates the same byte count and flips the same byte of the same
    unit payload.  Missing targets (no units yet, no tmp files) are
    recorded as skipped rather than failing the cycle — a kill at record
    1 simply leaves less to vandalise.
    """
    rng = np.random.default_rng((plan.seed, 0xDA_A6E))
    done: list[str] = []
    for spec in plan.damage:
        if spec.kind == "truncate_log":
            path = os.path.join(run_dir, LOG_NAME)
            try:
                size = os.path.getsize(path)
            except OSError:
                done.append("truncate_log: skipped (no log)")
                continue
            cut = int(rng.integers(1, 13))
            with open(path, "r+b") as fh:
                fh.truncate(max(size - cut, 0))
            done.append(f"truncate_log: -{cut} bytes")
        elif spec.kind == "corrupt_unit":
            units_dir = os.path.join(run_dir, "units")
            try:
                files = sorted(
                    f for f in os.listdir(units_dir) if f.endswith(".npz")
                )
            except OSError:
                files = []
            if not files:
                done.append("corrupt_unit: skipped (no units)")
                continue
            victim = os.path.join(units_dir, files[int(rng.integers(len(files)))])
            offset = int(rng.integers(os.path.getsize(victim)))
            with open(victim, "r+b") as fh:
                fh.seek(offset)
                byte = fh.read(1)
                fh.seek(offset)
                fh.write(bytes([byte[0] ^ 0xFF]))
            done.append(f"corrupt_unit: {os.path.basename(victim)} @ {offset}")
        elif spec.kind == "drop_tmp":
            dropped = 0
            for root, _dirs, files in os.walk(run_dir):
                for name in files:
                    if ".tmp." in name:
                        os.unlink(os.path.join(root, name))
                        dropped += 1
            done.append(f"drop_tmp: {dropped} file(s)")
    return done


@dataclass
class ChaosCycleResult:
    """What one kill → vandalise → resume cycle did."""

    plan: ChaosPlan
    killed: bool
    kill_returncode: int
    damage_applied: list[str] = field(default_factory=list)
    records_surviving: int = 0
    resume_returncode: int | None = None
    resume_stdout: str = ""
    resume_stderr: str = ""

    @property
    def resumed_ok(self) -> bool:
        return self.resume_returncode == 0


def run_kill_resume_cycle(
    argv: list[str],
    *,
    run_dir: str,
    plan: ChaosPlan,
    resume_argv: list[str] | None = None,
    timeout: float = 300.0,
) -> ChaosCycleResult:
    """Execute one chaos cycle against the ``jem`` CLI.

    ``argv`` is the CLI argument vector (without the interpreter) of a
    checkpointed run whose directory is ``run_dir``; it is launched with
    the plan's kill hook armed and must die by SIGKILL (a run that
    finishes first is reported with ``killed=False`` — the plan's kill
    point exceeded the run's unit count).  The run directory is then
    vandalised per the plan and ``resume_argv`` (default: ``argv`` again)
    is run to completion without chaos hooks.
    """
    base = [sys.executable, "-m", "repro.cli"]
    env = {**os.environ, **plan.env()}
    env.pop("PYTEST_CURRENT_TEST", None)
    victim = subprocess.run(
        base + argv, env=env, capture_output=True, text=True, timeout=timeout,
    )
    killed = victim.returncode == -signal.SIGKILL
    result = ChaosCycleResult(
        plan=plan, killed=killed, kill_returncode=victim.returncode
    )
    if not killed:
        if victim.returncode != 0:
            raise ChaosError(
                f"victim run failed for a non-chaos reason "
                f"(rc={victim.returncode}): {victim.stderr[-2000:]}"
            )
        # finished before the kill point: nothing to resume
        result.resume_returncode = 0
        result.resume_stdout = victim.stdout
        result.resume_stderr = victim.stderr
        return result
    result.damage_applied = apply_damage(run_dir, plan)
    result.records_surviving = len(
        CheckpointLog(os.path.join(run_dir, LOG_NAME)).replay()
    )
    clean_env = {
        k: v
        for k, v in os.environ.items()
        if k not in (CHAOS_KILL_AFTER_ENV, CHAOS_TORN_ENV)
    }
    resumed = subprocess.run(
        base + (resume_argv if resume_argv is not None else argv),
        env=clean_env, capture_output=True, text=True, timeout=timeout,
    )
    result.resume_returncode = resumed.returncode
    result.resume_stdout = resumed.stdout
    result.resume_stderr = resumed.stderr
    return result


def read_tsv_body(path: str) -> list[str]:
    """A mapping TSV's data lines (``#`` timing comments stripped).

    Two runs are *parity-equal* when these lists match exactly — the
    comment line carries wall-clock timings that legitimately differ.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if not line.startswith("#")]


# -- serve chaos: replica fleet torture under live load ----------------------

#: Mid-load faults a serve plan may order against the replica fleet.
SERVE_CHAOS_KINDS = ("kill", "wedge")


@dataclass(frozen=True)
class ServeChaosEvent:
    """One fleet fault, fired once ``after_mapped`` reads have answered.

    ``kill`` is the SIGKILL analogue for an in-process replica: the
    lookup lane dies with its queued futures unresolved and its service
    fails queued work.  ``wedge`` stalls the lane for ``wedge_s``
    seconds — alive but silent, the failure mode heartbeats exist for.
    """

    kind: str
    replica: int
    after_mapped: int
    wedge_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in SERVE_CHAOS_KINDS:
            raise ChaosError(f"unknown serve chaos kind {self.kind!r}")
        if self.replica < 0:
            raise ChaosError(f"replica must be >= 0, got {self.replica}")
        if self.after_mapped < 1:
            raise ChaosError(f"after_mapped must be >= 1, got {self.after_mapped}")


@dataclass(frozen=True)
class ServeChaosPlan:
    """A seeded, replayable fault schedule for one serve-chaos cycle."""

    seed: int
    events: tuple[ServeChaosEvent, ...]

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        n_replicas: int,
        total_reads: int,
        max_events: int = 2,
    ) -> "ServeChaosPlan":
        """Draw 1..max_events kills/wedges strictly inside the stream."""
        if n_replicas < 1:
            raise ChaosError(f"n_replicas must be >= 1, got {n_replicas}")
        if total_reads < 2:
            raise ChaosError(f"total_reads must be >= 2, got {total_reads}")
        rng = np.random.default_rng((seed, 0x5E12FE))
        events = [
            ServeChaosEvent(
                kind="kill" if rng.random() < 0.5 else "wedge",
                replica=int(rng.integers(n_replicas)),
                after_mapped=int(rng.integers(1, total_reads)),
            )
            for _ in range(int(rng.integers(1, max_events + 1)))
        ]
        events.sort(key=lambda e: e.after_mapped)
        return cls(seed=seed, events=tuple(events))


@dataclass
class ServeChaosReport:
    """What one serve-chaos cycle observed; ``ok`` is the gate CI trusts."""

    plan: ServeChaosPlan
    n_replicas: int
    reads_streamed: int
    responses: int
    dropped: int
    parity: bool
    events_fired: list[str] = field(default_factory=list)
    respawns: int = 0
    hedged: int = 0
    recovered: bool = False
    rescatter_ok: bool = False
    leaked_segments: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.parity
            and self.dropped == 0
            and self.recovered
            and self.rescatter_ok
            and not self.leaked_segments
        )

    def story(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        fired = "; ".join(self.events_fired) or "no events fired"
        return (
            f"{verdict} [{fired}] {self.responses}/{self.reads_streamed} "
            f"answered, dropped={self.dropped}, "
            f"parity={'exact' if self.parity else 'DRIFTED'}, "
            f"hedged={self.hedged}, respawns={self.respawns}, "
            f"recovered={self.recovered}, rescatter={self.rescatter_ok}, "
            f"leaks={len(self.leaked_segments)}"
        )


def _jem_shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("jem-")}
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        from ..parallel.shm import created_segment_names

        return set(created_segment_names())


def _stream_wire_lines(backend, reads, *, window: int = 4, timeout: float = 120.0):
    """Stream reads with a small pipeline window; return (wire lines, dropped).

    Responses are rendered through the protocol's single formatting path,
    so two backends agree exactly when their serving bytes agree.
    """
    import json
    from collections import deque

    from ..errors import ReproError
    from ..service.protocol import response_for_mapping

    lines: list[str] = []
    dropped = 0
    futures: deque = deque()

    def settle(entry) -> None:
        nonlocal dropped
        i, future = entry
        header = {"id": i, "name": reads.names[i]}
        try:
            mapping = future.result(timeout)
        except ReproError:
            dropped += 1
            return
        lines.append(json.dumps(response_for_mapping(header, mapping)))

    for i in range(len(reads)):
        futures.append((i, backend.submit(reads.names[i], reads.codes_of(i))))
        while len(futures) > window:
            settle(futures.popleft())
    while futures:
        settle(futures.popleft())
    return lines, dropped


def run_serve_chaos(
    contigs,
    reads,
    config,
    *,
    plan: ServeChaosPlan,
    n_replicas: int = 3,
    hedge_timeout_s: float = 0.25,
    service_config=None,
    supervision=None,
) -> ServeChaosReport:
    """One serve-chaos cycle: torture a supervised scatter fleet mid-load.

    Phases, all against one live :class:`~repro.netserve.ReplicaSet`:

    A. *Reference* — the same reads through an undisturbed single
       :class:`~repro.service.MappingService`, rendered to wire lines.
    B. *Storm* — stream the reads through the fleet while an injector
       thread fires the plan's kills/wedges once the answered-read count
       crosses each event's trigger; the running
       :class:`~repro.netserve.FleetSupervisor` detects, respawns, and
       re-admits behind the traffic.  Every accepted read must answer,
       byte-identical to the reference (hedged fallback is exact by
       construction).
    C. *Recovery* — wait until every member probes healthy, then
       re-stream: the scattered count must grow while inline fallbacks
       stay flat, proving full scatter throughput returned (no permanent
       inline serving), and the fleet must leave no shm segment behind.
    """
    import threading
    import time as _time

    from ..core.mapper import JEMMapper
    from ..netserve import (
        FleetSupervisor,
        ReplicaSet,
        SupervisorConfig,
        make_placement,
    )
    from ..service import MappingService, ServiceConfig

    if service_config is None:
        # result cache off: every read must exercise the scatter path the
        # chaos is aimed at, not the front door's content-key cache
        service_config = ServiceConfig(max_batch_size=8, cache_capacity=0)
    if supervision is None:
        supervision = SupervisorConfig(
            probe_interval_s=0.05, probe_deadline_s=0.1, suspect_strikes=2
        )

    # phase A: undisturbed reference bytes
    with MappingService.from_contigs(contigs, config, service_config) as ref_svc:
        reference, ref_dropped = _stream_wire_lines(ref_svc, reads)
    if ref_dropped:
        raise ChaosError(f"reference run dropped {ref_dropped} read(s)")

    mapper = JEMMapper(config)
    mapper.index(contigs)

    shm_before = _jem_shm_segments()
    replica_set = ReplicaSet(
        mapper.table, mapper.subject_names, config,
        placement=make_placement("scatter", n_replicas),
        service_config=service_config,
        hedge_timeout_s=hedge_timeout_s,
    )
    report = ServeChaosReport(
        plan=plan, n_replicas=n_replicas, reads_streamed=len(reads),
        responses=0, dropped=0, parity=False,
    )
    supervisor = FleetSupervisor(replica_set, supervision)
    stop_injector = threading.Event()

    def injector() -> None:
        pending = list(plan.events)
        front = replica_set._frontdoor.metrics
        while pending and not stop_injector.is_set():
            answered = front.responses_total.value
            while pending and answered >= pending[0].after_mapped:
                event = pending.pop(0)
                if event.kind == "kill":
                    replica_set.kill_replica(event.replica)
                else:
                    replica_set.wedge_replica(
                        event.replica, seconds=event.wedge_s
                    )
                report.events_fired.append(
                    f"{event.kind} replica {event.replica} "
                    f"after {event.after_mapped} mapped"
                )
            _time.sleep(0.002)

    try:
        supervisor.start()
        thread = threading.Thread(
            target=injector, name="jem-serve-chaos", daemon=True
        )
        thread.start()
        # phase B: the storm — stream through the fleet under fire
        lines, dropped = _stream_wire_lines(replica_set, reads)
        stop_injector.set()
        thread.join(10.0)
        report.responses = len(lines)
        report.dropped = dropped
        report.parity = lines == reference
        report.hedged = replica_set.scatter_stats.as_dict()["hedged"]
        # phase C: recovery — fleet healthy, scatter throughput restored
        report.recovered = supervisor.wait_healthy(timeout=60.0)
        before = replica_set.scatter_stats.as_dict()
        relines, redropped = _stream_wire_lines(replica_set, reads)
        after = replica_set.scatter_stats.as_dict()
        report.rescatter_ok = (
            relines == reference
            and redropped == 0
            and after["scattered"] > before["scattered"]
            and after["fallbacks"] == before["fallbacks"]
        )
        report.respawns = replica_set.respawns
    finally:
        stop_injector.set()
        replica_set.drain()
    report.leaked_segments = sorted(_jem_shm_segments() - shm_before)
    return report
