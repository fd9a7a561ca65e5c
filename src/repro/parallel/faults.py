"""Deterministic fault injection for the S1-S4 parallel pipeline.

Production mappers must survive partial failure; this module makes failure
a first-class, *testable* code path.  A :class:`FaultPlan` is a seeded,
fully deterministic description of which faults fire where:

* ``crash``        — the work unit raises :class:`~repro.errors.FaultError`;
* ``straggler``    — the work unit is delayed by ``delay`` seconds;
* ``worker_death`` — the worker *process* dies hard (``os._exit``) in the
  multiprocessing backend; equivalent to ``crash`` elsewhere.

Faults are **rank-scoped** by default: they fire when the work runs *on*
the targeted rank, so re-dispatching the block to a surviving rank
escapes them.  A ``unit_scoped`` fault instead follows the work unit
wherever it executes — a permanent unit-scoped fault is therefore
unrecoverable and exercises the graceful-degradation path.

The plan's firing state is internal and lock-protected (ranks consume
faults from worker threads); ``consume`` is the single mutation point, so
a given (plan seed, policy) pair always yields the same recovery story —
the fault-matrix tests rely on this to assert bit-identical output.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..errors import FaultError, ReproError

__all__ = [
    "FAULT_KINDS",
    "FAULT_PHASES",
    "FaultSpec",
    "FaultPlan",
    "PartialResult",
    "RecoveryReport",
    "inject_compute_faults",
]

FAULT_KINDS = ("crash", "straggler", "worker_death")
FAULT_PHASES = ("sketch", "map")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    phase:
        Pipeline phase the fault strikes (``sketch`` = S2, ``map`` = S4).
    block:
        Targeted work unit / rank index.
    times:
        Firings before the fault clears; ``None`` means it never clears
        (a *permanent* fault).
    delay:
        Straggler sleep in seconds (``straggler`` only).
    unit_scoped:
        Fault follows the work unit across re-dispatch instead of being
        pinned to the executing rank.
    """

    kind: str
    phase: str
    block: int
    times: int | None = 1
    delay: float = 0.05
    unit_scoped: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(f"unknown fault kind {self.kind!r}")
        if self.phase not in FAULT_PHASES:
            raise ReproError(f"unknown fault phase {self.phase!r}")
        if self.times is not None and self.times < 1:
            raise ReproError(f"times must be >= 1 or None, got {self.times}")

    @property
    def permanent(self) -> bool:
        return self.times is None


class FaultPlan:
    """A deterministic set of faults plus their (mutable) firing state."""

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = ()):
        self.specs = tuple(specs)
        self._remaining: list[int | None] = [s.times for s in self.specs]
        self._fired = [0] * len(self.specs)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({list(self.specs)!r})"

    @classmethod
    def seeded(
        cls,
        seed: int,
        p: int,
        *,
        n_faults: int = 3,
        kinds: tuple[str, ...] = ("crash", "straggler", "worker_death"),
        max_times: int = 2,
        delay: float = 0.01,
    ) -> "FaultPlan":
        """Draw a random recoverable fault plan from a seed (the property-test
        source).

        Every fault clears within ``max_times`` firings (keep ``max_times <
        RetryPolicy.max_attempts``), so recovery must reproduce the
        sequential mapping exactly.
        """
        rng = np.random.default_rng(seed)
        specs: list[FaultSpec] = []
        for _ in range(n_faults):
            specs.append(
                FaultSpec(
                    kind=str(rng.choice(list(kinds))),
                    phase=str(rng.choice(["sketch", "map"])),
                    block=int(rng.integers(0, p)),
                    times=int(rng.integers(1, max_times + 1)),
                    delay=delay,
                )
            )
        return cls(specs)

    @property
    def recoverable(self) -> bool:
        """Whether recovery can still yield the exact sequential mapping.

        Permanent rank-scoped faults are recoverable (re-dispatch escapes
        them); permanent unit-scoped faults are not.
        """
        return not any(s.permanent and s.unit_scoped for s in self.specs)

    @property
    def total_fired(self) -> int:
        with self._lock:
            return sum(self._fired)

    def consume(self, phase: str, *, block: int, exec_rank: int) -> list[FaultSpec]:
        """Fire (and use up) every fault matching this execution.

        ``block`` is the work-unit index, ``exec_rank`` the rank actually
        running it (``-1`` = "a fresh worker", which no rank-scoped fault
        matches — how the backends model re-dispatch to a survivor).
        """
        out: list[FaultSpec] = []
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.phase != phase:
                    continue
                target = block if spec.unit_scoped else exec_rank
                if spec.block != target:
                    continue
                if self._remaining[i] is None:
                    self._fired[i] += 1
                    out.append(spec)
                elif self._remaining[i] > 0:
                    self._remaining[i] -= 1
                    self._fired[i] += 1
                    out.append(spec)
        return out

    def reset(self) -> None:
        """Restore every fault's firing budget (for repeated runs)."""
        with self._lock:
            self._remaining = [s.times for s in self.specs]
            self._fired = [0] * len(self.specs)


def inject_compute_faults(
    plan: FaultPlan | None,
    phase: str,
    *,
    block: int,
    exec_rank: int,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Fire matching compute faults for real: sleep stragglers, raise crashes.

    Used where execution is genuinely concurrent (the scatter lanes of
    :mod:`repro.netserve.router`).
    """
    if plan is None:
        return
    for spec in plan.consume(phase, block=block, exec_rank=exec_rank):
        if spec.kind == "straggler":
            sleep(spec.delay)
        elif spec.kind in ("crash", "worker_death"):
            raise FaultError(
                f"injected {spec.kind}: {phase} block {block} on rank {exec_rank}"
            )


@dataclass(frozen=True)
class PartialResult:
    """What was lost when a run degraded instead of aborting.

    ``failed_reads`` names exactly the reads whose query blocks could not
    be mapped; ``causes`` maps each failed block index to a human-readable
    root cause.
    """

    failed_reads: tuple[str, ...]
    failed_blocks: tuple[int, ...]
    causes: dict[int, str] = field(default_factory=dict)

    @property
    def n_failed(self) -> int:
        return len(self.failed_reads)

    def describe(self) -> str:
        blocks = ", ".join(
            f"block {b}: {self.causes.get(b, 'unknown cause')}"
            for b in self.failed_blocks
        )
        return f"{self.n_failed} reads unmapped after recovery ({blocks})"


@dataclass
class RecoveryReport:
    """Mutable recovery accounting filled in by a resilient run.

    Pass an instance to :func:`~repro.parallel.mp_backend.map_reads_multiprocess`
    to observe what the recovery machinery did.
    """

    attempts: int = 0
    redispatches: int = 0
    recovery_seconds: float = 0.0
    partial: PartialResult | None = None
