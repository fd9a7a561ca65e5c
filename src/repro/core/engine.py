"""One engine, five frontends — the build-index / map-queries lifecycle.

One typed :class:`PipelineConfig` (algorithm constants + mapper choice +
execution backend), a :class:`Mapper` protocol with a registry (``jem``,
``minhash``, ``mashmap``, ``minimap-lite``), and a :class:`MappingEngine`
that owns the lifecycle:

* :meth:`MappingEngine.use_subjects` / :meth:`MappingEngine.use_index`
  declare where the index comes from (sequences or a persisted bundle);
* :meth:`MappingEngine.map_file` is the loop ``jem map`` runs: a read file
  mapped batch by batch as it is parsed (a whole-set mode is its
  one-batch case), each batch a unit of a checkpointed run;
* :meth:`MappingEngine.map_queries` runs one resident batch through the
  configured execution mode — inline, instrumented SPMD simulation, or,
  for fault-injected runs, worker processes — and returns an
  :class:`EngineRun` carrying the mapping plus timing/fault telemetry;
* :meth:`MappingEngine.service` exposes the resident frontend over the same
  mapper instance.

The engine never changes *what* is computed — for any config, every
execution mode yields the sequential mapper's output bit for bit (the
cross-frontend parity suite pins this down against the dict-store oracle).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Protocol, runtime_checkable

from ..errors import MappingError
from ..seq.io_fasta import ParseReport
from ..seq.records import SequenceSet, SequenceSetBuilder
from .config import JEMConfig
from .mapper import JEMMapper, MappingResult
from .streaming import iter_batches, iter_records, map_file, unit_bases

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.costmodel import StepTimes
    from ..parallel.faults import FaultPlan, PartialResult, RecoveryReport
    from ..resilience.checkpoint import CheckpointContext
    from ..service.config import ServiceConfig
    from ..service.service import MappingService

__all__ = [
    "PipelineConfig",
    "Mapper",
    "MAPPER_KINDS",
    "build_mapper",
    "MappingEngine",
    "EngineRun",
    "RunTelemetry",
    "native_summary",
    "read_sequences",
]

#: The :class:`JEMConfig` fields the CLI's sketch flags set (``--k`` …
#: ``--seed``); a flag left unset keeps the field's default.
SKETCH_FLAGS = ("k", "w", "ell", "trials", "seed")

#: Execution backends for ``processes > 1`` (jem only).
BACKENDS = ("simulated", "process")


@runtime_checkable
class Mapper(Protocol):
    """What every registered mapper provides.

    ``index(subjects)`` builds the resident index; ``map_reads(reads)``
    extracts end segments and maps them; ``map_segments`` maps
    pre-extracted segments.  ``subject_names`` labels the subject ids in
    the returned :class:`~repro.core.mapper.MappingResult`.
    """

    def index(self, subjects: SequenceSet) -> Any: ...

    def map_reads(self, reads: SequenceSet) -> MappingResult: ...

    def map_segments(
        self, segments: SequenceSet, infos: list | None = None
    ) -> MappingResult: ...

    @property
    def subject_names(self) -> list[str]: ...


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to assemble a mapping pipeline, in one place.

    The CLI's argparse namespace, the service's startup wiring and direct
    API use all collapse into this object; :meth:`from_args` is the single
    argparse adapter that used to be duplicated per subcommand.
    """

    jem: JEMConfig = field(default_factory=JEMConfig)
    mapper: str = "jem"
    processes: int = 1
    backend: str = "simulated"
    strict: bool = True
    timeout: float = 60.0
    on_error: str = "raise"
    inject_faults: int | None = None
    #: run directory for durable checkpoint/resume (jem only); None = off.
    #: Excluded from the manifest's config identity — the same logical run
    #: may live in different directories.
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise MappingError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.processes < 1:
            raise MappingError(f"processes must be >= 1, got {self.processes}")

    @classmethod
    def from_args(cls, args: Any) -> "PipelineConfig":
        """Adapter from an argparse namespace (map/serve/client flags)."""
        jem = JEMConfig(**{
            name: getattr(args, name) for name in SKETCH_FLAGS
            if getattr(args, name, None) is not None
        })
        return cls(
            jem=jem,
            mapper=getattr(args, "mapper", "jem"),
            processes=getattr(args, "processes", 1),
            backend=getattr(args, "backend", "simulated"),
            strict=getattr(args, "strict", True),
            timeout=getattr(args, "timeout", 60.0),
            on_error=getattr(args, "on_error", "raise"),
            inject_faults=getattr(args, "inject_faults", None),
            checkpoint_dir=getattr(args, "checkpoint_dir", None),
        )

    def fault_plan(self) -> "FaultPlan | None":
        """The seeded fault plan of ``inject_faults`` (None when unset)."""
        if self.inject_faults is None:
            return None
        from ..parallel.faults import FaultPlan

        return FaultPlan.seeded(self.inject_faults, max(self.processes, 1))

    @property
    def kernel_threads(self) -> int | None:
        """Threads ``-p N --backend process`` asks of the native kernels
        (None: their own :func:`~repro.sketch._native.thread_count`)."""
        if self.backend == "process" and self.processes > 1:
            return self.processes
        return None


# -- mapper registry ---------------------------------------------------------


def _make_jem(pipeline: PipelineConfig) -> Mapper:
    return JEMMapper(pipeline.jem, threads=pipeline.kernel_threads)


def _make_minhash(pipeline: PipelineConfig) -> Mapper:
    from ..baselines.classical_minhash import ClassicalMinHashMapper

    return ClassicalMinHashMapper(pipeline.jem)


def _make_mashmap(pipeline: PipelineConfig) -> Mapper:
    from ..baselines.mashmap import MashmapConfig, MashmapLikeMapper

    return MashmapLikeMapper(
        MashmapConfig(k=pipeline.jem.k, ell=pipeline.jem.ell)
    )


def _make_minimap_lite(pipeline: PipelineConfig) -> Mapper:
    from ..baselines.minimap_lite import MinimapLiteMapper

    return MinimapLiteMapper(ell=pipeline.jem.ell)


_REGISTRY: dict[str, Callable[[PipelineConfig], Mapper]] = {
    "jem": _make_jem,
    "minhash": _make_minhash,
    "mashmap": _make_mashmap,
    "minimap-lite": _make_minimap_lite,
}

#: Mapper names the registry resolves (CLI ``--mapper`` choices).
MAPPER_KINDS = tuple(_REGISTRY)


def build_mapper(pipeline: PipelineConfig) -> Mapper:
    """Instantiate the pipeline's mapper from the registry (unindexed)."""
    try:
        factory = _REGISTRY[pipeline.mapper]
    except KeyError:
        raise MappingError(
            f"unknown mapper {pipeline.mapper!r}; "
            f"registered: {tuple(_REGISTRY)}"
        ) from None
    return factory(pipeline)


# -- input loading -----------------------------------------------------------


def _warn_skipped(report: ParseReport, path: str) -> None:
    if report.skipped:
        print(
            f"warning: skipped {report.skipped} malformed record(s) in {path}",
            file=sys.stderr,
        )


def read_sequences(path: str, *, on_error: str = "raise") -> SequenceSet:
    """Load a whole FASTA or FASTQ file (by extension), with the shared
    skip-warning: what `client`/`scaffold`/`chaos` and `map`'s whole-set modes use."""
    report = ParseReport()
    builder = SequenceSetBuilder()
    for rec in iter_records(path, on_error=on_error, report=report):
        builder.add(rec.name, rec.codes, rec.meta)
    _warn_skipped(report, path)
    return builder.build()


# -- the engine --------------------------------------------------------------


def native_summary(threads: int | None = None) -> str:
    """One token describing the native-kernel state, for TSV headers.

    ``native=fused,threads=N`` when the compiled fast path is loaded (N
    being ``threads``, or the kernel's default when None),
    ``native=off(<reason>)`` otherwise — the reason being the kill switch
    or the recorded compile failure, so a pasted header is enough to tell
    which backend produced a run and why.
    """
    from ..sketch import _native

    info = _native.availability()
    if info["available"]:
        return f"native=fused,threads={threads or info['threads']}"
    reason = info["error"] or "unavailable"
    return f"native=off({reason.splitlines()[0][:60]})"


#: :attr:`RunTelemetry.mode` values that map in this process, on the resident mapper.
_INLINE_MODES = ("inline", "saved-index")

#: How TSV comment lines spell each mode.
_LABELS = {
    "inline": "{mapper}",
    "saved-index": "jem (saved index)",
    "simulated": "parallel p={processes}",
    "process": "process backend p={processes}",
}


@dataclass(kw_only=True)
class RunTelemetry:
    """What a finished run reports, mapping aside.

    ``mode`` names the execution path taken (``inline``, ``saved-index``,
    ``simulated``, ``process``) and ``label`` is how TSV comment lines
    spell it; ``steps`` carries the simulation's modelled S1–S4 breakdown
    and ``report`` the worker-process backend's recovery accounting (each
    ``None`` on the other paths).
    """

    mode: str
    elapsed: float
    label: str = "jem"
    partial: "PartialResult | None" = None
    steps: "StepTimes | None" = None
    report: "RecoveryReport | None" = None

    def timing_line(self) -> str:
        """The ``#``-comment timing summary the CLI writes below the TSV."""
        if self.steps is not None:
            line = (
                f"# {self.label}: modelled time {self.steps.total_time:.3f}s, "
                f"comm {100 * self.steps.comm_fraction:.1f}%"
            )
            if self.steps.recovery_time > 0:
                line += f", recovery {self.steps.recovery_time:.3f}s"
            return line
        line = f"# {self.label}: {self.elapsed:.3f}s wall"
        if self.report is not None and self.report.faults_encountered:
            line += (
                f", recovery {self.report.recovery_seconds:.3f}s "
                f"({self.report.redispatches} re-dispatches)"
            )
        return line


@dataclass(kw_only=True)
class EngineRun(RunTelemetry):
    """One :meth:`MappingEngine.map_queries` batch: the mapping and its telemetry."""

    mapping: MappingResult


class MappingEngine:
    """Owns a mapper's lifecycle: source -> index -> map, on any backend.

    One engine instance wraps one mapper and one resident index; every
    frontend (one-shot batch, stream, resident service) maps
    through the same object, so the mapper choice is decided exactly
    once, in the :class:`PipelineConfig`.
    """

    def __init__(self, pipeline: PipelineConfig | None = None) -> None:
        self.pipeline = pipeline if pipeline is not None else PipelineConfig()
        self._mapper: Mapper | None = None
        self._subjects: SequenceSet | None = None
        #: where :meth:`load_subjects` said the contigs are; read only when needed
        self._subjects_path: str | None = None
        self._from_saved_index = False
        self._index_path: str | None = None
        #: telemetry of the last :meth:`map_file` run, set once it is exhausted
        self.last_run: RunTelemetry | None = None
        #: the run directory a checkpointed run commits the index build's
        #: blocks and :meth:`map_file`'s batches to, as
        #: :func:`~repro.resilience.runner.checkpointed` sets it
        self.checkpoint: CheckpointContext | None = None

    # -- source selection ---------------------------------------------------

    def use_subjects(self, subjects: SequenceSet) -> "MappingEngine":
        """Index will be built from these contig sequences (lazily)."""
        return self._use_source(subjects, None)

    def load_subjects(self, path: str) -> "MappingEngine":
        """Use a contigs FASTA as the subject source, without reading it yet.

        The jem index is built from the file block by block
        (:meth:`~repro.core.mapper.JEMMapper.index_partitioned`), so the
        contig set is never resident; :attr:`subjects` reads it whole for
        the callers that need the sequences themselves.
        """
        return self._use_source(None, path)

    def _use_source(self, subjects: SequenceSet | None, path: str | None) -> "MappingEngine":
        self._subjects, self._subjects_path = subjects, path
        self._mapper = None
        self._from_saved_index = False
        return self

    def use_index(self, path: str) -> "MappingEngine":
        """Use a persisted index (jem only; config comes from disk).

        ``path`` may be a v3 single-file bundle or a format-v4 mutable
        index *directory* (manifest + segments + WAL, see
        :mod:`repro.core.lsm`); directories replay their WAL suffix on
        load, so the mapper sees every durably applied mutation.
        """
        if self.pipeline.mapper != "jem":
            raise MappingError(
                f"saved indexes are jem-only; pipeline requests {self.pipeline.mapper!r}"
            )
        from .persist import load_index

        mapper = load_index(path)
        mapper.threads = self.pipeline.kernel_threads
        self._use_source(None, None)
        self._mapper = mapper
        self._from_saved_index = True
        self._index_path = path
        return self

    @classmethod
    def from_index(
        cls, path: str, pipeline: PipelineConfig | None = None
    ) -> "MappingEngine":
        return cls(pipeline).use_index(path)

    # -- mapper access ------------------------------------------------------

    @property
    def mapper(self) -> Mapper:
        """The engine's mapper, built and indexed on first access."""
        if self._mapper is None:
            mapper = build_mapper(self.pipeline)
            path = self._subjects_path
            if self._subjects is None and path and isinstance(mapper, JEMMapper):
                pipe, report, ckpt = self.pipeline, ParseReport(), self.checkpoint
                records = iter_records(path, on_error=pipe.on_error, report=report)
                if ckpt is None:
                    mapper.index_partitioned(iter_batches(records))
                else:
                    mapper.index_partitioned(
                        iter_batches(records, unit_bases(path)), ckpt.sketch_unit
                    )
                _warn_skipped(report, path)
            else:  # other mappers index a whole set
                mapper.index(self.subjects)
            self._mapper = mapper
        return self._mapper

    @property
    def subject_names(self) -> list[str]:
        """Contig names by subject id — from the sequences while no index is
        built and they are held, or the mode is one that never builds it."""
        if self._mapper is None and (self._subjects is not None or self._whole_set()):
            return self.subjects.names
        return self.mapper.subject_names

    @property
    def subjects(self) -> SequenceSet:
        """The contig sequences, read from :meth:`load_subjects`' file on first
        touch: what the SPMD simulation, worker-process runs, ``--paf`` and the
        non-jem mappers need, and the plain jem path never asks for."""
        if self._subjects is None:
            if self._subjects_path is None:
                raise MappingError(
                    "engine has no contig sequences: call use_subjects() / "
                    "load_subjects() first (a saved index carries none)"
                )
            self._subjects = read_sequences(
                self._subjects_path, on_error=self.pipeline.on_error
            )
        return self._subjects

    # -- batch mapping ------------------------------------------------------

    def _mode(self) -> str:
        """The execution path this pipeline takes (:attr:`RunTelemetry.mode`).
        Worker processes run only where isolation is the point — a fault plan;
        else ``--backend process -p N`` is N kernel threads."""
        pipe = self.pipeline
        if self._from_saved_index:
            return "saved-index"
        if pipe.mapper != "jem" or pipe.processes == 1:
            return "inline"
        if pipe.backend == "process":
            return "inline" if pipe.inject_faults is None else "process"
        return "simulated"

    def _whole_set(self) -> bool:
        """Whether runs go through :meth:`map_queries` on whole read and contig
        sets (the simulation, worker processes)."""
        return self._mode() not in _INLINE_MODES

    def _label(self, mode: str) -> str:
        pipe = self.pipeline
        return _LABELS[mode].format(mapper=pipe.mapper, processes=pipe.processes)

    def describe(self) -> str:
        """Execution mode and native-kernel state: what a TSV header records
        (``threads`` is per process: worker processes run one kernel thread each)."""
        mode = self._mode()
        threads = self.pipeline.kernel_threads
        if mode == "process":
            from ..parallel.mp_backend import WORKER_KERNEL_THREADS

            threads = WORKER_KERNEL_THREADS
        return f"{self._label(mode)} [{native_summary(threads)}]"

    def _inline_mapper(self, mode: str) -> Mapper:
        """The resident mapper, for an in-process run (which says what it ignores)."""
        pipe = self.pipeline
        if mode == "saved-index" and pipe.processes > 1 and pipe.backend == "simulated":
            print(
                "warning: the simulated backend needs contig sequences; a saved "
                f"index maps inline, ignoring -p/--processes {pipe.processes}",
                file=sys.stderr,
            )
        return self.mapper

    def _telemetry(self, mode: str, t0: float, **extra: Any) -> dict[str, Any]:
        """The :class:`RunTelemetry` fields of a run that started at ``t0``."""
        return {
            "mode": mode, "elapsed": time.perf_counter() - t0,
            "label": self._label(mode), **extra,
        }

    def map_queries(self, reads: SequenceSet) -> EngineRun:
        """Map one read batch through the configured execution mode.

        Inline (``processes == 1``, any mapper, a saved index, or the
        process backend without a fault plan), the instrumented SPMD
        simulation, or the worker-process backend — all produce
        bit-identical mappings; the mode only changes telemetry.
        """
        t0 = time.perf_counter()
        mode = self._mode()
        if mode in _INLINE_MODES:
            mapping = self._inline_mapper(mode).map_reads(reads)
            return EngineRun(mapping=mapping, **self._telemetry(mode, t0))
        return self._map_whole_set(reads, mode, t0)

    def _map_whole_set(self, reads: SequenceSet, mode: str, t0: float) -> EngineRun:
        """The worker-process backend or the SPMD simulation, from contig sequences."""
        pipe = self.pipeline
        common: dict[str, Any] = {"faults": pipe.fault_plan(), "strict": pipe.strict}
        if mode == "process":
            from ..parallel.faults import RecoveryReport
            from ..parallel.mp_backend import map_reads_multiprocess

            report = RecoveryReport()
            mapping = map_reads_multiprocess(
                self.subjects, reads, pipe.jem, processes=pipe.processes,
                timeout=pipe.timeout, report=report, **common,
            )
            telemetry = self._telemetry(mode, t0, partial=report.partial, report=report)
            return EngineRun(mapping=mapping, **telemetry)
        from ..parallel.driver import run_parallel_jem

        run = run_parallel_jem(self.subjects, reads, pipe.jem, p=pipe.processes, **common)
        telemetry = self._telemetry(mode, t0, partial=run.partial, steps=run.steps)
        return EngineRun(mapping=run.mapping, **telemetry)

    # -- streaming / resident frontends -------------------------------------

    def map_file(self, path: str) -> Iterator[MappingResult]:
        """Map a FASTA/FASTQ file; yields one result per batch, in order.

        The loop behind ``jem map``.  In-process modes map the reads as
        the parser yields them, trimmed to their two ℓ-base ends, one
        :data:`~repro.core.streaming.BATCH_BASES` batch resident at a time
        (a checkpointed run's
        :func:`~repro.core.streaming.unit_bases`, each batch loaded from
        :attr:`checkpoint` or committed to it), and report skipped records
        after the last; the whole-set modes (SPMD simulation, worker
        processes) load the file and yield their one batch.
        :attr:`last_run` holds the telemetry once exhausted.
        """
        pipe = self.pipeline
        mode = self._mode()
        self.last_run = None
        if self._whole_set():
            run = self.map_queries(read_sequences(path, on_error=pipe.on_error))
            self.last_run = run
            yield run.mapping
            return
        t0 = time.perf_counter()
        report, ckpt = ParseReport(), self.checkpoint
        units = {} if ckpt is None else {
            "batch_bases": unit_bases(path), "unit": ckpt.map_unit,
        }
        mapper = self._inline_mapper(mode)
        # a saved index maps at its own ℓ, whatever the pipeline's default
        ell = mapper.config.ell if mode == "saved-index" else pipe.jem.ell
        yield from map_file(
            mapper, path, ell=ell, on_error=pipe.on_error, report=report, **units
        )
        _warn_skipped(report, path)
        self.last_run = RunTelemetry(**self._telemetry(mode, t0))

    def service(
        self,
        service_config: "ServiceConfig | None" = None,
        **kwargs: Any,
    ) -> "MappingService":
        """A resident :class:`MappingService` over this engine's index."""
        from ..service.service import MappingService

        if self.pipeline.mapper != "jem":
            raise MappingError(
                f"the mapping service is jem-only; pipeline requests "
                f"{self.pipeline.mapper!r}"
            )
        mapper = self.mapper
        if not isinstance(mapper, JEMMapper):  # pragma: no cover - registry misuse
            raise MappingError("service requires a JEMMapper instance")
        return MappingService(mapper, service_config, **kwargs)
