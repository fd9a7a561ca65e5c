"""One engine, five frontends — the build-index / map-queries lifecycle.

Before this module, every frontend assembled the pipeline its own way: the
CLI's ``map`` had four hand-rolled dispatch branches plus
``_jem_mapper_from``, ``serve`` repeated the same wiring, the parallel
driver carried its own S1–S4 assembly, and the service had
``from_index``/``from_contigs`` classmethods — five places to touch for any
change to how an index is built or a store is chosen.

Now there is one typed :class:`PipelineConfig` (algorithm constants +
mapper choice + execution backend), a :class:`Mapper`
protocol with a registry (``jem``, ``minhash``, ``mashmap``,
``minimap-lite``), and a :class:`MappingEngine` that owns the lifecycle:

* :meth:`MappingEngine.use_subjects` / :meth:`MappingEngine.use_index`
  declare where the index comes from (sequences or a persisted bundle);
* :meth:`MappingEngine.map_queries` runs one batch through the configured
  execution mode (inline, instrumented SPMD simulation, or the
  worker-process backend) and returns an :class:`EngineRun` carrying the
  mapping plus the run's timing/fault telemetry;
* :meth:`MappingEngine.map_stream`, :meth:`MappingEngine.map_tiled` and
  :meth:`MappingEngine.service` expose the streaming, tiled and resident
  frontends over the same mapper instance.

The engine never changes *what* is computed — for any config, every
execution mode yields the sequential mapper's output bit for bit (the
cross-frontend parity suite pins this down against the dict-store oracle).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Protocol, runtime_checkable

import numpy as np

from ..errors import MappingError
from ..seq.io_fasta import read_fasta
from ..seq.records import SequenceSet
from .config import JEMConfig
from .mapper import JEMMapper, MappingResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.costmodel import StepTimes
    from ..parallel.faults import FaultPlan, PartialResult, RecoveryReport
    from ..service.config import ServiceConfig
    from ..service.service import MappingService

__all__ = [
    "PipelineConfig",
    "Mapper",
    "MAPPER_KINDS",
    "register_mapper",
    "build_mapper",
    "MappingEngine",
    "EngineRun",
    "native_summary",
    "read_sequences",
]

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
    transport: str = "shm"
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
        jem = JEMConfig(
            k=args.k, w=args.w, ell=args.ell, trials=args.trials, seed=args.seed
        )
        return cls(
            jem=jem,
            mapper=getattr(args, "mapper", "jem"),
            processes=getattr(args, "processes", 1),
            backend=getattr(args, "backend", "simulated"),
            transport=getattr(args, "transport", "shm"),
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


# -- mapper registry ---------------------------------------------------------


def _make_jem(pipeline: PipelineConfig) -> Mapper:
    return JEMMapper(pipeline.jem)


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


def register_mapper(name: str, factory: Callable[[PipelineConfig], Mapper]) -> None:
    """Register a custom mapper factory under ``name`` (overwrites)."""
    _REGISTRY[name] = factory


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


def read_sequences(path: str, *, on_error: str = "raise") -> SequenceSet:
    """Load FASTA or FASTQ by extension, with the shared skip-warning.

    The one argparse-independent input loader every frontend shares (the
    CLI's ``map``/``client``/``scaffold`` all used private copies of this).
    """
    from ..seq.io_fasta import ParseReport

    report = ParseReport()
    if path.endswith((".fq", ".fastq", ".fq.gz", ".fastq.gz")):
        from ..seq.io_fastq import read_fastq

        seqs = read_fastq(path, on_error=on_error, report=report)
    else:
        seqs = read_fasta(path, on_error=on_error, report=report)
    if report.skipped:
        print(
            f"warning: skipped {report.skipped} malformed record(s) in {path}",
            file=sys.stderr,
        )
    return seqs


# -- the engine --------------------------------------------------------------


def native_summary() -> str:
    """One token describing the native-kernel state, for timing lines.

    ``native=fused,threads=N`` when the compiled fast path is loaded,
    ``native=off(<reason>)`` otherwise — the reason being the kill switch
    or the recorded compile failure, so a pasted timing line is enough to
    tell which backend produced a run and why.
    """
    from ..sketch import _native

    info = _native.availability()
    if info["available"]:
        return f"native=fused,threads={info['threads']}"
    reason = info["error"] or "unavailable"
    return f"native=off({reason.splitlines()[0][:60]})"


@dataclass
class EngineRun:
    """One :meth:`MappingEngine.map_queries` batch and its telemetry.

    ``mode`` names the execution path taken (``inline``, ``saved-index``,
    ``simulated``, ``process``); ``steps`` carries the simulation's
    modelled S1–S4 breakdown and ``report`` the process backend's recovery
    accounting (each ``None`` on the other paths).
    """

    mapping: MappingResult
    subject_names: list[str]
    mode: str
    elapsed: float
    mapper_name: str = "jem"
    processes: int = 1
    partial: "PartialResult | None" = None
    steps: "StepTimes | None" = None
    report: "RecoveryReport | None" = None

    def timing_line(self) -> str:
        """The ``#``-comment timing summary the CLI writes above the TSV.

        Ends with the native-kernel state (``native=fused,threads=N`` or
        ``native=off(<reason>)``) so a TSV header always records whether
        the fused C path or the numpy fallback produced the run.
        """
        if self.mode == "saved-index":
            line = f"# jem (saved index): {self.elapsed:.3f}s wall"
        elif self.mode == "simulated":
            assert self.steps is not None
            line = (
                f"# parallel p={self.processes}: modelled time "
                f"{self.steps.total_time:.3f}s, "
                f"comm {100 * self.steps.comm_fraction:.1f}%"
            )
            if self.steps.recovery_time > 0:
                line += f", recovery {self.steps.recovery_time:.3f}s"
        elif self.mode == "process":
            assert self.report is not None
            line = (
                f"# process backend p={self.processes} "
                f"({self.report.transport}): {self.elapsed:.3f}s wall"
            )
            if self.report.faults_encountered:
                line += (
                    f", recovery {self.report.recovery_seconds:.3f}s "
                    f"({self.report.redispatches} re-dispatches)"
                )
        else:
            line = f"# {self.mapper_name}: {self.elapsed:.3f}s wall"
        return f"{line} [{native_summary()}]"


class MappingEngine:
    """Owns a mapper's lifecycle: source -> index -> map, on any backend.

    One engine instance wraps one mapper and one resident index; every
    frontend (one-shot batch, stream, tiled, resident service) maps
    through the same object, so the mapper choice is decided exactly
    once, in the :class:`PipelineConfig`.
    """

    def __init__(self, pipeline: PipelineConfig | None = None) -> None:
        self.pipeline = pipeline if pipeline is not None else PipelineConfig()
        self._mapper: Mapper | None = None
        self._subjects: SequenceSet | None = None
        self._from_saved_index = False
        self._index_path: str | None = None

    # -- source selection ---------------------------------------------------

    def use_subjects(self, subjects: SequenceSet) -> "MappingEngine":
        """Index will be built from these contig sequences (lazily)."""
        self._subjects = subjects
        self._mapper = None
        self._from_saved_index = False
        return self

    def load_subjects(self, path: str) -> "MappingEngine":
        """Read a contigs FASTA and use it as the subject source."""
        return self.use_subjects(
            read_sequences(path, on_error=self.pipeline.on_error)
        )

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

        self._mapper = load_index(path)
        self._subjects = None
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
            if self._subjects is None:
                raise MappingError(
                    "no index source: call use_subjects()/use_index() first"
                )
            mapper = build_mapper(self.pipeline)
            mapper.index(self._subjects)
            self._mapper = mapper
        return self._mapper

    @property
    def subject_names(self) -> list[str]:
        return self.mapper.subject_names

    @property
    def subjects(self) -> SequenceSet:
        if self._subjects is None:
            raise MappingError("engine has no subject sequences (saved index?)")
        return self._subjects

    # -- batch mapping ------------------------------------------------------

    def map_queries(self, reads: SequenceSet) -> EngineRun:
        """Map one read batch through the configured execution mode.

        Inline (``processes == 1``, any mapper, or a saved index), the
        instrumented SPMD simulation, or the worker-process backend — all
        produce bit-identical mappings; the mode only changes telemetry.
        """
        pipe = self.pipeline
        t0 = time.perf_counter()
        if pipe.checkpoint_dir is not None:
            if pipe.mapper != "jem":
                raise MappingError(
                    f"checkpointed runs are jem-only; pipeline requests "
                    f"{pipe.mapper!r}"
                )
            from ..resilience.runner import map_queries_checkpointed

            return map_queries_checkpointed(self, reads, t0=t0)
        if self._from_saved_index:
            if pipe.processes > 1:
                print(
                    "warning: a saved index maps inline; ignoring "
                    f"-p/--processes {pipe.processes} and "
                    f"--backend {pipe.backend}",
                    file=sys.stderr,
                )
            mapping = self.mapper.map_reads(reads)
            return EngineRun(
                mapping=mapping,
                subject_names=self.mapper.subject_names,
                mode="saved-index",
                elapsed=time.perf_counter() - t0,
                mapper_name=pipe.mapper,
            )
        if pipe.mapper != "jem" or pipe.processes == 1:
            mapping = self.mapper.map_reads(reads)
            return EngineRun(
                mapping=mapping,
                subject_names=self.mapper.subject_names,
                mode="inline",
                elapsed=time.perf_counter() - t0,
                mapper_name=pipe.mapper,
            )
        if pipe.backend == "process":
            from ..parallel.faults import RecoveryReport
            from ..parallel.mp_backend import map_reads_multiprocess

            report = RecoveryReport()
            mapping = map_reads_multiprocess(
                self.subjects,
                reads,
                pipe.jem,
                processes=pipe.processes,
                faults=pipe.fault_plan(),
                strict=pipe.strict,
                timeout=pipe.timeout,
                report=report,
                transport=pipe.transport,
            )
            return EngineRun(
                mapping=mapping,
                subject_names=list(self.subjects.names),
                mode="process",
                elapsed=time.perf_counter() - t0,
                mapper_name=pipe.mapper,
                processes=pipe.processes,
                partial=report.partial,
                report=report,
            )
        from ..parallel.driver import run_parallel_jem

        run = run_parallel_jem(
            self.subjects,
            reads,
            pipe.jem,
            p=pipe.processes,
            faults=pipe.fault_plan(),
            strict=pipe.strict,
        )
        return EngineRun(
            mapping=run.mapping,
            subject_names=list(self.subjects.names),
            mode="simulated",
            elapsed=time.perf_counter() - t0,
            mapper_name=pipe.mapper,
            processes=pipe.processes,
            partial=run.partial,
            steps=run.steps,
        )

    # -- streaming / tiled frontends ----------------------------------------

    def map_stream(
        self,
        records: Iterable[tuple[str, "str | np.ndarray"]],
        *,
        batch_size: int = 512,
    ) -> Iterator[MappingResult]:
        """Constant-memory streaming over (name, sequence) records."""
        from .streaming import map_reads_stream

        return map_reads_stream(self.mapper, records, batch_size=batch_size)

    def map_tiled(
        self,
        reads: SequenceSet,
        *,
        stride: int | None = None,
        min_tile_hits: int = 2,
    ):
        """Whole-read tiled mapping (ℓ-tiles, not just end segments)."""
        from .tiling import map_reads_tiled

        return map_reads_tiled(
            self.mapper, reads, stride=stride, min_tile_hits=min_tile_hits
        )

    def service(
        self,
        service_config: "ServiceConfig | None" = None,
        **kwargs: Any,
    ) -> "MappingService":
        """A resident :class:`MappingService` over this engine's index.

        The pipeline's fault plan is injected unless the caller passes an
        explicit ``faults=`` keyword.
        """
        from ..service.service import MappingService

        if self.pipeline.mapper != "jem":
            raise MappingError(
                f"the mapping service is jem-only; pipeline requests "
                f"{self.pipeline.mapper!r}"
            )
        kwargs.setdefault("faults", self.pipeline.fault_plan())
        mapper = self.mapper
        if not isinstance(mapper, JEMMapper):  # pragma: no cover - registry misuse
            raise MappingError("service requires a JEMMapper instance")
        return MappingService(mapper, service_config, **kwargs)
