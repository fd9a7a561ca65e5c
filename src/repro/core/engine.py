"""One engine, five frontends — the build-index / map-queries lifecycle.

One typed :class:`PipelineConfig` (algorithm constants + mapper choice +
kernel thread count), a :class:`Mapper` protocol with a registry (``jem``,
``minhash``, ``mashmap``, ``minimap-lite``), and a :class:`MappingEngine`
that owns the lifecycle:

* :meth:`MappingEngine.use_subjects` / :meth:`MappingEngine.use_index`
  declare where the index comes from (sequences or a persisted bundle);
* :meth:`MappingEngine.map_file` is the loop ``jem map`` runs: a read file
  mapped batch by batch as it is parsed, in this process on the resident
  mapper, each batch a unit of a checkpointed run;
* :attr:`MappingEngine.mapper` is that resident mapper, whose
  ``map_reads`` maps a whole read set (what ``--paf`` calls) and which a
  served fleet fronts.

The engine never changes *what* is computed — for any config, at any
thread count, every frontend yields the sequential mapper's output bit for
bit (the cross-frontend parity suite pins this down against the dict-store
oracle).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Protocol, runtime_checkable

from ..errors import MappingError
from ..seq.records import SequenceSet, SequenceSetBuilder
from .config import JEMConfig
from .mapper import JEMMapper, MappingResult

# the FASTA reader and the streamed loops (core.streaming) are imported where
# a file is read: a server opens only a built index and loads neither
if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.checkpoint import CheckpointContext
    from ..seq.io_fasta import ParseReport

__all__ = [
    "PipelineConfig",
    "Mapper",
    "MAPPER_KINDS",
    "build_mapper",
    "MappingEngine",
    "RunTelemetry",
    "native_summary",
    "read_sequences",
]

#: The :class:`JEMConfig` fields the CLI's sketch flags set (``--k`` …
#: ``--seed``); a flag left unset keeps the field's default.
SKETCH_FLAGS = ("k", "w", "ell", "trials", "seed")


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

    The CLI's argparse namespace (through ``repro.cli.common.engine_from``),
    the service's startup wiring and direct API use all collapse into this
    object.
    """

    jem: JEMConfig = field(default_factory=JEMConfig)
    mapper: str = "jem"
    #: threads every native kernel runs on (``-p N``, jem only); None: their
    #: own :func:`~repro.sketch._native.thread_count`
    processes: int | None = None
    on_error: str = "raise"
    #: run directory for durable checkpoint/resume (jem only); None = off.
    #: Excluded from the manifest's config identity — the same logical run
    #: may live in different directories.
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.processes is not None and self.processes < 1:
            raise MappingError(f"processes must be >= 1, got {self.processes}")


# -- mapper registry ---------------------------------------------------------


def _make_jem(pipeline: PipelineConfig) -> Mapper:
    return JEMMapper(pipeline.jem, threads=pipeline.processes)


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
    skip-warning: what `client` and `map --paf` use."""
    from ..seq.io_fasta import ParseReport
    from .streaming import iter_records

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


@dataclass(kw_only=True)
class RunTelemetry:
    """What a finished :meth:`MappingEngine.map_file` run reports, mapping aside.

    ``mode`` names where the index came from (``inline`` or ``saved-index``)
    and ``label`` is how TSV comment lines spell it.
    """

    mode: str
    elapsed: float
    label: str = "jem"

    def timing_line(self) -> str:
        """The ``#``-comment timing summary the CLI writes below the TSV."""
        return f"# {self.label}: {self.elapsed:.3f}s wall"


class MappingEngine:
    """Owns a mapper's lifecycle: source -> index -> map.

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
        mapper.threads = self.pipeline.processes
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
                from ..seq.io_fasta import ParseReport
                from .streaming import iter_file_batches, unit_bases

                pipe, report, ckpt = self.pipeline, ParseReport(), self.checkpoint
                batches = iter_file_batches(
                    path, on_error=pipe.on_error, report=report,
                    batch_bases=None if ckpt is None else unit_bases(path),
                )
                mapper.index_partitioned(batches, None if ckpt is None else ckpt.sketch_unit)
                _warn_skipped(report, path)
            else:  # other mappers index a whole set
                mapper.index(self.subjects)
            self._mapper = mapper
        return self._mapper

    @property
    def subject_names(self) -> list[str]:
        """Contig names by subject id — from the sequences while no index is
        built and they are held."""
        if self._mapper is None and self._subjects is not None:
            return self.subjects.names
        return self.mapper.subject_names

    @property
    def subjects(self) -> SequenceSet:
        """The contig sequences, read from :meth:`load_subjects`' file on first
        touch: what ``--paf`` and the non-jem mappers need, and the plain jem
        path never asks for."""
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

    # -- mapping ------------------------------------------------------------

    def _mode(self) -> str:
        """Where the index came from (:attr:`RunTelemetry.mode`)."""
        return "saved-index" if self._from_saved_index else "inline"

    def _label(self, mode: str) -> str:
        return "jem (saved index)" if mode == "saved-index" else self.pipeline.mapper

    def describe(self) -> str:
        """Mode and native-kernel state: what a TSV header records."""
        mode = self._mode()
        return f"{self._label(mode)} [{native_summary(self.pipeline.processes)}]"

    def map_file(self, path: str) -> Iterator[MappingResult]:
        """Map a FASTA/FASTQ file; yields one result per batch, in order.

        The loop behind ``jem map``: the reads are mapped as the parser
        yields them, trimmed to their two ℓ-base ends, one
        :data:`~repro.core.streaming.BATCH_BASES` batch resident at a time
        (a checkpointed run's
        :func:`~repro.core.streaming.unit_bases`, each batch loaded from
        :attr:`checkpoint` or committed to it), and skipped records are
        reported after the last.  :attr:`last_run` holds the telemetry
        once exhausted.
        """
        from ..seq.io_fasta import ParseReport
        from .streaming import map_file, unit_bases

        pipe = self.pipeline
        mode = self._mode()
        self.last_run = None
        t0 = time.perf_counter()
        report, ckpt = ParseReport(), self.checkpoint
        units = {} if ckpt is None else {
            "batch_bases": unit_bases(path), "unit": ckpt.map_unit,
        }
        mapper = self.mapper
        # a saved index maps at its own ℓ, whatever the pipeline's default
        ell = mapper.config.ell if mode == "saved-index" else pipe.jem.ell
        yield from map_file(
            mapper, path, ell=ell, on_error=pipe.on_error, report=report, **units
        )
        _warn_skipped(report, path)
        self.last_run = RunTelemetry(
            mode=mode, elapsed=time.perf_counter() - t0, label=self._label(mode)
        )
