"""End-to-end experiment pipeline: dataset → mappers → benchmark → metrics.

This is the glue the figure/table experiments build on: given a dataset it
extracts the 2m end segments, builds the Fig. 4 benchmark once, runs any
subset of the three mappers with wall-clock timing, and scores each against
the benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.config import JEMConfig
from ..core.engine import MAPPER_KINDS, PipelineConfig, build_mapper
from ..core.mapper import MappingResult
from ..core.segments import extract_end_segments
from ..errors import DatasetError, MappingError
from ..seq.records import SequenceSet
from .datasets import Dataset
from .metrics import QualityReport, evaluate_mapping
from .truth import Benchmark, build_benchmark

__all__ = ["MapperRun", "ExperimentResult", "prepare_benchmark", "run_mappers"]


@dataclass
class MapperRun:
    """One mapper's output on one dataset, with timing split."""

    label: str
    result: MappingResult
    quality: QualityReport
    index_seconds: float
    map_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.index_seconds + self.map_seconds


@dataclass
class ExperimentResult:
    """All mapper runs for one dataset plus the shared benchmark."""

    dataset_name: str
    benchmark: Benchmark
    runs: dict[str, MapperRun] = field(default_factory=dict)

    def __getitem__(self, label: str) -> MapperRun:
        return self.runs[label]


def prepare_benchmark(
    dataset: Dataset, config: JEMConfig
) -> tuple[SequenceSet, list, Benchmark]:
    """Extract end segments and build the ground-truth benchmark."""
    segments, infos = extract_end_segments(dataset.reads, config.ell)
    bench = build_benchmark(segments, dataset.contigs, dataset.genome, k=config.k)
    return segments, infos, bench


def run_mappers(
    dataset: Dataset,
    config: JEMConfig | None = None,
    *,
    mappers: tuple[str, ...] = ("jem", "mashmap"),
    benchmark: Benchmark | None = None,
    segments: SequenceSet | None = None,
    infos=None,
) -> ExperimentResult:
    """Run the requested mappers on a dataset and score them.

    ``mappers`` may contain any registered mapper name (``"jem"``,
    ``"mashmap"``, ``"minhash"``, ``"minimap-lite"``); construction goes
    through the engine's mapper registry
    (:func:`~repro.core.engine.build_mapper`).
    A pre-built benchmark/segment set can be passed to amortise truth
    construction across parameter sweeps (Fig. 6 reuses one benchmark for
    every T).
    """
    config = config if config is not None else JEMConfig()
    if segments is None or benchmark is None:
        segments, infos, benchmark = prepare_benchmark(dataset, config)
    out = ExperimentResult(dataset_name=dataset.name, benchmark=benchmark)
    for label in mappers:
        try:
            # Mashmap runs with its own (denser) winnowing default, just as
            # the paper ran the stock tool rather than forcing JEM's w.
            mapper = build_mapper(PipelineConfig(jem=config, mapper=label))
        except MappingError:
            raise DatasetError(
                f"unknown mapper label {label!r}; registered: {MAPPER_KINDS}"
            ) from None
        t0 = time.perf_counter()
        mapper.index(dataset.contigs)
        t1 = time.perf_counter()
        result = mapper.map_segments(segments, infos)
        t2 = time.perf_counter()
        out.runs[label] = MapperRun(
            label=label,
            result=result,
            quality=evaluate_mapping(result, benchmark),
            index_seconds=t1 - t0,
            map_seconds=t2 - t1,
        )
    return out
