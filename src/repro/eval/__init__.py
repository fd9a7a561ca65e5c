"""Evaluation: benchmark truth (Fig. 4), metrics, datasets (Table I), pipeline."""

from .datasets import (
    DATASETS,
    DEFAULT_SCALE,
    LARGE_DATASETS,
    Dataset,
    DatasetSpec,
    dataset_names,
    generate_dataset,
    load_or_generate,
)
from .metrics import QualityReport, evaluate_mapping, recall_at_x, threshold_sweep
from .pipeline import ExperimentResult, MapperRun, prepare_benchmark, run_mappers
from .report import format_seconds, render_series, render_table
from .truth import Benchmark, build_benchmark, place_contigs

__all__ = [
    "DATASETS",
    "DEFAULT_SCALE",
    "LARGE_DATASETS",
    "Dataset",
    "DatasetSpec",
    "dataset_names",
    "generate_dataset",
    "load_or_generate",
    "QualityReport",
    "evaluate_mapping",
    "recall_at_x",
    "threshold_sweep",
    "ExperimentResult",
    "MapperRun",
    "prepare_benchmark",
    "run_mappers",
    "format_seconds",
    "render_series",
    "render_table",
    "Benchmark",
    "build_benchmark",
    "place_contigs",
]
