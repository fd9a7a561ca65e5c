"""Benchmark harness: one experiment per paper table/figure, plus ablations."""

from .ablations import (
    ABLATIONS,
    ablation_counter,
    ablation_error_rate,
    ablation_ingredients,
    ablation_kmer,
    ablation_seeds,
    ablation_segments,
    ablation_threshold,
    ablation_topx,
    ablation_window,
)
from .experiments import (
    EXPERIMENTS,
    BenchContext,
    ExperimentOutput,
    ThreadScalingModel,
    exp_fig5,
    exp_fig6,
    exp_fig7,
    exp_fig8,
    exp_fig9,
    exp_table1,
    exp_table2,
)

#: Everything runnable through ``jem-mapper bench``.
ALL_EXPERIMENTS = {**EXPERIMENTS, **ABLATIONS}

__all__ = [
    "EXPERIMENTS",
    "ABLATIONS",
    "ALL_EXPERIMENTS",
    "BenchContext",
    "ExperimentOutput",
    "ThreadScalingModel",
    *(fn.__name__ for fn in ALL_EXPERIMENTS.values()),
]
