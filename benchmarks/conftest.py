"""Shared context for the benchmark suite.

Scale defaults to 1/400 of the paper's genome sizes so the whole suite runs
in minutes; set ``REPRO_BENCH_SCALE`` (e.g. ``0.01``) for larger runs and
``REPRO_BENCH_DATASETS`` (comma-separated) to restrict inputs.  These two
variables are settings of this pytest harness, which cannot take
subcommand flags; ``jem bench`` takes ``--scale`` and ``--datasets``.
Rendered tables land in ``results/`` next to this directory.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import BenchContext

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def context_from_env(**fields) -> BenchContext:
    """A context with ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_DATASETS``
    applied; ``fields`` win over both."""
    from_env: dict = {}
    if "REPRO_BENCH_SCALE" in os.environ:
        from_env["scale"] = float(os.environ["REPRO_BENCH_SCALE"])
    if "REPRO_BENCH_DATASETS" in os.environ:
        from_env["datasets"] = tuple(os.environ["REPRO_BENCH_DATASETS"].split(","))
    return BenchContext(**{**from_env, **fields})


@pytest.fixture(scope="session")
def ctx() -> BenchContext:
    return context_from_env(
        cache_dir=os.path.join(_ROOT, ".dataset_cache"),
        results_dir=os.path.join(_ROOT, "results"),
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
