import pathlib

import pytest

import repro.bench
from repro.bench import (
    ABLATIONS,
    ALL_EXPERIMENTS,
    BenchContext,
    EXPERIMENTS,
    ThreadScalingModel,
)


def test_registry_covers_every_artifact():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9",
    }
    assert set(ABLATIONS) == {
        "ablation_topx", "ablation_segments", "ablation_window",
        "ablation_counter", "ablation_threshold", "ablation_kmer",
        "ablation_ingredients", "ablation_seeds", "ablation_error_rate",
    }
    functions = {fn.__name__ for fn in ALL_EXPERIMENTS.values()}
    classes = {"BenchContext", "ExperimentOutput", "ThreadScalingModel"}
    registries = {"EXPERIMENTS", "ABLATIONS", "ALL_EXPERIMENTS"}
    assert set(repro.bench.__all__) == functions | classes | registries
    assert (
        set(repro.bench.experiments.__all__) | set(repro.bench.ablations.__all__)
        == set(repro.bench.__all__) - {"ALL_EXPERIMENTS"}
    )
    # every registered experiment has a shape-asserting test under benchmarks/
    suite = pathlib.Path(__file__).parents[2] / "benchmarks"
    tests = "".join(p.read_text(encoding="utf-8") for p in suite.glob("test_*.py"))
    for name in functions:
        assert name in tests, f"{name} has no test under benchmarks/"


def test_pick_default_and_restriction():
    ctx = BenchContext(datasets=("b_splendens", "nonexistent"))
    assert ctx.pick(("e_coli", "b_splendens")) == ("b_splendens",)
    # no overlap -> falls back to the first default
    ctx2 = BenchContext(datasets=("zzz",))
    assert ctx2.pick(("e_coli", "b_splendens")) == ("e_coli",)
    # no restriction -> defaults
    assert BenchContext().pick(("a", "b")) == ("a", "b")


def test_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.007")
    monkeypatch.setenv("REPRO_BENCH_DATASETS", "e_coli,b_splendens")
    ctx = BenchContext.from_env()
    assert ctx.scale == 0.007
    assert ctx.datasets == ("e_coli", "b_splendens")


def test_from_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.007")
    ctx = BenchContext.from_env(scale=0.5)
    assert ctx.scale == 0.5


def test_thread_model_monotone():
    model = ThreadScalingModel()
    t1 = model.threaded_time(100.0, 1)
    t8 = model.threaded_time(100.0, 8)
    t64 = model.threaded_time(100.0, 64)
    assert t64 < t8 < t1
    # Amdahl floor: never below the serial fraction
    assert t64 > 100.0 * model.serial_fraction


def test_experiment_output_save(tmp_path):
    from repro.bench import ExperimentOutput

    out = ExperimentOutput("demo", "hello table", {})
    path = out.save(str(tmp_path))
    assert path.endswith("demo.txt")
    assert (tmp_path / "demo.txt").read_text() == "hello table\n"
