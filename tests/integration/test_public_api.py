"""The documented public API surface stays importable and coherent."""

import importlib

import pytest


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


@pytest.mark.parametrize(
    "module",
    [
        "repro.seq",
        "repro.sketch",
        "repro.core",
        "repro.baselines",
        "repro.parallel",
        "repro.simulate",
        "repro.assembly",
        "repro.align",
        "repro.eval",
        "repro.bench",
        "repro.resilience",
        "repro.service",
        "repro.netserve",
    ],
)
def test_subpackage_all_resolves(module):
    mod = importlib.import_module(module)
    assert hasattr(mod, "__all__")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


def test_quickstart_flow_matches_readme():
    """The README quickstart runs verbatim (smaller genome for speed)."""
    import numpy as np

    from repro import JEMConfig, JEMMapper
    from repro.assembly import AssemblyConfig, assemble
    from repro.simulate import (
        GenomeProfile,
        HiFiProfile,
        IlluminaProfile,
        simulate_genome,
        simulate_hifi_reads,
        simulate_short_reads,
    )

    rng = np.random.default_rng(42)
    genome = simulate_genome(GenomeProfile(length=50_000, repeat_fraction=0.05), rng)
    contigs = assemble(
        simulate_short_reads(genome, IlluminaProfile(coverage=25), rng),
        AssemblyConfig(k=25, min_count=3),
    )
    reads = simulate_hifi_reads(genome, HiFiProfile(coverage=5), rng)
    mapper = JEMMapper(JEMConfig())
    mapper.index(contigs)
    result = mapper.map_reads(reads)
    pairs = result.pairs(mapper.subject_names)
    assert len(pairs) == result.n_mapped > 0
