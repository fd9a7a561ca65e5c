"""Cross-frontend bit-identity: every frontend, one output.

The MappingEngine promises that the frontend never changes *what* is
computed.  This suite pins that down by running the same dataset through
the CLI, the engine API, the resident service and the streaming frontend,
and asserting the mappings are bit-identical to the
reference: a ``JEMMapper`` over the dict-store oracle, called directly.
(``tests/parallel/`` holds the SPMD driver and its seeded fault plans to
the same reference.)

The store kind is not a pipeline option; the one seam left is the
``JEMMapper`` constructor.  Frontends that build their mapper through the
engine's registry, and the service that builds its own, are therefore run
twice — on the resident columnar store and with the oracle injected through
that seam.
"""

import functools

import numpy as np
import pytest

from repro.cli import main
from repro.core import JEMConfig, JEMMapper, MappingEngine, PipelineConfig
from repro.core import engine as engine_module
from repro.seq import write_fasta, write_fastq

CFG = JEMConfig(k=12, w=20, ell=500, trials=10, seed=99)
CFG_FLAGS = ["--k", "12", "--w", "20", "--ell", "500", "--trials", "10", "--seed", "99"]
STORES = ("columnar", "dict")


@pytest.fixture
def store(request, monkeypatch):
    """The parametrised store kind, injected into registry-built ``jem`` mappers."""
    kind = request.param
    monkeypatch.setitem(
        engine_module._REGISTRY,
        "jem",
        lambda pipeline: JEMMapper(pipeline.jem, store_kind=kind),
    )
    return kind


def _oracle(tiling_contigs):
    mapper = JEMMapper(CFG, store_kind="dict")
    mapper.index(tiling_contigs)
    return mapper


def _reference(tiling_contigs, clean_reads):
    return _oracle(tiling_contigs).map_reads(clean_reads)


def _assert_same(result, reference):
    assert result.segment_names == reference.segment_names
    assert np.array_equal(result.subject, reference.subject)
    assert np.array_equal(result.hit_count, reference.hit_count)


@pytest.mark.parametrize("store", STORES, indirect=True)
def test_engine_inline_parity(store, tiling_contigs, clean_reads):
    reference = _reference(tiling_contigs, clean_reads)
    engine = MappingEngine(PipelineConfig(jem=CFG))
    engine.use_subjects(tiling_contigs)
    assert engine.mapper.store_kind == store
    _assert_same(engine.mapper.map_reads(clean_reads), reference)


@pytest.mark.parametrize("store", ("columnar", "dict"), indirect=True)
def test_service_parity(store, monkeypatch, tiling_contigs, clean_reads):
    from repro.service import MappingService
    from repro.service import service as service_module

    # the service builds its own mapper: the same seam, injected there
    monkeypatch.setattr(
        service_module, "JEMMapper", functools.partial(JEMMapper, store_kind=store)
    )
    reference = _reference(tiling_contigs, clean_reads)
    with MappingService.from_contigs(tiling_contigs, CFG) as service:
        assert service._mapper.store_kind == store
        result = service.map_reads(clean_reads, timeout=60)
    _assert_same(result, reference)


@pytest.mark.parametrize("store", ("columnar", "dict"), indirect=True)
def test_streaming_parity(store, tmp_path, monkeypatch, tiling_contigs, clean_reads):
    from repro.core import streaming

    reference = _reference(tiling_contigs, clean_reads)
    _, reads_path = _write_inputs(tmp_path, tiling_contigs, clean_reads)
    engine = MappingEngine(PipelineConfig(jem=CFG))
    engine.use_subjects(tiling_contigs)
    monkeypatch.setattr(streaming, "BATCH_BASES", 35_000)
    batches = list(engine.map_file(reads_path))
    assert len(batches) == 3 and engine.last_run.mode == "inline"
    subjects = np.concatenate([b.subject for b in batches])
    hit_counts = np.concatenate([b.hit_count for b in batches])
    names = [n for b in batches for n in b.segment_names]
    assert names == reference.segment_names
    assert np.array_equal(subjects, reference.subject)
    assert np.array_equal(hit_counts, reference.hit_count)


def _write_inputs(tmp_path, tiling_contigs, clean_reads):
    contigs_path = str(tmp_path / "contigs.fasta")
    reads_path = str(tmp_path / "reads.fastq")
    write_fasta(contigs_path, tiling_contigs)
    write_fastq(reads_path, clean_reads)
    return contigs_path, reads_path


def _tsv_body(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if not line.startswith("#")]


@pytest.mark.parametrize("store", STORES, indirect=True)
def test_cli_map_parity(store, tmp_path, tiling_contigs, clean_reads):
    """`jem map` writes exactly the oracle mapping, row for row."""
    contigs_path, reads_path = _write_inputs(tmp_path, tiling_contigs, clean_reads)
    reference = _reference(tiling_contigs, clean_reads)
    names = tiling_contigs.names
    want = ["segment\tcontig\thits\n"] + [
        f"{seg}\t{names[sid] if sid >= 0 else '*'}\t{hits}\n"
        for seg, sid, hits in zip(
            reference.segment_names,
            reference.subject.tolist(),
            reference.hit_count.tolist(),
        )
    ]
    got = str(tmp_path / f"{store}.tsv")
    assert main(["map", "-q", reads_path, "-s", contigs_path, *CFG_FLAGS,
                 "-o", got]) == 0
    assert _tsv_body(got) == want


@pytest.mark.parametrize("store", ("columnar", "dict"), indirect=True)
def test_cli_saved_index_roundtrip(store, tmp_path, tiling_contigs, clean_reads):
    """index -> map --index keeps parity across the persisted v3 bundle."""
    contigs_path, reads_path = _write_inputs(tmp_path, tiling_contigs, clean_reads)
    index_path = str(tmp_path / "contigs.npz")
    assert main(["index", "-s", contigs_path, "-o", index_path, *CFG_FLAGS]) == 0
    direct = str(tmp_path / "direct.tsv")
    via_index = str(tmp_path / "via_index.tsv")
    base = ["map", "-q", reads_path, *CFG_FLAGS]
    assert main([*base, "-s", contigs_path, "-o", direct]) == 0
    assert main([*base, "--index", index_path, "-o", via_index]) == 0
    assert _tsv_body(via_index) == _tsv_body(direct)


def test_cli_map_minimap_lite(tmp_path, tiling_contigs, clean_reads):
    """The minimap-lite registry entry is reachable from the CLI."""
    contigs_path, reads_path = _write_inputs(tmp_path, tiling_contigs, clean_reads)
    out = str(tmp_path / "mml.tsv")
    assert main(["map", "-q", reads_path, "-s", contigs_path, "-o", out,
                 "--mapper", "minimap-lite", *CFG_FLAGS]) == 0
    body = _tsv_body(out)
    assert body[0] == "segment\tcontig\thits\n"
    assert len(body) == 1 + 2 * len(clean_reads)
