import numpy as np
import pytest

from repro.core import JEMConfig, JEMMapper, extract_end_segments
from repro.core.paf import paf_records, write_paf
from repro.core.mapper import MappingResult
from repro.errors import MappingError
from repro.seq import SeqRecord, SequenceSet, SequenceSetBuilder, random_codes


@pytest.fixture
def mapped_world(rng):
    genome = random_codes(10_000, rng)
    contigs = SequenceSet.from_records(
        [SeqRecord("cA", genome[0:5_000]), SeqRecord("cB", genome[5_000:10_000])]
    )
    builder = SequenceSetBuilder()
    builder.add("read1", genome[500:8_500])
    reads = builder.build()
    cfg = JEMConfig(k=14, w=20, ell=1000, trials=10, seed=8)
    mapper = JEMMapper(cfg)
    mapper.index(contigs)
    segments, _ = extract_end_segments(reads, cfg.ell)
    result = mapper.map_segments(segments)
    return cfg, contigs, segments, result


def test_paf_fields(mapped_world):
    cfg, contigs, segments, result = mapped_world
    lines = list(paf_records(result, segments, contigs, trials=cfg.trials, k=cfg.k))
    assert len(lines) == result.n_mapped
    fields = lines[0].split("\t")
    assert len(fields) == 13
    qname, qlen, qstart, qend, strand, tname = fields[:6]
    assert qname == "read1/prefix"
    assert int(qlen) == 1000
    assert 0 <= int(qstart) < int(qend) <= 1000
    assert strand in "+-"
    assert tname == "cA"
    tlen, tstart, tend = int(fields[6]), int(fields[7]), int(fields[8])
    assert tlen == 5000
    # read starts at genome 500 -> prefix lands at cA[500:1500]
    assert abs(tstart - 500) < 100
    assert 0 <= tstart < tend <= tlen
    mapq = int(fields[11])
    assert 0 <= mapq <= 60
    assert fields[12].startswith("nh:i:")


def test_paf_suffix_on_second_contig(mapped_world):
    cfg, contigs, segments, result = mapped_world
    lines = list(paf_records(result, segments, contigs, trials=cfg.trials, k=cfg.k))
    suffix = [l for l in lines if l.startswith("read1/suffix")][0]
    fields = suffix.split("\t")
    assert fields[5] == "cB"
    # suffix covers genome [7500, 8500) = cB[2500:3500]
    assert abs(int(fields[7]) - 2_500) < 100


def test_write_paf_file(tmp_path, mapped_world):
    cfg, contigs, segments, result = mapped_world
    path = tmp_path / "out.paf"
    with open(path, "w", encoding="utf-8") as handle:
        n = write_paf(handle, result, segments, contigs, trials=cfg.trials, k=cfg.k)
    assert n == result.n_mapped
    assert len(path.read_text().splitlines()) == n


def test_unmapped_skipped(mapped_world):
    cfg, contigs, segments, _ = mapped_world
    nothing = MappingResult(
        segment_names=list(segments.names),
        subject=np.full(len(segments), -1, dtype=np.int64),
        hit_count=np.zeros(len(segments), dtype=np.int64),
    )
    assert list(paf_records(nothing, segments, contigs, trials=cfg.trials)) == []


def test_length_mismatch_rejected(mapped_world):
    cfg, contigs, segments, result = mapped_world
    bad = MappingResult(["x"], np.array([0]), np.array([1]))
    with pytest.raises(MappingError):
        list(paf_records(bad, segments, contigs, trials=cfg.trials))
