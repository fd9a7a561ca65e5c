import weakref

import numpy as np
import pytest

from repro.core import JEMConfig, JEMMapper, streaming
from repro.core.streaming import map_file, map_reads_stream
from repro.errors import MappingError
from repro.seq import io_fasta, write_fasta, write_fastq


CFG = JEMConfig(k=12, w=20, ell=500, trials=8, seed=13)


@pytest.fixture
def mapper(tiling_contigs):
    m = JEMMapper(CFG)
    m.index(tiling_contigs)
    return m


def test_stream_matches_bulk(mapper, clean_reads):
    bulk = mapper.map_reads(clean_reads)
    streamed_subjects = []
    streamed_names = []
    for batch in map_reads_stream(mapper, iter(clean_reads), batch_bases=20_000):
        streamed_subjects.append(batch.subject)
        streamed_names.extend(batch.segment_names)
    assert np.array_equal(np.concatenate(streamed_subjects), bulk.subject)
    assert streamed_names == bulk.segment_names


def test_batch_count(mapper, clean_reads):
    """Batches are cut by bases, not reads: three 5-kbp reads fit 15,001 bases."""
    batches = list(map_reads_stream(mapper, iter(clean_reads), batch_bases=15_001))
    assert [len(b) for b in batches] == [6] * 6 + [4]  # 20 reads, two segments each


def test_batch_size_one(mapper, clean_reads):
    """A read over the budget is a batch alone — here every read is."""
    batches = list(map_reads_stream(mapper, iter(clean_reads), batch_bases=1))
    assert len(batches) == len(clean_reads)
    assert all(len(b) == 2 for b in batches)


def test_oversized_read_between_small_ones_is_alone(mapper, clean_reads):
    from repro.seq import SeqRecord

    big = SeqRecord("big", np.concatenate([clean_reads.codes_of(i) for i in (2, 3, 4)]))
    records = [clean_reads[0], clean_reads[1], big, clean_reads[5], clean_reads[6]]
    batches = list(map_reads_stream(mapper, iter(records), batch_bases=11_000))
    assert [b.segment_names for b in batches] == [
        ["read_0/prefix", "read_0/suffix", "read_1/prefix", "read_1/suffix"],
        ["big/prefix", "big/suffix"],
        ["read_5/prefix", "read_5/suffix", "read_6/prefix", "read_6/suffix"],
    ]


def test_default_budget_is_the_module_constant(monkeypatch, mapper, clean_reads):
    from repro.core import streaming

    assert len(list(map_reads_stream(mapper, iter(clean_reads)))) == 1
    monkeypatch.setattr(streaming, "BATCH_BASES", 1)
    assert len(list(map_reads_stream(mapper, iter(clean_reads)))) == len(clean_reads)


def test_empty_stream(mapper):
    assert list(map_reads_stream(mapper, iter([]), batch_bases=5)) == []


def test_requires_index(clean_reads):
    with pytest.raises(MappingError):
        list(map_reads_stream(JEMMapper(CFG), iter(clean_reads)))


def test_bad_batch_size(mapper, clean_reads):
    with pytest.raises(MappingError):
        list(map_reads_stream(mapper, iter(clean_reads), batch_bases=0))


def test_map_file_fastq(tmp_path, mapper, clean_reads):
    path = tmp_path / "reads.fastq"
    write_fastq(path, clean_reads)
    bulk = mapper.map_reads(clean_reads)
    got = np.concatenate(
        [batch.subject for batch in map_file(mapper, str(path), ell=CFG.ell, batch_bases=15_000)]
    )
    assert np.array_equal(got, bulk.subject)


@pytest.mark.parametrize("ends", [None, CFG.ell])
def test_a_fastq_batch_is_held_once_by_its_consumer(tmp_path, monkeypatch, clean_reads, ends):
    """Once ``iter_file_batches`` yields a FASTQ batch, the suspended
    generator holds neither the batch nor its records' codes: the batch
    is its consumer's alone, resident once.  The cuts are unchanged."""
    path = tmp_path / "reads.fastq"
    write_fastq(path, clean_reads)
    parsed = []
    iter_records = streaming.iter_records

    def tracked(*args, **kwargs):
        for record in iter_records(*args, **kwargs):
            parsed.append(weakref.ref(record.codes))
            yield record

    monkeypatch.setattr(streaming, "iter_records", tracked)
    batches = streaming.iter_file_batches(str(path), ends=ends, batch_bases=15_001)
    sizes = []
    while (batch := next(batches, None)) is not None:
        done, buffer = sum(sizes), weakref.ref(batch.buffer)
        sizes.append(len(batch))
        del batch
        assert buffer() is None, f"batch {len(sizes) - 1} outlives its consumer"
        assert all(ref() is None for ref in parsed[done : done + sizes[-1]])
    assert sizes == [3] * 6 + [2]


def test_map_reads_stream_maps_a_batch_whose_records_are_gone(monkeypatch, mapper, clean_reads):
    """While ``map_reads`` runs on a batch, the records it was built from
    are no longer held: the stream keeps one copy of the batch's codes."""
    from repro.seq import SeqRecord

    made = []

    def records():
        for i in range(len(clean_reads)):
            record = SeqRecord(clean_reads.names[i], clean_reads.codes_of(i).copy())
            made.append(weakref.ref(record.codes))
            yield record

    map_reads, mapped = mapper.map_reads, []

    def checked(batch):
        done = sum(mapped)
        assert all(ref() is None for ref in made[done : done + len(batch)])
        mapped.append(len(batch))
        return map_reads(batch)

    monkeypatch.setattr(mapper, "map_reads", checked)
    results = list(map_reads_stream(mapper, records(), batch_bases=15_001))
    assert mapped == [3] * 6 + [2]
    assert np.array_equal(
        np.concatenate([r.subject for r in results]), map_reads(clean_reads).subject
    )


def test_map_file_fasta_asks_for_blocks_lazily(tmp_path, monkeypatch, mapper, clean_reads):
    """The FASTA reader stays a stream: a block is read only when the batch
    being built needs it, so the resident set does not grow with the file."""
    path = tmp_path / "reads.fasta"
    write_fasta(path, clean_reads)
    block = 4096
    n_blocks = -(-path.stat().st_size // block)
    assert n_blocks > 20
    asked = []

    class CountingFile:
        def __init__(self, handle):
            self.handle = handle

        def read(self, size):
            assert size <= block
            asked.append(size)
            return self.handle.read(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

    open_binary = io_fasta._open_binary
    monkeypatch.setattr(io_fasta, "_BLOCK_BYTES", block)
    monkeypatch.setattr(io_fasta, "_open_binary", lambda p: CountingFile(open_binary(p)))
    batches = map_file(mapper, str(path), ell=CFG.ell, batch_bases=25_000)
    assert asked == []  # nothing is read before the first batch is asked for
    subjects = []
    asked_per_batch = []
    for batch in batches:
        subjects.append(batch.subject)
        asked_per_batch.append(len(asked))
    # 4 batches of 5 reads: each costs about a quarter of the file's blocks
    assert len(asked_per_batch) == 4
    assert asked_per_batch[0] <= n_blocks // 4 + 2
    assert asked_per_batch == sorted(asked_per_batch)
    assert asked_per_batch[-1] == n_blocks + 1  # the last read returns b""
    assert np.array_equal(np.concatenate(subjects), mapper.map_reads(clean_reads).subject)


@pytest.mark.parametrize("checkpointed", [False, True], ids=["plain", "unit"])
def test_a_mapped_batch_is_dead_once_the_next_is_built(tmp_path, monkeypatch, mapper, clean_reads, checkpointed):
    """``map_file`` holds no batch while the reader builds the next one:
    batch k's buffer is gone when batch k+1 is made, plain or through a
    checkpoint ``unit``."""
    path = tmp_path / "reads.fasta"
    write_fasta(path, clean_reads)
    file_batches, made = streaming.iter_file_batches, []

    def tracked(*args, **kwargs):
        batches = file_batches(*args, **kwargs)
        while True:
            assert all(ref() is None for ref in made), f"batch {len(made) - 1} outlives its mapping"
            held = [next(batches, None)]
            if held[0] is None:
                return
            made.append(weakref.ref(held[0].buffer))
            yield held.pop()

    monkeypatch.setattr(streaming, "iter_file_batches", tracked)
    unit = (lambda k, map_batch: map_batch()) if checkpointed else None
    results = list(map_file(mapper, str(path), ell=CFG.ell, batch_bases=10_000, unit=unit))
    assert len(made) == len(results) > 3
    bulk = mapper.map_reads(clean_reads)
    assert np.array_equal(np.concatenate([r.subject for r in results]), bulk.subject)
