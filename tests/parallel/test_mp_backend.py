import numpy as np
import pytest

from repro.core import JEMConfig, JEMMapper
from repro.errors import CommError
from repro.parallel.mp_backend import map_reads_multiprocess


CFG = JEMConfig(k=12, w=20, ell=500, trials=6, seed=21)


@pytest.fixture(scope="module")
def world():
    from repro.seq import SequenceSet, SequenceSetBuilder, decode, random_codes

    rng = np.random.default_rng(77)
    genome = random_codes(15_000, rng)
    contigs = []
    pos = 0
    i = 0
    while pos < genome.size:
        end = min(pos + 1_500, genome.size)
        contigs.append((f"c{i}", decode(genome[pos:end])))
        pos = end
        i += 1
    builder = SequenceSetBuilder()
    for j in range(10):
        start = int(rng.integers(0, genome.size - 4_000))
        builder.add(f"r{j}", genome[start : start + 4_000])
    return SequenceSet.from_strings(contigs), builder.build()


def test_single_process_path(world):
    contigs, reads = world
    seq = JEMMapper(CFG)
    seq.index(contigs)
    expected = seq.map_reads(reads)
    got = map_reads_multiprocess(contigs, reads, CFG, processes=1)
    assert np.array_equal(got.subject, expected.subject)
    assert got.segment_names == expected.segment_names


@pytest.mark.parametrize("processes", [2, 3])
def test_multiprocess_matches_sequential(world, processes):
    contigs, reads = world
    seq = JEMMapper(CFG)
    seq.index(contigs)
    expected = seq.map_reads(reads)
    got = map_reads_multiprocess(contigs, reads, CFG, processes=processes)
    assert np.array_equal(got.subject, expected.subject)
    assert np.array_equal(got.hit_count, expected.hit_count)
    assert got.segment_names == expected.segment_names


def test_infos_globalised(world):
    contigs, reads = world
    got = map_reads_multiprocess(contigs, reads, CFG, processes=2)
    assert [si.read_index for si in got.infos] == [
        i for r in range(len(reads)) for i in (r, r)
    ]


def test_invalid_processes(world):
    contigs, reads = world
    with pytest.raises(CommError):
        map_reads_multiprocess(contigs, reads, CFG, processes=0)


def test_workers_run_one_kernel_thread_each(world, monkeypatch):
    """The worker processes are the parallelism, one per core: whatever
    ``thread_count()`` says, a worker's S2 and S4 ask the kernels for one
    thread — N workers x CPUs threads otherwise — and change no answer."""
    from repro.core.store import ColumnarSketchStore, merge_trial_keys
    from repro.parallel import mp_backend
    from repro.sketch import _native

    contigs, reads = world
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
    monkeypatch.setattr(_native, "MIN_THREAD_BASES", 1)
    monkeypatch.setattr(_native, "MIN_THREAD_ENTRIES", 1)
    asked = []
    real = _native.thread_count

    def spy(requested=None):
        asked.append(requested)
        return real(requested)

    monkeypatch.setattr(_native, "thread_count", spy)
    keys = mp_backend._sketch_worker((contigs, CFG, 0, ()))
    store = ColumnarSketchStore.from_trial_keys(merge_trial_keys([keys]), n_subjects=len(contigs))
    got = mp_backend._map_worker((reads, CFG, store, ()))
    if _native.load() is not None:
        assert asked and set(asked) == {mp_backend.WORKER_KERNEL_THREADS} == {1}
    seq = JEMMapper(CFG)
    seq.index(contigs)
    expected = seq.map_reads(reads)
    assert np.array_equal(got.subject, expected.subject)
    assert np.array_equal(got.hit_count, expected.hit_count)
