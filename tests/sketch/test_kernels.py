"""Equivalence of the two tiers of each sketch kernel, and the ``(T, n)``
helpers around them.

S2 and S4-sketch are a C kernel and one per-trial numpy function each; the
public entry points must be *bit-identical* whichever runs, so the parity
cases run them twice — as the host would, and under ``REPRO_NO_NATIVE=1``
(numpy S1 feeding the numpy oracle: nothing shared with the native arm).
"""

import contextlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SketchError
from repro.seq import SequenceSet, random_codes
from repro.sketch import (
    HashFamily,
    jem_sketch_single,
    minhash_sketch_set,
    minimizers,
    pack_key,
    query_kernel,
    query_sketch_values,
    subject_kernel,
    subject_sketch_pairs,
)
from repro.sketch.jem import subject_intervals
from repro.sketch import _native
from repro.sketch import jem as jem_mod
from repro.sketch import kernels as kernels_mod
from repro.sketch.kernels import (
    key_scratch,
    pack_keys_batched,
    sorted_unique_rows,
    trial_chunks,
)

FAMILY = HashFamily.generate(7, seed=13)


@contextlib.contextmanager
def numpy_arm():
    """The numpy arm: ``_native.load()`` reads the switch on every call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NO_NATIVE", "1")
        yield


def _random_set(rng, n, max_len=3000, with_n_runs=True):
    """A set with short/long/empty/all-N sequences mixed in."""
    records = []
    for i in range(n):
        kind = rng.integers(0, 6)
        if kind == 0:
            codes = np.empty(0, dtype=np.uint8)  # empty sequence
        elif kind == 1:
            codes = np.full(int(rng.integers(5, 60)), 4, dtype=np.uint8)  # all N
        elif kind == 2:
            codes = random_codes(int(rng.integers(1, 20)), rng)  # < k / 1 window
        else:
            codes = random_codes(int(rng.integers(20, max_len)), rng)
            if with_n_runs and codes.size > 50:
                lo = int(rng.integers(0, codes.size - 10))
                codes[lo : lo + 10] = 4  # interior invalid run
        records.append((f"s{i}", codes))
    from repro.seq import SequenceSetBuilder

    builder = SequenceSetBuilder()
    for name, codes in records:
        builder.add(name, codes)
    return builder.build()


# -- hash family ---------------------------------------------------------------

def test_apply_all_rows_match_apply_and_scalar():
    x = np.random.default_rng(0).integers(0, 1 << 32, size=200, dtype=np.uint64)
    matrix = FAMILY.apply_all(x)
    assert matrix.shape == (FAMILY.size, x.size)
    for t in range(FAMILY.size):
        assert np.array_equal(matrix[t], FAMILY.apply(t, x))
    for t in range(FAMILY.size):
        for xi in x[:5]:
            assert int(matrix[t, np.flatnonzero(x == xi)[0]]) == FAMILY.apply_scalar(
                t, int(xi)
            )


def test_apply_all_empty_input():
    out = FAMILY.apply_all(np.empty(0, dtype=np.uint64))
    assert out.shape == (FAMILY.size, 0)


def test_apply_all_out_buffer_reused_and_validated():
    x = np.arange(64, dtype=np.uint64)
    buf = np.empty((FAMILY.size, x.size), dtype=np.uint64)
    out = FAMILY.apply_all(x, out=buf)
    assert out is buf
    assert np.array_equal(buf, FAMILY.apply_all(x))
    with pytest.raises(SketchError):
        FAMILY.apply_all(x, out=np.empty((FAMILY.size, x.size + 1), dtype=np.uint64))
    with pytest.raises(SketchError):
        FAMILY.apply_all(x, out=np.empty((FAMILY.size, x.size), dtype=np.int64))


def test_trial_slice_matches_rows():
    x = np.arange(50, dtype=np.uint64)
    sub = FAMILY.trial_slice(2, 5)
    assert sub.size == 3
    assert np.array_equal(sub.apply_all(x), FAMILY.apply_all(x)[2:5])


def test_trial_slice_rejects_bad_bounds():
    with pytest.raises(SketchError):
        FAMILY.trial_slice(3, 3)
    with pytest.raises(SketchError):
        FAMILY.trial_slice(0, FAMILY.size + 1)


# -- packing / dedupe kernels --------------------------------------------------

def test_pack_keys_batched_matches_pack_key():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 1 << 32, size=(4, 50), dtype=np.uint64)
    subjects = rng.integers(0, 1 << 31, size=50, dtype=np.uint64)
    packed = pack_keys_batched(values, subjects)
    for t in range(4):
        assert np.array_equal(packed[t], pack_key(values[t], subjects))


def test_pack_keys_batched_validates_once():
    bad = np.full((2, 3), 1 << 32, dtype=np.uint64)
    ok = np.zeros(3, dtype=np.uint64)
    with pytest.raises(SketchError):
        pack_keys_batched(bad, ok)
    with pytest.raises(SketchError):
        pack_keys_batched(np.zeros((2, 3), dtype=np.uint64), bad[0])


def test_sorted_unique_rows_matches_np_unique():
    rng = np.random.default_rng(4)
    keys = rng.integers(0, 50, size=(6, 200), dtype=np.uint64)
    expected = [np.unique(keys[t]) for t in range(6)]
    got = sorted_unique_rows(keys.copy())
    for exp, row in zip(expected, got):
        assert np.array_equal(row, exp)


def test_sorted_unique_rows_empty_columns():
    rows = sorted_unique_rows(np.empty((3, 0), dtype=np.uint64))
    assert len(rows) == 3
    assert all(r.size == 0 for r in rows)


def test_sorted_unique_rows_results_are_copies():
    keys = key_scratch(2, 10)
    keys[...] = np.arange(20, dtype=np.uint64).reshape(2, 10)
    rows = sorted_unique_rows(keys)
    keys[...] = 0  # clobber the scratch; results must not change
    assert np.array_equal(rows[0], np.arange(10, dtype=np.uint64))


def test_key_scratch_reuses_buffer_and_is_thread_local():
    a = key_scratch(3, 5)
    b = key_scratch(3, 5)
    assert a.base is b.base  # same backing allocation on one thread
    other: list = []
    t = threading.Thread(target=lambda: other.append(key_scratch(3, 5)))
    t.start()
    t.join()
    assert other[0].base is not a.base


def test_trial_chunks_cover_and_respect_budget():
    chunks = trial_chunks(10, 1000, budget=5000)
    assert [len(c) for c in chunks] == [5, 5]
    flat = [t for c in chunks for t in c]
    assert flat == list(range(10))
    chunks = trial_chunks(10, 10**9, budget=1)  # degrade to per-trial, not fail
    assert all(len(c) == 1 for c in chunks)


# -- public entry points: native run vs REPRO_NO_NATIVE=1 ----------------------

CASES = [(16, 100, 1000), (12, 20, 500), (8, 1, 50), (5, 7, 10)]


@pytest.mark.parametrize("k,w,ell", CASES)
def test_subject_pairs_match_reference(k, w, ell):
    seqs = _random_set(np.random.default_rng(k * 100 + w), 25)
    got = subject_sketch_pairs(seqs, k, w, ell, FAMILY, subject_id_offset=7)
    with numpy_arm():
        expected = subject_sketch_pairs(seqs, k, w, ell, FAMILY, subject_id_offset=7)
    assert len(got) == len(expected) == FAMILY.size
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


@pytest.mark.parametrize("k,w,ell", CASES)
def test_query_values_match_reference(k, w, ell):
    seqs = _random_set(np.random.default_rng(k * 7 + w), 25, max_len=800)
    got = query_sketch_values(seqs, k, w, FAMILY)
    with numpy_arm():
        expected = query_sketch_values(seqs, k, w, FAMILY)
    assert np.array_equal(got.has, expected.has)
    assert np.array_equal(got.values[:, got.has], expected.values[:, expected.has])


def test_query_values_match_single_sketch():
    """Cross-check: the query kernel == per-sequence jem_sketch_single."""
    k, w = 12, 20
    seqs = _random_set(np.random.default_rng(5), 10)
    got = query_sketch_values(seqs, k, w, FAMILY)
    for i in range(len(seqs)):
        minis = minimizers(seqs.codes_of(i), k, w)
        if len(minis) == 0:
            assert not got.has[i]
            continue
        assert got.has[i]
        assert np.array_equal(got.values[:, i], jem_sketch_single(minis, FAMILY))


def test_chunked_execution_is_bit_identical(monkeypatch):
    """Shrinking the thresholds forces the multi-call paths (S2's trials
    spread over threads, MinHash's packed matrix in chunks); output
    unchanged."""
    seqs = _random_set(np.random.default_rng(11), 20)
    k, w, ell = 12, 20, 500
    whole_subject = subject_sketch_pairs(seqs, k, w, ell, FAMILY, threads=1)
    whole_minhash, whole_has = minhash_sketch_set(seqs, k, FAMILY)
    monkeypatch.setattr(_native, "MIN_THREAD_ENTRIES", 1)
    monkeypatch.setattr(kernels_mod, "MAX_BATCH_ELEMS", 256)
    chunked_subject = subject_sketch_pairs(seqs, k, w, ell, FAMILY, threads=3)
    chunked_minhash, chunked_has = minhash_sketch_set(seqs, k, FAMILY)
    for a, b in zip(whole_subject, chunked_subject):
        assert np.array_equal(a, b)
    assert np.array_equal(whole_has, chunked_has)
    assert np.array_equal(whole_minhash[:, whole_has], chunked_minhash[:, chunked_has])


def _dedupe_defeating_set(rng):
    """Contigs on which dropping only *adjacent* repeats is not a dedupe: one
    k-mer run recurs in a contig more than ℓ apart (the same key, far from its
    first copy) and in another contig; contigs shorter than k sit between the
    long ones (owners with no minimizers, so subject ids jump)."""
    from repro.seq import SequenceSetBuilder

    motif = random_codes(60, rng)
    twice = np.concatenate(
        [random_codes(400, rng), motif, random_codes(900, rng), motif, random_codes(300, rng)]
    )
    builder = SequenceSetBuilder()
    for name, codes in (
        ("long_a", random_codes(2_000, rng)),
        ("tiny_1", random_codes(5, rng)),
        ("twice", twice),
        ("tiny_2", random_codes(11, rng)),
        ("empty", np.empty(0, dtype=np.uint8)),
        ("shares_motif", np.concatenate([random_codes(200, rng), motif, random_codes(700, rng)])),
        ("periodic", np.tile(random_codes(37, rng), 40)),
    ):
        builder.add(name, codes)
    return builder.build()


@pytest.mark.parametrize("no_native", [False, True])
@pytest.mark.parametrize("offset", [0, (1 << 32) - 8])
def test_subject_pairs_survive_far_apart_repeats(monkeypatch, no_native, offset):
    """The native kernel drops a key equal to the previous interval's; the
    repeats that rule cannot see must still be deduped — on one thread and
    spread over three, with subject ids up against 2^32 - 1, on either
    backend."""
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    seqs = _dedupe_defeating_set(np.random.default_rng(5))
    k, w, ell = 12, 10, 300
    with numpy_arm():
        want = subject_sketch_pairs(seqs, k, w, ell, FAMILY, subject_id_offset=offset)
    # the input does defeat adjacent-only dedupe: in some trial, dropping the
    # keys equal to their left neighbour leaves more than the distinct ones
    from repro.sketch.jem import _subject_minimizer_block

    values, positions, owner = _subject_minimizer_block(seqs, k, w, ell)
    ends = np.searchsorted(positions, positions + ell, side="right")
    leftovers = 0
    for t in range(FAMILY.size):
        hashed = FAMILY.apply(t, values)
        raw = np.array([
            (int(values[i + np.argmin(hashed[i:e])]) << 32) | (int(owner[i]) + offset)
            for i, e in enumerate(ends)
        ], dtype=np.uint64)
        assert np.array_equal(np.unique(raw), want[t])
        leftovers += np.count_nonzero(raw[1:] != raw[:-1]) + 1 - want[t].size
    assert leftovers > 0
    monkeypatch.setattr(_native, "MIN_THREAD_ENTRIES", 1)  # any row is worth a thread
    for threads in (1, 3):  # 3: trials taken one at a time by three threads
        got = subject_sketch_pairs(
            seqs, k, w, ell, FAMILY, subject_id_offset=offset, threads=threads
        )
        assert len(got) == FAMILY.size
        for g, e in zip(got, want):
            assert g.dtype == np.uint64 and np.array_equal(g, e)
    with pytest.raises(SketchError, match="subject ids must fit"):
        subject_sketch_pairs(seqs, k, w, ell, FAMILY, subject_id_offset=(1 << 32) - 3)


class _SpyNumpy:
    """What ``_native`` sees as ``np``: ``empty`` records each array's size."""

    def __init__(self) -> None:
        self.nbytes: list[int] = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        arr = np.empty(*args, **kwargs)
        self.nbytes.append(arr.nbytes)
        return arr


def _random_contigs(rng, lengths) -> SequenceSet:
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return SequenceSet(
        random_codes(int(offsets[-1]), rng), offsets, [f"c{i}" for i in range(len(lengths))]
    )


@pytest.mark.skipif(_native.load() is None, reason="no C compiler available")
def test_native_subject_kernel_scratch_stays_row_sized(monkeypatch):
    """Sketching a tier-L-sized contig set (≈ 170k minimizers x 30 trials) on
    two threads takes a window and a row of n entries a thread and nothing
    else: no array larger than the n-entry deque the kernel once kept, and
    no (T, n) key matrix, though the trials' keys would not fit one row."""
    rng = np.random.default_rng(3)
    contigs = _random_contigs(rng, rng.integers(1_500, 4_500, size=2_600))
    family = HashFamily.generate(30, seed=1)
    values, ends, subject_ids = subject_intervals(contigs, 16, 100, 1000)
    spy = _SpyNumpy()
    monkeypatch.setattr(_native, "np", spy)
    keys = subject_kernel(values, ends, subject_ids, family, threads=2)
    assert sum(k.size for k in keys) > values.size > 100_000
    assert spy.nbytes == [values.nbytes] * 4


@pytest.mark.skipif(_native.load() is None, reason="no C compiler available")
def test_fixed_scratches_stay_under_numpys_huge_page_line(monkeypatch):
    """Numpy asks for transparent huge pages from NUMPY_HUGEPAGE_BYTES on,
    and a sparsely written huge page is resident whole: every array S1
    takes for one full ``_BLOCK_BASES`` run, and every array S2 takes for a
    2-Mi-base contig block of the benchmark's shape (1-4.5 kb contigs,
    k = 16, w = 100, ℓ = 1000), stay below that line."""
    from repro.core.streaming import BATCH_BASES

    line = _native.NUMPY_HUGEPAGE_BYTES
    spy = _SpyNumpy()
    monkeypatch.setattr(_native, "np", spy)
    rng = np.random.default_rng(4)
    count = 2 * _native._BLOCK_BASES // 1_000
    contigs = _random_contigs(rng, np.full(count, 1_000))
    _native.load().minimizer_block(contigs.buffer, contigs.offsets, 16, 100, threads=1)
    assert (_native._BLOCK_BASES - 1_000) * 8 <= max(spy.nbytes) < line  # a full run's

    lengths = rng.integers(1_000, 4_500, size=BATCH_BASES // 2_750)
    block = _random_contigs(rng, lengths[: np.searchsorted(np.cumsum(lengths), BATCH_BASES)])
    intervals = subject_intervals(block, 16, 100, 1000)
    spy.nbytes.clear()
    subject_kernel(*intervals, HashFamily.generate(30, seed=1), threads=2)
    assert spy.nbytes == [intervals[0].nbytes] * 4 and max(spy.nbytes) < line


def test_empty_and_degenerate_sets():
    empty = SequenceSet.empty()
    pairs = subject_sketch_pairs(empty, 12, 20, 500, FAMILY)
    assert all(p.size == 0 for p in pairs)
    sketches = query_sketch_values(empty, 12, 20, FAMILY)
    assert sketches.values.shape == (FAMILY.size, 0)
    all_n = SequenceSet.from_strings([("n1", "n" * 40), ("n2", "n" * 25)])
    pairs = subject_sketch_pairs(all_n, 12, 20, 500, FAMILY)
    with numpy_arm():
        ref = subject_sketch_pairs(all_n, 12, 20, 500, FAMILY)
    for g, e in zip(pairs, ref):
        assert np.array_equal(g, e)
    sketches = query_sketch_values(all_n, 12, 20, FAMILY)
    assert not sketches.has.any()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(4, 16),
    w=st.integers(1, 40),
    ell=st.integers(1, 800),
    trials=st.integers(1, 9),
)
def test_fuzzed_parity_subject_and_query(seed, k, w, ell, trials):
    family = HashFamily.generate(trials, seed=seed % 97)
    seqs = _random_set(np.random.default_rng(seed), 8, max_len=600)
    got = subject_sketch_pairs(seqs, k, w, ell, family)
    gq = query_sketch_values(seqs, k, w, family)
    with numpy_arm():
        exp = subject_sketch_pairs(seqs, k, w, ell, family)
        eq = query_sketch_values(seqs, k, w, family)
    for g, e in zip(got, exp):
        assert np.array_equal(g, e)
    assert np.array_equal(gq.has, eq.has)
    assert np.array_equal(gq.values[:, gq.has], eq.values[:, eq.has])


# -- compiled fast path --------------------------------------------------------
#
# The parity tests above go through the public entry points (S1 included).
# These pin down the kernels themselves: the kill switch must route around
# the compiled path — straight to the per-trial function, with no numpy tier
# of its own in between — and where a compiler is available the two must
# agree bit for bit on the same direct kernel inputs.

def _kernel_inputs(seed, trials=5):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    values = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    # non-decreasing interval ends with ends[i] > i, as searchsorted produces
    ends = np.maximum.accumulate(
        np.arange(1, n + 1) + rng.integers(0, 30, size=n)
    ).clip(max=n)
    subject_ids = rng.integers(0, 1 << 16, size=n, dtype=np.uint64)
    nseg = int(rng.integers(1, min(n, 40) + 1))
    starts = np.unique(
        np.concatenate([[0], rng.integers(0, n, size=nseg - 1)])
    ).astype(np.int64)
    family = HashFamily.generate(trials, seed=seed % 89 + 1)
    return values, ends.astype(np.int64), subject_ids, starts, family


def test_kill_switch_disables_native(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert _native.load() is None


def test_numpy_fallback_matches_reference(monkeypatch):
    """With the compiled path disabled each kernel *is* its per-trial
    function: one call in, the same arguments passed on once, its return
    value handed back — a second numpy tier would break one of the three."""
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    calls = []

    def spy_on(name):
        real = getattr(jem_mod, name)

        def spy(*args):
            out = real(*args)
            calls.append((name, args, out))
            return out

        monkeypatch.setattr(jem_mod, name, spy)

    spy_on("subject_kernel_reference")
    spy_on("query_kernel_reference")
    values, ends, subject_ids, starts, family = _kernel_inputs(1)
    got_subject = subject_kernel(values, ends, subject_ids, family, threads=2)
    got_query = query_kernel(values, starts, family)
    (name_s, args_s, out_s), (name_q, args_q, out_q) = calls
    assert (name_s, name_q) == ("subject_kernel_reference", "query_kernel_reference")
    assert all(a is b for a, b in zip(args_s, (values, ends, subject_ids, family)))
    assert all(a is b for a, b in zip(args_q, (values, starts, family)))
    assert got_subject is out_s and got_query is out_q


@pytest.mark.skipif(_native.load() is None, reason="no C compiler available")
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_native_and_numpy_backends_bit_identical(seed):
    values, ends, subject_ids, starts, family = _kernel_inputs(seed)
    nat_subject = subject_kernel(values, ends, subject_ids, family)
    nat_query = query_kernel(values, starts, family)
    with numpy_arm():
        np_subject = subject_kernel(values, ends, subject_ids, family)
        np_query = query_kernel(values, starts, family)
    for a, b in zip(nat_subject, np_subject):
        assert np.array_equal(a, b)
    assert np.array_equal(nat_query, np_query)


@pytest.mark.skipif(_native.load() is None, reason="no C compiler available")
def test_native_compile_is_cached(tmp_path, monkeypatch):
    """A second load in a fresh cache dir compiles once and reuses the .so."""
    from repro import _native_build

    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    first = _native_build.library()
    stamp = first.stat().st_mtime_ns
    second = _native_build.library()
    assert first == second
    assert second.stat().st_mtime_ns == stamp
