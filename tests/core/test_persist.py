import os
import struct
import zipfile
import zlib

import numpy as np
import pytest

from repro.core import JEMConfig, JEMMapper
from repro.core.persist import (
    _CRC_BUFFER_BYTES,
    INDEX_FORMAT_VERSION,
    _content_checksum,
    file_crc32,
    load_index,
    save_index,
)
from repro.errors import IndexCorruptError, MappingError


CFG = JEMConfig(k=12, w=20, ell=500, trials=7, seed=31)

#: Relative positions spanning the whole bundle: header, member data,
#: central directory, and the very tail.
BOUNDARIES = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999)


def _saved_bundle(tmp_path, contigs) -> str:
    mapper = JEMMapper(CFG)
    mapper.index(contigs)
    return save_index(mapper, tmp_path / "idx")


def _deflated_bundle(tmp_path, contigs) -> str:
    """A v3 bundle as every commit before stored bundles wrote it: the
    same members through ``np.savez_compressed``."""
    with np.load(_saved_bundle(tmp_path, contigs)) as data:
        payload = {key: data[key] for key in data.files}
    path = str(tmp_path / "deflated.npz")
    np.savez_compressed(path, **payload)
    return path


def _member_data_spans(path) -> list[tuple[int, int, int]]:
    """``(header offset, data start, data end)`` of every zip member."""
    spans = []
    with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
        for info in zf.infolist():
            fh.seek(info.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            start = info.header_offset + 30 + name_len + extra_len
            spans.append((info.header_offset, start, start + info.compress_size))
    return spans


def _v2_bundle(tmp_path, contigs) -> str:
    """A legacy v2 bundle (packed uint64 keys) built by hand.

    Nothing in ``src/`` reads or writes this layout any more; the helper
    exists so the tests can prove an old bundle is *refused* with a typed
    error — pristine or damaged — instead of being misread as v3.
    """
    mapper = JEMMapper(CFG)
    mapper.index(contigs)
    store = mapper.table
    keys = [
        np.asarray(store.trial_keys(t), dtype=np.uint64)
        for t in range(store.trials)
    ]
    config_arr = np.array(
        [CFG.k, CFG.w, CFG.ell, CFG.trials, CFG.seed, CFG.min_hits],
        dtype=np.int64,
    )
    names_arr = np.array(mapper.subject_names)
    payload = {
        "format_version": np.int64(2),
        "config": config_arr,
        "n_subjects": np.int64(store.n_subjects),
        "subject_names": names_arr,
        "checksum": np.uint32(
            _content_checksum(config_arr, store.n_subjects, names_arr, keys)
        ),
    }
    for t, k in enumerate(keys):
        payload[f"trial_{t:03d}"] = k
    path = str(tmp_path / "v2.npz")
    np.savez_compressed(path, **payload)
    return path


BUNDLES = {"v3": _saved_bundle, "v3-deflated": _deflated_bundle, "v2": _v2_bundle}


def test_round_trip(tmp_path, tiling_contigs, clean_reads):
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    path = save_index(mapper, tmp_path / "idx")
    assert path.endswith(".npz")

    loaded = load_index(path)
    assert loaded.config == CFG
    assert loaded.subject_names == mapper.subject_names
    for t in range(CFG.trials):
        assert np.array_equal(
            loaded.table.trial_keys(t), mapper.table.trial_keys(t)
        )
    # mapping through the loaded index is identical
    expected = mapper.map_reads(clean_reads)
    got = loaded.map_reads(clean_reads)
    assert np.array_equal(got.subject, expected.subject)


@pytest.mark.parametrize("seed", [0, (1 << 63) - 1])
def test_every_seed_a_config_accepts_round_trips(tmp_path, tiling_contigs, seed):
    """The bundle stores the config as int64: JEMConfig refuses what it
    cannot hold (tests/core/test_config.py), and saves the rest."""
    mapper = JEMMapper(JEMConfig(k=12, w=20, ell=500, trials=3, seed=seed))
    mapper.index(tiling_contigs)
    assert load_index(save_index(mapper, tmp_path / "idx")).config.seed == seed


def test_bundle_members_are_stored_not_deflated(tmp_path, tiling_contigs):
    path = _saved_bundle(tmp_path, tiling_contigs)
    with zipfile.ZipFile(path) as zf:
        members = zf.infolist()
    assert {m.compress_type for m in members} == {zipfile.ZIP_STORED}
    assert all(m.compress_size == m.file_size for m in members)


def test_deflated_bundle_from_an_earlier_commit_still_loads(tmp_path, tiling_contigs):
    path = _deflated_bundle(tmp_path, tiling_contigs)
    with zipfile.ZipFile(path) as zf:
        assert {m.compress_type for m in zf.infolist()} == {zipfile.ZIP_DEFLATED}
    old = load_index(path)
    new = load_index(_saved_bundle(tmp_path, tiling_contigs))
    assert old.config == new.config
    assert old.subject_names == new.subject_names
    assert old.table.n_subjects == new.table.n_subjects
    for t in range(CFG.trials):
        assert np.array_equal(old.table.values[t], new.table.values[t])
        assert np.array_equal(old.table.subjects[t], new.table.subjects[t])


def test_load_without_suffix(tmp_path, tiling_contigs):
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    save_index(mapper, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")  # suffix auto-appended
    assert loaded.is_indexed


def test_unindexed_mapper_rejected(tmp_path):
    with pytest.raises(MappingError):
        save_index(JEMMapper(CFG), tmp_path / "idx")


def test_truncated_index_is_clear_error(tmp_path, tiling_contigs):
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    path = save_index(mapper, tmp_path / "idx")
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(raw[: len(raw) // 2])
    with pytest.raises(MappingError, match="corrupt|integrity") as excinfo:
        load_index(path)
    assert excinfo.value.__cause__ is not None  # root cause chained


def test_garbage_file_is_clear_error(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"this is not an npz bundle at all")
    with pytest.raises(MappingError):
        load_index(path)


def test_bitflip_fails_checksum(tmp_path, tiling_contigs):
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    path = save_index(mapper, tmp_path / "idx")
    with np.load(path) as data:
        payload = {key: data[key] for key in data.files}
    corrupted = payload["trial_000"].copy()
    corrupted[0] ^= 1
    payload["trial_000"] = corrupted
    np.savez_compressed(path, **payload)
    with pytest.raises(MappingError, match="integrity"):
        load_index(path)


def test_missing_key_is_clear_error(tmp_path, tiling_contigs):
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    path = save_index(mapper, tmp_path / "idx")
    with np.load(path) as data:
        payload = {key: data[key] for key in data.files if key != "trial_003"}
    np.savez_compressed(path, **payload)
    with pytest.raises(MappingError, match="corrupt"):
        load_index(path)


@pytest.mark.parametrize("bundle", list(BUNDLES))
@pytest.mark.parametrize("fraction", BOUNDARIES)
def test_truncation_at_every_boundary_is_typed_with_offset(
    tmp_path, tiling_contigs, bundle, fraction
):
    path = BUNDLES[bundle](tmp_path, tiling_contigs)
    raw = open(path, "rb").read()
    cut = max(1, int(len(raw) * fraction))
    with open(path, "wb") as fh:
        fh.write(raw[:cut])
    with pytest.raises(IndexCorruptError) as excinfo:
        load_index(path)
    # truncation kills the central directory: localised to the cut point
    assert excinfo.value.path == path
    assert excinfo.value.offset == cut
    assert "rebuild the index" in str(excinfo.value)


@pytest.mark.parametrize("bundle", list(BUNDLES))
@pytest.mark.parametrize("fraction", BOUNDARIES)
def test_bitflip_at_every_boundary_never_maps_silently_wrong(
    tmp_path, tiling_contigs, bundle, fraction
):
    """A single flipped byte either raises typed or provably changed nothing.

    Flips landing in zip bookkeeping (timestamps, attributes) decode to
    the same content — those must load with trial columns bit-identical
    to the pristine bundle.  Any flip that reaches decoded content must
    surface as :class:`IndexCorruptError`, never a wrong mapping.  A v2
    bundle never loads at all: damaged it is corrupt, intact-looking it
    is the typed "format 2 unsupported" refusal.

    In a stored bundle a flip inside a member lands in raw ``.npy`` bytes
    with no inflate step to trip over: the zip member CRC is what catches
    it, before the content checksum is ever computed.
    """
    path = BUNDLES[bundle](tmp_path, tiling_contigs)
    pristine = load_index(_saved_bundle(tmp_path, tiling_contigs))
    raw = bytearray(open(path, "rb").read())
    offset = min(int(len(raw) * fraction), len(raw) - 1)
    hit_member = [
        header for header, start, end in _member_data_spans(path)
        if start <= offset < end
    ]
    raw[offset] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(raw))
    try:
        loaded = load_index(path)
    except IndexCorruptError as exc:
        assert exc.path == path
        if bundle == "v3" and hit_member:
            assert isinstance(exc.__cause__, zipfile.BadZipFile)
            assert "Bad CRC-32" in str(exc.__cause__)
            assert exc.offset == hit_member[0]
    except MappingError as exc:
        assert bundle == "v2" and "index format 2 unsupported" in str(exc)
    else:
        assert bundle != "v2" and not hit_member
        assert loaded.config == pristine.config
        assert loaded.subject_names == pristine.subject_names
        for t in range(loaded.config.trials):
            assert np.array_equal(
                loaded.table.trial_keys(t), pristine.table.trial_keys(t)
            )


def test_member_bitflip_localises_to_an_offset(tmp_path, tiling_contigs):
    path = _saved_bundle(tmp_path, tiling_contigs)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF  # inside some member's data
    with open(path, "wb") as fh:
        fh.write(bytes(raw))
    with pytest.raises(IndexCorruptError) as excinfo:
        load_index(path)
    assert isinstance(excinfo.value.offset, int)
    assert 0 <= excinfo.value.offset <= len(raw)
    assert "offset" in str(excinfo.value)


def test_v2_bundle_rejected_with_rebuild_hint(tmp_path, tiling_contigs):
    """A pristine v2 bundle is refused, typed, telling the user to rebuild."""
    path = _v2_bundle(tmp_path, tiling_contigs)
    with pytest.raises(MappingError) as excinfo:
        load_index(path)
    assert not isinstance(excinfo.value, IndexCorruptError)
    assert "index format 2 unsupported" in str(excinfo.value)
    assert "rebuild the index" in str(excinfo.value)


def test_save_is_atomic_and_tolerates_stale_tmp(tmp_path, tiling_contigs):
    path = _saved_bundle(tmp_path, tiling_contigs)
    first = load_index(path)
    # a crashed earlier save can leave a stale tmp sibling behind
    stale = path + ".tmp.99999"
    with open(stale, "wb") as fh:
        fh.write(b"half-written garbage")
    loaded = load_index(path)  # the committed bundle is unaffected
    assert loaded.subject_names == first.subject_names
    # re-saving over the live bundle commits whole-file via rename
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    save_index(mapper, path)
    assert load_index(path).subject_names == first.subject_names
    assert not [
        name
        for name in os.listdir(os.path.dirname(path))
        if ".tmp." in name and name != os.path.basename(stale)
    ]


def test_streamed_bundle_equals_np_savez_of_the_same_payload(tmp_path, tiling_contigs):
    """The member-at-a-time writer writes what one ``np.savez`` call over the
    whole payload wrote — same members, same bytes in each, same checksum
    definition — and, asked to, returns the CRC32 of the file it committed."""
    import zlib

    from repro.core.persist import stacked_trials, write_bundle

    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    path = save_index(mapper, tmp_path / "idx")
    store = mapper.table
    config_arr = np.array(
        [CFG.k, CFG.w, CFG.ell, CFG.trials, CFG.seed, CFG.min_hits], dtype=np.int64
    )
    names_arr = np.array(mapper.subject_names)
    stacked = [np.stack([store.values[t], store.subjects[t]]) for t in range(store.trials)]
    payload = {
        "format_version": np.int64(INDEX_FORMAT_VERSION),
        "config": config_arr,
        "n_subjects": np.int64(store.n_subjects),
        "subject_names": names_arr,
        "checksum": np.uint32(
            _content_checksum(config_arr, store.n_subjects, names_arr, stacked)
        ),
        **{f"trial_{t:03d}": columns for t, columns in enumerate(stacked)},
    }
    reference = str(tmp_path / "savez.npz")
    np.savez(reference, **payload)
    with zipfile.ZipFile(path) as got, zipfile.ZipFile(reference) as want:
        assert sorted(got.namelist()) == sorted(want.namelist())
        for name in want.namelist():
            assert got.read(name) == want.read(name), name
    loaded = load_index(path)  # verifies the streamed checksum
    assert loaded.subject_names == mapper.subject_names
    assert [name for name, _ in stacked_trials(store)] == sorted(payload)[-CFG.trials:]

    segment = str(tmp_path / "segment.npz")
    assert write_bundle(segment, stacked_trials(store)) is None
    crc = write_bundle(segment, stacked_trials(store), file_crc=True)
    with open(segment, "rb") as fh:
        assert crc == zlib.crc32(fh.read())


def test_writer_killed_mid_bundle_leaves_the_previous_bundle_intact(
    tmp_path, tiling_contigs, monkeypatch
):
    """A save that dies while its third trial is being written has touched only
    its tmp file: the bundle under the name is the previous one, byte for byte."""
    from repro.core import persist

    path = _saved_bundle(tmp_path, tiling_contigs)
    with open(path, "rb") as fh:
        before = fh.read()
    other = JEMMapper(CFG)
    other.index(tiling_contigs.slice(0, 3))
    real = persist.stacked_trials

    def dying(store):
        for i, member in enumerate(real(store)):
            if i == 2:
                raise RuntimeError("killed mid-bundle")
            yield member

    monkeypatch.setattr(persist, "stacked_trials", dying)
    with pytest.raises(RuntimeError, match="killed mid-bundle"):
        save_index(other, path)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert len(load_index(path).subject_names) == len(tiling_contigs)
    tmp = f"{os.path.basename(path)}.tmp.{os.getpid()}"
    assert sorted(os.listdir(os.path.dirname(path))) == sorted([os.path.basename(path), tmp])
    monkeypatch.undo()
    save_index(other, path)  # the next save reuses the tmp name and commits
    assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
    assert len(load_index(path).subject_names) == 3


def _tiled_contigs(genome_bp: int):
    """A random genome cut into 2.5 kbp contigs: under the default config
    100 kbp of it is a 58 KB index, 300 kbp a 174 KB one."""
    from repro.seq import SequenceSetBuilder, random_codes

    genome = random_codes(genome_bp, np.random.default_rng(7))
    builder = SequenceSetBuilder()
    for i, start in enumerate(range(0, genome_bp - 2_500 + 1, 2_600)):
        builder.add(f"ctg_{i:06d}", genome[start : start + 2_500])
    return builder.build()


def _tiled_bundle(tmp_path, genome_bp: int) -> str:
    """A default-config index over :func:`_tiled_contigs`, saved."""
    mapper = JEMMapper(JEMConfig())
    mapper.index(_tiled_contigs(genome_bp))
    return save_index(mapper, tmp_path / f"tiled_{genome_bp}")


class TestFlatLoad:
    """A loaded bundle is held once: its rows land in two arrays, every
    trial's columns are views of them, and the fused kernel maps them there.
    A built index, whose trials are separate arrays, is mapped in place too."""

    def test_trial_columns_are_views_of_one_array_a_side(self, tmp_path, tiling_contigs):
        mapper = load_index(_saved_bundle(tmp_path, tiling_contigs))
        store = mapper.table
        columns = list(store.values), list(store.subjects)
        for side in columns:
            owner = side[0].base
            assert owner is not None and all(column.base is owner for column in side)
            assert all(np.shares_memory(column, owner) for column in side if column.size)
        values = np.arange(1, 65, dtype=np.uint64) * np.uint64(65_537)
        starts = np.arange(0, 64, 8, dtype=np.int64)
        if store.lookup_fused(values, starts, mapper.config.hash_family()) is not None:
            # the context pins those very views: nothing was folded or copied
            pinned = store._ctx._columns
            for held, now, kept in zip(columns, (store.values, store.subjects), pinned):
                assert all(a is b is c for a, b, c in zip(held, now, kept, strict=True))

    def test_load_peak_is_one_index(self, tmp_path):
        """Loading and the first fused lookup hold the index once: each
        further byte of index raises the peak by at most 1.4 bytes.

        The slope, not the ratio: what a load holds besides the index —
        the zip directory, header parses, the contig names, one member read
        whole — is ≈ 110 KB, as much as a tier-S index, so peak / index
        says little at that size.  The slope reads 1.1 (the index, plus
        the names and the one-member buffer that grow with it); loading
        every trial whole and then folding them, as the loader once did,
        reads 1.8.
        """
        import tracemalloc

        values = np.arange(1, 65, dtype=np.uint64) * np.uint64(65_537)
        starts = np.arange(0, 64, 8, dtype=np.int64)

        def load_peak(path: str) -> tuple[int, int]:
            load_index(path)  # imports and one-time caches out of the window
            tracemalloc.start()
            try:
                mapper = load_index(path)
                mapper.table.lookup_fused(values, starts, mapper.config.hash_family())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak, mapper.table.nbytes

        small, large = (load_peak(_tiled_bundle(tmp_path, bp)) for bp in (100_000, 300_000))
        slope = (large[0] - small[0]) / (large[1] - small[1])
        assert slope <= 1.4, (small, large)

    def test_a_built_index_is_held_once_through_its_first_fused_lookup(self):
        """The pair of :meth:`test_load_peak_is_one_index` for an index
        ``JEMMapper.index`` has just built: each further byte of index
        raises what its first fused lookup holds at its peak by at most
        1.3 bytes.  The slope reads 1.02 (the index, plus the query and
        per-call scratch); folding the trials into two flat arrays at the
        first lookup, one side at a time, read 1.51.  One kernel thread,
        so the build's scratch is the same on every host.
        """
        import tracemalloc

        config = JEMConfig()
        family = config.hash_family()
        values = np.arange(1, 65, dtype=np.uint64) * np.uint64(65_537)
        starts = np.arange(0, 64, 8, dtype=np.int64)
        # imports and one-time caches out of the window
        warm = JEMMapper(config, threads=1).index(_tiled_contigs(30_000))
        if warm.lookup_fused(values, starts, family) is None:
            pytest.skip("native kernels unavailable")

        def lookup_peak(genome_bp: int) -> tuple[int, int]:
            contigs = _tiled_contigs(genome_bp)
            tracemalloc.start()
            try:
                store = JEMMapper(config, threads=1).index(contigs)
                tracemalloc.reset_peak()  # the build's own scratch is not the question
                store.lookup_fused(values, starts, family)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak, store.nbytes

        small, large = lookup_peak(100_000), lookup_peak(300_000)
        slope = (large[0] - small[0]) / (large[1] - small[1])
        assert slope <= 1.3, (small, large)

    @pytest.mark.parametrize("damage", ["short", "long"])
    def test_member_with_the_wrong_length_is_typed(self, tmp_path, tiling_contigs, damage):
        """A member whose zip entry is intact but holds fewer (or more)
        bytes than its ``.npy`` header says is corrupt, never half-read."""
        import io

        path = _saved_bundle(tmp_path, tiling_contigs)
        damaged = str(tmp_path / "damaged.npz")
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(damaged, "w") as dst:
            for info in src.infolist():
                raw = src.read(info)
                if info.filename == "trial_002.npy":
                    buf = io.BytesIO()
                    np.lib.format.write_array(buf, np.load(io.BytesIO(raw)))
                    raw = buf.getvalue()
                    raw = raw[:-5] if damage == "short" else raw + b"\x00" * 8
                dst.writestr(info, raw)
        with pytest.raises(IndexCorruptError, match="trial_002") as excinfo:
            load_index(damaged)
        assert excinfo.value.path == damaged

    @pytest.mark.parametrize(
        "bad",
        [
            lambda cols: cols.astype(np.int64),
            lambda cols: cols.astype(">u4"),
            lambda cols: np.asfortranarray(cols),
            lambda cols: cols[0],
            lambda cols: np.vstack([cols, cols[:1]]),
        ],
        ids=["int64", "big-endian", "fortran", "one-row", "three-rows"],
    )
    def test_member_with_the_wrong_dtype_or_shape_is_typed(
        self, tmp_path, tiling_contigs, bad
    ):
        """Even under a checksum recomputed over it, a trial member that is
        not (2, n) native uint32 in C order is refused, not cast."""
        path = _saved_bundle(tmp_path, tiling_contigs)
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        payload["trial_001"] = bad(payload["trial_001"])
        trials = [payload[f"trial_{t:03d}"] for t in range(CFG.trials)]
        payload["checksum"] = np.uint32(
            _content_checksum(
                payload["config"], int(payload["n_subjects"]),
                payload["subject_names"], trials,
            )
        )
        np.savez(path, **payload)
        with pytest.raises(IndexCorruptError, match="trial_001"):
            load_index(path)


def test_version_check(tmp_path, tiling_contigs):
    mapper = JEMMapper(CFG)
    mapper.index(tiling_contigs)
    path = save_index(mapper, tmp_path / "idx")
    with np.load(path) as data:
        payload = {key: data[key] for key in data.files}
    payload["format_version"] = np.int64(INDEX_FORMAT_VERSION + 1)
    np.savez_compressed(path, **payload)
    with pytest.raises(MappingError, match="format"):
        load_index(path)


class TestFileCrc32:
    """``file_crc32`` is ``zlib.crc32`` of the file from its position on,
    read through one reused buffer: every v4 segment write and load
    checks its file through it."""

    B = _CRC_BUFFER_BYTES

    @pytest.mark.parametrize("size", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("start", [0, 5])
    def test_equals_the_crc_of_the_whole_file(self, tmp_path, size, start):
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        path = tmp_path / "blob"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            fh.seek(start)
            assert file_crc32(fh) == zlib.crc32(data[start:])
            assert fh.read() == b""

    def test_reading_back_a_4_mib_file_holds_one_buffer(self, tmp_path):
        """The read-back's peak is the buffer, not the file: at most one
        buffer plus 64 KiB, where reading fresh 1 MiB pieces peaked at
        ≈ 2 MiB (the next piece allocated before the last was freed)."""
        import tracemalloc

        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(4).bytes(4 << 20))
        with open(path, "rb") as fh:
            file_crc32(fh)  # imports and one-time caches out of the window
            fh.seek(0)
            tracemalloc.start()
            try:
                file_crc32(fh)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= self.B + (64 << 10), peak
